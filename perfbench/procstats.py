"""Host and process measurements read from /proc: CPU-busy share, summed
PSS of a process tree, host shape, and process-group teardown.

Only the standard library and NumPy; importable without Ray.
"""

from __future__ import annotations

import os
import signal
import threading
import time


def cpu_jiffies() -> tuple[int, int]:
    """(busy, total) jiffies of the aggregate ``cpu`` line of /proc/stat.
    Idle and iowait count as not busy."""
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu "):
                v = [int(x) for x in line.split()[1:]]
                total = sum(v[:8])  # guest time is already in user/nice
                return total - v[3] - v[4], total
    raise RuntimeError("/proc/stat has no aggregate cpu line")


def busy_frac(start: tuple[int, int], end: tuple[int, int]) -> float:
    """CPU-busy share between two ``cpu_jiffies`` readings (0..1)."""
    dt = end[1] - start[1]
    return (end[0] - start[0]) / dt if dt > 0 else 0.0


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    # fields after the parenthesised command name: state, ppid, pgrp, ...
    return s[s.rfind(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it in the parent tree."""
    children: dict[int, list[int]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        f = _stat_fields(pid)
        if f is None or f[0] == "Z":
            continue
        children.setdefault(int(f[1]), []).append(int(pid))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def pss_kb(pid: int) -> int:
    """Proportional set size of one process (0 if it is gone). Shared pages,
    such as the object store mapping, are split between their users, so a
    sum over processes counts each page once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb(root: int) -> float:
    return sum(pss_kb(p) for p in descendants(root)) / 1024.0


class PeakPss:
    """Background sampler of the peak summed PSS of ``root``'s process tree
    (the session process plus every Ray process it started)."""

    def __init__(self, root: int, interval: float = 0.5):
        self.root = root
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakPss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root))


def mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/meminfo has no MemTotal")


def mem_bandwidth_gbps(mb: int = 64, reps: int = 5) -> float:
    """Single-stream copy bandwidth: the best of ``reps`` copies of an
    ``mb``-MB array, counting read plus write bytes."""
    import numpy as np

    a = np.ones(mb * 2**20 // 8)
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(b, a)
        best = min(best, time.perf_counter() - t0)
    return 2 * a.nbytes / best / 1e9


def host_shape() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_total_mb(), 1),
        "mem_bandwidth_gbps": round(mem_bandwidth_gbps(), 2),
    }


def group_members(pgid: int) -> list[int]:
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        f = _stat_fields(pid)
        if f is not None and f[0] != "Z" and int(f[2]) == pgid:
            out.append(int(pid))
    return out


def stop_group(pgid: int, grace: float = 5.0) -> None:
    """Stop every process of group ``pgid`` and wait until none is left:
    SIGTERM, then SIGKILL after ``grace`` seconds."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
        if not group_members(pgid):
            return
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.1)
    if group_members(pgid):
        raise RuntimeError(f"process group {pgid} survived SIGKILL")
