"""Per-stage checkpoint/resume with lineage (T14).

The reference has no recovery: any failure frees and aborts, and a crash
restarts the whole file (``/root/reference/src/compressor.c:116-123``; §4.1).
The graft checkpoints every stage boundary:

    <run_dir>/<stage>/            part-*.parquet + _manifest.json

Manifest fields: stage name, config_hash (refuses resume under a different
config — generalizing the header re-validation at ``compressor.c:246-252``),
upstream stage names, row count, and ``complete`` (written last, atomically,
via write-tmp-then-rename). Union-find rounds checkpoint as ``labels_r{k}``
— that is the mid-shuffle resume granularity: a killed job re-enters at the
last finished propagation round.
"""

from __future__ import annotations

import os
import shutil
from typing import Callable

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.sources import storage


class CheckpointedRun:
    """Orchestrates stage execution with skip-if-complete semantics."""

    def __init__(self, run_dir: str, cfg: DedupConfig, strict_resume: bool = False):
        self.run_dir = run_dir
        self.cfg = cfg
        # strict_resume=True (the explicit CLI ``resume`` verb) refuses to
        # touch checkpoints written under a different config — the R15 header
        # re-validation analog. Default (fresh ``run``): a stale-config
        # checkpoint is just a cache miss — wipe and recompute.
        self.strict_resume = strict_resume
        os.makedirs(run_dir, exist_ok=True)
        self.skipped: list[str] = []   # stages resumed from checkpoint
        self.executed: list[str] = []  # stages computed this run
        self.timings: dict[str, float] = {}  # stage -> wall seconds (this run)
        self._pending: list = []       # (stage, thread, errbox) deferred commits

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.run_dir, stage)

    def is_complete(self, stage: str) -> bool:
        m = storage.read_manifest(self.stage_dir(stage))
        return bool(m and m.get("complete") and m.get("config_hash") == self.cfg.config_hash())

    def run_stage(
        self,
        stage: str,
        fn: Callable[[], ray.data.Dataset],
        upstream: list[str] | None = None,
    ) -> ray.data.Dataset:
        """Execute ``fn`` unless a complete, config-matching checkpoint exists.

        The stage output is always persisted to Parquet and re-read, so
        downstream stages consume the checkpoint (identical lineage whether
        this run computed the stage or a previous one did).
        """
        sdir = self.stage_dir(stage)
        if self.is_complete(stage):
            self.skipped.append(stage)
            return storage.read_table(sdir)

        m = storage.read_manifest(sdir)
        if m is not None and m.get("config_hash") != self.cfg.config_hash():
            if self.strict_resume:
                raise RuntimeError(
                    f"checkpoint {sdir} was written under config "
                    f"{m.get('config_hash')}; current config is "
                    f"{self.cfg.config_hash()} — refusing to resume (delete "
                    "the run dir or use a fresh one)"
                )
            # fresh-run semantics: stale-config checkpoint == cache miss

        if os.path.isdir(sdir):
            shutil.rmtree(sdir)  # partial output from a killed run
        os.makedirs(sdir, exist_ok=True)
        import time as _time

        t0 = _time.time()
        ds = fn()
        # materialize once, write the checkpoint from the materialized copy,
        # and hand the SAME in-memory dataset downstream: one execution per
        # stage instead of execute -> write -> re-read (the re-read cost was
        # pure overhead; resume still reads the parquet)
        out = ds.materialize()
        if out.num_blocks() > 2 * self.cfg.num_partitions:
            # shuffle outputs fragment into hundreds of tiny blocks; feeding
            # those into the next shuffle multiplies its fixed costs
            out = out.repartition(self.cfg.num_partitions).materialize()

        # The parquet write is durability, not lineage: downstream stages
        # consume the materialized dataset directly, so the write runs on a
        # side thread and overlaps the next stage's compute (multi-core
        # runs were idling through each checkpoint encode — ~5s at 600k
        # rows / 4 cores). Crash before the manifest lands == stage not
        # complete == recompute on resume; ``flush()`` joins every pending
        # commit (and re-raises its error) before the run is declared done.
        import threading

        errbox: dict = {}
        # Chain commits: the parquet write runs freely in parallel, but each
        # manifest lands only after the PREVIOUS stage's whole commit finished
        # — so complete(downstream) always implies complete(upstream) on disk
        # and latest_labels_round() can never observe r{k+1} without r{k}.
        prev = self._pending[-1] if self._pending else None

        def _safe_commit() -> None:
            try:
                storage.write_table(out, sdir)
                if prev is not None:
                    prev[1].join()
                    if "err" in prev[2]:
                        raise RuntimeError(
                            f"upstream stage {prev[0]!r} commit failed; "
                            f"leaving {stage!r} incomplete"
                        )
                storage.write_manifest(
                    sdir,
                    {
                        "stage": stage,
                        "config_hash": self.cfg.config_hash(),
                        "upstream": upstream or [],
                        "rows": out.count(),
                        "complete": True,
                    },
                )
            except BaseException as exc:  # re-raised by flush()
                errbox["err"] = exc

        th = threading.Thread(target=_safe_commit, daemon=True)
        th.start()
        self._pending.append((stage, th, errbox))
        self.executed.append(stage)
        self.timings[stage] = round(_time.time() - t0, 2)
        return out

    def flush(self) -> None:
        """Join every deferred checkpoint commit; re-raise the first error.
        Must run before a caller declares the run complete."""
        pending, self._pending = self._pending, []
        for stage, th, errbox in pending:
            th.join()
            if "err" in errbox:
                raise RuntimeError(
                    f"deferred checkpoint write of stage {stage!r} failed"
                ) from errbox["err"]

    def rows(self, stage: str) -> int | None:
        """Row count from ``stage``'s manifest (None until it is written)."""
        return (storage.read_manifest(self.stage_dir(stage)) or {}).get("rows")

    def finish(self, stages, **extra) -> dict:
        """Close the run: join the deferred commits, build the run metrics
        (``extra`` first, then the stage lists, ``stage_seconds`` and the
        manifest ``rows`` of ``stages``) and write them into the run
        manifest. Returns the metrics."""
        self.flush()  # manifests must exist before rows are read below
        metrics = {
            "config_hash": self.cfg.config_hash(),
            **extra,
            "stages_executed": self.executed,
            "stages_resumed": self.skipped,
            "stage_seconds": self.timings,
            "rows": {s: self.rows(s) for s in stages},
        }
        storage.write_manifest(self.run_dir, {
            "stage": "run", "complete": True,
            "config_hash": self.cfg.config_hash(), "metrics": metrics})
        return metrics

    def run_stage_sharded(
        self,
        stage: str,
        input_files: list[str],
        fn,
        group_size: int = 8,
        upstream: list[str] | None = None,
    ) -> ray.data.Dataset:
        """Partition-level lineage: process ``input_files`` in groups, each
        group written atomically (tmp dir -> rename) to <stage>/group_k/ and
        recorded in the manifest. A killed run resumes at the first
        unfinished group — finished input shards are never recomputed.

        ``fn(files) -> Dataset`` computes the stage output for a file subset.

        Groups execute concurrently (up to 8 threads), so ``fn`` must build
        task-mode map stages only: an actor pool per group pins CPUs that
        the groups' read/write tasks need, and on a small session that
        livelocks.
        """
        import threading
        import time as _time
        from concurrent.futures import ThreadPoolExecutor

        t0 = _time.time()
        # Sharded stages write completion manifests synchronously; join any
        # deferred run_stage commits first so this stage can never be marked
        # complete while an upstream manifest is still in flight.
        self.flush()
        sdir = self.stage_dir(stage)
        os.makedirs(sdir, exist_ok=True)
        m = storage.read_manifest(sdir) or {}
        if m and m.get("config_hash") not in (None, self.cfg.config_hash()):
            if self.strict_resume:
                raise RuntimeError(
                    f"checkpoint {sdir} was written under config "
                    f"{m.get('config_hash')}; refusing to resume"
                )
            # fresh-run semantics: every group was written under the old
            # config — wipe the whole stage and recompute
            shutil.rmtree(sdir)
            os.makedirs(sdir, exist_ok=True)
        groups = [
            input_files[i : i + group_size]
            for i in range(0, len(input_files), group_size)
        ]
        # the atomic rename IS the commit: a group is done iff its dir exists
        # (manifest shards_done is informational; grouping is deterministic
        # from the sorted file list, so indices are stable across resumes)
        done_groups = {
            k for k in range(len(groups))
            if os.path.isdir(os.path.join(sdir, f"group_{k}"))
        }
        missing = [k for k in range(len(groups)) if k not in done_groups]
        resumed_any = bool(done_groups)
        lock = threading.Lock()
        done_files: list[str] = [f for k in done_groups for f in groups[k]]

        def run_group(k: int) -> None:
            group = groups[k]
            gdir = os.path.join(sdir, f"group_{k}")
            tmp = gdir + ".tmp"
            for d in (tmp, gdir):
                if os.path.isdir(d):
                    shutil.rmtree(d)
            os.makedirs(tmp)
            storage.write_table(fn(group), tmp)
            os.replace(tmp, gdir)  # atomic group commit
            with lock:
                done_files.extend(group)
                storage.write_manifest(
                    sdir,
                    {
                        "stage": stage,
                        "config_hash": self.cfg.config_hash(),
                        "upstream": upstream or [],
                        "shards_done": sorted(done_files),
                        "complete": len(done_files) == len(input_files),
                    },
                )

        if missing:
            try:  # pre-warm lazy imports that race under concurrent readers
                import fsspec.implementations.http  # noqa: F401
            except ImportError:
                pass
            # groups run CONCURRENTLY (threads just await Ray executions; the
            # streaming executor interleaves them) — group-atomic commits keep
            # resume granularity without serializing the stage
            with ThreadPoolExecutor(max_workers=min(8, len(missing))) as pool:
                list(pool.map(run_group, missing))
        (self.skipped if resumed_any else self.executed).append(stage)
        self.timings[stage] = round(_time.time() - t0, 2)
        import glob

        part_files = sorted(glob.glob(
            os.path.join(sdir, "group_*", "*" + storage.native_ext())))
        out = storage.read_table(part_files).materialize()
        storage.write_manifest(
            sdir,
            {
                "stage": stage,
                "config_hash": self.cfg.config_hash(),
                "upstream": upstream or [],
                "shards_done": sorted(done_files),
                "rows": out.count(),
                "complete": True,
            },
        )
        return out

    def latest_labels_round(self) -> int:
        """Highest k with a complete labels_r{k} checkpoint, or -1."""
        k = -1
        while self.is_complete(f"labels_r{k + 1}"):
            k += 1
        return k
