"""Benchmark harness: headline dedup pipelines at sf0.1 + scaling mode.

Plain run:     python bench.py            -> ONE JSON line (driver contract)
Scaling run:   python bench.py --scaling  -> same pipeline at num_cpus=8 and
               32 in fresh subprocesses; prints throughputs + efficiency.
Text scaling:  python bench.py --text-scaling -> the TEXT engine
               (MinHash-LSH + substring + union-find) over a generated
               BENCH_TEXT_ROWS-doc planted corpus at the same two CPU
               counts (the sf documents table tops out at 5k docs — too
               small for a meaningful parallel fraction).

Protocol follows the reference's bench scripts (sweep + elapsed-time scrape,
``/root/reference/scripts/encode_bench.sh:67-83``) adapted to the graft: the
headline metric is end-to-end images/sec of the near-dup pipeline on the
deterministic synthetic image+caption fixture, plus per-query seconds over
the sf0.1 testdata tables.

Env: GRAFT_SF_DIR (default: the sf0.1 testdata tables), RAY_GRAFT_CPUS
(default: the CPUs this process may run on, ``os.sched_getaffinity``),
BENCH_IMG_ROWS (default 60000), BENCH_TEXT_ROWS (default 150000),
BENCH_COLD=1 (drop the page cache before the
image pipeline instead of warming it — reference cache hygiene; needs root).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
IMG_ROWS = int(os.environ.get("BENCH_IMG_ROWS", "60000"))
SEED = 42


def host_health_probe() -> dict:
    """Fixed micro-probe of the machine the numbers were taken on: one
    single-stream memory-copy bandwidth sample + one single-core ALU sample.
    Recorded alongside every bench result because this sandbox VM shows
    intermittent host-level degradation (memory bandwidth observed anywhere
    from ~0.07 to several GB/s across the same day) that changes pipeline
    wall time far more than any code change — a result without the probe is
    uninterpretable."""
    import numpy as np

    a = np.ones(25_000_000, dtype=np.float64)  # 200 MB
    t0 = time.time()
    for _ in range(4):
        a.copy()
    bw = 4 * a.nbytes * 2 / (time.time() - t0) / 1e9
    x = np.random.RandomState(0).rand(2_000_000)
    t0 = time.time()
    for _ in range(5):
        np.sort(x)
    alu = 10.0 / (time.time() - t0)  # sorts/sec x2 (fixed work units)
    return {"host_mem_gbps": round(bw, 2), "host_sort_units": round(alu, 1),
            # healthy windows on this VM sustain >= ~3 GB/s single-stream;
            # below ~2 the host (not the code) bounds every pipeline phase —
            # see BENCH/BASELINE.md samples 4/6/7-8 for measured impact
            "host_degraded": bw < 2.0}


def bus_bandwidth_scale(lo: int, hi: int) -> dict:
    """Aggregate host memory bandwidth at ``lo`` vs ``hi`` concurrent
    streams — the single-host confound in the N-vs-4N stand-in protocol.

    On a real cluster, 4N nodes bring 4N memory buses, so aggregate
    bandwidth scales with the node count. On ONE host, the hi leg's workers
    share the lo leg's bus: measured here, 8->32 streams yields only ~2.7x
    aggregate (33 -> 89 GB/s), so a bandwidth-bound stage CANNOT show
    better than ~0.67 'efficiency' on this box no matter how well the
    engine scales. The scaling report therefore records both the raw
    single-host ratio (the conservative number) and the ratio normalized
    by this measured bus curve (the number a multi-bus cluster would see
    for the bandwidth-bound fraction)."""
    import multiprocessing as mp

    import numpy as np

    def worker(q):
        a = np.ones(12_500_000, dtype=np.float64)  # 100 MB
        t0 = time.time()
        for _ in range(6):
            a.copy()
        q.put(6 * a.nbytes * 2 / (time.time() - t0) / 1e9)

    agg = {}
    for n in (lo, hi):
        q = mp.Queue()
        ps = [mp.Process(target=worker, args=(q,)) for _ in range(n)]
        [p.start() for p in ps]
        [p.join() for p in ps]
        agg[n] = sum(q.get() for _ in range(n))
    return {
        f"bus_gbps_{lo}": round(agg[lo], 1),
        f"bus_gbps_{hi}": round(agg[hi], 1),
        # aggregate-bandwidth gain the single host actually provides
        # between the two leg widths (a 4N-node cluster provides hi/lo)
        "bus_scale": round(agg[hi] / agg[lo], 3),
    }


def drop_page_cache() -> bool:
    """Reference-parity cache hygiene (``scripts/encode_bench.sh:56-69``
    syncs + drops the page cache before each cold run): vm.drop_caches=3.
    Root-only; returns False — and the bench stays warm-cache, the default
    protocol — when not permitted. Enabled with BENCH_COLD=1."""
    try:
        os.sync()
        with open("/proc/sys/vm/drop_caches", "w") as f:
            f.write("3\n")
        return True
    except OSError:
        return False


class CpuCounters:
    """Hardware-ish counters around a measured region. ``perf stat -d`` is
    the reference protocol (``scripts/encode_bench.sh:56-69``) but perf is
    not installed in this container, so /proc/stat jiffies + context
    switches stand in: avg busy cores and ctxt switches/sec over the region
    (diagnoses the same things — starved stages, oversubscription)."""

    @staticmethod
    def _read() -> tuple[list[int], int]:
        jiffies, ctxt = [], 0
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("cpu "):
                    jiffies = [int(x) for x in line.split()[1:]]
                elif line.startswith("ctxt"):
                    ctxt = int(line.split()[1])
        return jiffies, ctxt

    def __enter__(self):
        self.t0 = time.time()
        self.j0, self.c0 = self._read()
        return self

    def __exit__(self, *exc):
        dt = max(time.time() - self.t0, 1e-6)
        j1, c1 = self._read()
        hz = os.sysconf("SC_CLK_TCK")
        total = sum(b - a for a, b in zip(self.j0, j1)) / hz
        idle = sum(j1[i] - self.j0[i] for i in (3, 4)) / hz  # idle + iowait
        self.busy_cores = round((total - idle) / dt, 2)
        self.ctxt_per_sec = round((c1 - self.c0) / dt)
        return False


def _perf_cmd() -> list[str]:
    """``perf stat -d`` wrapper for subprocess runs when perf exists (it
    does not in this container; the wrapper is a no-op then)."""
    return (["perf", "stat", "-d", "-x", ","]
            if shutil.which("perf") else [])


def _parse_perf(stderr: str) -> dict | None:
    out = {}
    for line in stderr.splitlines():
        parts = line.split(",")
        if len(parts) >= 3 and parts[0] not in ("", "<not supported>"):
            try:
                out[parts[2]] = float(parts[0])
            except ValueError:
                continue
    return out or None


def _img_fixture_dir() -> str:
    return f"/tmp/dedup_ray_benchfix_{SEED}_{IMG_ROWS}"


class PeakPssSampler:
    """Samples the summed PSS (proportional set size, from
    ``/proc/<pid>/smaps_rollup``) of this driver + every local Ray worker
    (``ray::`` processes and the raylet) — the single-node analog of the
    reference protocol's ``/usr/bin/time -v`` max_rss_kb scrape
    (``scripts/encode_bench.sh:67-80`` of the reference). PSS splits each
    shared page (the object-store mapping every worker maps) between its
    users, so the sum counts it once; summed RSS counted it once per worker
    and could exceed the host's RAM."""

    def __init__(self, interval: float = 0.5):
        import threading

        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, args=(interval,), daemon=True)

    def _total_kb(self) -> int:
        total = 0
        me = str(os.getpid())
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
                if pid != me and b"ray::" not in cmd and b"raylet" not in cmd:
                    continue
                with open(f"/proc/{pid}/smaps_rollup") as f:
                    for line in f:
                        if line.startswith("Pss:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        return total

    def _run(self, interval: float) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, self._total_kb())
            self._stop.wait(interval)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join(timeout=2)
        return False


# ~25% of bench rows carry REAL baseline-JPEG payloads (verdict r4 #5): the
# headline number pays the realistic decode cost instead of raw/png only
BENCH_FMTS = ("raw", "png", "qrgb", "jpg")


def ensure_fixture() -> str:
    """Generate (once, cached) the bench image fixture. NOT timed."""
    from deduplication_ray.sources import fixtures, storage

    d = _img_fixture_dir()
    m = storage.read_manifest(d)
    if not (m and m.get("n_rows") == IMG_ROWS
            and tuple(m.get("fmts") or ()) == BENCH_FMTS):
        shutil.rmtree(d, ignore_errors=True)
        fixtures.generate(d, IMG_ROWS, seed=SEED, num_files=64,
                          fmts=BENCH_FMTS)
    return d


MODAL_ROWS = int(os.environ.get("BENCH_MODAL_ROWS", "4000"))
TEXT_ROWS = int(os.environ.get("BENCH_TEXT_ROWS", "150000"))


def ensure_text_fixture() -> str:
    """Generate (once, cached) the planted text-corpus fixture for the
    text-engine scaling protocol. NOT timed. The sf documents table tops
    out at 5k docs (doc_lsh_dedup ~5 s total — per-stage setup dominates
    both scaling legs, the 'floor artifact' in BENCH/BASELINE.md), so the
    text criterion needs a corpus big enough for real parallel work."""
    from deduplication_ray.sources import fixtures, storage

    d = f"/tmp/dedup_ray_benchtxt_{SEED}_{TEXT_ROWS}"
    m = storage.read_manifest(d)
    # num_files gate: map-stage parallelism is bounded by input block count,
    # so a fixture with fewer shards than 2x the widest scaling leg caps the
    # canon/signature/bucket stages there regardless of session CPUs
    # (measured: 16 shards held the signature stage at 3.8 s on 32 CPUs vs
    # 4.6 s on 8 — a 1.2x "speedup" from 4x the cores). Regenerate cached
    # fixtures written by an older, under-sharded generator.
    shards = 64
    # generate_text writes min(num_files, n_rows) shards
    if not (m and m.get("n_rows") == TEXT_ROWS
            and m.get("num_files", 0) >= min(shards, TEXT_ROWS)):
        shutil.rmtree(d, ignore_errors=True)
        fixtures.generate_text(d, TEXT_ROWS, seed=SEED, num_files=shards)
    return d


def run_text_job() -> dict:
    """One timed text-engine leg (invoked in a fresh subprocess per CPU
    count by ``run_text_scaling``)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import storage

    fix = ensure_text_fixture()
    storage.read_table(f"{fix}/data").count()  # warm the page cache
    cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
    with CpuCounters() as cpu:
        t0 = time.time()
        n = text_dedup_clusters(
            storage.read_table(f"{fix}/data", columns=["doc_id", "text"]),
            cfg).count()
        sec = time.time() - t0
    out = {
        "text_rows": TEXT_ROWS,
        "clusters": n,
        "sec": round(sec, 2),
        "docs_per_sec": round(TEXT_ROWS / sec, 1),
        "num_cpus": NUM_CPUS,
        "busy_cores": cpu.busy_cores,
        **host_health_probe(),
    }
    ray.shutdown()
    return out


def run_text_scaling() -> dict:
    """Text-engine analog of ``run_scaling``: the full MinHash-LSH +
    substring + union-find engine over the planted ``TEXT_ROWS``-doc
    fixture at lo vs hi CPUs in FRESH processes."""
    ensure_text_fixture()  # driver-side pandas/pyarrow: no Ray needed

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        pin = (["taskset", "-c", f"0-{ncpu - 1}"]
               if shutil.which("taskset") else [])  # see run_scaling.one
        cmd = pin + [sys.executable, os.path.abspath(__file__), "--text-job"]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    r_lo, r_hi = one(lo), one(hi)
    eff = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / (hi / lo)
    return {
        "metric": f"scaling efficiency (text dedup engine, {lo} vs {hi} cpus)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "text_rows": TEXT_ROWS,
        f"sec_{lo}": r_lo["sec"],
        f"sec_{hi}": r_hi["sec"],
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        f"busy_cores_{lo}": r_lo.get("busy_cores"),
        f"busy_cores_{hi}": r_hi.get("busy_cores"),
        f"host_probe_{lo}": {k: r_lo.get(k) for k in
                             ("host_mem_gbps", "host_sort_units")},
        f"host_probe_{hi}": {k: r_hi.get(k) for k in
                             ("host_mem_gbps", "host_sort_units")},
    }


def ensure_modal_fixture(kind: str) -> str:
    """Generate (once, cached) the bench video/audio fixture. NOT timed."""
    from deduplication_ray.sources import fixtures, storage

    d = f"/tmp/dedup_ray_bench{kind}_{SEED}_{MODAL_ROWS}"
    m = storage.read_manifest(d)
    if not (m and m.get("n_rows") == MODAL_ROWS):
        shutil.rmtree(d, ignore_errors=True)
        gen = fixtures.generate_videos if kind == "vid" else fixtures.generate_audios
        gen(d, MODAL_ROWS, seed=SEED)
    return d


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup, relational
    from deduplication_ray.pipelines.docops import q_doc_lsh_dedup
    from deduplication_ray.pipelines.ann import brute_force_topk

    queries: dict[str, float] = {}

    fix = ensure_fixture()
    from deduplication_ray.sources import storage

    cold = os.environ.get("BENCH_COLD") == "1" and drop_page_cache()
    if not cold:
        # warm the page cache (measure compute+shuffle, not first disk read)
        storage.read_table(f"{fix}/data").count()

    run_dir = f"/tmp/dedup_ray_benchrun_{NUM_CPUS}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
    with PeakPssSampler() as pss, CpuCounters() as cpu:
        t0 = time.time()
        image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
        img_sec = time.time() - t0
    queries["image_dedup"] = round(img_sec, 2)
    peak_pss_mb = round(pss.peak_kb / 1024, 1)

    from deduplication_ray.pipelines.audio_dedup import audio_dedup_clusters
    from deduplication_ray.pipelines.video_dedup import video_dedup_clusters

    vid_fix, aud_fix = ensure_modal_fixture("vid"), ensure_modal_fixture("aud")
    for name, fn in [
        ("q1_pricing_summary", relational.q1_pricing_summary),
        ("broadcast_join", relational.q_broadcast_join),
        ("top_revenue_orders", relational.q_top_revenue_orders),
        ("doc_lsh_dedup", q_doc_lsh_dedup),
        # same engine with one-permutation-hashing signatures: the delta vs
        # doc_lsh_dedup is the signature stage's P-sweep compute, measured
        ("doc_lsh_dedup_oph", lambda sf: q_doc_lsh_dedup(
            sf, signature_mode="oph")),
        ("ann_topk", brute_force_topk),
        ("video_dedup", lambda _sf: video_dedup_clusters(
            storage.read_table(f"{vid_fix}/data"), cfg)),
        ("audio_dedup", lambda _sf: audio_dedup_clusters(
            storage.read_table(f"{aud_fix}/data"), cfg)),
    ]:
        t0 = time.time()
        res = fn(SF_DIR)
        if hasattr(res, "materialize"):
            res.materialize()
        queries[name] = round(time.time() - t0, 2)

    # text-engine headline: docs/sec of the full near-dup engine (MinHash-LSH
    # + substring + union-find — the same engine entry() runs) at this sf
    doc_rows = storage.read_table(f"{SF_DIR}/documents.parquet",
                                  columns=["doc_id"]).count()

    total = round(sum(queries.values()), 2)
    out = {
        "metric": "end-to-end dedup pipeline + headline queries wall time",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "img_rows": IMG_ROWS,
        "images_per_sec": round(IMG_ROWS / img_sec, 1),
        "text_doc_rows": doc_rows,
        "text_docs_per_sec": round(doc_rows / max(queries["doc_lsh_dedup"],
                                                  1e-9), 1),
        "peak_pss_mb": peak_pss_mb,
        "image_busy_cores": cpu.busy_cores,
        "image_ctxt_per_sec": cpu.ctxt_per_sec,
        "cold_read": cold,
        **host_health_probe(),
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Same job at num_cpus=8 and num_cpus=32 in FRESH processes (sandbox
    stand-in for N vs 4N nodes); efficiency = (T_8 / T_32) / 4."""
    # pre-generate the fixture once so both timed runs see a warm cache
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    ensure_fixture()
    ray.shutdown()

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        # PIN the leg to ncpu physical cores: ray.init(num_cpus=n) bounds
        # only logical task slots, not the cores its processes run on;
        # unpinned, the lo leg's wall time was silently deflated (measured
        # 11% at 4 CPUs / 600k rows). OS affinity makes each leg an honest
        # n-core machine, which is what the N-vs-4N criterion models.
        pin = (["taskset", "-c", f"0-{ncpu - 1}"]
               if shutil.which("taskset") else [])
        cmd = pin + _perf_cmd() + [sys.executable, os.path.abspath(__file__)]
        out = subprocess.run(cmd,
                             env=env, capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if _perf_cmd():
            res["perf"] = _parse_perf(out.stderr)
        return res

    # N vs 4N parallelism; override with GRAFT_SCALE_LO/HI (e.g. 4 vs 16) to
    # evidence scaling under a host-bandwidth-capped window, where 32 local
    # workers saturate shared memory bandwidth that 4N real nodes would not
    # share (each cluster node has its own memory bus)
    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    bus = bus_bandwidth_scale(lo, hi)  # before the legs: idle machine
    r_lo, r_hi = one(lo), one(hi)
    t_lo = r_lo["queries"]["image_dedup"]
    t_hi = r_hi["queries"]["image_dedup"]
    eff = (t_lo / t_hi) / (hi / lo)
    # single-host bus correction: a bandwidth-bound stage can scale at most
    # bus_scale (not hi/lo) on one box; 4N real nodes bring 4N buses. The
    # normalized number bounds what the same code shows on a multi-bus
    # cluster; the raw number is the conservative single-host measurement.
    bus_eff = round((t_lo / t_hi) / bus["bus_scale"], 3) \
        if bus.get("bus_scale") else None
    # compute-bound complement: the text engine's per-doc work is FMA
    # sweeps (P MinHash permutations), not object-store byte traffic, so its
    # ratio keeps measuring ORCHESTRATION scaling even in windows where the
    # shared host bus caps the (bandwidth-bound) image pipeline
    d_lo, d_hi = r_lo.get("text_docs_per_sec"), r_hi.get("text_docs_per_sec")
    text_eff = round((d_hi / d_lo) / (hi / lo), 3) if d_lo and d_hi else None
    return {
        "metric": f"scaling efficiency (image dedup pipeline, {lo} vs {hi} cpus)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"images_per_sec_{lo}": r_lo["images_per_sec"],
        f"images_per_sec_{hi}": r_hi["images_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "bus_normalized_efficiency": bus_eff,
        **bus,
        "text_scaling_efficiency": text_eff,
        "img_rows": IMG_ROWS,
        f"total_sec_{lo}": r_lo["value"],
        f"total_sec_{hi}": r_hi["value"],
        f"peak_pss_mb_{lo}": r_lo.get("peak_pss_mb"),
        f"peak_pss_mb_{hi}": r_hi.get("peak_pss_mb"),
        f"text_docs_per_sec_{lo}": r_lo.get("text_docs_per_sec"),
        f"text_docs_per_sec_{hi}": r_hi.get("text_docs_per_sec"),
        f"image_busy_cores_{lo}": r_lo.get("image_busy_cores"),
        f"image_busy_cores_{hi}": r_hi.get("image_busy_cores"),
        f"host_probe_{lo}": {k: r_lo.get(k) for k in
                             ("host_mem_gbps", "host_sort_units")},
        f"host_probe_{hi}": {k: r_hi.get(k) for k in
                             ("host_mem_gbps", "host_sort_units")},
        **({f"perf_{lo}": r_lo.get("perf"), f"perf_{hi}": r_hi.get("perf")}
           if _perf_cmd() else {}),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--text-scaling" in sys.argv:
        print(json.dumps(run_text_scaling()))
    elif "--text-job" in sys.argv:
        print(json.dumps(run_text_job()))
    else:
        print(json.dumps(run_bench()))
