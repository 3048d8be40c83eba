"""Benchmark harness: one runner of named cases.

    python bench.py [CASE] [--shards N] [--formats a,b] [--partitions N]
                    [--join-tier] [--out CSV]

Cases (default ``headline``):

  headline      the image pipeline plus the headline queries over the sf
                tables -> ONE JSON line (the scoreboard)
  scaling       ``headline`` at GRAFT_SCALE_LO vs GRAFT_SCALE_HI CPUs, each
                leg a fresh taskset-pinned subprocess
  text          one timed text-engine run over the planted text corpus
  text-scaling  ``text`` at the same two CPU counts, pinned subprocesses
  image         one checkpointed image run over the ``--shards`` /
                ``--formats`` fixture: wall, stage seconds, manifest rows,
                recall/precision vs planted truth, peak PSS, busy cores;
                ``--join-tier`` adds a ``broadcast_limit=0`` leg and a
                row-for-row cluster-parity check (exit 1 on a mismatch)
  text-profile  the text engine's plan materialized stage by stage, with a
                wall timer per stage
  lsh-sweep     the image pipeline across LSH (P, b, r) points -> CSV
  ann-sweep     recall-vs-brute of every ANN variant -> CSV
  ddp1-sweep    DDP1 encode/decode of the reference sensor corpus across
                block sizes -> CSV

Every case prints one JSON line; a sweep also writes ``--out`` (default
``BENCH/<case>.csv`` with ``_`` for ``-``). Every Ray session is the
package's ``cli._session``, which reuses a live session.

Env: GRAFT_SF_DIR (sf tables; default sf0.1, sf0.01 for ann-sweep),
RAY_GRAFT_CPUS (default: the CPUs this process may run on), fixture rows per
kind: BENCH_IMG_ROWS (default 60000; lsh-sweep 20000), BENCH_TEXT_ROWS
(150000), BENCH_MODAL_ROWS (4000); GRAFT_SCALE_HI (default: the affinity
count) and GRAFT_SCALE_LO (default: a quarter of it).

Protocol follows the reference's bench scripts (sweep a knob, scrape elapsed
time and peak memory, ``scripts/encode_bench.sh:67-83``); the headline
metric is end-to-end images/sec of the near-dup pipeline on the
deterministic synthetic image+caption fixture, plus per-query seconds over
the sf tables. Fixtures are generated once per (kind, rows, shards,
formats) and never timed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import time

from perfbench.procstats import PeakPss

HERE = os.path.dirname(os.path.abspath(__file__))
AFFINITY = len(os.sched_getaffinity(0))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", AFFINITY))
SEED = 42
# ~25% of bench rows carry REAL baseline-JPEG payloads (verdict r4 #5): the
# headline number pays the realistic decode cost instead of raw/png only
BENCH_FMTS = ("raw", "png", "qrgb", "jpg")
_ROWS = {"img": 60000, "text": 150000, "modal": 4000}


def sf_dir(default: str = "/root/testdata/sf0.1") -> str:
    return os.environ.get("GRAFT_SF_DIR", default)


def rows(kind: str, default: int | None = None) -> int:
    """The one rows setting of fixture ``kind`` (BENCH_<KIND>_ROWS)."""
    return int(os.environ.get(f"BENCH_{kind.upper()}_ROWS",
                              default or _ROWS[kind]))


def session():
    from deduplication_ray.cli import _session

    return _session(NUM_CPUS)


def fixture(kind: str, n: int, shards: int | None = None,
            fmts: tuple[str, ...] = ()) -> str:
    """The one fixture cache: the ``kind`` ("img", "text", "vid", "aud")
    fixture of ``n`` rows, generated once. The directory name is the cache
    key; ``shards`` / ``fmts`` left empty take the generator's defaults.
    Needs a Ray session."""
    from deduplication_ray.sources import fixtures, storage

    d = (f"/tmp/dedup_ray_bench_{kind}_{n}_{shards or 'auto'}"
         f"_{'-'.join(fmts) or 'auto'}_{SEED}")
    m = storage.read_manifest(d)
    if not (m and m.get("n_rows") == n):
        shutil.rmtree(d, ignore_errors=True)
        gen = {"img": fixtures.generate, "text": fixtures.generate_text,
               "vid": fixtures.generate_videos,
               "aud": fixtures.generate_audios}[kind]
        kw = {"num_files": shards} if shards else {}
        if fmts:
            kw["fmts"] = fmts
        t0 = time.time()
        gen(d, n, seed=SEED, **kw)
        print(f"fixture {d}: {time.time() - t0:.0f}s", file=sys.stderr)
    return d


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
        agg[n] = sum(q.get() for _ in range(n))  # drain before join
        [p.join() for p in ps]
    return {
        f"bus_gbps_{lo}": round(agg[lo], 1),
        f"bus_gbps_{hi}": round(agg[hi], 1),
        # aggregate-bandwidth gain the single host actually provides
        # between the two leg widths (a 4N-node cluster provides hi/lo)
        "bus_scale": round(agg[hi] / agg[lo], 3),
    }


class CpuCounters:
    """Counters around a measured region: avg busy cores and context
    switches/sec from /proc/stat (the reference wraps its runs in
    ``perf stat -d``, which this container lacks; these diagnose the same
    things — starved stages, oversubscription)."""

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


def _warm(fix: str) -> None:
    """Read the fixture once (measure compute+shuffle, not first disk read)."""
    from deduplication_ray.sources import storage

    storage.read_table(f"{fix}/data").count()


def headline(a) -> dict:
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup, relational
    from deduplication_ray.pipelines.ann import brute_force_topk
    from deduplication_ray.pipelines.audio_dedup import audio_dedup_clusters
    from deduplication_ray.pipelines.docops import q_doc_lsh_dedup
    from deduplication_ray.pipelines.video_dedup import video_dedup_clusters
    from deduplication_ray.sources import storage

    sf, img_rows = sf_dir(), rows("img")
    queries: dict[str, float] = {}
    with session():
        fix = fixture("img", img_rows, 64, BENCH_FMTS)
        _warm(fix)
        run_dir = f"/tmp/dedup_ray_benchrun_{NUM_CPUS}"
        shutil.rmtree(run_dir, ignore_errors=True)
        cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
        with PeakPss(os.getpid()) as pss, CpuCounters() as cpu:
            t0 = time.time()
            image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
            img_sec = time.time() - t0
        queries["image_dedup"] = round(img_sec, 2)

        vid_fix = fixture("vid", rows("modal"))
        aud_fix = fixture("aud", rows("modal"))
        for name, fn in [
            ("q1_pricing_summary", relational.q1_pricing_summary),
            ("broadcast_join", relational.q_broadcast_join),
            ("top_revenue_orders", relational.q_top_revenue_orders),
            ("doc_lsh_dedup", q_doc_lsh_dedup),
            # same engine with one-permutation-hashing signatures: the delta
            # vs doc_lsh_dedup is the signature stage's P-sweep compute
            ("doc_lsh_dedup_oph", lambda sf: q_doc_lsh_dedup(
                sf, signature_mode="oph")),
            ("ann_topk", brute_force_topk),
            ("video_dedup", lambda _sf: video_dedup_clusters(
                storage.read_table(f"{vid_fix}/data"), cfg)),
            ("audio_dedup", lambda _sf: audio_dedup_clusters(
                storage.read_table(f"{aud_fix}/data"), cfg)),
        ]:
            t0 = time.time()
            res = fn(sf)
            if hasattr(res, "materialize"):
                res.materialize()
            queries[name] = round(time.time() - t0, 2)

        # text-engine headline: docs/sec of the full near-dup engine
        # (MinHash-LSH + substring + union-find) at this sf
        doc_rows = storage.read_table(f"{sf}/documents.parquet",
                                      columns=["doc_id"]).count()

    return {
        "metric": "end-to-end dedup pipeline + headline queries wall time",
        "value": round(sum(queries.values()), 2),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "img_rows": img_rows,
        "images_per_sec": round(img_rows / img_sec, 1),
        "text_doc_rows": doc_rows,
        "text_docs_per_sec": round(doc_rows / max(queries["doc_lsh_dedup"],
                                                  1e-9), 1),
        "peak_pss_mb": round(pss.peak_mb, 1),
        "image_busy_cores": cpu.busy_cores,
        "image_ctxt_per_sec": cpu.ctxt_per_sec,
        "cold_read": False,  # the page cache is always warmed
        **host_health_probe(),
    }


def _scale_legs() -> tuple[int, int]:
    """The scaling legs' CPU counts: N vs 4N on a host with 4N CPUs."""
    hi = int(os.environ.get("GRAFT_SCALE_HI", AFFINITY))
    return int(os.environ.get("GRAFT_SCALE_LO", max(1, hi // 4))), hi


def _leg(ncpu: int, *argv: str) -> dict:
    """One case in a fresh subprocess PINNED to ``ncpu`` cores:
    ``ray.init(num_cpus=n)`` bounds only logical task slots, not the cores
    its processes run on; unpinned, the lo leg's wall time was silently
    deflated (measured 11% at 4 CPUs / 600k rows). OS affinity makes each
    leg an honest n-core machine, which is what the N-vs-4N criterion
    models."""
    pin = (["taskset", "-c", f"0-{ncpu - 1}"]
           if shutil.which("taskset") else [])
    out = subprocess.run(
        pin + [sys.executable, os.path.abspath(__file__), *argv],
        env=dict(os.environ, RAY_GRAFT_CPUS=str(ncpu)), capture_output=True,
        text=True, check=True, cwd=HERE)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _probes(lo: int, r_lo: dict, hi: int, r_hi: dict) -> dict:
    return {f"host_probe_{n}": {k: r.get(k) for k in
                                ("host_mem_gbps", "host_sort_units")}
            for n, r in ((lo, r_lo), (hi, r_hi))}


def scaling(a) -> dict:
    """``headline`` at lo vs hi CPUs in FRESH processes (single-host
    stand-in for N vs 4N nodes); efficiency = (T_lo / T_hi) / (hi / lo).
    GRAFT_SCALE_LO/HI (e.g. 4 vs 16) evidence scaling under a
    host-bandwidth-capped window, where local workers share memory
    bandwidth that 4N real nodes would not (each has its own bus)."""
    with session():  # both timed legs see a warm fixture
        fixture("img", rows("img"), 64, BENCH_FMTS)
    lo, hi = _scale_legs()
    bus = bus_bandwidth_scale(lo, hi)  # before the legs: idle machine
    r_lo, r_hi = _leg(lo), _leg(hi)
    t_lo = r_lo["queries"]["image_dedup"]
    t_hi = r_hi["queries"]["image_dedup"]
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
    return {
        "metric": f"scaling efficiency (image dedup pipeline, {lo} vs {hi} cpus)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"images_per_sec_{lo}": r_lo["images_per_sec"],
        f"images_per_sec_{hi}": r_hi["images_per_sec"],
        "scaling_efficiency": round((t_lo / t_hi) / (hi / lo), 3),
        "bus_normalized_efficiency": bus_eff,
        **bus,
        "text_scaling_efficiency": round((d_hi / d_lo) / (hi / lo), 3)
        if d_lo and d_hi else None,
        "img_rows": rows("img"),
        **{f"{k}_{n}": r.get(src) for n, r in ((lo, r_lo), (hi, r_hi))
           for k, src in (("total_sec", "value"),
                          ("peak_pss_mb", "peak_pss_mb"),
                          ("text_docs_per_sec", "text_docs_per_sec"),
                          ("image_busy_cores", "image_busy_cores"))},
        **_probes(lo, r_lo, hi, r_hi),
    }


def text(a) -> dict:
    """One timed text-engine run over the planted ``BENCH_TEXT_ROWS``-doc
    corpus. The sf documents table tops out at 5k docs (per-stage setup
    dominates there), so the text criterion needs a corpus big enough for
    real parallel work; 64 shards, because map-stage parallelism is
    bounded by the input block count."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import storage

    n = rows("text")
    with session():
        fix = fixture("text", n, 64)
        _warm(fix)
        cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
        with CpuCounters() as cpu:
            t0 = time.time()
            clusters = text_dedup_clusters(
                storage.read_table(f"{fix}/data", columns=["doc_id", "text"]),
                cfg).count()
            sec = time.time() - t0
    return {"text_rows": n, "clusters": clusters, "sec": round(sec, 2),
            "docs_per_sec": round(n / sec, 1), "num_cpus": NUM_CPUS,
            "busy_cores": cpu.busy_cores, **host_health_probe()}


def text_scaling(a) -> dict:
    """Text-engine analog of ``scaling``: ``text`` at lo vs hi CPUs in
    FRESH pinned processes."""
    with session():
        fixture("text", rows("text"), 64)
    lo, hi = _scale_legs()
    r_lo, r_hi = _leg(lo, "text"), _leg(hi, "text")
    eff = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / (hi / lo)
    return {
        "metric": f"scaling efficiency (text dedup engine, {lo} vs {hi} cpus)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "text_rows": rows("text"),
        f"sec_{lo}": r_lo["sec"],
        f"sec_{hi}": r_hi["sec"],
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        f"busy_cores_{lo}": r_lo.get("busy_cores"),
        f"busy_cores_{hi}": r_hi.get("busy_cores"),
        **_probes(lo, r_lo, hi, r_hi),
    }


def image(a) -> dict:
    """One checkpointed ``image_dedup.run_pipeline``; with ``--join-tier``
    the same fixture again at ``broadcast_limit=0``, where every lookup and
    the pair resolve run on the hash-join tier (the plan a corpus above the
    broadcast limit runs), and the two legs' clusters must be identical
    row for row."""
    import dataclasses

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.sources import storage

    n = rows("img")
    base = DedupConfig(num_partitions=a.partitions or max(8, NUM_CPUS))
    legs = {"": base}
    if a.join_tier:
        legs["_join_tier"] = dataclasses.replace(base, broadcast_limit=0)
    out: dict = {"metric": "image dedup end-to-end run", "img_rows": n,
                 "num_cpus": NUM_CPUS, "num_partitions": base.num_partitions}
    preds = {}
    with session():
        fix = fixture("img", n, a.shards, tuple(a.formats.split(",")))
        _warm(fix)
        truth = storage.read_table(f"{fix}/truth").to_pandas()
        for suffix, cfg in legs.items():
            run_dir = f"/tmp/dedup_ray_benchimg{suffix}_{NUM_CPUS}"
            shutil.rmtree(run_dir, ignore_errors=True)
            with PeakPss(os.getpid()) as pss, CpuCounters() as cpu:
                t0 = time.time()
                metrics = image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
                wall = time.time() - t0
            pred = storage.read_table(f"{run_dir}/clusters").to_pandas() \
                .sort_values("image_id").reset_index(drop=True)
            preds[suffix] = pred
            pm = pair_metrics(pred, truth)
            out.update({f"{k}{suffix}": v for k, v in {
                "wall_sec": round(wall, 1),
                "images_per_sec": round(n / wall, 1),
                "stage_seconds": {k: round(v, 2) for k, v in
                                  metrics["stage_seconds"].items()},
                "rows": metrics["rows"],
                "peak_pss_mb": round(pss.peak_mb, 1),
                "busy_cores": cpu.busy_cores,
                "recall": round(pm["recall"], 5),
                "precision": round(pm["precision"], 5),
                "truth_pairs": int(pm["truth_pairs"]),
                "pred_pairs": int(pm["pred_pairs"]),
            }.items()})
    if a.join_tier:
        x, y = preds[""], preds["_join_tier"]
        out["clusters_identical"] = bool(
            x["image_id"].equals(y["image_id"])
            and x["cluster_id"].equals(y["cluster_id"]))
        if not out["clusters_identical"]:
            print(f"MISMATCH: {(x['cluster_id'] != y['cluster_id']).sum()}"
                  " rows differ", file=sys.stderr)
    return {**out, **host_health_probe()}


def text_profile(a) -> dict:
    """Per-stage wall of the text engine at one CPU width: the plan
    ``text_dedup_clusters`` runs in the broadcast tier
    (``incremental.engine_kit``'s ``edges``), materialized at each of its
    barriers in plan order. Stays until the pipeline records its own
    sub-stage spans."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import (as_engine_table,
                                                        text_signatures)
    from deduplication_ray.sources import storage
    from deduplication_ray.stages import lsh, verify
    from deduplication_ray.stages.substring import substring_buckets
    from deduplication_ray.stages.tuning import (apply_context_tuning,
                                                 ensure_blocks)
    from deduplication_ray.state import unionfind

    t: dict[str, float] = {}

    def stage(name: str, fn):
        t0 = time.time()
        out = fn()
        t[name] = round(time.time() - t0, 2)
        print(f"{name}: {t[name]}s", file=sys.stderr)
        return out

    with session():
        apply_context_tuning()
        fix = fixture("text", rows("text"), 64)
        _warm(fix)
        cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
        ds = storage.read_table(f"{fix}/data", columns=["doc_id", "text"])
        caps = stage("canon_caps", lambda: as_engine_table(ds).materialize())
        sigs = stage("signatures", lambda: text_signatures(
            caps, cfg, id_col="image_id", text_col="caption").materialize())
        deferred = verify.DeferredSignatureIndex(sigs, cfg)
        assert deferred.eligible, "corpus exceeds the broadcast tier"
        buckets = stage("buckets", lambda: sigs.map_batches(
            lsh.ExplodeBands(cfg, families=("minhash", "exact")),
            batch_format="pyarrow", batch_size=cfg.text_batch_size).union(
                substring_buckets(caps, cfg)).materialize())
        # the slim-pair chain at its barriers (production runs
        # slim_pairs_from_buckets + dedupe_slim_pairs)
        b2 = stage("ensure_blocks", lambda: ensure_blocks(
            buckets, cfg.num_partitions).materialize())
        pairs = stage("pair_exchange",
                      lambda: lsh.slim_pairs_from_buckets(b2, cfg))
        ve = stage("dedupe_resolve_verify", lambda: verify.
                   resolve_and_verify_pairs(
                       lsh.dedupe_slim_pairs(pairs, cfg), deferred.get(), cfg,
                       has_pixels=False).materialize())
        stage("unionfind", lambda: unionfind.connected_components(
            ve, cfg).materialize())
        return {"num_cpus": NUM_CPUS, "rows": ds.count(),
                "edges": ve.count(), "total": round(sum(t.values()), 2), **t}


def _write_csv(a, out_rows: list[dict]) -> dict:
    out = a.out or os.path.join(HERE, "BENCH",
                                a.case.replace("-", "_") + ".csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(out_rows[0]))
        w.writeheader()
        w.writerows(out_rows)
    return {"case": a.case, "out": out, "rows": len(out_rows)}


def _progress(row: dict) -> None:
    print(json.dumps(row), file=sys.stderr, flush=True)


# (num_perm, bands, rows_per_band): bands * rows == num_perm is enforced by
# DedupConfig; the grid spans r in {2,4,8} and candidate budgets around the
# default operating point.
LSH_GRID = [
    (64, 32, 2),
    (32, 8, 4),
    (64, 16, 4),
    (128, 32, 4),   # DedupConfig default
    (128, 16, 8),
    (256, 32, 8),
]


def lsh_sweep(a) -> dict:
    """Recall / precision / verified-edge volume / wall of the full image
    pipeline across ``LSH_GRID`` on the planted-truth fixture: the
    measured analog of the reference's block-size sweep, and the recorded
    justification for the DedupConfig defaults (P=128, b=32, r=4)."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.pipelines.image_dedup import run_pipeline
    from deduplication_ray.sources import storage

    n = rows("img", 20000)
    out_rows = []
    with session():
        fix = fixture("img", n)
        truth = storage.read_table(f"{fix}/truth").to_pandas()
        # probe BEFORE the timed loop so the stamp describes the window the
        # wall_sec values were measured in
        probe = host_health_probe()
        for num_perm, bands, rpb in LSH_GRID:
            cfg = DedupConfig(num_perm=num_perm, bands=bands,
                              rows_per_band=rpb, num_partitions=8)
            run_dir = f"/tmp/dedup_ray_sweep_{n}_{cfg.config_hash()}"
            shutil.rmtree(run_dir, ignore_errors=True)  # no resume
            t0 = time.perf_counter()
            metrics = run_pipeline(f"{fix}/data", run_dir, cfg)
            wall = time.perf_counter() - t0
            m = pair_metrics(
                storage.read_table(f"{run_dir}/clusters").to_pandas(), truth)
            out_rows.append({
                "n_rows": n, "num_perm": num_perm, "bands": bands,
                "rows_per_band": rpb, "wall_sec": round(wall, 2),
                "recall": round(m["recall"], 4),
                "precision": round(m["precision"], 4),
                # raw candidates never materialize; post-verification
                # volume is the recorded cost signal
                "verified_edges": metrics["rows"].get("verified_edges", -1),
                "pred_clusters": m["pred_clusters"],
                "truth_clusters": m["truth_clusters"],
                **probe,
            })
            _progress(out_rows[-1])
    return _write_csv(a, out_rows)


def ann_sweep(a) -> dict:
    """Recall-vs-brute of every ANN variant at one corpus: the
    similarity-search analog of the LSH operating-point sweep. Recall is
    deterministic (seeded models, exact verification)."""
    from deduplication_ray.pipelines import ann

    sf, n_q, k = sf_dir("/root/testdata/sf0.01"), 10, 5
    variants = [
        ("lsh", lambda: ann.lsh_topk(sf, n_q, k, multiprobe=0)),
        ("lsh_multiprobe", lambda: ann.lsh_topk(sf, n_q, k, multiprobe=1)),
        ("ivf", lambda: ann.ivf_topk(sf, n_q, k)),
        ("ivf_refined", lambda: ann.ivf_topk(sf, n_q, k, refine_iters=2)),
        ("pq", lambda: ann.pq_topk(sf, n_q, k)),
        ("ivfpq", lambda: ann.ivfpq_topk(sf, n_q, k)),
    ]
    probe = host_health_probe()
    out_rows = []
    with session():
        for name, fn in variants:
            t0 = time.time()
            res = fn()
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            out_rows.append({
                "variant": name, "sf": sf, "n_queries": n_q, "k": k,
                "recall_vs_brute": float(df["recall_vs_brute"].iloc[0]),
                "rows": len(df), "wall_sec": round(time.time() - t0, 2),
                "host_mem_gbps": probe["host_mem_gbps"],
            })
            _progress(out_rows[-1])
    return _write_csv(a, out_rows)


DDP1_SAMPLES = "/root/reference/samples"
DDP1_SENSORS = [  # (file, width) per encode_bench.sh:20-25
    ("T_raw.bin", 2),
    ("RH_raw.bin", 2),
    ("lux_raw.bin", 2),
    ("P_raw.bin", 4),
]


def ddp1_sweep(a) -> dict:
    """The reference's encode/decode bench grid (``encode_bench.sh:20-28``:
    its sensor corpus x block sizes 2..32) on the DDP1 codec. No page-cache
    drops: each input is read once before its timed runs, so compute is
    measured, not first-touch I/O."""
    from deduplication_ray.sources import ddp1

    out_rows = []
    for fname, width in DDP1_SENSORS:
        with open(os.path.join(DDP1_SAMPLES, fname), "rb") as f:
            data = f.read()
        for block in range(2, 33, 2):
            t0 = time.time()
            ddp, summary = ddp1.compress_bytes(data, width, block)
            enc_s = time.time() - t0
            t0 = time.time()
            back = ddp1.decompress_bytes(ddp)
            dec_s = time.time() - t0
            assert back == data[: summary["used_samples"] * width]
            out_rows.append({
                "dataset": fname,
                "width": width,
                "block_size": block,
                "encode_sec": round(enc_s, 4),
                "decode_sec": round(dec_s, 4),
                "input_bytes": len(data),
                "ddp_bytes": len(ddp),
                "ratio": round(len(ddp) / len(data), 4),
                "dict_size": summary["dict_size"],
                "num_blocks": summary["num_blocks"],
                "encode_mbps": round(len(data) / enc_s / 1e6, 2),
            })
            _progress(out_rows[-1])
    return _write_csv(a, out_rows)


CASES = {
    "headline": headline,
    "scaling": scaling,
    "text": text,
    "text-scaling": text_scaling,
    "image": image,
    "text-profile": text_profile,
    "lsh-sweep": lsh_sweep,
    "ann-sweep": ann_sweep,
    "ddp1-sweep": ddp1_sweep,
}


def run(argv: list[str] | None = None) -> dict:
    """Parse ``argv`` and run the named case; returns its result row."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("case", nargs="?", default="headline", choices=CASES)
    p.add_argument("--shards", type=int, default=64,
                   help="image: fixture shard count")
    p.add_argument("--formats", default=",".join(BENCH_FMTS),
                   help="image: fixture payload formats")
    p.add_argument("--partitions", type=int,
                   help="image: num_partitions (default max(8, cpus))")
    p.add_argument("--join-tier", action="store_true",
                   help="image: add the broadcast_limit=0 parity leg")
    p.add_argument("--out", help="sweeps: output CSV")
    a = p.parse_args(argv)
    return CASES[a.case](a)


if __name__ == "__main__":
    result = run()
    print(json.dumps(result))
    sys.exit(0 if result.get("clusters_identical", True) else 1)
