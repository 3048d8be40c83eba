"""The traced run: the dedup spine called layer by layer from here, each
layer's output materialized at its boundary and wrapped in a span.

No span is inside the library. Each span records ``<span>.s`` (wall),
``<span>.busy_frac`` (CPU-busy share of the span from /proc/stat; on one
CPU the rest is waiting) and ``<span>.rows_out``; counters are recorded at
the same boundaries. The plan mirrors the broadcast-tier fast path that
``image_dedup.run_pipeline`` and ``text_dedup.text_dedup_clusters`` run,
and its clusters must equal the untraced call's.

On ``text_planted`` the ``pipelines.image_dedup.finalize`` span times the
same ids-left-join-labels-and-fill that ``text_dedup_clusters`` runs (the
text program inlines it). The ``pipelines.image_dedup.representatives``
span has no counterpart in the text program: on ``text_planted`` it is a
probe of the image pipeline's representatives operator over the text
clusters, timed after the spine and left out of ``trace_overhead_s``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager

from procstats import busy_frac, cpu_jiffies
from session import base_run_dir, check_clusters, cluster_digest, emit

# spans whose sum reproduces each workload's untraced call (REPS is not
# part of the text program)
SPINE = ("sources.storage.read", "stages.signatures",
         "stages.substring.buckets", "stages.lsh.explode", "stages.lsh.pair",
         "stages.lsh.dedupe", "stages.verify.index", "stages.verify.resolve",
         "state.unionfind", "pipelines.image_dedup.finalize")
REPS = "pipelines.image_dedup.representatives"
INGEST = "pipelines.incremental.ingest"
CALL_SPANS = {"img_mixed": SPINE + (REPS,), "text_planted": SPINE,
              "img_ingest": (INGEST,)}
STAGES = ("signatures", "verified_edges", "labels", "clusters",
          "representatives")
KERNEL_SAMPLE = 16  # rows per format; best of KERNEL_REPS passes
KERNEL_REPS = 5
UNTRACED_CALLS = 3  # trace_overhead_s is taken against their median


class Tracer:
    def __init__(self):
        self.m: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        out: dict = {}
        j0, t0 = cpu_jiffies(), time.perf_counter()
        yield out
        self.m[f"{name}.s"] = time.perf_counter() - t0
        self.m[f"{name}.busy_frac"] = busy_frac(j0, cpu_jiffies())
        self.m[f"{name}.rows_out"] = out["rows"]


def representatives(clusters, full, cfg):
    """One input row per cluster, as ``image_dedup.run_pipeline`` builds
    its ``representatives`` stage."""
    import pyarrow as pa

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

    schema = pa.schema([("cluster_id", pa.string()),
                        ("cluster_size", pa.int64())])

    def red(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df.groupby("cluster_id", sort=False).size() \
            .rename("cluster_size").reset_index()
        return pa.Table.from_pandas(out, preserve_index=False).cast(schema)

    ids = hash_grouped_reduce(
        clusters.select_columns(["cluster_id"]),
        lambda t: H.hash_bytes_array(
            t["cluster_id"].combine_chunks().cast(pa.string())),
        red, cfg.num_partitions,
    ).rename_columns({"cluster_id": "image_id"})
    return lookup_join(full, ids, on=["image_id"], cfg=cfg)


def spine_pass(wl, tr: Tracer):
    """One traced pass over the workload's whole input; returns the
    clusters frame (id, cluster_id)."""
    import pyarrow as pa

    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.text_dedup import (as_engine_table,
                                                        text_signatures)
    from deduplication_ray.sources import storage
    from deduplication_ray.stages import lsh, verify
    from deduplication_ray.stages.substring import substring_buckets
    from deduplication_ray.state import unionfind

    cfg = wl.cfg
    text = wl.id_col == "doc_id"
    with tr.span("sources.storage.read") as s:
        if text:
            inp = as_engine_table(storage.read_table(
                wl.data, columns=["doc_id", "text"])).materialize()
        else:
            inp = storage.read_table(wl.data).materialize()
        s["rows"] = inp.count()
    with tr.span("stages.signatures") as s:
        sigs = (text_signatures(inp, cfg, "image_id", "caption") if text
                else image_dedup.compute_signatures(inp, cfg)).materialize()
        s["rows"] = sigs.count()
    with tr.span("stages.substring.buckets") as s:
        sb = substring_buckets(
            inp.select_columns(["image_id", "caption"]), cfg).materialize()
        s["rows"] = sb.count()
    tr.m["stages.substring.bucket_rows"] = s["rows"]
    fams = (("minhash", "exact") if text
            else ("minhash", "phash", "simhash", "exact"))
    with tr.span("stages.lsh.explode") as s:
        bands = sigs.map_batches(
            lsh.ExplodeBands(cfg, families=fams), batch_format="pyarrow",
            batch_size=cfg.text_batch_size).materialize()
        s["rows"] = bands.count()
    tr.m["stages.lsh.band_rows"] = s["rows"]
    with tr.span("stages.lsh.pair") as s:
        pairs = lsh.slim_pairs_from_buckets(bands.union(sb), cfg).materialize()
        s["rows"] = pairs.count()
    cand = tr.m["stages.lsh.candidate_pairs"] = s["rows"]
    with tr.span("stages.lsh.dedupe") as s:
        uniq = lsh.dedupe_slim_pairs(pairs, cfg).materialize()
        s["rows"] = uniq.count()
    n_uniq = tr.m["stages.lsh.unique_pairs"] = s["rows"]
    tr.m["stages.lsh.unique_ratio"] = n_uniq / cand if cand else 1.0
    with tr.span("stages.verify.index") as s:
        ref = verify.signature_index(sigs, cfg)
        if ref is None:
            raise RuntimeError("signatures exceed the broadcast tier")
        s["rows"] = sigs.count()
    with tr.span("stages.verify.resolve") as s:
        ve = verify.resolve_and_verify_pairs(
            uniq, ref, cfg, has_pixels=not text).materialize()
        s["rows"] = ve.count()
    acc = tr.m["stages.verify.accepted_edges"] = s["rows"]
    tr.m["stages.verify.accept_ratio"] = acc / n_uniq if n_uniq else 1.0
    kinds = pa.concat_tables(
        [t.select(["kind"]) for t in ve.iter_batches(
            batch_format="pyarrow", batch_size=None)]
        or [pa.table({"kind": pa.array([], pa.string())})])
    counts = kinds["kind"].value_counts().to_pylist()
    for k in lsh.KIND_PRIORITY:
        tr.m[f"stages.verify.edges.{k}"] = sum(
            c["counts"] for c in counts if c["values"] == k)
    rounds = []
    with tr.span("state.unionfind") as s:
        labels = unionfind.connected_components(
            ve.select_columns(["src", "dst", "kind"]), cfg,
            checkpoint_cb=lambda r, ds: rounds.append(r) or ds).materialize()
        s["rows"] = labels.count()
    tr.m["state.unionfind.rounds"] = len(rounds)
    with tr.span("pipelines.image_dedup.finalize") as s:
        clusters = image_dedup.finalize_clusters(
            inp.select_columns(["image_id"]), labels, cfg).materialize()
        s["rows"] = clusters.count()
    # on text a probe only: the text program builds no representatives
    with tr.span(REPS) as s:
        s["rows"] = representatives(clusters, inp, cfg).materialize().count()
    return clusters.to_pandas().rename(columns={"image_id": wl.id_col})


def counters_consistent(m: dict) -> bool:
    """Per-kind edges sum to the accepted edges, and no stage of the pair
    funnel emits more than it received."""
    from deduplication_ray.stages.lsh import KIND_PRIORITY

    acc = m["stages.verify.accepted_edges"]
    return (sum(m[f"stages.verify.edges.{k}"] for k in KIND_PRIORITY) == acc
            and m["stages.lsh.candidate_pairs"] >= m["stages.lsh.unique_pairs"]
            >= acc)


def ingest_pass(wl, tr: Tracer) -> str:
    """One traced incremental ingest of every 6th row against the base run
    over the rest, in text mode for text; returns its run dir."""
    from deduplication_ray.pipelines.incremental import ingest_delta

    cfg = wl.cfg
    text = wl.id_col == "doc_id"
    split = wl.spec["text_split" if text else "img_split"]
    base_run = base_run_dir(split)
    out = wl.fresh_dir("tingest")
    with tr.span(INGEST) as s:
        m = ingest_delta(base_run, os.path.join(split, "base"),
                         os.path.join(split, "delta"), out, cfg,
                         mode="text" if text else "image")
        s["rows"] = m["rows"]["signatures"]
    # the seconds the pipeline itself reports per checkpointed stage
    sec = m["stage_seconds"]
    for st in STAGES[:-1]:
        tr.m[f"{INGEST}.program.{st}.s"] = sum(
            v for k, v in sec.items()
            if k == st or (st == "labels" and k.startswith("labels_r")))
    return out


def checkpoint_bytes(run_dir: str) -> dict[str, float]:
    out = {}
    for st in STAGES:
        total = 0
        for name in os.listdir(run_dir):
            if name == st or (st == "labels" and name.startswith("labels_r")):
                for root, _, files in os.walk(os.path.join(run_dir, name)):
                    total += sum(os.path.getsize(os.path.join(root, f))
                                 for f in files)
        out[f"state.checkpoint.bytes_written.{st}"] = total
    return out


def kernel_metrics(wl, spec: dict) -> dict[str, float]:
    """Per-item microseconds of the hot kernels on a fixed sample of rows:
    pixel decode per format, pHash, and MinHash over the workload's
    captions (or documents)."""
    import numpy as np
    import pyarrow as pa

    from deduplication_ray.functions import codecs as C
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.signatures import normalize_captions
    from inputs import read_dir

    cfg = wl.cfg
    img = read_dir(os.path.join(spec["kernel_img"], "data"))
    out = {}
    grays = []
    for fmt in ("jpg", "png", "qrgb", "raw"):
        rows = img[img["fmt"] == fmt].head(KERNEL_SAMPLE)
        if rows.empty:
            raise RuntimeError(f"kernel sample has no {fmt} rows")
        best = float("inf")
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            dec = [C.decode_image(b, fmt, int(w), int(h)) for b, w, h
                   in zip(rows["bytes"], rows["w"], rows["h"])]
            best = min(best, time.perf_counter() - t0)
        out[f"functions.codecs.decode_{fmt}_us"] = best / len(rows) * 1e6
        grays += [C.resize_area(C.to_grayscale(d), cfg.phash_size)
                  for d in dec]
    stack = np.stack(grays).astype(np.float32)
    best = float("inf")
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        C.phash64_batch(stack, cfg.phash_size, cfg.phash_lowfreq)
        best = min(best, time.perf_counter() - t0)
    out["functions.codecs.phash_us"] = best / len(stack) * 1e6

    if wl.id_col == "doc_id":
        text = read_dir(wl.data)["text"]
    else:
        text = img["caption"]
    cap = normalize_captions(pa.array(text.head(256).tolist(), pa.string()))
    a, b = H.make_minhash_perms(cfg.num_perm, cfg.seed)
    best = float("inf")
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        sh, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        H.minhash_signatures(sh, offs, a, b)
        best = min(best, time.perf_counter() - t0)
    out["functions.hashing.minhash_us"] = best / len(cap) * 1e6
    return out


def traced_run(wl, spec: dict, dog) -> None:
    """``UNTRACED_CALLS`` untraced calls (their median is the baseline
    of the tracing overhead), then traced passes until the budget is
    spent, then the kernels. Every metric is the median over the traced
    passes. A call fails when its clusters differ from the first call's; a
    pass fails when its spine clusters or its ingest clusters do, or its
    pair-funnel counters are inconsistent. Checkpoint bytes are those the
    first untraced call wrote, or the traced ingest's for text."""
    from inputs import read_dir

    t_begin = time.perf_counter()
    secs: list[float] = []
    ref = ckpt = None
    failed = 0
    for _ in range(UNTRACED_CALLS):
        dog.arm("untraced call")
        sec, _, pred, run_dir = wl.call()
        dog.disarm()
        secs.append(sec)
        digest = check_clusters(pred, wl.truth, wl.id_col)["digest"]
        ref = ref or digest
        failed += digest != ref
        if run_dir:
            ckpt = ckpt or checkpoint_bytes(run_dir)
            shutil.rmtree(run_dir, ignore_errors=True)
    untraced_s = statistics.median(secs)
    passes: list[dict] = []
    while not passes or (time.perf_counter() - t_begin + statistics.median(
            p["_pass_s"] for p in passes) <= spec["budget"]):
        tr = Tracer()
        t0 = time.perf_counter()
        dog.arm("traced pass")
        clusters = spine_pass(wl, tr)
        out = ingest_pass(wl, tr)
        dog.disarm()
        tr.m["_pass_s"] = time.perf_counter() - t0
        inc = read_dir(os.path.join(out, "clusters")).rename(
            columns={"image_id": wl.id_col})
        if ckpt is None:  # text: the lazy call writes no checkpoints
            ckpt = checkpoint_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        if ({cluster_digest(clusters, wl.id_col),
                cluster_digest(inc, wl.id_col)} != {ref}
                or not counters_consistent(tr.m)):
            failed += 1
        tr.m["trace_overhead_s"] = sum(
            tr.m[f"{n}.s"] for n in CALL_SPANS[spec["workload"]]) - untraced_s
        passes.append(tr.m)
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in passes[0] if not k.startswith("_")}
    metrics.update(ckpt)
    metrics["state.checkpoint.bytes_written.total"] = sum(ckpt.values())
    metrics.update(kernel_metrics(wl, spec))
    emit("trace", metrics=metrics, attempted=len(passes) + UNTRACED_CALLS,
         failed=failed)
