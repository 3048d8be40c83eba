"""Flagship pipeline: near-duplicate detection + clustering over an
image+caption table (BASELINE.json north rule).

Stage DAG (each boundary is a checkpoint, see state/checkpoint.py):

  input parquet (image_id, bytes, w, h, fmt, caption, phash)
    | map_batches(ComputeSignatures tasks)           [decode once; bytes die]
  signatures (image_id, ck1, ck2, cap_hash, phash, phash_ok, simhash, minhash)
    | verified_edges: one bucket stream (MinHash / pHash / SimHash bands,
    |   exact content key, caption L-grams) -> tag + salt -> slim id-hash
    |   pairs -> pair dedupe -> resolve signatures (broadcast gather, or
    |   hash joins above the broadcast tier) + verify (Hamming/Jaccard)
  verified_edges (src, dst, kind)     [candidate pairs are never written]
    | checkpointed_clusters: connected_components (one local pass, or
    |   hash-min rounds checkpointed as labels_r{k}) -> finalize: left-join
    |   all ids
  clusters (image_id, cluster_id)      [the assignments]
    | one input row per cluster_id
  representatives

This is the graft of the reference's compress path R1->R8->R11-R13
(``/root/reference/src/compressor.c:41-207``): representatives generalize the
dictionary, assignments generalize the block_ids stream. ``reconstruct``
below is the decompress analog R15-R18 (``compressor.c:212-341``): a
broadcast-style join of assignments x representative rows, verified by
per-row invariants instead of byte equality.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count

from deduplication_ray.config import DedupConfig
from deduplication_ray.sources import storage
from deduplication_ray.stages import lsh, verify
from deduplication_ray.stages.signatures import ComputeSignatures
from deduplication_ray.state import unionfind
from deduplication_ray.state.checkpoint import CheckpointedRun


def compute_signatures(input_ds: ray.data.Dataset, cfg: DedupConfig) -> ray.data.Dataset:
    return input_ds.map_batches(
        ComputeSignatures(cfg), batch_format="pyarrow", batch_size=cfg.batch_size
    )


PIXEL_FAMILIES = ("minhash", "phash", "simhash", "exact")


def verified_edges(
    signatures: ray.data.Dataset,
    cfg: DedupConfig,
    captions: ray.data.Dataset | None = None,
    substr_buckets: ray.data.Dataset | None = None,
    families: tuple[str, ...] = PIXEL_FAMILIES,
    has_pixels: bool = True,
) -> ray.data.Dataset:
    """The verified-edge stage of the image AND text pipelines:
    candidate pairs -> pair dedupe -> resolve + verify, emitting
    (src, dst, kind).

    One bucket stream carries every candidate family (MinHash bands, pHash /
    SimHash multi-index bands, the exact content-key family, the L-gram
    substring family of ``captions``) so bucket stats, hot detection and
    salting run exactly once. Pairs exchange as 18-byte (id-hash, id-hash,
    prio, sc) rows; the signature resolve is a broadcast gather against the
    signature index inside the broadcast tier and a hash-join resolve above
    it (``verify.pair_and_verify``). ``substr_buckets`` replaces
    the substring family built from ``captions`` when it was prefetched
    (already materialized: the union reuses its blocks). With
    ``cfg.use_suffix_array`` the suffix-array edges, trusted 'substr' by
    construction, join after the verify."""
    from deduplication_ray.stages.substring import (substring_buckets,
                                                    suffix_array_edges)

    sig_idx = verify.DeferredSignatureIndex(signatures, cfg)
    buckets = signatures.map_batches(
        lsh.ExplodeBands(cfg, families=families),
        batch_format="pyarrow", batch_size=cfg.text_batch_size,
    )
    if substr_buckets is None and captions is not None:
        substr_buckets = substring_buckets(captions, cfg)
    if substr_buckets is not None:
        buckets = buckets.union(substr_buckets)
    ve = verify.pair_and_verify(buckets, sig_idx, cfg, has_pixels=has_pixels)
    if cfg.use_suffix_array and captions is not None:
        ve = ve.union(suffix_array_edges(captions, cfg)
                      .select_columns(["src", "dst", "kind"]))
    return ve


def finalize_clusters(
    input_ids: ray.data.Dataset, labels: ray.data.Dataset, cfg: DedupConfig,
    id_col: str = "image_id",
) -> ray.data.Dataset:
    """clusters(id_col, cluster_id): propagated label, else self (singleton).

    Left join realized as: ids LEFT JOIN labels ON image_id == node, where
    ``input_ids`` holds every id as the string column ``image_id``; the
    output names that column ``id_col``.
    """
    from deduplication_ray.stages.join import lookup_join

    j = lookup_join(
        input_ids,
        labels.rename_columns({"node": "image_id"}),
        on=["image_id"],
        cfg=cfg,
        how="left",
    )

    def fill(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # all-null batches come back null-typed from the pandas merge
        lab = pc.coalesce(t["label"].cast(pa.string()), t["image_id"])
        return pa.table({id_col: t["image_id"], "cluster_id": lab})

    return j.map_batches(fill, batch_format="pyarrow")


def checkpointed_clusters(
    run: CheckpointedRun,
    edges: ray.data.Dataset,
    ids: ray.data.Dataset,
    cfg: DedupConfig,
    edge_rows: int | None = None,
) -> ray.data.Dataset:
    """The cluster tail of every checkpointed pipeline: union-find over
    ``edges`` (``unionfind.connected_components``) with round k computed
    and persisted as stage ``labels_r{k}``, then the ``clusters`` stage
    (``finalize_clusters`` over ``ids``). A complete ``clusters``
    checkpoint skips the union-find; otherwise the rounds resume after the
    latest complete ``labels_r{k}``. ``edge_rows`` (e.g. the
    ``verified_edges`` manifest's row count) spares counting ``edges``."""
    labels = None
    if not run.is_complete("clusters"):
        last = run.latest_labels_round()
        resume = None
        if last >= 0:
            run.skipped.extend(f"labels_r{k}" for k in range(last + 1))
            resume = (last,
                      storage.read_table(run.stage_dir(f"labels_r{last}")))

        def run_round(k: int, compute) -> ray.data.Dataset:
            return run.run_stage(
                f"labels_r{k}", compute,
                [f"labels_r{k - 1}" if k else "verified_edges"])

        labels = unionfind.connected_components(
            edges, cfg, run_round=run_round, resume=resume,
            edge_rows=edge_rows)
    return run.run_stage(
        "clusters", lambda: finalize_clusters(ids, labels, cfg), ["labels"])


def run_pipeline(
    input_path: str,
    run_dir: str,
    cfg: DedupConfig | None = None,
    input_ds: ray.data.Dataset | None = None,
    strict_resume: bool = False,
) -> dict:
    """Execute (or resume) the full dedup DAG; returns stage metrics.

    Outputs under run_dir: signatures/ verified_edges/ labels_r{k}/
    clusters/ representatives/, each with a lineage manifest, and the run
    manifest carrying the returned metrics.
    ``strict_resume`` (the CLI ``resume`` verb) refuses stale-config
    checkpoints; the default recomputes them.
    """
    cfg = cfg or DedupConfig()
    from deduplication_ray.stages.tuning import apply_context_tuning

    apply_context_tuning()
    run = CheckpointedRun(run_dir, cfg, strict_resume=strict_resume)

    def read_input() -> ray.data.Dataset:
        if input_ds is not None:
            return input_ds
        return storage.read_table(input_path)

    # Overlap the gram-fingerprint bucket build (captions only — independent
    # of the signature stage) with the signature decode below: the two
    # largest map stages otherwise run back-to-back with a barrier between
    # them, and the multi-core legs idle through each other's straggler
    # tails. A 1-core run is unaffected (work serializes either way); at 4+
    # cores the overlap fills the barrier gaps.
    _substr_prefetch: dict = {}
    _substr_thread = None
    if not run.is_complete("verified_edges"):
        import threading

        from deduplication_ray.stages.substring import substring_buckets

        def _read_captions_early() -> ray.data.Dataset:
            if input_ds is not None:
                return input_ds.select_columns(["image_id", "caption"])
            return storage.read_table(input_path,
                                      columns=["image_id", "caption"])

        def _prefetch() -> None:
            try:
                _substr_prefetch["ds"] = substring_buckets(
                    _read_captions_early(), cfg).materialize()
            except BaseException as exc:  # surfaced on join in make_vedges
                _substr_prefetch["err"] = exc

        _substr_thread = threading.Thread(target=_prefetch, daemon=True)
        _substr_thread.start()

    if input_ds is None and os.path.isdir(input_path):
        # partition-level lineage: signatures computed per input-shard group,
        # each group committed atomically — a killed run resumes at the first
        # unfinished shard group (T14)
        files = storage.dataset_files(input_path)
        sigs = run.run_stage_sharded(
            "signatures",
            files,
            lambda fs: compute_signatures(storage.read_table(fs), cfg),
            upstream=["input"],
        )
    else:
        sigs = run.run_stage(
            "signatures", lambda: compute_signatures(read_input(), cfg), ["input"]
        )

    def read_captions() -> ray.data.Dataset:
        # substring passes need ONLY (image_id, caption): prune at the read
        # so the edges stage never re-scans the image payload bytes
        if input_ds is not None:
            return input_ds.select_columns(["image_id", "caption"])
        return storage.read_table(input_path, columns=["image_id", "caption"])

    # edges are built AND verified inside one checkpoint stage: the raw
    # candidate stream is transient (only verified survivors are worth a
    # checkpoint write), which drops one full materialize+write+re-read
    # barrier from every run
    def make_vedges() -> ray.data.Dataset:
        pre_sb = None
        if _substr_thread is not None:
            _substr_thread.join()
            if "err" in _substr_prefetch:
                raise _substr_prefetch["err"]
            pre_sb = _substr_prefetch.get("ds")
        ve = verified_edges(sigs, cfg, read_captions(), substr_buckets=pre_sb)
        # opt-in extra pixel-identity channels: their pairs are already
        # verified by construction (min relative-orientation / valid-window
        # Hamming), so they join AFTER the pHash/SimHash verify — which
        # would reject them, that blindness being the point. Duplicate
        # edges across channels are harmless to min-label propagation.
        if cfg.orientation_channel:
            from deduplication_ray.pipelines.orientation import (
                orientation_edges_from_signatures)

            ve = ve.union(orientation_edges_from_signatures(sigs, cfg))
        if cfg.crop_channel:
            from deduplication_ray.pipelines.cropdup import (
                crop_edges_from_signatures)

            ve = ve.union(crop_edges_from_signatures(sigs, cfg))
        return ve

    vedges = run.run_stage("verified_edges", make_vedges, ["signatures"])

    if cfg.skip_undecodable:
        # dropped-undecodable rows must not resurface as singleton clusters:
        # the id universe is what SURVIVED the signature stage
        ids = sigs.select_columns(["image_id"])
    else:
        ids = storage.read_table(input_path, columns=["image_id"]) \
            if input_ds is None else input_ds.select_columns(["image_id"])
    # union-find with per-round checkpoints (mid-shuffle resume)
    clusters = checkpointed_clusters(
        run, vedges, ids, cfg, edge_rows=run.rows("verified_edges"))

    # representatives: one row per cluster (min image_id IS the cluster_id) —
    # semi-join the full input on cluster_id == image_id (R12 analog)
    def reps() -> ray.data.Dataset:
        from deduplication_ray.functions import hashing as H
        from deduplication_ray.stages.groupred import hash_grouped_reduce
        from deduplication_ray.stages.join import lookup_join

        schema = pa.schema([("cluster_id", pa.string()),
                            ("cluster_size", pa.int64())])

        def red(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            out = df.groupby("cluster_id", sort=False).size() \
                .rename("cluster_size").reset_index()
            # explicit schema: empty frames round-trip to Arrow null type
            return pa.Table.from_pandas(out, preserve_index=False).cast(schema)

        # group-per-row cardinality (mostly singleton clusters): hash-
        # partitioned vectorized reduce, not Ray aggregate
        reps_ids = hash_grouped_reduce(
            clusters.select_columns(["cluster_id"]),
            lambda t: H.hash_bytes_array(
                t["cluster_id"].combine_chunks().cast(pa.string())),
            red,
            cfg.num_partitions,
        ).rename_columns({"cluster_id": "image_id"})
        full = read_input()
        return lookup_join(full, reps_ids, on=["image_id"], cfg=cfg)

    representatives = run.run_stage("representatives", reps, ["clusters"])

    return run.finish(("signatures", "verified_edges", "clusters",
                       "representatives"))


def _channel_clusters(
    sigs: ray.data.Dataset,
    cfg: DedupConfig,
    families: tuple[str, ...],
    has_pixels: bool = True,
) -> ray.data.Dataset:
    """Clusters over ONE candidate-family slice of the shared bucket stream:
    ``verified_edges`` with ``ExplodeBands(families=...)`` emitting only the
    selected families, so the others never exist. The exact family keys on
    the content key ``(ck1, ck2)`` when ``sigs`` carries it, else on
    ``cap_hash``."""
    ve = verified_edges(sigs, cfg, families=families, has_pixels=has_pixels)
    return finalize_clusters(sigs.select_columns(["image_id"]),
                             unionfind.connected_components(ve, cfg), cfg)


def _self_representatives(clusters: ray.data.Dataset) -> ray.data.Dataset:
    """Rows whose propagated label IS their own id — the tier's survivors
    (hash-min propagation converges every cluster to its min id)."""

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t["image_id"], t["cluster_id"])) \
            .select(["image_id"])

    return clusters.map_batches(keep, batch_format="pyarrow")


def tier_dedup_report(input_ds: ray.data.Dataset, cfg: DedupConfig | None = None):
    """TIERED image-dedup funnel — the production curation shape (cheap
    exact tiers first, each costlier tier sees only survivors), with
    per-tier attrition reported:

      tier 1  EXACT    collapse identical (decoded-pixel key, caption) rows
                       (the exact family of the bucket stream alone)
                       to the min-image_id representative — the reference's
                       first-occurrence dictionary insert
                       (``/root/reference/src/compressor.c:109-113``) at
                       image granularity;
      tier 2  PIXEL    pHash + SimHash multi-index Hamming near-dup over
                       exact survivors (re-encodes, mild pixel noise);
      tier 3  CAPTION  MinHash-LSH + exact-caption-hash near-dup over pixel
                       survivors (caption paraphrases / shared captions).

    Output: one row per tier — (tier, tier_name, images_in, images_out) —
    the attrition report a curation run publishes. Rows-only check (tiers
    2-3 are iterative); funnel invariants (monotone attrition, tier-1
    parity with the distinct content-key count, >= the one-shot pipeline's
    cluster count since sequential tiers cannot see cross-channel bridges
    through dropped rows) are asserted in
    tests/test_pipeline.py::test_image_tier_dedup_funnel.

    Scale plan: images decode exactly ONCE (the shared signature pass);
    every later tier is a filter + the engine's own bucketed channels over
    the signature table, so no tier re-reads image bytes, and inter-tier
    survivor joins are id-set lookup joins (broadcast below
    ``cfg.broadcast_limit``). The report itself is three rows.
    """
    import pandas as pd

    from deduplication_ray.stages.join import lookup_join
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    apply_context_tuning()

    sigs = compute_signatures(input_ds, cfg).materialize()
    n_in = sigs.count()

    def survivors(s: ray.data.Dataset, families: tuple[str, ...]):
        reps = _self_representatives(_channel_clusters(s, cfg, families))
        return lookup_join(s, reps, on=["image_id"], cfg=cfg).materialize()

    # tier 1: exact — the exact family alone: min image_id per 128-bit
    # (pixel key, caption hash) content key
    s1 = survivors(sigs, ("exact",))
    n1 = s1.count()

    # tier 2: pixel near-dup (pHash + SimHash multi-index bands)
    s2 = survivors(s1, ("phash", "simhash"))
    n2 = s2.count()

    # tier 3: caption near-dup (MinHash bands + exact caption hash: without
    # ck1/ck2 the exact family keys on cap_hash)
    cl3 = _channel_clusters(s2.drop_columns(["ck1", "ck2"]), cfg,
                            ("minhash", "exact"), has_pixels=False)
    n3 = _self_representatives(cl3).count()

    return pd.DataFrame({
        "tier": [1, 2, 3],
        "tier_name": ["exact", "pixel_near_dup", "caption_near_dup"],
        "images_in": [n_in, n1, n2],
        "images_out": [n1, n2, n3],
    })


def reconstruct(run_dir: str, cfg: DedupConfig | None = None) -> ray.data.Dataset:
    """Decompress analog (R17, ``compressor.c:320-339``): rebuild a full table
    view by joining assignments (clusters) back to representative rows.

    Returns a Dataset with one row per original image_id carrying its
    cluster representative's payload columns.
    """
    from deduplication_ray.stages.join import lookup_join

    cfg = cfg or DedupConfig()
    clusters = storage.read_table(f"{run_dir}/clusters")
    reps = storage.read_table(f"{run_dir}/representatives")
    return lookup_join(
        clusters,
        reps.rename_columns({"image_id": "cluster_id"}),
        on=["cluster_id"],
        cfg=cfg,
    )


def modality_agreement(input_ds: ray.data.Dataset,
                       cfg: DedupConfig | None = None):
    """Cross-modal drift probe for the image+caption graft cell: cluster the
    corpus twice — once from the PIXEL channels alone (pHash + SimHash
    multi-index bands) and once from the CAPTION channels alone (MinHash
    LSH bands + exact caption hash) — and report pair-level agreement as
    the exact Adjusted Rand Index (``evaluate.cluster_agreement``; pair
    sets never materialized). A high ARI says captions alone reproduce the
    pixel dedup decisions (cheap-channel-first tiering is safe); a low one
    says the modalities catch different duplicate families and the fused
    engine is doing real work. One signature pass feeds both clusterings —
    pixels are decoded exactly once."""
    from deduplication_ray.pipelines.evaluate import cluster_agreement
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    apply_context_tuning()
    sigs = compute_signatures(input_ds, cfg).materialize()
    pix = _channel_clusters(sigs, cfg, ("phash", "simhash"))
    cap = _channel_clusters(sigs.drop_columns(["ck1", "ck2"]), cfg,
                            ("minhash", "exact"), has_pixels=False)
    return cluster_agreement(pix, cap, id_col="image_id")


def keep_best_representatives(clusters: ray.data.Dataset,
                              meta: ray.data.Dataset,
                              cfg: DedupConfig | None = None):
    """Quality-aware representative election — the image-payload "keep the
    best copy" curation policy: within each near-dup cluster, keep the
    member with the largest pixel area (w x h), ties to the smaller
    image_id. Replaces the stability-oriented min-id election when output
    quality matters (the highest-resolution original wins over re-encoded
    or downscaled copies). ``meta`` is (image_id, w, h) — prune the read
    to those columns; pixels never move.

    Plan: one lookup join attaches the areas to the cluster table, then a
    hash-grouped vectorized argmax per cluster_id (one lexsort per
    partition, `groupred.hash_grouped_reduce`) — the only exchange is
    (id, label, area) rows. Output (cluster_id, best_id, best_px,
    n_members)."""
    import pandas as pd

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

    cfg = cfg or DedupConfig()

    def with_px(t: pa.Table) -> pa.Table:
        px = (t["w"].cast(pa.int64()).to_numpy()
              * t["h"].cast(pa.int64()).to_numpy())
        return pa.table({"image_id": t["image_id"],
                         "cluster_id": t["cluster_id"],
                         "px": pa.array(px)})

    j = lookup_join(clusters, meta, on=["image_id"], cfg=cfg) \
        .map_batches(with_px, batch_format="pyarrow")

    def elect(t: pa.Table) -> pa.Table:
        cl = t["cluster_id"].to_pandas().to_numpy()
        ids = t["image_id"].to_pandas().to_numpy()
        px = t["px"].to_numpy()
        codes, uniq = pd.factorize(cl, sort=False)
        order = np.lexsort((ids, -px, codes))   # per cluster: px desc, id asc
        c_s = codes[order]
        first = np.concatenate([[True], c_s[1:] != c_s[:-1]]) \
            if len(c_s) else np.zeros(0, bool)
        win = order[first]
        return pa.table({
            "cluster_id": pa.array(cl[win], pa.string()),
            "best_id": pa.array(ids[win], pa.string()),
            "best_px": pa.array(px[win]),
            "n_members": pa.array(np.bincount(codes, minlength=len(uniq))
                                  [c_s[first]].astype(np.int64)),
        })

    return hash_grouped_reduce(
        j,
        key_hash=lambda t: H.hash_bytes_array(
            t["cluster_id"].combine_chunks()
            if isinstance(t["cluster_id"], pa.ChunkedArray)
            else t["cluster_id"]),
        reduce_fn=elect,
        num_parts=cfg.num_partitions,
    )


def keep_sharpest_representatives(clusters: ray.data.Dataset,
                                  input_ds: ray.data.Dataset,
                                  cfg: DedupConfig | None = None):
    """Sharpness-aware representative election — the quality policy the
    pixel-area election (``keep_best_representatives``) cannot express: an
    interpolated UPSCALE has more pixels but less high-frequency energy
    than its source, so area keeps the blurry enlargement while the
    Laplacian score (``codecs.laplacian_sharpness_milli``) keeps the
    original. Ties (exact copies) break to the smaller image_id.

    Scale plan: only MULTI-member clusters decode — the cluster table is
    counted first and singleton rows (the vast majority of a deduped
    corpus) never touch pixels; the dup slice decodes once per distinct
    payload in a stateless map_batches pass and the election is one
    hash-grouped vectorized argmax. Output (cluster_id, best_id,
    sharp_milli, n_members)."""
    import pandas as pd

    from ray.data.aggregate import Count

    from deduplication_ray.functions import codecs as C
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

    cfg = cfg or DedupConfig()
    sizes = clusters.groupby("cluster_id").aggregate(
        Count(alias_name="n_members"))
    multi = sizes.filter(expr="n_members >= 2")
    members = lookup_join(clusters, multi, on=["cluster_id"], cfg=cfg)
    rows = lookup_join(
        input_ds.select_columns(["image_id", "bytes", "fmt", "w", "h"]),
        members, on=["image_id"], cfg=cfg)

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"cluster_id": pa.array([], pa.string()),
                             "image_id": pa.array([], pa.string()),
                             "n_members": pa.array([], pa.int64()),
                             "sharp_milli": pa.array([], pa.int64())})
        payloads = (t["bytes"].combine_chunks()
                    if isinstance(t["bytes"], pa.ChunkedArray) else t["bytes"])
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        fmts = t["fmt"].to_pylist()
        ws = t["w"].to_numpy()
        hs = t["h"].to_numpy()
        # batch-local distinct-payload probe (the signature stage's
        # dict_find analog): exact-copy clusters — the common case here —
        # score each identical (payload, fmt, w, h) exactly once
        dk = (H.hash_bytes_array(payloads)
              ^ H.hash_bytes_array(t["fmt"])
              ^ (ws.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
              ^ (hs.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)))
        uniq, inv = np.unique(dk, return_inverse=True)
        first = np.zeros(len(uniq), np.int64)
        first[inv[::-1]] = np.arange(t.num_rows - 1, -1, -1)
        scores = np.empty(len(uniq), np.int64)
        for u, i in enumerate(first):
            img = C.decode_image(bytes(pbuf[poffs[i]:poffs[i + 1]]),
                                 fmts[i], int(ws[i]), int(hs[i]))
            scores[u] = C.laplacian_sharpness_milli(C.to_grayscale(img))
        out = scores[inv]
        return pa.table({"cluster_id": t["cluster_id"],
                         "image_id": t["image_id"],
                         "n_members": t["n_members"].cast(pa.int64()),
                         "sharp_milli": pa.array(out)})

    scored = rows.map_batches(score, batch_format="pyarrow",
                              batch_size=cfg.batch_size)

    def elect(t: pa.Table) -> pa.Table:
        cl = t["cluster_id"].to_pandas().to_numpy()
        ids = t["image_id"].to_pandas().to_numpy()
        sm = t["sharp_milli"].to_numpy()
        nm = t["n_members"].to_numpy()
        codes, _ = pd.factorize(cl, sort=False)
        order = np.lexsort((ids, -sm, codes))
        c_s = codes[order]
        first = np.concatenate([[True], c_s[1:] != c_s[:-1]]) \
            if len(c_s) else np.zeros(0, bool)
        win = order[first]
        return pa.table({
            "cluster_id": pa.array(cl[win], pa.string()),
            "best_id": pa.array(ids[win], pa.string()),
            "sharp_milli": pa.array(sm[win]),
            "n_members": pa.array(nm[win]),
        })

    return hash_grouped_reduce(
        scored,
        key_hash=lambda t: H.hash_bytes_array(
            t["cluster_id"].combine_chunks()
            if isinstance(t["cluster_id"], pa.ChunkedArray)
            else t["cluster_id"]),
        reduce_fn=elect,
        num_parts=cfg.num_partitions,
    )
