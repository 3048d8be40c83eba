"""Flagship pipeline: near-duplicate detection + clustering over an
image+caption table (BASELINE.json north rule).

``run_pipeline`` is the engines' one checkpointed driver,
``incremental.run_checkpointed``, in image mode; its verified edges are the
one edge plan of ``incremental.engine_kit``. This module keeps the image
pieces of that plan (the signature stage, the cluster tail) and the
image-only operators around it (tier funnel, modality agreement,
representative elections, ``reconstruct``).

Stage DAG (each boundary is a checkpoint, see state/checkpoint.py):

  input parquet (image_id, bytes, w, h, fmt, caption, phash)
    | map_batches(ComputeSignatures tasks)           [decode once; bytes die]
  signatures (image_id, ck1, ck2, cap_hash, phash, phash_ok, simhash, minhash)
    | verified_edges: one bucket stream (MinHash / pHash / SimHash bands,
    |   exact content key, caption L-grams [+ opt-in orientation / crop
    |   variant bands]) -> tag + salt -> slim id-hash pairs -> pair dedupe
    |   -> resolve signatures (broadcast gather, or hash joins above the
    |   broadcast tier) + verify (Hamming/Jaccard [+ min variant Hamming])
    |   [+ opt-in suffix-array edges]
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


# the image run's bucket families; the channel ones emit only when their
# config flag is on
PIXEL_FAMILIES = ("minhash", "phash", "simhash", "exact", "orient", "window")


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
    strict_resume: bool = False,
) -> dict:
    """Execute (or resume) the full image dedup DAG
    (``incremental.run_checkpointed`` in image mode); returns stage
    metrics.

    Outputs under run_dir: signatures/ (one group_k per input-shard group
    when ``input_path`` is a directory) verified_edges/ labels_r{k}/ clusters/ representatives/, each with a
    lineage manifest, and the run manifest carrying the returned metrics.
    ``strict_resume`` (the CLI ``resume`` verb) refuses stale-config
    checkpoints; the default recomputes them.
    """
    from deduplication_ray.pipelines.incremental import run_checkpointed

    return run_checkpointed(input_path, run_dir, cfg, "image",
                            strict_resume=strict_resume)


def _channel_clusters(
    sigs: ray.data.Dataset,
    cfg: DedupConfig,
    families: tuple[str, ...],
    has_pixels: bool = True,
) -> ray.data.Dataset:
    """Clusters over ONE candidate-family slice of the shared bucket stream:
    ``ExplodeBands(families=...)`` emits only the selected families, so the
    others never exist, and ``verify.pair_and_verify`` pairs and verifies
    them. The exact family keys on the content key ``(ck1, ck2)`` when
    ``sigs`` carries it, else on ``cap_hash``."""
    buckets = sigs.map_batches(lsh.ExplodeBands(cfg, families=families),
                               batch_format="pyarrow",
                               batch_size=cfg.text_batch_size)
    ve = verify.pair_and_verify(
        buckets, verify.DeferredSignatureIndex(sigs, cfg), cfg,
        has_pixels=has_pixels)
    return finalize_clusters(sigs.select_columns(["image_id"]),
                             unionfind.connected_components(ve, cfg), cfg)


def channel_dup_pairs(input_ds: ray.data.Dataset, cfg: DedupConfig,
                      family: str) -> ray.data.Dataset:
    """input table (image_id, bytes, w, h, fmt, caption, phash) -> the
    near-dup pairs (id_a, id_b), id_a < id_b, of ONE opt-in image channel
    (``lsh.CHANNELS``: 'orient' or 'window', whose config flag must be on):
    its variant bands alone through the one bucket stream, kept iff the
    min Hamming over valid variant pairs (``verify.channel_hamming``) is
    within the channel's radius.

    Complete only below ``cfg.bucket_cap``: a bucket above it is salted
    into stars plus ambassadors (``pair_and_verify``), which emit a
    spanning set of its pairs, so two near-duplicates that are neither an
    anchor nor an ambassador are joined by a path of pairs, not a pair.
    With ``bucket_cap=4`` on the stride-5 fixtures, 20 of 171 planted
    orientation pairs and 10 of 165 planted crop pairs were not emitted."""
    import pyarrow.compute as pc

    sigs = compute_signatures(input_ds, cfg).materialize()
    radius = getattr(cfg, lsh.CHANNELS[family].radius)

    def accept(t: pa.Table, col) -> np.ndarray:
        return verify.channel_hamming(family, col, None) <= radius

    def ordered(t: pa.Table) -> pa.Table:
        # id_a < id_b as strings: the resolve emits id-hash order
        lt = pc.less(t["src"], t["dst"])
        return pa.table({"id_a": pc.if_else(lt, t["src"], t["dst"]),
                         "id_b": pc.if_else(lt, t["dst"], t["src"])})

    buckets = sigs.map_batches(lsh.ExplodeBands(cfg, families=(family,)),
                               batch_format="pyarrow",
                               batch_size=cfg.text_batch_size)
    return verify.pair_and_verify(
        buckets, verify.DeferredSignatureIndex(sigs, cfg), cfg,
        accept=accept).map_batches(ordered, batch_format="pyarrow")


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

    return hash_grouped_reduce(j, ["cluster_id"], elect,
                               cfg.num_partitions)


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

    return hash_grouped_reduce(scored, ["cluster_id"], elect,
                               cfg.num_partitions)
