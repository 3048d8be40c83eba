"""Incremental ingest: dedup a NEW delta of rows against an existing
deduplicated corpus without recomputing the corpus.

This is the daily-crawl shape of a 100 TB pipeline: the base corpus was
deduplicated once (``pipelines/image_dedup.run_pipeline``, checkpointed
signatures + clusters under ``base_run_dir``); a delta arrives and must be
(a) deduplicated against itself and (b) linked against the base — without
re-decoding a single base image.

Work is delta-bounded at every expensive stage:

- **Signatures** (image decode, the dominant cost) run on delta rows only;
  base signatures are read from the base run's checkpoint.
- **Candidate generation** re-keys base *signatures* into the full run's
  bucket stream — every family, the exact content-key family included
  (pure hash math over the narrow signature table — no pixels) — and keeps
  only base rows landing in a bucket some delta row occupies: the distinct
  delta bucket-key set is collected (bounded by |delta| x bands) and
  broadcast via ``ray.put``, and the base bucket stream is filtered by a
  vectorized ``searchsorted`` probe. Buckets untouched by the delta never
  emit a row.
  (At 10^12 rows one would checkpoint the bucket index instead of re-keying
  — the swap point is ``_bucket_stream``; re-keying costs one linear scan
  of the signature table, which measured ~2% of a full run.)
- **Old-old pairs are never re-verified**: after pair dedupe and before the
  resolve, a slim pair must touch at least one delta id (probe of the
  broadcast sorted delta id hashes). Connectivity among base rows is
  injected instead as zero-cost trusted star edges read straight from the
  base ``clusters`` checkpoint (non-singleton members -> their
  representative).
- **Union-find + finalize** then run over delta edges + base stars, so the
  result is EXACTLY the clusters a from-scratch run over base+delta would
  produce (asserted in tests/test_incremental.py): candidate coverage is
  new-new (delta buckets), new-old (delta-occupied base buckets; identical
  bucket membership implies identical salting decisions), and old-old
  (base clusters — the base run already adjudicated those same buckets).

Reference anchor: this generalizes the reference's dictionary reuse across
blocks of one stream (``/root/reference/src/compressor.c:105-114`` — each new
block probes the EXISTING dictionary) to a distributed corpus: the base
signature/cluster checkpoints play the dictionary, the delta plays the new
blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.sources import storage
from deduplication_ray.stages import lsh, verify
from deduplication_ray.state.checkpoint import CheckpointedRun


def _bucket_stream(sigs: ray.data.Dataset, captions: ray.data.Dataset,
                   cfg: DedupConfig, families: tuple[str, ...]
                   ) -> ray.data.Dataset:
    """Every candidate family's (band, bucket, salt, image_id, ph, sh) rows
    for one corpus side — the same stream the full run's
    ``image_dedup.verified_edges`` pairs, exact content key included
    (``families``: ``image_dedup.PIXEL_FAMILIES`` or
    ``text_dedup.TEXT_FAMILIES``)."""
    from deduplication_ray.stages.substring import substring_buckets

    b = sigs.map_batches(lsh.ExplodeBands(cfg, families=families),
                         batch_format="pyarrow",
                         batch_size=cfg.text_batch_size)
    return b.union(substring_buckets(captions, cfg))


def _bucket_key(t: pa.Table) -> np.ndarray:
    return H.hash_u64_pair(t["band"].to_numpy().view(np.uint64),
                           t["bucket"].to_numpy().view(np.uint64))


def _collect_keys(buckets: ray.data.Dataset) -> np.ndarray:
    """Distinct composite bucket keys, pre-deduped per batch before the
    bounded driver collect (|delta| x bands u64s at most)."""
    def keys(t: pa.Table) -> pa.Table:
        k = np.unique(_bucket_key(t))
        return pa.table({"k": pa.array(H.bitcast_u64_to_i64(k), pa.int64())})

    parts = list(buckets.map_batches(keys, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return np.empty(0, np.uint64)
    allk = pa.concat_tables(parts, promote_options="default")["k"].to_numpy()
    return np.unique(allk.view(np.uint64))


class _MatchingKeys:
    """Filter a stream to rows whose u64 key (``key_fn`` over the batch) is
    in the broadcast sorted key set (plasma-local after first fetch per
    node). ``key_fn`` defaults to the (band, bucket) composite."""

    def __init__(self, ref, key_fn=None):
        self.ref = ref
        self.key_fn = key_fn or _bucket_key
        self._keys = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._keys is None:
            self._keys = ray.get(self.ref)
        ks = self._keys
        if t.num_rows == 0 or len(ks) == 0:
            return t.slice(0, 0)
        k = self.key_fn(t)
        pos = np.minimum(np.searchsorted(ks, k), len(ks) - 1)
        return t.filter(pa.array(ks[pos] == k))


class _SideFilter:
    """Filter pairs by endpoint membership in a broadcast sorted set of
    64-bit id hashes. Slim pairs probe their (ah, bh) hashes; string
    (src, dst) edges are hashed on the way in.

    ``mode='touches'`` (ingest): keep pairs with >= 1 endpoint in the delta
    set — old-old pairs were adjudicated by the base run (their connectivity
    re-enters as trusted star edges). ``mode='crosses'`` (merge): keep pairs
    with EXACTLY one endpoint in the B set — within-A and within-B pairs
    were adjudicated by their own runs."""

    def __init__(self, ids_ref, mode: str = "touches"):
        self.ref = ids_ref
        self.mode = mode
        self._set = None

    def _member(self, t: pa.Table, slim: str, edge: str) -> np.ndarray:
        if slim in t.column_names:
            h = t[slim].to_numpy().view(np.uint64)
        else:
            h = H.hash_bytes_array(t[edge].combine_chunks().cast(pa.string()))
        pos = np.minimum(np.searchsorted(self._set, h), len(self._set) - 1)
        return self._set[pos] == h

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._set is None:
            self._set = ray.get(self.ref)
        if t.num_rows == 0 or len(self._set) == 0:
            return t.slice(0, 0)
        s = self._member(t, "ah", "src")
        d = self._member(t, "bh", "dst")
        return t.filter(pa.array(s ^ d if self.mode == "crosses" else s | d))


def _channel_edges_delta(delta_sigs: ray.data.Dataset,
                         base_sigs: ray.data.Dataset,
                         cfg: DedupConfig) -> ray.data.Dataset | None:
    """Delta-bounded orientation/crop channel edges (opt-in via
    ``cfg.orientation_channel`` / ``cfg.crop_channel``): the delta's channel
    band keys are collected once (bounded: |delta| x K x 4 u64s) and the
    base's channel buckets are probed against them — the same bounding
    discipline as the main bucket stream, so base pixels are never decoded
    and base rows outside delta-occupied buckets never pair. Returns None
    when neither channel is on. Requires base signatures written under the
    same config (hence carrying the channel columns — enforced by
    ``_check_sig_config``)."""
    from deduplication_ray.pipelines.multihash import (
        multihash_buckets, multihash_pairs_from_buckets)

    specs = []
    if cfg.orientation_channel:
        from deduplication_ray.pipelines.orientation import N_ORIENT

        def prep_o(t: pa.Table) -> pa.Table:
            cols = {"image_id": t["image_id"]}
            for k in range(N_ORIENT):
                cols[f"h{k}"] = t[f"oh{k}"]
            cols["valid"] = pa.array(
                np.full(t.num_rows, (1 << N_ORIENT) - 1, np.int64))
            return pa.table(cols)

        specs.append((prep_o, N_ORIENT, cfg.orientation_hamming_t, "orient"))
    if cfg.crop_channel:
        from deduplication_ray.pipelines.cropdup import N_WINDOWS

        def prep_c(t: pa.Table) -> pa.Table:
            cols = {"image_id": t["image_id"]}
            for k in range(N_WINDOWS):
                cols[f"h{k}"] = t[f"wh{k}"]
            cols["valid"] = t["wvalid"]
            return pa.table(cols)

        specs.append((prep_c, N_WINDOWS, cfg.crop_hamming_t, "window"))
    if not specs:
        return None

    def bkeys_u64(t: pa.Table) -> np.ndarray:
        return t["bkey"].to_numpy().view(np.uint64)

    out = None
    for prep, K, thr, kind in specs:
        db = multihash_buckets(
            delta_sigs.map_batches(prep, batch_format="pyarrow"),
            K).materialize()

        def keyrows(t: pa.Table) -> pa.Table:
            return pa.table({"k": pa.array(np.unique(t["bkey"].to_numpy()),
                                           pa.int64())})

        parts = list(db.map_batches(keyrows, batch_format="pyarrow")
                     .iter_batches(batch_format="pyarrow", batch_size=None))
        allk = (np.unique(pa.concat_tables(
            parts, promote_options="default")["k"].to_numpy()
            .view(np.uint64)) if parts else np.empty(0, np.uint64))
        ref = ray.put(allk)
        bb = multihash_buckets(
            base_sigs.map_batches(prep, batch_format="pyarrow"),
            K).map_batches(_MatchingKeys(ref, key_fn=bkeys_u64),
                           batch_format="pyarrow")
        pairs = multihash_pairs_from_buckets(db.union(bb), cfg, K, thr)

        def to_edges(t: pa.Table, _kind=kind) -> pa.Table:
            return pa.table({
                "src": t["id_a"],
                "dst": t["id_b"],
                "kind": pa.array([_kind] * t.num_rows, pa.string()),
            })

        e = pairs.map_batches(to_edges, batch_format="pyarrow")
        out = e if out is None else out.union(e)
    return out


def _check_sig_config(run_dirs, cfg: DedupConfig, what: str) -> None:
    """Signatures computed under a different shingle/band/hash config are
    not comparable — mixing them would silently produce wrong buckets and
    edges. Refuse loudly instead."""
    for r in run_dirs:
        m = storage.read_manifest(f"{r}/signatures") or {}
        got = m.get("config_hash")
        if got is not None and got != cfg.config_hash():
            raise ValueError(
                f"run {r} signatures were written under config {got}, but "
                f"this {what} runs config {cfg.config_hash()}; signatures "
                "from different configs are not comparable — re-run with "
                "the same DedupConfig")


def _check_no_suffix_array(cfg: DedupConfig, what: str) -> None:
    """The delta-bounded edge plans reproduce the full run's edges ONLY
    without the opt-in suffix-array family, a whole extra edge source —
    running anyway would SILENTLY drop clusters the full run finds."""
    if cfg.use_suffix_array:
        raise ValueError(
            f"{what} does not support use_suffix_array=True; run the full "
            "pipeline for this config")


def _collect_ids(sigs: ray.data.Dataset):
    """Distinct image_id strings of a signature table (bounded driver
    collect — callers pass the SMALLER side)."""
    return pc.unique(pa.concat_tables(
        list(sigs.select_columns(["image_id"])
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default")["image_id"].combine_chunks()
        .cast(pa.string()))


def _id_hashes(ids) -> np.ndarray:
    """Sorted 64-bit hashes of ``ids`` — the ``_SideFilter`` set."""
    return np.unique(H.hash_bytes_array(ids))


def _bounded_edges(new_b: ray.data.Dataset, old_b: ray.data.Dataset,
                   sigs: ray.data.Dataset, cfg: DedupConfig, side_ref,
                   mode: str, **verify_kw) -> ray.data.Dataset:
    """The delta-bounded verified-edge plan of ingest and merge: the NEW
    side's occupied bucket keys are collected (bounded: |new| x bands) and
    broadcast, the OLD side's bucket stream keeps only rows in those
    buckets — so every shared bucket is seen in full and salts exactly as
    in a from-scratch run — and the slim pairs are side-filtered
    (``_SideFilter(side_ref, mode)``) BEFORE the resolve, so pairs the
    input runs already adjudicated are never verified. ``sigs`` holds both
    sides' signatures; ``verify_kw`` goes to ``verify.pair_and_verify``."""
    new_b = new_b.materialize()
    keys_ref = ray.put(_collect_keys(new_b))
    old_b = old_b.map_batches(_MatchingKeys(keys_ref), batch_format="pyarrow")
    return verify.pair_and_verify(
        new_b.union(old_b), verify.DeferredSignatureIndex(sigs, cfg), cfg,
        pair_filter=_SideFilter(side_ref, mode), **verify_kw)


def _assert_disjoint_ids(sigs_a: ray.data.Dataset, ids_ref,
                         what: str) -> None:
    """Merging requires globally unique ids: an id present on BOTH sides
    would make the XOR cross filter drop genuine cross edges and fan out
    the signature joins — a silently corrupt clusters table. Counted with
    one distributed narrow pass (no driver collect of the A side)."""
    class CountHits:
        def __init__(self):
            self._set = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self._set is None:
                self._set = ray.get(ids_ref)
            n = pc.sum(pc.is_in(t["image_id"].cast(pa.string()),
                                value_set=self._set)).as_py() or 0
            return pa.table({"n": pa.array([n], pa.int64())})

    hits = sum(
        b["n"].to_pylist()[0] if b.num_rows else 0
        for b in sigs_a.select_columns(["image_id"])
        .map_batches(CountHits(), batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None))
    if hits:
        raise ValueError(
            f"{what} requires disjoint ids between the two runs, but "
            f"{hits} id(s) appear on both sides; renumber one corpus "
            "(e.g. prefix ids per source) before merging")


def _engine_mode_kit(mode: str, cfg: DedupConfig, id_col: str,
                     text_col: str) -> dict:
    """Image/text mode plumbing shared by ``ingest_delta`` and
    ``merge_runs``: signature fn, caption source, the full run's candidate
    families and verification flag. Mode changes nothing else — the
    delta-bounding machinery is identical."""
    if mode == "text":
        from deduplication_ray.pipelines.text_dedup import (
            TEXT_FAMILIES, as_engine_table, text_signatures)

        def sig_fn(path):
            ds = storage.read_table(path, columns=[id_col, text_col])
            return text_signatures(as_engine_table(ds, id_col, text_col),
                                   cfg, "image_id", "caption")

        def caps_of(path):
            return as_engine_table(
                storage.read_table(path, columns=[id_col, text_col]),
                id_col, text_col)

        return {"sig_fn": sig_fn, "caps_of": caps_of,
                "families": TEXT_FAMILIES, "has_pixels": False}
    if mode == "image":
        from deduplication_ray.pipelines.image_dedup import (
            PIXEL_FAMILIES, compute_signatures)

        def sig_fn(path):
            return compute_signatures(storage.read_table(path), cfg)

        def caps_of(path):
            return storage.read_table(path, columns=["image_id", "caption"])

        return {"sig_fn": sig_fn, "caps_of": caps_of,
                "families": PIXEL_FAMILIES, "has_pixels": True}
    raise ValueError(f"unknown mode {mode!r} (expected image|text)")


def _base_star_edges(clusters: ray.data.Dataset) -> ray.data.Dataset:
    """Base connectivity as trusted star edges: member -> representative for
    every non-singleton cluster member (cluster_id IS the min member id)."""
    def stars(t: pa.Table) -> pa.Table:
        ne = pc.not_equal(t["image_id"], t["cluster_id"])
        t = t.filter(ne)
        return pa.table({
            "src": t["cluster_id"].cast(pa.string()),
            "dst": t["image_id"].cast(pa.string()),
            "kind": pa.array(["exact"] * t.num_rows, pa.string()),
        })

    return clusters.map_batches(stars, batch_format="pyarrow")


def ingest_delta(
    base_run_dir: str | list[str],
    base_input_path: str | list[str],
    delta_input_path: str,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    mode: str = "image",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> dict:
    """Dedup ``delta_input_path`` against the finished base run; write a full
    clusters table (base + delta ids) under ``out_run_dir``. Returns stage
    metrics. Every stage checkpoints under ``out_run_dir`` (same lineage
    machinery as the full pipeline), so a killed ingest resumes.

    CHAINED ingest (day 2, 3, ...): ``base_run_dir`` / ``base_input_path``
    accept lists — pass every prior run (original + each finished ingest)
    and every prior input dir. Base signatures are the UNION of the prior
    runs' signature checkpoints (each delta's signatures were written by
    its own ingest, so nothing is ever recomputed); base clusters come from
    the MOST RECENT run, whose clusters table already covers all prior ids.

    ``mode``: 'image' (default — full pixel+caption engine) or 'text'
    ((doc_id, text) tables deduplicated by the caption-only engine; base
    runs come from ``text_dedup.run_text_pipeline``). Mode only changes
    the signature function, the exact-dup key (single cap_hash vs the
    128-bit (ck1, ck2) content pair) and the verification families — the
    delta-bounding machinery is identical."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    _check_no_suffix_array(cfg, "incremental ingest")
    apply_context_tuning()
    run = CheckpointedRun(out_run_dir, cfg)

    kit = _engine_mode_kit(mode, cfg, id_col, text_col)
    sig_fn, caps_of = kit["sig_fn"], kit["caps_of"]

    base_runs = ([base_run_dir] if isinstance(base_run_dir, str)
                 else list(base_run_dir))
    base_inputs = ([base_input_path] if isinstance(base_input_path, str)
                   else list(base_input_path))
    _check_sig_config(base_runs, cfg, "incremental ingest")
    base_sigs = storage.read_table(f"{base_runs[0]}/signatures")
    for r in base_runs[1:]:
        base_sigs = base_sigs.union(storage.read_table(f"{r}/signatures"))
    base_clusters = storage.read_table(f"{base_runs[-1]}/clusters")

    delta_sigs = run.run_stage(
        "signatures",
        lambda: sig_fn(delta_input_path),
        ["input"],
    )

    def delta_caps() -> ray.data.Dataset:
        return caps_of(delta_input_path)

    def base_caps() -> ray.data.Dataset:
        ds = caps_of(base_inputs[0])
        for p in base_inputs[1:]:
            ds = ds.union(caps_of(p))
        return ds

    def build_and_verify() -> ray.data.Dataset:
        ids_ref = ray.put(_id_hashes(_collect_ids(delta_sigs)))
        ve = _bounded_edges(
            _bucket_stream(delta_sigs, delta_caps(), cfg, kit["families"]),
            _bucket_stream(base_sigs, base_caps(), cfg, kit["families"]),
            delta_sigs.union(base_sigs), cfg, ids_ref, "touches",
            has_pixels=kit["has_pixels"])
        ch = (_channel_edges_delta(delta_sigs, base_sigs, cfg)
              if mode == "image" else None)
        if ch is not None:
            # channel pairs are pre-verified (min-Hamming in-bucket); the
            # same touches filter keeps the delta bounding
            ve = ve.union(ch.map_batches(_SideFilter(ids_ref, mode="touches"),
                                         batch_format="pyarrow"))
        return ve

    vedges = run.run_stage("verified_edges", build_and_verify, ["signatures"])

    ids = base_clusters.select_columns(["image_id"]).union(
        delta_sigs.select_columns(["image_id"]))
    checkpointed_clusters(
        run, vedges.union(_base_star_edges(base_clusters)), ids, cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def merge_runs(
    run_a_dir: str,
    input_a: str,
    run_b_dir: str,
    input_b: str,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    mode: str = "image",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> dict:
    """Merge TWO finished dedup runs into one clusters table WITHOUT
    re-decoding any media — the "two crawls deduplicated independently, now
    union the corpora" operator (the reference analog: concatenating two
    DDP1 dictionaries and re-pointing ids, ``compressor.c:269-290``, done
    distributed and content-aware).

    Both sides' signatures come straight from their run checkpoints (the
    expensive decode/MinHash work is never repeated; only the narrow
    caption columns are re-read for the substring L-gram family). Candidate
    generation mirrors ``ingest_delta`` with run B playing the delta: B's
    occupied bucket keys are collected (bounded by |B| x bands — pass the
    SMALLER run as B) and broadcast, A's re-keyed bucket stream is filtered
    to the co-occupied buckets, and edge generation sees the full bucket
    content for every shared bucket (so salting decisions match a
    from-scratch run). Only CROSS edges (exactly one endpoint in B) are
    verified; within-A / within-B connectivity enters as trusted star edges
    from each run's clusters checkpoint. Result equals the from-scratch run
    over A+B (asserted in tests/test_incremental.py); both preconditions —
    a shared DedupConfig and disjoint ids between the runs — are guarded
    with loud errors."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    _check_no_suffix_array(cfg, "merge_runs")
    apply_context_tuning()
    run = CheckpointedRun(out_run_dir, cfg)

    kit = _engine_mode_kit(mode, cfg, id_col, text_col)
    caps_of = kit["caps_of"]

    _check_sig_config((run_a_dir, run_b_dir), cfg, "merge")
    sigs_a = storage.read_table(f"{run_a_dir}/signatures")
    sigs_b = storage.read_table(f"{run_b_dir}/signatures")
    clusters_a = storage.read_table(f"{run_a_dir}/clusters")
    clusters_b = storage.read_table(f"{run_b_dir}/clusters")

    ids_b = _collect_ids(sigs_b)
    _assert_disjoint_ids(sigs_a, ray.put(ids_b), "merge_runs")
    side_ref = ray.put(_id_hashes(ids_b))

    def build_and_verify() -> ray.data.Dataset:
        ve = _bounded_edges(
            _bucket_stream(sigs_b, caps_of(input_b), cfg, kit["families"]),
            _bucket_stream(sigs_a, caps_of(input_a), cfg, kit["families"]),
            sigs_a.union(sigs_b), cfg, side_ref, "crosses",
            has_pixels=kit["has_pixels"])
        # channel edges (B-bounded, run B playing the delta); within-side
        # channel connectivity is already inside each run's clusters
        ch = (_channel_edges_delta(sigs_b, sigs_a, cfg)
              if mode == "image" else None)
        if ch is not None:
            ve = ve.union(ch.map_batches(_SideFilter(side_ref, mode="crosses"),
                                         batch_format="pyarrow"))
        return ve

    vedges = run.run_stage("verified_edges", build_and_verify, ["input"])

    all_edges = vedges.union(_base_star_edges(clusters_a)) \
        .union(_base_star_edges(clusters_b))
    ids = clusters_a.select_columns(["image_id"]).union(
        clusters_b.select_columns(["image_id"]))
    checkpointed_clusters(run, all_edges, ids, cfg)
    return run.finish(("verified_edges", "clusters"))


# ------------------------------------------------- video / audio modalities

def _modal_kit(kind: str, cfg: DedupConfig) -> dict:
    """Modality plumbing for the checkpointed + incremental video/audio/
    embedding paths: signature fn, bucket-stream fn, the config used for
    PAIRING (video swaps the pHash Hamming gate for its frame radius,
    embeddings swap in the generous ``emb_hamming_t`` SimHash radius —
    exactly as the lazy pipelines do) and the verify ``accept``. Candidate
    and verify semantics are the lazy pipelines' own functions — one
    implementation, so the plans cannot drift."""
    import dataclasses

    if kind == "video":
        from deduplication_ray.pipelines import video_dedup as V

        return {
            "sig": lambda path, id_col: V.video_signatures(
                storage.read_table(path), cfg, id_col),
            "buckets": lambda sigs: sigs.map_batches(
                V._ExplodeFrameBands(cfg), batch_format="pyarrow"),
            "edge_cfg": V.pairing_config(cfg),
            "accept": V.video_accept(cfg),
            "id_col": "video_id",
        }
    if kind == "audio":
        from deduplication_ray.pipelines import audio_dedup as A

        return {
            "sig": lambda path, id_col: A.audio_signatures(
                storage.read_table(path), cfg, id_col),
            "buckets": lambda sigs: sigs.map_batches(
                A._ExplodeShingles(cfg), batch_format="pyarrow"),
            "edge_cfg": cfg,
            "accept": A.audio_accept(cfg),
            "id_col": "audio_id",
        }
    if kind == "embedding":
        from deduplication_ray.pipelines import ann

        return {
            # ids zero-padded to 12 digits so lexicographic min == numeric
            # min through the string-keyed union-find
            "sig": lambda path, id_col: storage.read_table(
                path, columns=[id_col, "embedding"]).map_batches(
                    ann.EmbSig(cfg, id_col, pad=True),
                    batch_format="pyarrow", batch_size=4096),
            "buckets": lambda sigs: sigs.map_batches(
                ann.explode_emb_bands, batch_format="pyarrow"),
            "edge_cfg": dataclasses.replace(
                cfg, simhash_hamming_t=cfg.emb_hamming_t),
            "accept": ann.embedding_accept(cfg.emb_cos_min),
            "id_col": "vec_id",
        }
    raise ValueError(
        f"unknown modal kind {kind!r} (expected video|audio|embedding)")


def run_modal_pipeline(input_path: str, run_dir: str,
                       cfg: DedupConfig | None = None, kind: str = "video",
                       id_col: str | None = None,
                       strict_resume: bool = False) -> dict:
    """Checkpointed video/audio/embedding dedup run — the base-run producer
    for ``ingest_delta_modal``, mirroring ``run_text_pipeline``: signatures,
    verified_edges (pairs built and verified inside the one stage, as in
    ``run_pipeline``) and per-round union-find labels all persist under
    ``run_dir`` with config-hash lineage; clusters are written in the
    engine-canonical (image_id, cluster_id) shape. Same DAG as the lazy
    ``video_dedup_clusters`` / ``audio_dedup_clusters``."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = _modal_kit(kind, cfg)
    id_col = id_col or kit["id_col"]
    apply_context_tuning()
    run = CheckpointedRun(run_dir, cfg, strict_resume=strict_resume)

    sigs = run.run_stage(
        "signatures", lambda: kit["sig"](input_path, id_col), ["input"])

    def build_and_verify() -> ray.data.Dataset:
        return verify.pair_and_verify(
            kit["buckets"](sigs), verify.DeferredSignatureIndex(sigs, cfg),
            kit["edge_cfg"], accept=kit["accept"])

    vedges = run.run_stage("verified_edges", build_and_verify, ["signatures"])

    checkpointed_clusters(run, vedges, sigs.select_columns(["image_id"]), cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def merge_runs_modal(
    run_a_dir: str,
    run_b_dir: str,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    kind: str = "video",
) -> dict:
    """Merge two finished ``run_modal_pipeline`` runs (video / audio /
    embedding) into one clusters table — the modal twin of ``merge_runs``,
    and the cheapest of the family: modal candidates need no raw media at
    all (signatures come from both checkpoints; the substring caption
    family does not exist here), so the merge reads ONLY the two run dirs.
    Run B's occupied bucket keys bound the candidate space (pass the
    smaller run as B); only CROSS-run edges are verified; within-run
    connectivity enters as trusted star edges from both clusters
    checkpoints. Result equals a from-scratch run over A+B
    (tests/test_incremental.py::test_modal_merge_matches_full_run)."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = _modal_kit(kind, cfg)
    apply_context_tuning()
    run = CheckpointedRun(out_run_dir, cfg)

    _check_sig_config((run_a_dir, run_b_dir), cfg, "merge")
    sigs_a = storage.read_table(f"{run_a_dir}/signatures")
    sigs_b = storage.read_table(f"{run_b_dir}/signatures")
    clusters_a = storage.read_table(f"{run_a_dir}/clusters")
    clusters_b = storage.read_table(f"{run_b_dir}/clusters")

    ids_b = _collect_ids(sigs_b)
    _assert_disjoint_ids(sigs_a, ray.put(ids_b), "merge_runs_modal")

    def build_and_verify() -> ray.data.Dataset:
        return _bounded_edges(
            kit["buckets"](sigs_b), kit["buckets"](sigs_a),
            sigs_a.union(sigs_b), kit["edge_cfg"],
            ray.put(_id_hashes(ids_b)), "crosses", accept=kit["accept"])

    vedges = run.run_stage("verified_edges", build_and_verify, ["input"])

    all_edges = vedges.union(_base_star_edges(clusters_a)) \
        .union(_base_star_edges(clusters_b))
    ids = clusters_a.select_columns(["image_id"]).union(
        clusters_b.select_columns(["image_id"]))
    checkpointed_clusters(run, all_edges, ids, cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def ingest_delta_modal(
    base_run_dir: str | list[str],
    delta_input_path: str,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    kind: str = "video",
    id_col: str | None = None,
) -> dict:
    """Delta-bounded video/audio/embedding ingest against finished
    ``run_modal_pipeline`` base runs — the modal twin of ``ingest_delta``:

    - decode/DCT/FFT runs on DELTA rows only; base frame signatures come
      from the base runs' checkpoints (chained day-2+ ingest: pass every
      prior run as a list, signatures union, clusters from the last),
    - base signatures are re-keyed into bucket rows (pure hash math, no
      media bytes) and filtered to DELTA-OCCUPIED buckets via the broadcast
      sorted-key probe,
    - old-old edges are dropped (``_SideFilter(mode='touches')``); base
      connectivity re-enters as trusted star edges from the base clusters
      checkpoint,
    - result equals a from-scratch run over base+delta (asserted in
      tests/test_incremental.py), by the same argument as the image mode:
      delta-occupied buckets see identical membership hence identical
      salting/pairing, untouched buckets were adjudicated by the base run.
    """
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = _modal_kit(kind, cfg)
    id_col = id_col or kit["id_col"]
    apply_context_tuning()
    run = CheckpointedRun(out_run_dir, cfg)

    base_runs = ([base_run_dir] if isinstance(base_run_dir, str)
                 else list(base_run_dir))
    _check_sig_config(base_runs, cfg, "incremental ingest")
    base_sigs = storage.read_table(f"{base_runs[0]}/signatures")
    for r in base_runs[1:]:
        base_sigs = base_sigs.union(storage.read_table(f"{r}/signatures"))
    base_clusters = storage.read_table(f"{base_runs[-1]}/clusters")

    delta_sigs = run.run_stage(
        "signatures", lambda: kit["sig"](delta_input_path, id_col), ["input"])

    def build_and_verify() -> ray.data.Dataset:
        return _bounded_edges(
            kit["buckets"](delta_sigs), kit["buckets"](base_sigs),
            delta_sigs.union(base_sigs), kit["edge_cfg"],
            ray.put(_id_hashes(_collect_ids(delta_sigs))), "touches",
            accept=kit["accept"])

    vedges = run.run_stage("verified_edges", build_and_verify, ["signatures"])

    ids = base_clusters.select_columns(["image_id"]).union(
        delta_sigs.select_columns(["image_id"]))
    checkpointed_clusters(
        run, vedges.union(_base_star_edges(base_clusters)), ids, cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def delete_ids(
    base_run: str,
    base_input: str | None,
    deleted,
    out_run: str,
    cfg: DedupConfig | None = None,
    id_col: str = "image_id",
) -> dict:
    """Deletion propagation — the "right to be forgotten" maintenance op a
    100 TB dedup system needs: remove a list of ids from a FINISHED run's
    outputs without re-decoding or re-verifying anything. Signatures and
    cluster memberships are filtered by a broadcast id set; every cluster's
    label is re-elected as the min SURVIVING member (the same ordering the
    union-find used, so untouched clusters keep their label bit-for-bit);
    representative rows are rebuilt with one lookup join against the input
    table (the only pass that touches payload bytes).

    Semantics: RETAINED-EDGE — verified duplicate pairs stay merged even
    when the member that bridged them is deleted (the pairs were true when
    observed; deletion removes rows, not evidence). A caller wanting
    re-split semantics re-runs the pipeline on the reduced input instead.

    Writes a fresh checkpointed run at ``out_run`` (signatures / clusters /
    representatives with lineage manifests) that downstream ``ingest_delta``
    / ``merge_runs`` accept as a base, so deleted ids cannot resurface.

    Works on image AND text runs (per-stage id columns are resolved from
    each checkpoint's schema). The representative rebuild joins the input
    on the cluster-label column and therefore needs a string-typed id
    column (the image fixture's shape); text callers pass
    ``base_input=None`` — text runs keep no representative payloads.
    """
    import pyarrow as pa

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join
    from deduplication_ray.state.checkpoint import CheckpointedRun

    cfg = cfg or DedupConfig()
    dels = pa.array(sorted({str(x) for x in deleted}), pa.string())
    dref = ray.put(dels)
    run = CheckpointedRun(out_run, cfg)

    def drop_deleted(t: pa.Table) -> pa.Table:
        # per-stage id column: text runs carry the engine-canonical
        # "image_id" in signatures but "doc_id" in clusters
        col = id_col if id_col in t.column_names else (
            "image_id" if "image_id" in t.column_names else "doc_id")
        keep = pc.invert(pc.is_in(t[col].cast(pa.string()),
                                  value_set=ray.get(dref)))
        return t.filter(keep)

    sigs = storage.read_table(f"{base_run}/signatures")
    run.run_stage(
        "signatures",
        lambda: sigs.map_batches(drop_deleted, batch_format="pyarrow"),
        ["input"])

    clusters = storage.read_table(f"{base_run}/clusters")
    member_col = (id_col if id_col in clusters.schema().names
                  else ("image_id" if "image_id" in clusters.schema().names
                        else "doc_id"))

    def relabel() -> ray.data.Dataset:
        surv = clusters.map_batches(drop_deleted,
                                    batch_format="pyarrow").materialize()
        schema = pa.schema([("cluster_id", pa.string()),
                            ("new_id", pa.string())])

        def red(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            out = (df.groupby("cluster_id", sort=False)[member_col].min()
                   .rename("new_id").reset_index())
            return pa.Table.from_pandas(out, preserve_index=False) \
                .cast(schema)

        newlab = hash_grouped_reduce(
            surv,
            lambda t: H.hash_bytes_array(
                t["cluster_id"].combine_chunks().cast(pa.string())),
            red, cfg.num_partitions)
        j = lookup_join(surv, newlab, on=["cluster_id"], cfg=cfg)
        return j.map_batches(
            lambda t: pa.table({member_col: t[member_col].cast(pa.string()),
                                "cluster_id": t["new_id"].cast(pa.string())}),
            batch_format="pyarrow")

    clusters_out = run.run_stage("clusters", relabel, ["signatures"])

    if base_input is not None:
        def reps() -> ray.data.Dataset:
            schema = pa.schema([("cluster_id", pa.string()),
                                ("cluster_size", pa.int64())])

            def red(t: pa.Table) -> pa.Table:
                df = t.to_pandas()
                out = (df.groupby("cluster_id", sort=False).size()
                       .rename("cluster_size").reset_index())
                return pa.Table.from_pandas(out, preserve_index=False) \
                    .cast(schema)

            sizes = hash_grouped_reduce(
                clusters_out.select_columns(["cluster_id"]),
                lambda t: H.hash_bytes_array(
                    t["cluster_id"].combine_chunks().cast(pa.string())),
                red, cfg.num_partitions) \
                .rename_columns({"cluster_id": member_col})
            full = storage.read_table(base_input)
            return lookup_join(full, sizes, on=[member_col], cfg=cfg)

        run.run_stage("representatives", reps, ["clusters"])

    return run.finish(("signatures", "clusters", "representatives"),
                      deleted_ids=len(dels))
