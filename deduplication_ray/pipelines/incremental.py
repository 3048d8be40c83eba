"""Checkpointed lineage for every engine: full runs, incremental ingest
of a delta against a finished run, and merges of two finished runs — one
driver each for image, text, video, audio and embedding data.

``engine_kit`` holds what differs per engine (input projection, signature
function, bucket stream, pairing config, verify accept); the drivers
``run_checkpointed`` (text / video / audio / embedding full runs; image
runs are ``image_dedup.run_pipeline``), ``ingest_delta`` and
``merge_runs`` are otherwise one plan, and ``engine_clusters`` is
``run_checkpointed``'s plan with nothing persisted (the lazy video and
audio pipelines).

Ingest is the daily-crawl shape of a 100 TB pipeline: the base corpus was
deduplicated once (checkpointed signatures + clusters under
``base_run_dir``); a delta arrives and must be (a) deduplicated against
itself and (b) linked against the base — without re-decoding a single
base row.

Work is delta-bounded at every expensive stage:

- **Signatures** (decode, the dominant cost) run on delta rows only;
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
  — the swap point is the kit's ``buckets``; re-keying costs one linear
  scan of the signature table, which measured ~2% of a full run.)
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

import dataclasses

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


def _collect_keys(buckets: ray.data.Dataset) -> np.ndarray:
    """Distinct composite bucket keys, pre-deduped per batch before the
    bounded driver collect (|delta| x bands u64s at most)."""
    def keys(t: pa.Table) -> pa.Table:
        k = np.unique(lsh.bucket_key(t))
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
        self.key_fn = key_fn or lsh.bucket_key
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


def _bounded_edges(kit: dict, new_sigs: ray.data.Dataset, new_inputs,
                   old_sigs: ray.data.Dataset, old_inputs, side_ref,
                   mode: str) -> ray.data.Dataset:
    """The delta-bounded verified-edge plan of ingest and merge: the NEW
    side's occupied bucket keys are collected (bounded: |new| x bands) and
    broadcast, the OLD side's bucket stream keeps only rows in those
    buckets — so every shared bucket is seen in full and salts exactly as
    in a from-scratch run — and the slim pairs are side-filtered
    (``_SideFilter(side_ref, mode)``) BEFORE the resolve, so pairs the
    input runs already adjudicated are never verified. Image runs add the
    delta-bounded orientation/crop channel edges under the same filter."""
    new_b = kit["buckets"](new_sigs, new_inputs).materialize()
    keys_ref = ray.put(_collect_keys(new_b))
    old_b = kit["buckets"](old_sigs, old_inputs).map_batches(
        _MatchingKeys(keys_ref), batch_format="pyarrow")
    side = _SideFilter(side_ref, mode)
    ve = kit["verify"](new_b.union(old_b), new_sigs.union(old_sigs), side)
    ch = (_channel_edges_delta(new_sigs, old_sigs, kit["edge_cfg"])
          if kit["has_pixels"] else None)
    if ch is not None:
        # channel pairs are pre-verified (min-Hamming in-bucket); the same
        # side filter keeps the bounding
        ve = ve.union(ch.map_batches(side, batch_format="pyarrow"))
    return ve


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


def engine_kit(mode: str, cfg: DedupConfig, id_col: str | None = None,
               text_col: str = "text") -> dict:
    """What differs per engine (image|text|video|audio|embedding); every
    other step of the drivers below is one plan for all five:

    - ``columns`` / ``sig``: the input projection and the signature
      function over the projected Dataset;
    - ``buckets(sigs, inputs)``: the full run's bucket stream — image and
      text union the caption L-gram family read from the ``inputs`` paths,
      video/audio/embedding explode their signatures only;
    - ``edge_cfg``: the config used for PAIRING (video swaps the pHash
      Hamming gate for its frame radius, embedding the SimHash one for the
      generous ``emb_hamming_t``);
    - ``accept`` / ``has_pixels`` for the verify, wrapped with the pairing
      in ``verify(buckets, sigs, pair_filter=None)``;
    - ``id_col``: the default id column."""
    kit = {"columns": None, "caps_of": None, "edge_cfg": cfg,
           "accept": None, "has_pixels": False}
    if mode == "image":
        from deduplication_ray.pipelines.image_dedup import (
            PIXEL_FAMILIES, compute_signatures)

        kit.update(
            id_col="image_id", families=PIXEL_FAMILIES, has_pixels=True,
            sig=lambda ds: compute_signatures(ds, cfg),
            caps_of=lambda p: storage.read_table(
                p, columns=["image_id", "caption"]))
    elif mode == "text":
        from deduplication_ray.pipelines.text_dedup import (
            TEXT_FAMILIES, as_engine_table, text_signatures)

        id_col = id_col or "doc_id"
        kit.update(
            id_col=id_col, families=TEXT_FAMILIES, columns=[id_col, text_col],
            sig=lambda ds: text_signatures(
                as_engine_table(ds, id_col, text_col), cfg,
                "image_id", "caption"),
            caps_of=lambda p: as_engine_table(
                storage.read_table(p, columns=[id_col, text_col]),
                id_col, text_col))
    elif mode == "video":
        from deduplication_ray.pipelines import video_dedup as V

        id_col = id_col or "video_id"
        kit.update(
            id_col=id_col, explode=V._ExplodeFrameBands(cfg),
            sig=lambda ds: V.video_signatures(ds, cfg, id_col),
            edge_cfg=dataclasses.replace(
                cfg, phash_hamming_t=cfg.video_frame_hamming_t),
            accept=V.video_accept(cfg))
    elif mode == "audio":
        from deduplication_ray.pipelines import audio_dedup as A

        id_col = id_col or "audio_id"
        kit.update(
            id_col=id_col, explode=A._ExplodeShingles(cfg),
            sig=lambda ds: A.audio_signatures(ds, cfg, id_col),
            accept=A.audio_accept(cfg))
    elif mode == "embedding":
        from deduplication_ray.pipelines import ann

        id_col = id_col or "vec_id"
        kit.update(
            id_col=id_col, columns=[id_col, "embedding"],
            explode=ann.explode_emb_bands,
            # ids zero-padded to 12 digits so lexicographic min == numeric
            # min through the string-keyed union-find
            sig=lambda ds: ds.map_batches(
                ann.EmbSig(cfg, id_col, pad=True),
                batch_format="pyarrow", batch_size=4096),
            edge_cfg=dataclasses.replace(
                cfg, simhash_hamming_t=cfg.emb_hamming_t),
            accept=ann.embedding_accept(cfg.emb_cos_min))
    else:
        raise ValueError(f"unknown mode {mode!r} "
                         "(expected image|text|video|audio|embedding)")

    def buckets(sigs: ray.data.Dataset, inputs=None) -> ray.data.Dataset:
        if kit["caps_of"] is None:
            return sigs.map_batches(kit["explode"], batch_format="pyarrow")
        from deduplication_ray.stages.substring import substring_buckets

        caps = kit["caps_of"](inputs[0])
        for p in inputs[1:]:
            caps = caps.union(kit["caps_of"](p))
        return sigs.map_batches(
            lsh.ExplodeBands(cfg, families=kit["families"]),
            batch_format="pyarrow", batch_size=cfg.text_batch_size,
        ).union(substring_buckets(caps, cfg))

    def verify_(b: ray.data.Dataset, sigs: ray.data.Dataset,
                pair_filter=None) -> ray.data.Dataset:
        return verify.pair_and_verify(
            b, verify.DeferredSignatureIndex(sigs, cfg), kit["edge_cfg"],
            accept=kit["accept"], has_pixels=kit["has_pixels"],
            pair_filter=pair_filter)

    kit.update(buckets=buckets, verify=verify_)
    return kit


def _caption_inputs(kit: dict, cfg: DedupConfig, paths, arg: str,
                    what: str) -> list | None:
    """The input table dir(s) an image/text bucket stream re-reads captions
    from, as a list (required there); None for the modes whose bucket
    stream reads signatures only."""
    if kit["caps_of"] is None:
        return None
    if not paths:
        raise ValueError(f"{what} needs {arg}: the caption L-gram family "
                         "re-reads the input text")
    _check_no_suffix_array(cfg, what)
    return [paths] if isinstance(paths, str) else list(paths)


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


def run_checkpointed(input_path: str, run_dir: str,
                     cfg: DedupConfig | None = None, mode: str = "text",
                     id_col: str | None = None, text_col: str = "text",
                     strict_resume: bool = False) -> dict:
    """Checkpointed text / video / audio / embedding dedup run — the
    base-run producer for ``ingest_delta`` and ``merge_runs`` in those
    modes (image runs are ``image_dedup.run_pipeline``): signatures,
    verified_edges (pairs built and verified inside the one stage) and the
    union-find rounds persist under ``run_dir`` with config-hash lineage;
    clusters are written in the engine-canonical (image_id, cluster_id)
    shape. The edge plan is the kit's, as in the lazy ``engine_clusters``.
    Returns stage metrics."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    if mode == "image":
        raise ValueError("image runs are image_dedup.run_pipeline")
    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col, text_col)
    apply_context_tuning()
    run = CheckpointedRun(run_dir, cfg, strict_resume=strict_resume)

    sigs = run.run_stage(
        "signatures",
        lambda: kit["sig"](storage.read_table(input_path,
                                              columns=kit["columns"])),
        ["input"])

    def build_and_verify() -> ray.data.Dataset:
        ve = kit["verify"](kit["buckets"](sigs, [input_path]), sigs)
        if cfg.use_suffix_array and kit["caps_of"] is not None:
            from deduplication_ray.stages.substring import suffix_array_edges

            # trusted 'substr' cross-check edges, as in
            # image_dedup.verified_edges
            ve = ve.union(suffix_array_edges(kit["caps_of"](input_path), cfg)
                          .select_columns(["src", "dst", "kind"]))
        return ve

    vedges = run.run_stage("verified_edges", build_and_verify, ["signatures"])

    checkpointed_clusters(run, vedges, sigs.select_columns(["image_id"]), cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def engine_clusters(mode: str, ds: ray.data.Dataset,
                    cfg: DedupConfig | None = None,
                    id_col: str | None = None) -> ray.data.Dataset:
    """Lazy (id, payload) -> clusters(id_col, cluster_id) for the video and
    audio engines: ``run_checkpointed``'s plan with nothing persisted."""
    from deduplication_ray.pipelines.image_dedup import finalize_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning
    from deduplication_ray.state import unionfind

    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col)
    apply_context_tuning()
    sigs = kit["sig"](ds).materialize()
    vedges = kit["verify"](kit["buckets"](sigs), sigs)
    return finalize_clusters(sigs.select_columns(["image_id"]),
                             unionfind.connected_components(vedges, cfg),
                             cfg, kit["id_col"])


def ingest_delta(
    base_run_dir: str | list[str],
    base_input_path: str | list[str] | None,
    delta_input_path: str,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    mode: str = "image",
    id_col: str | None = None,
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

    ``mode`` picks the engine (``engine_kit``): 'image' (default, base runs
    from ``image_dedup.run_pipeline``), or 'text' / 'video' / 'audio' /
    'embedding' (base runs from ``run_checkpointed``). ``base_input_path``
    is required for image and text, whose bucket stream re-reads the base
    captions; the other modes read only the base run dirs and pass None.
    The delta-bounding machinery is the same for every mode."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col, text_col)
    base_inputs = _caption_inputs(kit, cfg, base_input_path,
                                  "base_input_path", "incremental ingest")
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
        "signatures",
        lambda: kit["sig"](storage.read_table(delta_input_path,
                                              columns=kit["columns"])),
        ["input"])

    def build_and_verify() -> ray.data.Dataset:
        return _bounded_edges(
            kit, delta_sigs, [delta_input_path], base_sigs, base_inputs,
            ray.put(_id_hashes(_collect_ids(delta_sigs))), "touches")

    vedges = run.run_stage("verified_edges", build_and_verify, ["signatures"])

    ids = base_clusters.select_columns(["image_id"]).union(
        delta_sigs.select_columns(["image_id"]))
    checkpointed_clusters(
        run, vedges.union(_base_star_edges(base_clusters)), ids, cfg)
    return run.finish(("signatures", "verified_edges", "clusters"))


def merge_runs(
    run_a_dir: str,
    input_a: str | None,
    run_b_dir: str,
    input_b: str | None,
    out_run_dir: str,
    cfg: DedupConfig | None = None,
    mode: str = "image",
    id_col: str | None = None,
    text_col: str = "text",
) -> dict:
    """Merge TWO finished dedup runs into one clusters table WITHOUT
    re-decoding any media — the "two crawls deduplicated independently, now
    union the corpora" operator (the reference analog: concatenating two
    DDP1 dictionaries and re-pointing ids, ``compressor.c:269-290``, done
    distributed and content-aware).

    Both sides' signatures come straight from their run checkpoints (the
    expensive decode/MinHash work is never repeated). Image and text merges
    re-read only the narrow caption columns of ``input_a`` / ``input_b``
    for the substring L-gram family; video, audio and embedding merges read
    only the two run dirs (pass None). Candidate generation mirrors
    ``ingest_delta`` with run B playing the delta: B's occupied bucket keys
    are collected (bounded by |B| x bands — pass the SMALLER run as B) and
    broadcast, A's re-keyed bucket stream is filtered to the co-occupied
    buckets, and edge generation sees the full bucket content for every
    shared bucket (so salting decisions match a from-scratch run). Only
    CROSS edges (exactly one endpoint in B) are verified; within-A /
    within-B connectivity enters as trusted star edges from each run's
    clusters checkpoint. Result equals the from-scratch run over A+B
    (asserted in tests/test_incremental.py); both preconditions — a shared
    DedupConfig and disjoint ids between the runs — are guarded with loud
    errors."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col, text_col)
    inputs_a = _caption_inputs(kit, cfg, input_a, "input_a", "merge_runs")
    inputs_b = _caption_inputs(kit, cfg, input_b, "input_b", "merge_runs")
    apply_context_tuning()
    run = CheckpointedRun(out_run_dir, cfg)

    _check_sig_config((run_a_dir, run_b_dir), cfg, "merge")
    sigs_a = storage.read_table(f"{run_a_dir}/signatures")
    sigs_b = storage.read_table(f"{run_b_dir}/signatures")
    clusters_a = storage.read_table(f"{run_a_dir}/clusters")
    clusters_b = storage.read_table(f"{run_b_dir}/clusters")

    ids_b = _collect_ids(sigs_b)
    _assert_disjoint_ids(sigs_a, ray.put(ids_b), "merge_runs")
    side_ref = ray.put(_id_hashes(ids_b))

    vedges = run.run_stage(
        "verified_edges",
        lambda: _bounded_edges(kit, sigs_b, inputs_b, sigs_a, inputs_a,
                               side_ref, "crosses"),
        ["input"])

    all_edges = vedges.union(_base_star_edges(clusters_a)) \
        .union(_base_star_edges(clusters_b))
    ids = clusters_a.select_columns(["image_id"]).union(
        clusters_b.select_columns(["image_id"]))
    checkpointed_clusters(run, all_edges, ids, cfg)
    return run.finish(("verified_edges", "clusters"))


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
