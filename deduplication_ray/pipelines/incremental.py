"""Checkpointed lineage for every engine: full runs, incremental ingest
of a delta against a finished run, and merges of two finished runs — one
driver each for image, text, video, audio and embedding data.

``engine_kit`` holds what differs per engine (input projection, signature
function, caption projection, pairing config, verify accept) and the one
verified-edge plan, ``edges``, that every run below builds its edges with:
the full-run driver ``run_checkpointed`` (every mode;
``image_dedup.run_pipeline`` and ``text_dedup.run_text_pipeline`` are its
image and text entries), ``ingest_delta`` and ``merge_runs`` (the same
plan, delta-bounded), and ``engine_clusters``, ``run_checkpointed``'s plan
with nothing persisted (the lazy text, video and audio pipelines).

Ingest is the daily-crawl shape of a 100 TB pipeline: the base corpus was
deduplicated once (checkpointed signatures + clusters under
``base_run_dir``); a delta arrives and must be (a) deduplicated against
itself and (b) linked against the base — without re-decoding a single
base row.

Work is delta-bounded at every expensive stage:

- **Signatures** (decode, the dominant cost) run on delta rows only;
  base signatures are read from the base run's checkpoint.
- **Candidate generation** re-keys base *signatures* into the full run's
  bucket stream — every family, the exact content-key family and the
  image channels' variant bands included (pure hash math over the narrow
  signature table — no pixels) — and keeps
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
import os
import threading

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
    """Distinct u64 (band, bucket) composite keys, pre-deduped per batch
    before the bounded driver collect (|delta| x bands u64s at most)."""
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
    """Filter a bucket stream to rows whose (band, bucket) composite key is
    in the broadcast sorted key set (plasma-local after first fetch per
    node)."""

    def __init__(self, ref):
        self.ref = ref
        self._keys = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._keys is None:
            self._keys = ray.get(self.ref)
        ks = self._keys
        if t.num_rows == 0 or len(ks) == 0:
            return t.slice(0, 0)
        k = lsh.bucket_key(t)
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
    - ``caps_of`` / ``captions(paths)``: the (image_id, caption) projection
      of an input Dataset / of the input tables at ``paths``, whose L-gram
      substring family joins the bucket stream — image and text only (None
      for video/audio/embedding, whose buckets come from signatures alone);
    - ``edge_cfg``: the config used for PAIRING (video swaps the pHash
      Hamming gate for its frame radius, embedding the SimHash one for the
      generous ``emb_hamming_t``);
    - ``accept`` / ``has_pixels`` for the verify;
    - ``edges(sigs, caps=None, substr=None, old=None, side=None)``: the one
      verified-edge plan (below), which every full run, lazy plan, ingest
      and merge builds its edges with;
    - ``id_col``: the default id column."""
    kit = {"columns": None, "caps_of": None, "edge_cfg": cfg,
           "accept": None, "has_pixels": False, "explode_batch": None}
    if mode == "image":
        from deduplication_ray.pipelines.image_dedup import (
            PIXEL_FAMILIES, compute_signatures)

        kit.update(
            id_col="image_id", has_pixels=True,
            explode=lsh.ExplodeBands(cfg, families=PIXEL_FAMILIES),
            explode_batch=cfg.text_batch_size,
            sig=lambda ds: compute_signatures(ds, cfg),
            cap_columns=["image_id", "caption"],
            caps_of=lambda ds: ds.select_columns(["image_id", "caption"]))
    elif mode == "text":
        from deduplication_ray.pipelines.text_dedup import (
            TEXT_FAMILIES, as_engine_table, text_signatures)

        id_col = id_col or "doc_id"
        kit.update(
            id_col=id_col, columns=[id_col, text_col],
            explode=lsh.ExplodeBands(cfg, families=TEXT_FAMILIES),
            explode_batch=cfg.text_batch_size,
            sig=lambda ds: text_signatures(
                as_engine_table(ds, id_col, text_col), cfg,
                "image_id", "caption"),
            cap_columns=[id_col, text_col],
            caps_of=lambda ds: as_engine_table(ds, id_col, text_col))
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
            explode=lsh.ExplodeBands(cfg, families=("simhash",)),
            sig=lambda ds: ds.map_batches(
                ann.EmbSig(cfg, id_col),
                batch_format="pyarrow", batch_size=4096),
            edge_cfg=dataclasses.replace(
                cfg, simhash_hamming_t=cfg.emb_hamming_t),
            accept=ann.embedding_accept(cfg.emb_cos_min))
    else:
        raise ValueError(f"unknown mode {mode!r} "
                         "(expected image|text|video|audio|embedding)")

    def captions(paths) -> ray.data.Dataset | None:
        if kit["caps_of"] is None:
            return None
        caps = None
        for p in [paths] if isinstance(paths, str) else paths:
            c = kit["caps_of"](storage.read_table(
                p, columns=kit["cap_columns"]))
            caps = c if caps is None else caps.union(c)
        return caps

    def buckets(sigs: ray.data.Dataset, caps=None,
                substr=None) -> ray.data.Dataset:
        from deduplication_ray.stages.substring import substring_buckets

        b = sigs.map_batches(kit["explode"], batch_format="pyarrow",
                             batch_size=kit["explode_batch"])
        if substr is None and caps is not None:
            substr = substring_buckets(caps, cfg)
        return b if substr is None else b.union(substr)

    def edges(sigs: ray.data.Dataset, caps=None, substr=None, old=None,
              side=None) -> ray.data.Dataset:
        """sigs [+ the captions ``caps``] -> verified (src, dst, kind).

        One bucket stream carries every candidate family (the kit's
        exploded signature bands, plus the caption L-gram family of
        ``caps``, or ``substr`` when that stream was prefetched — already
        materialized, the union reuses its blocks), so bucket stats, hot
        detection and salting run exactly once; pairs are deduped,
        [``side``-filtered] and verified against a
        ``verify.DeferredSignatureIndex`` (``verify.pair_and_verify``).
        ``cfg.use_suffix_array`` adds the suffix-array edges of ``caps``
        (trusted 'substr' by construction) after the verify. The image
        kit's opt-in orientation / crop channels are families of the same
        bucket stream (``lsh.CHANNELS``).

        ``old=(old_sigs, old_caps)`` makes it the delta-bounded plan of
        ingest and merge: the NEW side's occupied bucket keys are collected
        (bounded: |new| x bands) and broadcast, the OLD side's bucket
        stream keeps only rows in those buckets — so every shared bucket is
        seen in full and salts exactly as in a from-scratch run — and the
        slim pairs pass ``side`` (a ``_SideFilter``) BEFORE the resolve, so
        pairs the input runs already adjudicated are never verified."""
        b = buckets(sigs, caps, substr)
        if old is not None:
            old_sigs, old_caps = old
            b = b.materialize()
            keys_ref = ray.put(_collect_keys(b))
            b = b.union(buckets(old_sigs, old_caps).map_batches(
                _MatchingKeys(keys_ref), batch_format="pyarrow"))
            sigs = sigs.union(old_sigs)
        ve = verify.pair_and_verify(
            b, verify.DeferredSignatureIndex(sigs, cfg),
            kit["edge_cfg"], accept=kit["accept"],
            has_pixels=kit["has_pixels"], pair_filter=side)
        if cfg.use_suffix_array and caps is not None:
            from deduplication_ray.stages.substring import suffix_array_edges

            ve = ve.union(suffix_array_edges(caps, cfg))
        return ve

    kit.update(captions=captions, edges=edges)
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


def _representatives(clusters: ray.data.Dataset, input_path: str,
                     cfg: DedupConfig,
                     id_col: str = "image_id") -> ray.data.Dataset:
    """One input row per cluster (its cluster_id IS its min member id)
    with its ``cluster_size`` (R12 analog): cluster sizes by a hash-
    partitioned vectorized reduce (group-per-row cardinality — mostly
    singleton clusters — so not Ray aggregate), then a lookup join of the
    full input table on ``id_col``."""
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

    schema = pa.schema([("cluster_id", pa.string()),
                        ("cluster_size", pa.int64())])

    def red(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = (df.groupby("cluster_id", sort=False).size()
               .rename("cluster_size").reset_index())
        # explicit schema: empty frames round-trip to Arrow null type
        return pa.Table.from_pandas(out, preserve_index=False).cast(schema)

    sizes = hash_grouped_reduce(
        clusters.select_columns(["cluster_id"]), ["cluster_id"], red,
        cfg.num_partitions).rename_columns({"cluster_id": id_col})
    return lookup_join(storage.read_table(input_path), sizes, on=[id_col],
                       cfg=cfg)


def run_checkpointed(input_path: str, run_dir: str,
                     cfg: DedupConfig | None = None, mode: str = "text",
                     id_col: str | None = None, text_col: str = "text",
                     strict_resume: bool = False) -> dict:
    """Checkpointed full run of every engine — the base-run producer for
    ``ingest_delta`` and ``merge_runs``. Stages, each persisted under
    ``run_dir`` with config-hash lineage:

    - ``signatures``: per input-shard group when ``input_path`` is a
      directory (``run_stage_sharded``: a killed run resumes at the first
      unfinished group);
    - ``verified_edges``: the kit's edge plan, pairs built and verified
      inside the one stage (candidate pairs are never written);
    - ``labels_r{k}`` / ``clusters``: ``checkpointed_clusters`` over the
      signatures' ids, in the engine-canonical (image_id, cluster_id)
      shape;
    - ``representatives`` (image only): one input row per cluster.

    ``strict_resume`` (the CLI ``resume`` verb) refuses stale-config
    checkpoints; the default recomputes them. Returns stage metrics."""
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.stages.substring import substring_buckets
    from deduplication_ray.stages.tuning import apply_context_tuning

    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col, text_col)
    apply_context_tuning()
    run = CheckpointedRun(run_dir, cfg, strict_resume=strict_resume)

    # Overlap the caption L-gram bucket build (captions only — independent
    # of the signature stage) with the signature decode below: the two
    # largest map stages otherwise run back-to-back with a barrier between
    # them, and the multi-core legs idle through each other's straggler
    # tails. A 1-core run is unaffected (work serializes either way); at 4+
    # cores the overlap fills the barrier gaps.
    substr: dict = {}
    prefetch = None
    if kit["caps_of"] is not None and not run.is_complete("verified_edges"):
        def _prefetch() -> None:
            try:
                substr["ds"] = substring_buckets(
                    kit["captions"](input_path), cfg).materialize()
            except BaseException as exc:  # re-raised by make_edges
                substr["err"] = exc

        prefetch = threading.Thread(target=_prefetch, daemon=True)
        prefetch.start()

    def signatures(path) -> ray.data.Dataset:
        return kit["sig"](storage.read_table(path, columns=kit["columns"]))

    if os.path.isdir(input_path):
        sigs = run.run_stage_sharded(
            "signatures", storage.dataset_files(input_path), signatures,
            upstream=["input"])
    else:
        sigs = run.run_stage("signatures", lambda: signatures(input_path),
                             ["input"])

    def make_edges() -> ray.data.Dataset:
        if prefetch is not None:
            prefetch.join()
            if "err" in substr:
                raise substr["err"]
        return kit["edges"](sigs, kit["captions"](input_path),
                            substr.get("ds"))

    vedges = run.run_stage("verified_edges", make_edges, ["signatures"])
    clusters = checkpointed_clusters(
        run, vedges, sigs.select_columns(["image_id"]), cfg,
        edge_rows=run.rows("verified_edges"))
    stages = ("signatures", "verified_edges", "clusters")
    if mode == "image":
        run.run_stage("representatives",
                      lambda: _representatives(clusters, input_path, cfg),
                      ["clusters"])
        stages += ("representatives",)
    return run.finish(stages)


def engine_clusters(mode: str, ds: ray.data.Dataset,
                    cfg: DedupConfig | None = None,
                    id_col: str | None = None,
                    text_col: str = "text") -> ray.data.Dataset:
    """Lazy (id, payload) -> clusters(id_col, cluster_id) of every engine:
    ``run_checkpointed``'s plan with nothing persisted. Image and text
    take the caption L-gram family from ``ds`` itself."""
    from deduplication_ray.pipelines.image_dedup import finalize_clusters
    from deduplication_ray.stages.tuning import apply_context_tuning
    from deduplication_ray.state import unionfind

    cfg = cfg or DedupConfig()
    kit = engine_kit(mode, cfg, id_col, text_col)
    apply_context_tuning()
    sigs = kit["sig"](ds).materialize()
    caps = kit["caps_of"](ds) if kit["caps_of"] is not None else None
    # ids from the caption projection where there is one: streamed from
    # the input read, while a projection of the materialized signature
    # blocks raised text_planted's peak PSS by ~14% over 12 calls (4 CPUs)
    ids = (sigs if caps is None else caps).select_columns(["image_id"])
    return finalize_clusters(
        ids, unionfind.connected_components(kit["edges"](sigs, caps), cfg),
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

    ``mode`` picks the engine (``engine_kit``): 'image' (default), 'text',
    'video', 'audio' or 'embedding', against a ``run_checkpointed`` base
    run of the same mode. ``base_input_path``
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
        side = _SideFilter(ray.put(_id_hashes(_collect_ids(delta_sigs))),
                           "touches")
        return kit["edges"](delta_sigs, kit["captions"](delta_input_path),
                            old=(base_sigs, kit["captions"](base_inputs)),
                            side=side)

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
        lambda: kit["edges"](sigs_b, kit["captions"](inputs_b),
                             old=(sigs_a, kit["captions"](inputs_a)),
                             side=_SideFilter(side_ref, "crosses")),
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
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

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

        newlab = hash_grouped_reduce(surv, ["cluster_id"], red,
                                     cfg.num_partitions)
        j = lookup_join(surv, newlab, on=["cluster_id"], cfg=cfg)
        return j.map_batches(
            lambda t: pa.table({member_col: t[member_col].cast(pa.string()),
                                "cluster_id": t["new_id"].cast(pa.string())}),
            batch_format="pyarrow")

    clusters_out = run.run_stage("clusters", relabel, ["signatures"])

    if base_input is not None:
        run.run_stage(
            "representatives",
            lambda: _representatives(clusters_out, base_input, cfg,
                                     member_col),
            ["clusters"])

    return run.finish(("signatures", "clusters", "representatives"),
                      deleted_ids=len(dels))
