"""Text near-dup pipeline: the flagship DAG specialized to (id, text) tables.

Same engine as image_dedup minus the pixel path — used for the ``documents``
testdata table and as ``__ray_entry__.entry()``'s flagship run. Exercises:
CaptionSignatures -> one bucket stream (exact caption key + MinHash-LSH
bands + substring L-grams) -> slim pairs -> Jaccard verification ->
union-find -> clusters.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.stages.signatures import CaptionSignatures
from deduplication_ray.state import unionfind


def text_signatures(
    ds: ray.data.Dataset, cfg: DedupConfig, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    return ds.map_batches(
        CaptionSignatures(cfg, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.text_batch_size,
    )


TEXT_FAMILIES = ("minhash", "exact")


def text_dedup_clusters(
    ds: ray.data.Dataset,
    cfg: DedupConfig | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
    with_substring: bool = True,
) -> ray.data.Dataset:
    """(id, text) table -> clusters(id_col, cluster_id) via the full engine."""
    cfg = cfg or DedupConfig()
    from deduplication_ray.pipelines.image_dedup import (finalize_clusters,
                                                         verified_edges)
    from deduplication_ray.stages.tuning import apply_context_tuning

    apply_context_tuning()
    caps = as_engine_table(ds, id_col, text_col)
    sigs = text_signatures(caps, cfg, "image_id", "caption").materialize()
    # MinHash band buckets + the exact caption family (cap_hash) [+ the
    # substring L-gram buckets of ``caps``], Jaccard-verified
    vedges = verified_edges(sigs, cfg, caps if with_substring else None,
                            families=TEXT_FAMILIES, has_pixels=False)

    ids = ds.select_columns([id_col]).map_batches(
        lambda t: pa.table({"image_id": t[id_col].cast(pa.string())}),
        batch_format="pyarrow",
    )
    return finalize_clusters(ids, unionfind.connected_components(vedges, cfg),
                             cfg, id_col)


def as_engine_table(ds: ray.data.Dataset, id_col: str = "doc_id",
                    text_col: str = "text") -> ray.data.Dataset:
    """(id, text) table -> the engine's canonical (image_id, caption) shape,
    so the checkpoint/incremental machinery (written against the canonical
    columns) runs unchanged over documents."""
    def rn(t: pa.Table) -> pa.Table:
        return pa.table({"image_id": t[id_col].cast(pa.string()),
                         "caption": t[text_col]})

    return ds.map_batches(rn, batch_format="pyarrow")


def run_text_pipeline(input_path: str, run_dir: str,
                      cfg: DedupConfig | None = None,
                      id_col: str = "doc_id", text_col: str = "text",
                      strict_resume: bool = False) -> dict:
    """Checkpointed text dedup run (``incremental.run_checkpointed`` in
    text mode): every stage persists under ``run_dir`` with lineage
    (signatures, verified_edges, union-find rounds, clusters) — a killed
    run resumes, and the signature/cluster checkpoints feed
    ``incremental.ingest_delta(mode='text')`` exactly like the image run's
    feed the image ingest. Returns stage metrics."""
    from deduplication_ray.pipelines.incremental import run_checkpointed

    return run_checkpointed(input_path, run_dir, cfg, "text", id_col,
                            text_col, strict_resume)
