"""Text near-dup pipeline: the flagship DAG specialized to (id, text) tables.

Same engine as image_dedup minus the pixel path — used for the ``documents``
testdata table and as ``__ray_entry__.entry()``'s flagship run. Both entry
points are the text mode of ``incremental``: ``text_dedup_clusters`` is
``engine_clusters`` (lazy) and ``run_text_pipeline`` is ``run_checkpointed``
(checkpointed), over the one edge plan of ``engine_kit``:
CaptionSignatures -> one bucket stream (exact caption key + MinHash-LSH
bands + substring L-grams) -> slim pairs -> Jaccard verification ->
union-find -> clusters.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.stages.signatures import CaptionSignatures


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
) -> ray.data.Dataset:
    """(id, text) table -> clusters(id_col, cluster_id) via the full engine
    (``incremental.engine_clusters`` in text mode)."""
    from deduplication_ray.pipelines.incremental import engine_clusters

    return engine_clusters("text", ds, cfg, id_col, text_col)


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
    (signatures per input-shard group, verified_edges, union-find rounds,
    clusters) — a killed run resumes, and the signature/cluster checkpoints
    feed ``incremental.ingest_delta(mode='text')`` exactly like the image
    run's feed the image ingest. Returns stage metrics."""
    from deduplication_ray.pipelines.incremental import run_checkpointed

    return run_checkpointed(input_path, run_dir, cfg, "text", id_col,
                            text_col, strict_resume)
