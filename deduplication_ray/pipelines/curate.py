"""End-to-end training-data curation: one command from a raw documents
table to a clean, deduplicated, split, chunked training corpus.

Chain (each step an operator this engine already ships, composed as a user
would compose them):

  1. benchmark DECONTAMINATION  — drop docs sharing a word 5-gram with the
     held-out eval slice (docops.q_doc_decontaminate)
  2. QUALITY GATE               — keep docs at/above the global median
     quality (docops.q_docs_above_median_quality)
  3. BOILERPLATE SCRUB          — line-level corpus-frequency scrub of the
     survivors' text; docs scrubbed to empty are dropped, and the LATER
     tiers (near-dup, chunk) see the CLEAN text, so chrome-only near-dups
     merge (docops.q_doc_boilerplate_scrub)
  4. NEAR-DUP DEDUP             — full MinHash-LSH + substring + union-find
     engine over the scrubbed text; keep each cluster's highest-quality
     member (docops.q_doc_dedup_keep_best)
  5. SPLIT                      — deterministic 80/10/10 train/val/test by
     id hash (docops.q_doc_split)
  6. CHUNK                      — fixed 64-word chunks of the SCRUBBED text
     with stable (doc_id, chunk_idx) ids (docops.q_doc_chunks)
  7. WRITE                      — parquet partitioned by split (one
     directory per split, resumable consumers can read splits
     independently)

Survivor-set intersections are LOOKUP JOINS on doc_id (broadcast below
``cfg.broadcast_limit``, hash-partitioned above — the 10^12-row path), so
no step materializes the corpus on the driver. Returns per-stage row
counts — the curation funnel report.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.pipelines import docops
from deduplication_ray.stages.join import lookup_join


def _keep(ds: ray.data.Dataset, ids: ray.data.Dataset,
          cfg: DedupConfig) -> ray.data.Dataset:
    """Semi-join: rows of ds whose doc_id is in ids (ids carries doc_id)."""
    return lookup_join(ds, ids, on=["doc_id"], cfg=cfg)


def curate_documents(sf_dir: str, out_dir: str,
                     cfg: DedupConfig | None = None,
                     remove_dup_spans: bool = False) -> dict:
    """Run the chain above over ``sf_dir``'s documents, write the chunks
    under ``out_dir`` and return the funnel counts. ``cfg`` configures the
    survivor-set lookup joins only: step 4 clusters and joins with
    ``q_doc_dedup_keep_best``'s own fixed config, so ``cfg`` does not reach
    the near-dup tier."""
    cfg = cfg or DedupConfig(num_partitions=8)

    total = docops._docs(sf_dir, ["doc_id"]).count()

    # 1. decontaminate: returns the CLEAN training doc_ids
    clean_ids = docops.q_doc_decontaminate(sf_dir).materialize()
    n_clean = clean_ids.count()

    # 2. global-median quality gate, intersected with the clean set
    quality_ids = (docops.q_docs_above_median_quality(sf_dir)
                   .select_columns(["doc_id"]))
    kept_ids = _keep(clean_ids, quality_ids, cfg).materialize()
    n_quality = kept_ids.count()

    # 3. boilerplate scrub over the survivors' text; empty docs drop out.
    # Every later tier reads the SCRUBBED text (chrome-only near-dups now
    # merge, and chunks never contain boilerplate).
    survivors = _keep(docops._docs(sf_dir, ["doc_id", "text"]), kept_ids, cfg)
    docs = (docops.q_doc_boilerplate_scrub(sf_dir, ds=survivors)
            .filter(expr="n_kept > 0")
            .select_columns(["doc_id", "clean_text"])
            .rename_columns({"clean_text": "text"}).materialize())
    n_scrub = docs.count()

    # 3b (opt-in). ExactSubstr span removal over the scrubbed survivors —
    # the Lee et al. 2022 ordering: cut cross-document verbatim spans
    # BEFORE whole-document near-dup, so partial template reuse that
    # would neither cluster (too dissimilar) nor scrub (lines under the
    # df cap) still leaves the training text. Docs cut to nothing drop.
    span_words_removed = 0
    if remove_dup_spans:
        rewritten = docops.q_doc_remove_dup_spans(
            sf_dir, ds=docs).materialize()
        span_words_removed = int(rewritten.sum("n_removed") or 0)
        docs = (rewritten.filter(expr="text != ''")
                .select_columns(["doc_id", "text"]).materialize())
    n_spans = docs.count()

    # 4. near-dup dedup over the scrubbed survivors: cluster, keep each
    # cluster's best-quality member
    rep_ids = (docops.q_doc_dedup_keep_best(sf_dir, ds=docs)
               .select_columns(["kept_doc_id"])
               .rename_columns({"kept_doc_id": "doc_id"}).materialize())
    n_dedup = rep_ids.count()

    # 5. split assignment for the survivors only
    kept_split = docops.q_doc_split(sf_dir, ds=rep_ids)

    # 6. chunk the SCRUBBED survivor text only (no wasted pass over dropped
    # docs, no boilerplate in chunks), attach the split
    chunks = docops.q_doc_chunks(sf_dir, ds=_keep(docs, rep_ids, cfg))
    out = lookup_join(chunks, kept_split, on=["doc_id"], cfg=cfg)
    out = out.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"], "chunk_idx": t["chunk_idx"],
            "n_words": t["n_words"], "chunk_text": t["chunk_text"],
            "split": t["split"]}),
        batch_format="pyarrow").materialize()
    n_chunks = out.count()

    # 6. one directory per split: resumable consumers read splits
    # independently, and a failed write reruns one split, not the corpus
    for split in ("train", "val", "test"):
        part = out.filter(expr=f"split == '{split}'")
        os.makedirs(f"{out_dir}/{split}", exist_ok=True)
        part.write_parquet(f"{out_dir}/{split}")

    return {
        "docs_total": int(total),
        "after_decontaminate": int(n_clean),
        "after_quality_gate": int(n_quality),
        "after_scrub": int(n_scrub),
        "after_span_removal": int(n_spans),
        "span_words_removed": span_words_removed,
        "after_dedup": int(n_dedup),
        "chunks_written": int(n_chunks),
        "out_dir": out_dir,
    }
