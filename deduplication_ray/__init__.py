"""deduplication_ray — a Ray-Data-native near-duplicate detection + clustering engine.

A from-scratch generalization of the exact-block dictionary deduplication
semantics of the reference C tool (``taehyeon-masu/deduplication``, see
``/root/reference/src/compressor.c:105-114`` for the core dedup-encode loop) to
web-scale tables of image+caption pairs:

* content-identity indexing  -> distributed content-key groupby (exact dedup)
* first-occurrence canonical representatives -> deterministic min-id cluster reps
* id remapping (block_ids)   -> image_id -> cluster_id assignment table
* lossless round-trip verify -> decoded-pixel allclose + caption equality
* near-dup generalization    -> MinHash/LSH over caption shingles, SimHash +
                                pHash Hamming-ball over decoded pixels,
                                per-partition suffix-array substring pass,
                                distributed union-find (hash-min propagation)

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` pipelines,
``map_batches`` over zero-copy Arrow batches, stateful stages run as
tasks, ``groupby`` shuffles for LSH band buckets, and per-stage
Parquet checkpoints with lineage manifests for resume.

No module in this package calls ``ray.init()`` — sessions are owned by the
caller (driver, tests' conftest fixture, bench.py, CLI).
"""

from deduplication_ray.config import DedupConfig

__all__ = ["DedupConfig"]
__version__ = "0.1.0"
