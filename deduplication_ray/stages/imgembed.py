"""Batched image-embedding inference: the model-scoring stage for the
image payload.

The "model" is a fixed seeded random projection of the 32x32 grayscale
plane (Johnson-Lindenstrauss random-projection embedding — public
technique): honest in a sandbox with no trained vision models, and the
Ray-side plumbing is exactly what a real encoder needs — weights
materialized ONCE per task at the first batch, per-batch decode + one
batched matmul in ``__call__``, a ``list<float>`` output column that
feeds every downstream embedding operator (ANN top-k, SemDeDup,
outliers). Swap ``ImageEmbed._project`` for a real forward pass and
nothing else changes.

Graft provenance: generalizes the reference's per-block signature scan
(``/root/reference/src/compressor.c:105-114``) to a learned-feature
space.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C


class ImageEmbed:
    """Task stage: (image_id, bytes, w, h, fmt) -> (image_id,
    embedding list<float32>). L2-normalized, so cosine == dot."""

    def __init__(self, cfg: DedupConfig | None = None, dim: int = 64,
                 size: int = 32, seed: int | None = None):
        self.size, self.dim = size, dim
        self.seed = seed if seed is not None else (cfg or DedupConfig()).seed
        self.w = None

    def _project(self, planes: np.ndarray) -> np.ndarray:
        """The model forward pass — the extension point: replace this ONE
        batched matmul with a real encoder and the stage contract
        (decode -> batch -> normalized vectors) is unchanged."""
        if self.w is None:
            # once per task: the projection "weights" (size^2 x dim)
            rng = np.random.default_rng(self.seed)
            self.w = rng.standard_normal(
                (self.size * self.size, self.dim)).astype(np.float32) \
                / np.float32(self.size)
        emb = planes @ self.w
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        return emb / np.maximum(norm, 1e-12)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        planes = np.zeros((n, self.size * self.size), dtype=np.float32)
        for i in range(n):  # variable-length payload decode is per-row
            img = C.decode_image(batch["bytes"][i].as_py(), fmts[i],
                                 int(ws[i]), int(hs[i]))
            planes[i] = C.resize_area(C.to_grayscale(img),
                                      self.size).ravel()
        emb = self._project(planes)
        return pa.table({
            "image_id": batch["image_id"],
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        })


def embed_images(ds, cfg: DedupConfig | None = None, dim: int = 64,
                 batch_size: int = 256):
    """input table -> (image_id, embedding) via the ImageEmbed stage."""
    return ds.map_batches(ImageEmbed(cfg, dim), batch_format="pyarrow",
                          batch_size=batch_size)


EMBED_COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]  # prune at the read


def int_vec_ids(t: pa.Table) -> pa.Table:
    """(image_id 'img_%09d', embedding) -> (vec_id int64, embedding): the
    fixture-id adapter the integer-keyed embedding operators expect."""
    ids = [int(s[4:]) for s in t["image_id"].to_pylist()]
    return pa.table({"vec_id": pa.array(ids, pa.int64()),
                     "embedding": t["embedding"]})
