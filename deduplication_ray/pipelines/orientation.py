"""Orientation-invariant (dihedral) image near-duplicate detection.

Plain pHash is blind to rotated / mirrored copies: a rot90 or fliplr
duplicate permutes and sign-flips the DCT coefficients, so its 64-bit hash
sits at a ~random Hamming distance (~32) from the original and never shares
a band. This stage computes all 8 dihedral-orientation pHashes from ONE DCT
per image (``codecs.phash64_dihedral_batch`` — transpose + parity sign
masks on the low-frequency block), bands EVERY orientation hash, and
verifies candidate pairs with the minimum Hamming distance over relative
orientations. A pair related by any rotation/mirror (plus mild noise)
collides in the band whose orientations align and verifies at ~0 Hamming.

Scale shape (mirrors the main image pipeline, ``image_dedup.py``):
- decode + hash in a task-mode ``map_batches`` — bytes die at this stage,
  only (image_id, 8 x u64) rows ever shuffle;
- banding is a groupby on 16-bit band keys; emitting 8 orientations costs
  8x band rows (a documented constant factor on the SIGNATURE stream, not
  the pixels — the alternative, canonical-min-hash banding, loses near-dup
  recall when noise reorders near-tied orientation hashes);
- verify runs inside the band buckets (both sides' hash vectors are already
  co-located — zero extra join), then pairs dedupe through one
  hash-partitioned min-reduce;
- bucket blowup is bounded by ``cfg.bucket_cap`` exactly like the LSH path:
  an oversized bucket (a constant-color web tile in every orientation)
  degrades to anchor-star pairs instead of quadratic emission.

Verification uses the group structure: if B = g(A) + noise then B's
orientation hashes are a permutation of A's, so the minimum Hamming over
orientation pairs equals the minimum over RELATIVE orientations — one
vectorized (pairs, 8, 8) popcount in the shared multihash machinery.

Reference parity: generalizes the reference's exact-block identity probe
(``/root/reference/src/dictionary.c:49-59``) to an identity that is
invariant under the dihedral-4 group, the way ``stages/signatures.py``
generalizes it to near-identity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C
from deduplication_ray.functions import hashing as H
from deduplication_ray.pipelines.multihash import banded_multihash_pairs

N_ORIENT = 8


class OrientationSignatures:
    """Actor-pool stage: decode pixels once, emit the 8 orientation pHashes.

    Output: image_id, h0..h7 (int64 bitcast of u64 pHashes), valid (all-ones
    bitmask). The bytes column dies here."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        C.dct_matrix(cfg.phash_size)  # warm the per-actor cache

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        payloads = batch["bytes"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        grays = np.zeros((n, cfg.phash_size, cfg.phash_size), dtype=np.float32)
        for i in range(n):  # decode (zlib inflate) is inherently per-row
            img = C.decode_image(pbuf[poffs[i]:poffs[i + 1]],
                                 fmts[i], int(ws[i]), int(hs[i]))
            grays[i] = C.resize_area(C.to_grayscale(img), cfg.phash_size)
        dh = C.phash64_dihedral_batch(grays, cfg.phash_size, cfg.phash_lowfreq)
        cols = {"image_id": batch["image_id"]}
        for k in range(N_ORIENT):
            cols[f"h{k}"] = pa.array(H.bitcast_u64_to_i64(dh[:, k]),
                                     pa.int64())
        cols["valid"] = pa.array(np.full(n, (1 << N_ORIENT) - 1, np.int64))
        return pa.table(cols)


def compute_orientation_signatures(ds: ray.data.Dataset,
                                   cfg: DedupConfig) -> ray.data.Dataset:
    return ds.map_batches(OrientationSignatures(cfg), batch_format="pyarrow",
                          batch_size=cfg.batch_size)


def rot_dup_pairs(sigs: ray.data.Dataset, cfg: DedupConfig,
                  max_hamming: int = 6) -> ray.data.Dataset:
    """(image_id, h0..h7, valid) signatures -> verified orientation-
    invariant near-dup pairs (id_a, id_b, hamming), id_a < id_b.

    hamming = min Hamming over all (i, j) orientation pairs — by the group
    structure d(h_i(A), h_j(B)) = d(h_0(A), h_rel(B)), so the full matrix
    min equals the relative-orientation min. Banding/verify/dedupe are the
    shared ``multihash.banded_multihash_pairs`` machinery."""
    return banded_multihash_pairs(sigs, cfg, n_hashes=N_ORIENT,
                                  max_hamming=max_hamming)


def run_rot_dup(input_ds: ray.data.Dataset, cfg: DedupConfig,
                max_hamming: int = 6) -> ray.data.Dataset:
    """input table (image_id, bytes, w, h, fmt, ...) -> verified
    orientation-invariant near-dup pairs."""
    return rot_dup_pairs(compute_orientation_signatures(input_ds, cfg),
                         cfg, max_hamming=max_hamming)
