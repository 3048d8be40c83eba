"""Crop/pad-robust image near-duplicate detection (window-pyramid pHash).

Whole-image pHash is blind to a cropped duplicate (a quadrant re-post, a
thumbnail of the center) and to a padded one (letterbox/pillarbox bars):
resizing normalizes away scale but not COMPOSITION, so the crop's hash sits
far from the original's. This stage hashes a small pyramid of canonical
windows per image — full, the four quadrants, and the center half — and
lets window hashes collide ACROSS window indexes: the full-image hash of a
quadrant crop matches the original's quadrant-window hash; a pad-to-double
copy's center-half window matches the original's full window.

Each window is an area-resize of its EXACT raw pixel region (floor-halved
boundaries, the same arithmetic a real crop uses), so a crop taken at a
canonical boundary hashes bit-near-identically to the original's window —
a slice of an already-resized plane was measured 12-16 bits off (sub-pixel
grid misalignment), far past any band guarantee. Six small resizes per
image (two matmuls each) + one batched DCT over all 6n planes.

Near-constant windows (the letterbox bars themselves, flat web tiles) are
marked invalid by a variance gate and never banded — otherwise every padded
image would pair with every other through its bars.

Banding, in-bucket verify (min Hamming over valid window pairs) and pair
dedupe are the shared ``multihash.banded_multihash_pairs`` machinery; see
its docstring for the scale shape.

Reference parity: like ``orientation.py``, this generalizes the reference's
exact-identity probe (``/root/reference/src/dictionary.c:49-59``) to an
identity invariant under a transform family — here crop/pad composition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C
from deduplication_ray.functions import hashing as H
from deduplication_ray.pipelines.multihash import banded_multihash_pairs

WINDOW_NAMES = ("full", "tl", "tr", "bl", "br", "center")
N_WINDOWS = 6
MIN_WINDOW_STD = 2.0  # luma std below which a window is flat -> not banded


def window_grays(gray: np.ndarray, size: int) -> np.ndarray:
    """(h, w) raw grayscale -> (6, S, S): full, 4 quadrants, center half,
    each the area resize of its exact floor-halved pixel region (matching
    ``fixtures.crop_apply`` boundaries)."""
    h, w = gray.shape
    h2, w2, h4, w4 = h // 2, w // 2, h // 4, w // 4
    regions = (gray,
               gray[:h2, :w2], gray[:h2, w - w2:],
               gray[h - h2:, :w2], gray[h - h2:, w - w2:],
               gray[h4:h4 + h2, w4:w4 + w2])
    return np.stack([C.resize_area(r, size) for r in regions])


def window_phashes(wins: np.ndarray, size: int = 32,
                   lowfreq: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """(n, 6, S, S) window planes -> ((n, 6) u64 hashes, (n,) validity
    bitmask); a window flatter than MIN_WINDOW_STD is invalid."""
    n = len(wins)
    flat = wins.reshape(n * N_WINDOWS, size, size)
    hashes = C.phash64_batch(flat, size, lowfreq).reshape(n, N_WINDOWS)
    stds = flat.reshape(n * N_WINDOWS, -1).std(axis=1).reshape(n, N_WINDOWS)
    valid = ((stds >= MIN_WINDOW_STD)
             << np.arange(N_WINDOWS)[None, :]).sum(axis=1).astype(np.int64)
    return hashes, valid


class WindowSignatures:
    """Actor-pool stage: decode pixels once, emit the 6 window pHashes.

    Output: image_id, h0..h5 (int64 bitcast of u64), valid bitmask. The
    bytes column dies here."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        C.dct_matrix(cfg.phash_size)  # warm the per-actor cache

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        s = cfg.phash_size
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        payloads = batch["bytes"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        wins = np.zeros((n, N_WINDOWS, s, s), dtype=np.float32)
        for i in range(n):  # decode (zlib inflate) is inherently per-row
            img = C.decode_image(pbuf[poffs[i]:poffs[i + 1]],
                                 fmts[i], int(ws[i]), int(hs[i]))
            wins[i] = window_grays(C.to_grayscale(img), s)
        hashes, valid = window_phashes(wins, cfg.phash_size,
                                       cfg.phash_lowfreq)
        cols = {"image_id": batch["image_id"]}
        for k in range(N_WINDOWS):
            cols[f"h{k}"] = pa.array(H.bitcast_u64_to_i64(hashes[:, k]),
                                     pa.int64())
        cols["valid"] = pa.array(valid)
        return pa.table(cols)


def compute_window_signatures(ds: ray.data.Dataset,
                              cfg: DedupConfig) -> ray.data.Dataset:
    return ds.map_batches(WindowSignatures(cfg), batch_format="pyarrow",
                          batch_size=cfg.batch_size)


def crop_dup_pairs(sigs: ray.data.Dataset, cfg: DedupConfig,
                   max_hamming: int = 3) -> ray.data.Dataset:
    """(image_id, h0..h5, valid) -> verified crop/pad near-dup pairs
    (id_a, id_b, hamming), id_a < id_b; hamming = min over valid window
    pairs.

    Default threshold 3, tighter than the whole-image passes: a window
    sees 1/4 of the pixels, and measured same-corpus noise pairs cluster
    at Hamming 4-6 while true canonical-boundary crops hash at 0 (fixture
    measurement: 687/696 true pairs at 0, all >2 false). 3 is also the
    4x16-bit band guarantee, so nothing the verify would pass can be
    missed by banding."""
    return banded_multihash_pairs(sigs, cfg, n_hashes=N_WINDOWS,
                                  max_hamming=max_hamming)


def run_crop_dup(input_ds: ray.data.Dataset, cfg: DedupConfig,
                 max_hamming: int = 3) -> ray.data.Dataset:
    """input table (image_id, bytes, w, h, fmt, ...) -> verified crop/pad
    near-dup pairs."""
    return crop_dup_pairs(compute_window_signatures(input_ds, cfg),
                          cfg, max_hamming=max_hamming)
