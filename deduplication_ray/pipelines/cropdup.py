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

The window hashes are a channel of the main image signature stage
(``cfg.crop_channel``: ``stages/signatures`` emits wh0..wh5 + the wvalid
bitmask from the SAME decode pass) and of the one bucket stream
(``lsh.CHANNELS['window']``, band namespace ``BAND_WINDOW``): every valid
window hash is split into 4 x 16-bit bands keyed by band position only,
pairs are gated at emission and salted like every family's, and the
resolve keeps a pair iff the min Hamming over valid window pairs
(``verify.channel_hamming``) is within ``crop_hamming_t``.

Reference parity: like ``orientation.py``, this generalizes the reference's
exact-identity probe (``/root/reference/src/dictionary.c:49-59``) to an
identity invariant under a transform family — here crop/pad composition.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C

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


def run_crop_dup(input_ds: ray.data.Dataset, cfg: DedupConfig,
                 max_hamming: int = 3) -> ray.data.Dataset:
    """input table (image_id, bytes, w, h, fmt, caption, phash) -> crop/pad
    near-dup pairs (id_a, id_b), id_a < id_b: the window channel alone
    (``image_dedup.channel_dup_pairs``), kept iff the min Hamming over
    valid window pairs is <= max_hamming. Every pair only while each band
    bucket stays within ``cfg.bucket_cap`` rows; above it the pairs span
    the duplicates without listing them all (see ``channel_dup_pairs``).

    Default threshold 3, tighter than the whole-image passes: a window
    sees 1/4 of the pixels, and measured same-corpus noise pairs cluster
    at Hamming 4-6 while true canonical-boundary crops hash at 0 (fixture
    measurement: 687/696 true pairs at 0, all >2 false). 3 is also the
    4x16-bit band guarantee, so nothing the verify would pass can be
    missed by banding."""
    from deduplication_ray.pipelines.image_dedup import channel_dup_pairs

    return channel_dup_pairs(input_ds, dataclasses.replace(
        cfg, crop_channel=True, crop_hamming_t=max_hamming), "window")
