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

Scale shape: the orientation hashes are a channel of the main image
signature stage (``cfg.orientation_channel``: ``stages/signatures`` emits
oh0..oh7 from the SAME decode pass — bytes die there) and of the one
bucket stream (``lsh.CHANNELS['orient']``, band namespace
``BAND_ORIENT``). Every orientation hash is split into 4 x 16-bit bands
keyed by band position only, so orientation i of one image meets
orientation j of another; the emission gate checks the colliding pair at
``orientation_hamming_t`` (8x band rows on the SIGNATURE stream, not the
pixels — canonical-min-hash banding would lose near-dup recall when noise
reorders near-tied orientation hashes). Hot buckets (a constant-color tile
in every orientation) are salted like every family's, and every pair is
checked at the resolve.

Verification uses the group structure: if B = g(A) + noise then B's
orientation hashes are a permutation of A's, so the minimum Hamming over
orientation pairs equals the minimum over RELATIVE orientations — one
vectorized (pairs, 8, 8) popcount (``verify.channel_hamming``).

Reference parity: generalizes the reference's exact-block identity probe
(``/root/reference/src/dictionary.c:49-59``) to an identity that is
invariant under the dihedral-4 group, the way ``stages/signatures.py``
generalizes it to near-identity.
"""

from __future__ import annotations

import dataclasses

import ray.data

from deduplication_ray.config import DedupConfig


def run_rot_dup(input_ds: ray.data.Dataset, cfg: DedupConfig,
                max_hamming: int = 6) -> ray.data.Dataset:
    """input table (image_id, bytes, w, h, fmt, caption, phash) ->
    orientation-invariant near-dup pairs (id_a, id_b), id_a < id_b: the
    orientation channel alone (``image_dedup.channel_dup_pairs``), kept iff
    the min Hamming over all (i, j) orientation pairs is <= max_hamming.
    Every pair only while each band bucket stays within ``cfg.bucket_cap``
    rows; above it the pairs span the duplicates without listing them all
    (see ``channel_dup_pairs``)."""
    from deduplication_ray.pipelines.image_dedup import channel_dup_pairs

    return channel_dup_pairs(input_ds, dataclasses.replace(
        cfg, orientation_channel=True, orientation_hamming_t=max_hamming),
        "orient")
