"""Pipeline configuration.

The reference exposes exactly two knobs — sample width and block size
(``/root/reference/main.c:28-31``); everything else is hard-coded. The graft
needs a real config surface: one frozen dataclass, hashed for lineage so a
checkpoint written under one config can never be resumed under another
(generalizes the header re-validation at ``/root/reference/src/compressor.c:246-252``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class DedupConfig:
    """All tunables for the near-dup pipeline. Deterministic given ``seed``."""

    seed: int = 42

    # --- caption shingling + MinHash (T3/T4) ---
    shingle_k: int = 5            # char k-grams over normalized caption
    num_perm: int = 128           # MinHash permutations P
    signature_mode: str = "perm"  # 'perm': classic P-permutation MinHash
                                  #   (P reduceat sweeps per batch);
                                  # 'oph': one-permutation hashing with
                                  #   rotation densification — same P-slot
                                  #   signature from ONE remix pass (the
                                  #   signature stage's compute bill cut
                                  #   ~P/3-fold; estimator unbiased, see
                                  #   hashing.oph_signatures). Same banding
                                  #   and verify downstream; num_perm must
                                  #   be a power of two.
    bands: int = 32               # LSH bands b (b * rows == num_perm)
    rows_per_band: int = 4        # LSH rows-per-band r
    jaccard_tau: float = 0.5      # verification threshold on estimated Jaccard

    # --- pixel signatures (T5/T6) ---
    phash_size: int = 32          # resize to phash_size^2 grayscale before DCT
    phash_lowfreq: int = 8        # keep top-left 8x8 DCT coeffs -> 64 bits
    phash_hamming_t: int = 10     # Hamming-ball radius for pHash match
    simhash_dim: int = 64         # feature dims (8x8 tile means)
    simhash_bits: int = 64
    simhash_hamming_t: int = 6
    # Cross-channel corroboration for PIXEL accepts: an edge admitted via one
    # pixel hash (phash within phash_hamming_t, or simhash within
    # simhash_hamming_t) must ALSO sit within pixel_corr_t on the OTHER pixel
    # hash. True pixel dups satisfy both trivially (measured on planted
    # fixtures: every pair with phash<=10 has simhash<=4, vs min 12 / p0.1 18
    # for unrelated pairs), while a CHANCE Hamming-ball collision between
    # unrelated images corroborates with probability ~2e-3 — the ~10^2
    # single-channel chance edges that merged whole clusters at 1M rows
    # (precision 0.976, BENCH sample 21) die here. 64 disables (old OR
    # semantics). Image paths only; video/audio/embedding verifies are theirs.
    pixel_corr_t: int = 20

    # --- optional extra pixel-identity channels (opt-in: each widens the
    # duplicate definition AND the signature row) ---
    orientation_channel: bool = False  # dihedral (rot/mirror) pHash bands
    orientation_hamming_t: int = 6
    crop_channel: bool = False         # window-pyramid (crop/pad) bands
    crop_hamming_t: int = 3

    # --- skew defusal (T8) ---
    bucket_cap: int = 64          # max rows per LSH bucket before salting
    gram_sample_drop_df: int = 1024  # gram-sample buckets (BAND_GRAM_SAMPLE:
                                     # containment candidates keyed by a raw
                                     # shingle-gram hash) above this member
                                     # count are DROPPED, not salted — a gram
                                     # shared by 1000+ docs is a stopword
                                     # shingle with ~zero containment signal,
                                     # and star-linking it would emit
                                     # bucket-size spurious candidates

    # --- substring pass (T11) ---
    substring_min_len: int = 40   # Lmin: min shared-substring chars to link
    use_suffix_array: bool = False
    # The per-partition suffix-array pass is OFF by default: the L-gram
    # rendezvous (every distinct L-gram hash is a bucket key, so bucket
    # co-membership proves the >= Lmin shared substring) already covers
    # >= Lmin within AND across partitions, and the O(n log^2 n) SA build
    # was ~27% of the edge-stage wall time at 60k rows. Turn on to
    # cross-check the rendezvous path; its edges join after verification.
    sa_batch_size: int = 4096     # docs per suffix-array batch: the SA build
                                  # is O(n log^2 n) serial per batch — size to
                                  # ~0.5MB of TEXT per batch (long documents
                                  # want 1024, short captions 4096). The pass
                                  # is blind across batches; the L-gram
                                  # rendezvous covers those pairs.

    # --- video near-dup (frame-sampled pHash; pipelines/video_dedup.py) ---
    video_every_k: int = 1          # decode every k-th stored frame. k=1 is
                                    # the recall-safe default: a clip trimmed
                                    # by an offset not divisible by k samples
                                    # a SHIFTED frame grid, and pHash is not
                                    # pan-invariant (measured d=8-16 at 2px).
                                    # Raise k only when decode dominates and
                                    # trims are grid-aligned or absent.
    video_frame_hamming_t: int = 8  # per-frame pHash Hamming radius
    video_match_frac: float = 0.6   # mean frame-containment to link two videos
    video_mirror_channel: bool = False  # opt-in: also catch horizontally
                                        # mirrored re-uploads (fliplr frame
                                        # hashes from the same DCT)

    # --- audio near-dup (windowed spectral fingerprints) ---
    audio_window: int = 1024        # PCM samples per fingerprint window
    audio_shingle: int = 3          # consecutive coarse window-hashes per
                                    # exact-match shingle (candidates)
    audio_coarse_bands: int = 10    # coarse subfp bits for shingles: wider
                                    # bands -> stabler signs -> longer exact
                                    # runs in dup copies (fine 16-bit subfps
                                    # do verification). 10 bands keeps every
                                    # planted dup's exact run >= shingle
                                    # length while cutting coincidental
                                    # candidates ~7x vs 8 bands.
    audio_frame_hamming_t: int = 2  # per-window 16-bit subfp Hamming radius
                                    # (verification; candidates are exact
                                    # shingle matches)
    audio_match_frac: float = 0.5   # best ALIGNED match fraction to link two
                                    # clips (true copies measure >= 0.68 on a
                                    # 4000-clip fixture, the best
                                    # coincidental candidate 0.29)
    audio_max_offset: int = 8       # alignment search radius in hops
                                    # (bounds detectable head trims)
    audio_reverse_channel: bool = False  # opt-in: also catch time-REVERSED
                                    # re-uploads. |FFT| of a reversed window
                                    # equals the original's, so a reversed
                                    # clip's frame sequence is the original's
                                    # reversed EXACTLY when the length sits
                                    # on the hop grid ((len - window) % hop
                                    # == 0 — same grid contract as trims);
                                    # shingle keys canonicalize to
                                    # min(fwd, rev) and verify takes the max
                                    # over both time directions.

    # --- embedding (semantic) near-dup ---
    emb_cos_min: float = 0.98     # exact-cosine verification threshold for
                                  # the checkpointed/incremental embedding
                                  # dedup path (candidates from SimHash
                                  # multi-index bands, Hamming-gated at
                                  # emb_hamming_t)
    emb_hamming_t: int = 20       # generous SimHash radius for embedding
                                  # candidates: cos >= 0.98 pairs can sit at
                                  # Hamming ~8-12; exact cosine is the gate

    # --- union-find (T12) ---
    max_rounds: int = 12          # hash-min propagation round cap (O(log n) expected)

    # --- execution shape ---
    # Every map stage runs as Ray tasks, never as a fixed actor pool: a pool
    # pins CPUs that the read tasks feeding it need (a 1-CPU session hangs),
    # and the signature stage measured 13.6 s as tasks vs 38.7 s as a fixed
    # pool at 60k rows.
    batch_size: int = 1024        # rows per map_batches batch for image stages
    text_batch_size: int = 4096   # rows per batch for caption-only stages
    num_partitions: int = 32      # hash-join / groupby partition count
    broadcast_limit: int = 1_000_000  # lookup rows <= this -> broadcast join
                                      # (ray.put + per-batch merge); above ->
                                      # join.shuffle_join (sort shuffle)
    local_uf_limit: int = 2_000_000   # verified edges <= this -> one-pass
                                        # local union-find; above -> the
                                        # distributed hash-min rounds
    skip_undecodable: bool = False    # True -> a payload that fails decode is
                                        # DROPPED from the signature stage
                                        # (logged per batch) instead of
                                        # killing the run — at web scale some
                                        # fraction of crawled bytes is always
                                        # corrupt; False (default) keeps the
                                        # strict fail-fast contract

    def config_hash(self) -> str:
        """Stable hash over every field — stamped into checkpoint manifests."""
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __post_init__(self) -> None:
        if self.bands * self.rows_per_band != self.num_perm:
            raise ValueError(
                f"bands*rows_per_band ({self.bands}*{self.rows_per_band}) "
                f"must equal num_perm ({self.num_perm})"
            )
