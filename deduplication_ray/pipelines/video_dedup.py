"""Video near-dup pipeline: frame-sampled pHash -> LSH bands -> union-find.

The same bucketed engine as image/text dedup, specialized to VSQ1 clips
(stages/multimodal.VideoSignatures). Design for scale:

* A whole clip arrives in one row, so the signature stage needs NO shuffle —
  decode + per-frame pHash run where the bytes already live, and only the
  8-bytes-per-sampled-frame hash list travels downstream (the binary payload
  dies at the first stage, SURVEY §7.5's early-kill discipline).
* Candidates come from the existing (band, bucket) groupby machinery
  (stages/lsh.py): every sampled frame emits 4 x 16-bit pHash multi-index
  bands, Hamming-verified AT EMISSION (radius ``video_frame_hamming_t``), so
  two clips become a candidate pair iff some frame of one is a Hamming
  near-match of some frame of the other. Hot buckets (black frames, test
  cards) go through the same salting + ambassador re-linking as image LSH.
* Verification (``video_accept``) is containment over the frame-hash
  lists: for candidate pair (A, B), the fraction of A's frames with a
  Hamming-<=t match in B plus the symmetric fraction must average >=
  ``video_match_frac``. Head-trimmed or
  re-encoded copies keep containment ~1.0; clips sharing only a stray frame
  fall below the bar. The all-pairs XOR-popcount per pair is O(|A| x |B|)
  over a few dozen hashes and runs only on LSH survivors — never all clips.

The reference has no video path; this realizes the task brief's multimodal
requirement with the container decode done by our own VSQ1 codec
(functions/codecs.py) — no external codec library.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.stages import lsh
from deduplication_ray.stages.multimodal import VideoSignatures


def video_signatures(ds: ray.data.Dataset, cfg: DedupConfig,
                     id_col: str = "video_id") -> ray.data.Dataset:
    return ds.map_batches(
        VideoSignatures(cfg, id_col), batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


class _ExplodeFrameBands:
    """signature rows -> (band, bucket, image_id, ph, sh) bucket stream.

    One bucket row per (sampled frame x 4 pHash 16-bit bands,
    ``lsh.hash16_band_rows``); schema matches ``lsh.ExplodeBands`` so the
    whole skew/salting/pairing machinery (``lsh.slim_pairs_from_buckets``)
    is reused unchanged. ``ph`` carries the frame hash for the at-emission
    Hamming check (lsh._pixel_pair_keep)."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg

    def __call__(self, t: pa.Table) -> pa.Table:
        def rows_for(col: str) -> pa.Table:
            lists = t[col].combine_chunks() if isinstance(
                t[col], pa.ChunkedArray) else t[col]
            counts = np.diff(lists.offsets.to_numpy())
            ids = np.repeat(t["image_id"].to_pandas().to_numpy(), counts)
            return lsh.hash16_band_rows(ids, lists.flatten().to_numpy(),
                                        lsh.BAND_PHASH)

        out = rows_for("frame_phashes")
        if "frame_phashes_flip" in t.column_names:
            # mirror channel: each frame also bands its fliplr hash, so a
            # mirrored copy's PLAIN bands meet the original's FLIP bands in
            # the same buckets (``ph`` carries the flip hash, making the
            # at-emission Hamming gate the mirror distance)
            out = pa.concat_tables([out, rows_for("frame_phashes_flip")],
                                   promote_options="default")
        return out


def video_accept(cfg: DedupConfig):
    """The video ``accept`` (``verify.resolve_and_verify_pairs``): keep a
    candidate pair iff mean frame containment >= video_match_frac.

    With ``cfg.video_mirror_channel`` two frames match when ANY of the four
    plain/flip hash combinations is within the radius — a mirrored copy
    scores the same containment as a plain one."""
    mirror = cfg.video_mirror_channel
    tau, frac_min = cfg.video_frame_hamming_t, cfg.video_match_frac

    def flat_lens(col) -> tuple[np.ndarray, np.ndarray]:
        a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        f = a.flatten().to_numpy().astype(np.int64).view(np.uint64)
        l_ = pc.list_value_length(a).fill_null(0).to_numpy().astype(np.int64)
        return f, l_

    def accept(t: pa.Table, col) -> np.ndarray:
        n = t.num_rows
        # whole-batch frame containment: pairs padded into (n, Lmax)
        # matrices, ONE (n, La, Lb) popcount(XOR) for all pairs at once
        # (frame lists are sampling-bounded: duration/every_k frames) —
        # the per-pair Python loop this replaces spent ~0.5 ms/pair in
        # tiny-call overhead (measured on the audio twin of this check).
        fa, la = flat_lens(col("frame_phashes", "src", None))
        fb, lb = flat_lens(col("frame_phashes", "dst", None))
        La, Lb = int(la.max(initial=1)), int(lb.max(initial=1))

        def pad(flat, lens, L):
            M = np.zeros((n, L), dtype=np.uint64)
            M[np.repeat(np.arange(n), lens), H._ranges(lens)] = flat
            return M

        A = pad(fa, la, La)
        B = pad(fb, lb, Lb)
        va = np.arange(La)[None, :] < la[:, None]
        vb = np.arange(Lb)[None, :] < lb[:, None]
        d = H.popcount64(A[:, :, None] ^ B[:, None, :])
        if mirror:
            Fa = pad(flat_lens(col("frame_phashes_flip", "src", None))[0],
                     la, La)
            Fb = pad(flat_lens(col("frame_phashes_flip", "dst", None))[0],
                     lb, Lb)
            d = np.minimum(d, H.popcount64(A[:, :, None] ^ Fb[:, None, :]))
            d = np.minimum(d, H.popcount64(Fa[:, :, None] ^ B[:, None, :]))
        d = np.where(vb[:, None, :], d, 65)  # pad frames never match
        hit_a = ((d.min(axis=2) <= tau) & va).sum(axis=1)
        d = np.where(va[:, :, None], d, 65)
        hit_b = ((d.min(axis=1) <= tau) & vb).sum(axis=1)
        return (hit_a + hit_b) / np.maximum(la + lb, 1) >= frac_min

    return accept


def video_dedup_clusters(ds: ray.data.Dataset,
                         cfg: DedupConfig | None = None,
                         id_col: str = "video_id") -> ray.data.Dataset:
    """(video_id, bytes[VSQ1]) -> clusters(video_id, cluster_id)."""
    from deduplication_ray.pipelines.incremental import engine_clusters

    return engine_clusters("video", ds, cfg, id_col)
