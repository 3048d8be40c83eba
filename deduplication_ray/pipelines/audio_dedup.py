"""Audio near-dup pipeline: spectral sub-fingerprints -> shingle LSH ->
union-find.

Same bucketed engine as image/video dedup, specialized to WAV/PCM clips
(stages/multimodal.AudioSignatures). Design for scale:

* A whole clip arrives in one row, so the signature stage needs NO shuffle —
  decode + per-window fingerprinting run where the bytes already live, and
  only ~2 bytes per 32 ms of audio travels downstream (the binary payload
  dies at the first stage, SURVEY §7.5's early-kill discipline).
* Candidates are EXACT matches on shingles of ``audio_shingle`` consecutive
  COARSE (``audio_coarse_bands``-bit) sub-fingerprints (u64 splitmix chain):
  two clips become a candidate pair iff they share one identical
  audio_shingle-window run. Wide coarse bands keep dup copies' runs exactly
  identical under requantization/noise; the fine 16-bit sub-fingerprints do
  the discriminating at verification. Shingle hashes go through the
  existing (band, bucket) groupby machinery
  (stages/lsh.py) in the pass-through band namespace — no Hamming gate at
  emission (same bucket already implies equal shingle) — with hot buckets
  (silence, test tones) salted + ambassador re-linked as usual.
* Verification (``audio_accept``) is TEMPORALLY-ALIGNED Hamming-tolerant
  matching over the per-window fine sub-fingerprint lists
  (``aligned_match_score``): the best
  single head-offset must align >= ``audio_match_frac`` of the longer
  clip's windows within ``audio_frame_hamming_t`` bits. Alignment is the
  load-bearing discriminator: bag-of-frames containment collapsed to 0.30
  precision at 4000 clips (coincidentally-similar spectra match scattered),
  while the aligned score separates perfectly (true >= 0.68, best false
  candidate 0.29) because real copies match at ONE consistent offset.

Trim robustness contract: hop = audio_window // 2, so head-trims that are a
multiple of the hop keep the window grid aligned and shingles are a strict
subset. Arbitrary-offset trims would need denser hops (the audio analog of
video_every_k=1; see config.py).

The reference has no audio path; this realizes the task brief's multimodal
requirement with the WAV/PCM decode done in pure numpy (decode_wav) — no
external codec library.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.stages.multimodal import AudioSignatures, shingle_hashes


def audio_signatures(ds: ray.data.Dataset, cfg: DedupConfig,
                     id_col: str = "audio_id") -> ray.data.Dataset:
    return ds.map_batches(
        AudioSignatures(cfg, id_col), batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


class _ExplodeShingles:
    """signature rows -> (band, bucket, image_id, ph, sh) bucket stream.

    One bucket row per shingle of ``audio_shingle`` consecutive window
    sub-fingerprints; band 0 (the pass-through namespace, no emission-time
    Hamming gate — bucket equality already implies shingle equality)."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg

    def __call__(self, t: pa.Table) -> pa.Table:
        s = self.cfg.audio_shingle
        reverse = self.cfg.audio_reverse_channel
        lists = t["frame_subfps_coarse"].combine_chunks() if isinstance(
            t["frame_subfps_coarse"], pa.ChunkedArray) else t["frame_subfps_coarse"]
        flat = H.bitcast_i64_to_u64(lists.flatten().to_numpy())
        offs = lists.offsets.to_numpy()
        ids_np = t["image_id"].to_pandas().to_numpy()
        hashes, counts = [], np.zeros(t.num_rows, dtype=np.int64)
        for i in range(t.num_rows):
            seg = flat[offs[i]:offs[i + 1]]
            h = shingle_hashes(seg, s)
            if reverse and len(h):
                # canonical key = min(fwd, rev) per window: a reversed
                # clip's forward windows ARE the original's reversed
                # windows, so both emit the same canonical multiset.
                # shingle_hashes(seg[::-1])[::-1][j] hashes seg[j:j+s][::-1].
                h = np.minimum(h, shingle_hashes(seg[::-1], s)[::-1])
            hashes.append(h)
            counts[i] = len(h)
        bucket = (np.concatenate(hashes) if hashes else np.empty(0, np.uint64))
        n = len(bucket)
        return pa.table({
            "band": np.zeros(n, dtype=np.int64),
            "bucket": pa.array(H.bitcast_u64_to_i64(bucket), pa.int64()),
            "image_id": pa.array(np.repeat(ids_np, counts), pa.string()),
            "ph": np.zeros(n, dtype=np.int64),
            "sh": np.zeros(n, dtype=np.int64),
        })


def aligned_match_score(a: np.ndarray, b: np.ndarray, tau: int,
                        max_off: int) -> float:
    """Best TEMPORALLY-ALIGNED match fraction between two sub-fingerprint
    sequences: max over head offsets in [-max_off, max_off] of
    (#aligned frames with Hamming <= tau) / max(len(a), len(b)).

    Alignment is the discriminator bag-of-frames containment lacks: true
    copies (exact/requantized/noised/head-trimmed) match at ONE consistent
    offset, while coincidentally-similar spectra only match scattered.
    Measured on a 4000-clip fixture: true pairs score >= 0.68, the best
    false candidate 0.29 — bag containment overlapped badly at this scale.
    O(max_off * min(|a|, |b|)) per pair, LSH survivors only.
    """
    best = 0.0
    denom = max(len(a), len(b))
    for o in range(-max_off, max_off + 1):
        x, y = (a[o:], b) if o >= 0 else (a, b[-o:])
        m = min(len(x), len(y))
        if m == 0:
            continue
        d = H.popcount64(x[:m] ^ y[:m])
        best = max(best, float((d <= tau).sum()) / denom)
    return best


def aligned_match_scores_batch(fa: np.ndarray, la: np.ndarray,
                               fb: np.ndarray, lb: np.ndarray,
                               tau: int, max_off: int) -> np.ndarray:
    """``aligned_match_score`` over a whole batch of pairs at once
    (parity-tested against the scalar form in tests/test_audio_dedup.py).

    Inputs are the flattened u64 sub-fingerprints of all src (``fa``) /
    dst (``fb``) lists plus per-pair lengths. Pairs are padded into two
    (n, Lmax) matrices (clip lengths are bounded by construction:
    duration_max/hop windows) so each head offset is ONE sliced
    popcount(XOR) over the whole batch instead of n Python calls — the
    per-pair loop cost 0.46 ms/pair in tiny-numpy-call overhead at 19k
    candidates (4000-clip bench), ~25x the vectorized cost."""
    n = len(la)
    if n == 0:
        return np.zeros(0)
    La, Lb = int(la.max(initial=1)), int(lb.max(initial=1))
    A = np.zeros((n, La), dtype=np.uint64)
    B = np.zeros((n, Lb), dtype=np.uint64)
    A[np.repeat(np.arange(n), la), H._ranges(la)] = fa
    B[np.repeat(np.arange(n), lb), H._ranges(lb)] = fb
    best = np.zeros(n, dtype=np.int64)
    for o in range(-max_off, max_off + 1):
        if o >= 0:
            W = min(La - o, Lb)
            if W <= 0:
                continue
            d = H.popcount64(A[:, o:o + W] ^ B[:, :W])
            m = np.minimum(la - o, lb)
        else:
            W = min(Lb + o, La)
            if W <= 0:
                continue
            d = H.popcount64(A[:, :W] ^ B[:, -o:-o + W])
            m = np.minimum(la, lb + o)
        # mask out pad columns beyond each pair's overlap length
        good = (d <= tau) & (np.arange(W)[None, :] < np.clip(m, 0, None)[:, None])
        np.maximum(best, good.sum(axis=1), out=best)
    return best / np.maximum(np.maximum(la, lb), 1)


def audio_accept(cfg: DedupConfig):
    """The audio ``accept`` (``verify.resolve_and_verify_pairs``): keep a
    candidate pair iff its best aligned match >= audio_match_frac."""
    tau, frac_min = cfg.audio_frame_hamming_t, cfg.audio_match_frac
    max_off = cfg.audio_max_offset
    reverse = cfg.audio_reverse_channel

    def flat_lens(col) -> tuple[np.ndarray, np.ndarray]:
        a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        f = H.bitcast_i64_to_u64(a.flatten().to_numpy())
        l_ = pc.list_value_length(a).fill_null(0).to_numpy().astype(np.int64)
        return f, l_

    def accept(t: pa.Table, col) -> np.ndarray:
        fa, la = flat_lens(col("frame_subfps", "src", None))
        fb, lb = flat_lens(col("frame_subfps", "dst", None))
        scores = aligned_match_scores_batch(fa, la, fb, lb, tau, max_off)
        if reverse:
            # also align against each dst sequence time-REVERSED (per-pair
            # segment reversal, fully vectorized): a reversed re-upload
            # matches in exactly one direction, take the max
            starts = np.concatenate([[0], np.cumsum(lb)[:-1]])
            rev_idx = np.repeat(starts + lb - 1, lb) - H._ranges(lb)
            rev_scores = aligned_match_scores_batch(
                fa, la, fb[rev_idx], lb, tau, max_off)
            scores = np.maximum(scores, rev_scores)
        return scores >= frac_min

    return accept


def audio_dedup_clusters(ds: ray.data.Dataset,
                         cfg: DedupConfig | None = None,
                         id_col: str = "audio_id") -> ray.data.Dataset:
    """(audio_id, bytes[WAV]) -> clusters(audio_id, cluster_id)."""
    from deduplication_ray.pipelines.incremental import engine_clusters

    return engine_clusters("audio", ds, cfg, id_col)
