"""Multimodal column stages: opaque binary payloads + typed metadata.

The engine treats image/audio/video as ``binary`` columns with metadata
columns (fmt, w, h / sample_rate / fps), processed by task-mode
``map_batches`` stages. Self-contained decoders are REAL: raw / png / qrgb
/ baseline-sequential jpg images (functions/codecs.py, functions/jpeg.py)
and RIFF/WAVE integer- and IEEE-float-PCM audio (``decode_wav`` below, pure
numpy+struct). Only codecs that genuinely require absent libraries
(progressive JPEG, MP3/AAC, H.264) are stubbed behind an import-try +
``NotImplementedError`` — clearly marked stub boundaries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C
from deduplication_ray.functions import hashing as H

try:  # real JPEG/general decode only if Pillow happens to exist (it doesn't here)
    from PIL import Image as _PIL_Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False


class DecodeImages:
    """binary+fmt -> decoded thumbnail features (grayscale SxS as binary).

    Real for raw/png/qrgb/jpg (baseline sequential); progressive JPEG and
    other library-bound formats raise NotImplementedError unless Pillow is
    importable (stub boundary, clearly marked).
    """

    def __init__(self, cfg: DedupConfig | None = None, thumb: int = 32):
        self.cfg = cfg or DedupConfig()
        self.thumb = thumb

    def decode_one(self, data: bytes, fmt: str, w: int, h: int) -> np.ndarray:
        if fmt in ("raw", "png", "qrgb", "jpg"):  # jpg: pure-numpy baseline
            return C.decode_image(data, fmt, w, h)  # decoder, functions/jpeg.py
        if HAVE_PIL:
            import io

            return np.asarray(_PIL_Image.open(io.BytesIO(data)).convert("RGB"))
        raise NotImplementedError(
            f"decoder for fmt={fmt!r} requires an image library not present "
            "in this environment (stubbed; raw/png/qrgb are self-contained)"
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        fmts = t["fmt"].to_pylist()
        ws, hs = t["w"].to_numpy(), t["h"].to_numpy()
        payload = t["bytes"].combine_chunks() if isinstance(t["bytes"], pa.ChunkedArray) else t["bytes"]
        # zero-copy slices into the Arrow value buffer (as_py() copied every
        # payload); decode itself is inherently per-row
        pbuf, poffs = H._arrow_flat_buffer(payload)
        out = np.empty((n, self.thumb * self.thumb), dtype=np.uint8)
        for i in range(n):
            img = self.decode_one(pbuf[poffs[i]:poffs[i + 1]],
                                  fmts[i], int(ws[i]), int(hs[i]))
            g = C.resize_area(C.to_grayscale(img), self.thumb)
            out[i] = np.clip(g, 0, 255).astype(np.uint8).ravel()
        blob = pa.BinaryArray.from_buffers(
            pa.binary(), n,
            [None,
             pa.array(np.arange(n + 1, dtype=np.int32) * (self.thumb ** 2)).buffers()[1],
             pa.py_buffer(out.tobytes())],
        )
        return pa.table({"image_id": t["image_id"], "thumb": blob,
                         "thumb_size": pa.array(np.full(n, self.thumb, np.int32))})


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """REAL RIFF/WAVE PCM decoder (pure numpy + struct — no codec library):
    parses the chunk list, supports integer PCM (format 1) at 8/16/32 bits
    AND IEEE-float PCM (format 3) at 32/64 bits, any channel count
    (downmixed to mono float32 in [-1, 1]). Compressed formats (MP3/AAC
    inside WAV, ADPCM, etc.) raise NotImplementedError — that is the stub
    boundary now, not the container format itself."""
    import struct

    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, n = 12, len(data)
    fmt_code = channels = rate = bits = None
    pcm = None
    while pos + 8 <= n:
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        body = data[pos + 8: pos + 8 + size]
        if cid == b"fmt ":
            fmt_code, channels, rate, _br, _ba, bits = struct.unpack_from(
                "<HHIIHH", body, 0)
        elif cid == b"data":
            pcm = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt_code is None or pcm is None:
        raise ValueError("WAVE missing fmt/data chunk")
    if fmt_code == 3:  # IEEE float — self-contained in numpy, no codec lib
        if bits == 32:
            x = np.frombuffer(pcm[: len(pcm) // 4 * 4], dtype="<f4").astype(np.float32)
        elif bits == 64:
            x = np.frombuffer(pcm[: len(pcm) // 8 * 8], dtype="<f8").astype(np.float32)
        else:
            raise NotImplementedError(f"{bits}-bit IEEE-float PCM unsupported")
        x = np.clip(x, -1.0, 1.0)
        if channels and channels > 1:
            x = x[: len(x) // channels * channels].reshape(-1, channels).mean(axis=1)
        return x, int(rate)
    if fmt_code != 1:
        raise NotImplementedError(
            f"WAVE format {fmt_code} needs a codec library not present here "
            "(compressed formats are the stub boundary; integer PCM and "
            "IEEE-float PCM are self-contained)")
    if bits == 16:
        x = np.frombuffer(pcm[: len(pcm) // 2 * 2], dtype="<i2").astype(np.float32) / 32768.0
    elif bits == 8:
        x = (np.frombuffer(pcm, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
    elif bits == 32:
        x = np.frombuffer(pcm[: len(pcm) // 4 * 4], dtype="<i4").astype(np.float32) / 2147483648.0
    else:
        raise NotImplementedError(f"{bits}-bit PCM unsupported")
    if channels and channels > 1:
        x = x[: len(x) // channels * channels].reshape(-1, channels).mean(axis=1)
    return x, int(rate)


class AudioFrameFeatures:
    """Audio stage: WAV binary column -> per-window spectral features.

    The WAV/PCM decode is REAL (``decode_wav``); per window of ``window``
    samples it emits RMS, zero-crossing rate, and spectral centroid (Hz,
    via one batched rfft per file). Payloads that are not RIFF/WAVE fall
    back to raw little-endian int16 PCM at ``fallback_rate`` — the
    documented contract for headerless streams. Per-file work (header parse
    + rfft) is inherent; the per-window math is vectorized."""

    def __init__(self, window: int = 1024, fallback_rate: int = 16000):
        self.window = window
        self.fallback_rate = fallback_rate
        # Hann window (built once per stage): without it, spectral leakage
        # from the rectangular window drags a pure tone's centroid far off
        # its frequency
        self.hann = np.hanning(window)

    def _decode(self, data: bytes) -> tuple[np.ndarray, int]:
        if data[:4] == b"RIFF":
            return decode_wav(data)
        usable = (len(data) // 2) * 2
        return (np.frombuffer(data[:usable], dtype="<i2").astype(np.float32)
                / 32768.0, self.fallback_rate)

    def __call__(self, t: pa.Table) -> pa.Table:
        payload = t["bytes"].combine_chunks() if isinstance(t["bytes"], pa.ChunkedArray) else t["bytes"]
        ids, widx, rms_all, zcr_all, cent_all, rates = [], [], [], [], [], []
        for i in range(t.num_rows):
            pcm, rate = self._decode(payload[i].as_py())
            nw = len(pcm) // self.window
            if nw == 0:
                continue
            w = pcm[: nw * self.window].reshape(nw, self.window).astype(np.float64)
            rms = np.sqrt((w ** 2).mean(axis=1))
            zcr = (np.diff(np.signbit(w), axis=1) != 0).mean(axis=1)
            spec = np.abs(np.fft.rfft(w * self.hann, axis=1))
            freqs = np.fft.rfftfreq(self.window, d=1.0 / rate)
            cent = (spec * freqs).sum(axis=1) / np.maximum(spec.sum(axis=1), 1e-12)
            ids.append(np.repeat(t["audio_id"][i].as_py(), nw))
            widx.append(np.arange(nw, dtype=np.int64))
            rms_all.append(rms)
            zcr_all.append(zcr)
            cent_all.append(cent)
            rates.append(np.full(nw, rate, dtype=np.int64))
        if not ids:
            return pa.table({"audio_id": pa.array([], pa.string()),
                             "window": pa.array([], pa.int64()),
                             "rms": pa.array([], pa.float64()),
                             "zcr": pa.array([], pa.float64()),
                             "centroid_hz": pa.array([], pa.float64()),
                             "sample_rate": pa.array([], pa.int64())})
        return pa.table({
            "audio_id": pa.array(np.concatenate(ids), pa.string()),
            "window": pa.array(np.concatenate(widx)),
            "rms": pa.array(np.concatenate(rms_all)),
            "zcr": pa.array(np.concatenate(zcr_all)),
            "centroid_hz": pa.array(np.concatenate(cent_all)),
            "sample_rate": pa.array(np.concatenate(rates)),
        })


class VideoFrameSample:
    """Video stage: VSQ1 binary column -> sampled decoded frames + features.

    The VSQ1 container decode is REAL (``codecs.encode_vseq`` /
    ``decode_vseq_frames`` — raw/png/qrgb frames, pure numpy+zlib): every
    k-th frame is decoded to pixels (skipped frames are seeked over via
    per-frame length headers, so cost ∝ sampled frames) and emits a 64-bit
    pHash + mean luma per sampled frame — the inputs a video near-dup pass
    buckets on. External containers (MP4/H.264) would need ffmpeg/PyAV
    (absent): non-VSQ1 payloads raise NotImplementedError — that is the
    single remaining stub boundary, clearly marked.
    """

    def __init__(self, every_k: int = 30):
        self.k = every_k

    def __call__(self, t: pa.Table) -> pa.Table:
        payload = t["bytes"].combine_chunks() if isinstance(t["bytes"], pa.ChunkedArray) else t["bytes"]
        pbuf, poffs = H._arrow_flat_buffer(payload)
        vids, fidx, gray = [], [], []
        for i in range(t.num_rows):
            data = pbuf[poffs[i]:poffs[i + 1]].tobytes()
            if data[:4] != C.VSQ1_MAGIC:
                raise NotImplementedError(
                    "video decode for non-VSQ1 containers requires "
                    "ffmpeg/PyAV, not present in this environment")
            vid = t["video_id"][i].as_py()
            for f, px in C.decode_vseq_frames(data, self.k):
                vids.append(vid)
                fidx.append(f)
                gray.append(C.resize_area(C.to_grayscale(px), 32))
        if not vids:
            return pa.table({"video_id": pa.array([], pa.string()),
                             "frame": pa.array([], pa.int64()),
                             "phash": pa.array([], pa.int64()),
                             "mean_luma": pa.array([], pa.float64())})
        g = np.stack(gray)
        ph = C.phash64_batch(g)
        return pa.table({
            "video_id": pa.array(vids, pa.string()),
            "frame": pa.array(fidx, pa.int64()),
            "phash": pa.array(H.bitcast_u64_to_i64(ph), pa.int64()),
            "mean_luma": pa.array(g.reshape(len(g), -1).mean(axis=1)),
        })


class VideoSignatures:
    """(video_id, bytes[VSQ1]) -> one signature row per VIDEO.

    Emits ``frame_phashes: list<int64>`` (temporal order, every k-th frame)
    plus ``n_frames`` — the per-video fingerprint the video near-dup pipeline
    buckets and verifies on. A whole video arrives in one row, so the
    signature needs NO shuffle: decode + pHash happen where the bytes already
    are, and only the lean hash list (8 bytes x sampled frames) travels
    downstream — the `bytes` column dies here, the same early-kill discipline
    as the image pipeline (SURVEY §7.5).
    """

    def __init__(self, cfg: DedupConfig | None = None, id_col: str = "video_id"):
        self.cfg = cfg or DedupConfig()
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        payload = t["bytes"].combine_chunks() if isinstance(t["bytes"], pa.ChunkedArray) else t["bytes"]
        pbuf, poffs = H._arrow_flat_buffer(payload)
        gray, counts, totals = [], [], []
        for i in range(t.num_rows):
            data = pbuf[poffs[i]:poffs[i + 1]].tobytes()
            if data[:4] != C.VSQ1_MAGIC:
                raise NotImplementedError(
                    "video decode for non-VSQ1 containers requires "
                    "ffmpeg/PyAV, not present in this environment")
            k = 0
            for _, px in C.decode_vseq_frames(data, cfg.video_every_k):
                gray.append(C.resize_area(C.to_grayscale(px), cfg.phash_size))
                k += 1
            counts.append(k)
            totals.append(C.vseq_header(data)[0])
        mirror = cfg.video_mirror_channel
        if gray:
            stack = np.stack(gray)
            if mirror:
                # identity + fliplr hashes from ONE DCT (parity sign mask)
                dh = C.phash64_dihedral_batch(stack, cfg.phash_size,
                                              cfg.phash_lowfreq)
                ph = H.bitcast_u64_to_i64(dh[:, 0])
                fl = H.bitcast_u64_to_i64(dh[:, 1])
            else:
                ph = H.bitcast_u64_to_i64(C.phash64_batch(
                    stack, cfg.phash_size, cfg.phash_lowfreq))
        else:
            ph = np.empty(0, dtype=np.int64)
            fl = np.empty(0, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        cols = {
            "image_id": t[self.id_col].cast(pa.string()),
            "frame_phashes": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(ph, pa.int64())),
            "n_frames": pa.array(totals, pa.int64()),
        }
        if mirror:
            cols["frame_phashes_flip"] = pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(fl, pa.int64()))
        return pa.table(cols)


def encode_wav(pcm: np.ndarray, rate: int, bits: int = 16,
               ieee_float: bool = False) -> bytes:
    """Minimal RIFF/WAVE PCM writer (mono), the inverse of ``decode_wav``.
    ``pcm`` is float in [-1, 1]; 8- or 16-bit integer output, or 32/64-bit
    IEEE-float (format code 3) with ``ieee_float=True``."""
    import struct

    x = np.clip(np.asarray(pcm, dtype=np.float64), -1.0, 1.0)
    if ieee_float:
        if bits == 32:
            body = x.astype("<f4").tobytes()
        elif bits == 64:
            body = x.astype("<f8").tobytes()
        else:
            raise NotImplementedError(f"{bits}-bit float writer unsupported")
    elif bits == 16:
        body = (x * 32767.0).round().astype("<i2").tobytes()
    elif bits == 8:
        body = (x * 127.0 + 128.0).round().astype(np.uint8).tobytes()
    else:
        raise NotImplementedError(f"{bits}-bit PCM writer unsupported")
    block = bits // 8
    fmt = struct.pack("<HHIIHH", 3 if ieee_float else 1, 1, rate,
                      rate * block, block, bits)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(body)) + body
              + (b"\x00" if len(body) & 1 else b""))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _audio_spectrogram(pcm: np.ndarray, rate: int,
                       window: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed power spectrogram at hop window//2: (frames x bins)."""
    hop = max(1, window // 2)
    if len(pcm) < window:
        return np.empty((0, window // 2 + 1)), np.fft.rfftfreq(window, 1.0 / rate)
    nf = (len(pcm) - window) // hop + 1
    idx = np.arange(window)[None, :] + (np.arange(nf) * hop)[:, None]
    frames = pcm[idx].astype(np.float64) * np.hanning(window)[None, :]
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    return spec, np.fft.rfftfreq(window, d=1.0 / rate)


def _band_sign_bits(spec: np.ndarray, freqs: np.ndarray, rate: int,
                    n_bands: int) -> np.ndarray:
    """Adjacent-band energy-sign bits per frame -> one uint64 per frame.

    Log-spaced band energies (300 Hz .. min(rate/2, 4 kHz)), bit m = sign of
    E[t,m] - E[t,m+1] — the spectral SHAPE per frame: the Haitsma-Kalker
    band-energy-sign family (ISMIR 2002) without HK's extra time
    differential, which is noise-dominated on sparse spectra (measured ~4
    bit flips/frame under 8-bit requantization vs ~0.2 for shape bits).
    Shape signs are gain-invariant; shingles of consecutive frames carry
    the temporal structure for exact-match LSH."""
    hi = min(rate / 2.0, 4000.0)
    edges = np.geomspace(300.0, hi, n_bands + 2)
    which = np.searchsorted(edges, freqs) - 1  # band index per fft bin
    valid = (which >= 0) & (which < n_bands + 1)
    energy = np.zeros((len(spec), n_bands + 1))
    np.add.at(energy.T, which[valid], spec[:, valid].T)
    bits = np.diff(energy, axis=1) < 0          # E[:, m] > E[:, m+1]
    weights = (np.uint64(1) << np.arange(n_bands, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)


def shingle_hashes(subfps: np.ndarray, s: int) -> np.ndarray:
    """u64 hash per run of ``s`` consecutive sub-fingerprints (splitmix
    chain), the exact-match LSH key for audio candidates."""
    if len(subfps) < s:
        return np.empty(0, dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(subfps, s)
    h = np.zeros(len(win), dtype=np.uint64)
    for j in range(s):
        h = H.splitmix64(h ^ win[:, j])
    return h


class AudioSignatures:
    """(audio_id, bytes[WAV]) -> one signature row per AUDIO file.

    Emits two band resolutions over ONE spectrogram pass:
    ``frame_subfps: list<int64>`` — fine 16-bit sub-fingerprints used for
    Hamming-tolerant verification (strong cross-clip discrimination), and
    ``frame_subfps_coarse: list<int64>`` — coarse ``audio_coarse_bands``-bit
    sub-fingerprints used for the exact-shingle candidate buckets. Wider
    coarse bands average more spectrum per sign, so dup copies keep long
    runs of IDENTICAL coarse frames (exact shingles survive requantization /
    light noise) while the fine bits keep unrelated clips far apart at
    verification. Like VideoSignatures, the whole clip arrives in one row so
    no shuffle is needed and the binary payload dies here; only ~3 bytes of
    fingerprint per 32 ms of audio travels downstream.
    """

    def __init__(self, cfg: DedupConfig | None = None, id_col: str = "audio_id"):
        self.cfg = cfg or DedupConfig()
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        payload = t["bytes"].combine_chunks() if isinstance(
            t["bytes"], pa.ChunkedArray) else t["bytes"]
        pbuf, poffs = H._arrow_flat_buffer(payload)
        subs, coarse, counts = [], [], []
        for i in range(t.num_rows):
            data = pbuf[poffs[i]:poffs[i + 1]].tobytes()
            pcm, rate = decode_wav(data)
            spec, freqs = _audio_spectrogram(pcm, rate, cfg.audio_window)
            subs.append(_band_sign_bits(spec, freqs, rate, 16))
            coarse.append(_band_sign_bits(spec, freqs, rate,
                                          cfg.audio_coarse_bands))
            counts.append(len(subs[-1]))
        flat = (np.concatenate(subs) if subs else np.empty(0, np.uint64))
        flat_c = (np.concatenate(coarse) if coarse else np.empty(0, np.uint64))
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return pa.table({
            "image_id": t[self.id_col].cast(pa.string()),
            "frame_subfps": pa.ListArray.from_arrays(
                pa.array(offsets),
                pa.array(H.bitcast_u64_to_i64(flat), pa.int64())),
            "frame_subfps_coarse": pa.ListArray.from_arrays(
                pa.array(offsets),
                pa.array(H.bitcast_u64_to_i64(flat_c), pa.int64())),
            "n_windows": pa.array(counts, pa.int64()),
        })
