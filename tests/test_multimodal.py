"""Multimodal stage plumbing: real codecs decode, stub boundaries raise."""

import numpy as np
import pyarrow as pa
import pytest

from deduplication_ray.config import DedupConfig
from deduplication_ray.stages.multimodal import VideoSignatures


def _make_frames(n=10, w=48, h=32, seed=7):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    # slowly-varying sequence: frame i = base rolled i px (realistic motion)
    return [np.roll(base, i, axis=1) for i in range(n)]


def test_vseq_roundtrip_lossless_and_lossy():
    from deduplication_ray.functions import codecs as C

    frames = _make_frames()
    for fmt in ("raw", "png"):
        data = C.encode_vseq(frames, fps=30, fmt=fmt)
        n, w, h, fps, f = C.vseq_header(data)
        assert (n, w, h, fps, f) == (10, 48, 32, 30, fmt)
        out = dict(C.decode_vseq_frames(data, 1))
        assert len(out) == 10
        for i, fr in enumerate(frames):
            assert np.array_equal(out[i], fr)
    lossy = C.encode_vseq(frames, fps=30, fmt="qrgb")
    for i, px in C.decode_vseq_frames(lossy, 1):
        assert C.psnr_db(px, frames[i]) >= 30.0


def test_video_frame_sample_real_decode():
    from deduplication_ray.functions import codecs as C

    frames = _make_frames(n=10)
    payload = C.encode_vseq(frames, fps=30, fmt="png")
    t = pa.table({"video_id": ["v"], "bytes": [payload]})
    sig = VideoSignatures(DedupConfig(video_every_k=3))
    out = sig(t)
    assert out["n_frames"].to_pylist() == [10]
    # frames 0, 3, 6, 9 are sampled
    assert len(out["frame_phashes"][0]) == 4
    # pHash of a sampled frame matches hashing the decoded frame directly
    ph0 = int(C.phash64(frames[0]))
    got0 = int(np.uint64(out["frame_phashes"][0][0].as_py()))
    assert got0 == ph0
    # identical videos -> identical per-frame hashes; a different video differs
    other = C.encode_vseq(_make_frames(seed=99), fps=30, fmt="png")
    t2 = pa.table({"video_id": ["v", "w"], "bytes": [payload, other]})
    out2 = sig(t2)
    d = {r["image_id"]: r["frame_phashes"] for r in out2.to_pylist()}
    assert d["v"] == out["frame_phashes"][0].as_py()
    assert d["w"][0] != d["v"][0]


def test_video_non_vseq_raises():
    t = pa.table({"video_id": ["v"], "bytes": [b"\x00\x00\x00\x20ftypmp42" * 4]})
    with pytest.raises(NotImplementedError, match="VSQ1"):
        VideoSignatures()(t)


def _make_wav(freq_hz=440.0, rate=16000, seconds=1.0, bits=16, channels=1,
              amp=0.5):
    import struct

    n = int(rate * seconds)
    x = amp * np.sin(2 * np.pi * freq_hz * np.arange(n) / rate)
    if channels > 1:
        x = np.repeat(x, channels)
    if bits == 16:
        pcm = (x * 32767).astype("<i2").tobytes()
        block = 2 * channels
    elif bits == 8:
        pcm = (x * 127 + 128).astype(np.uint8).tobytes()
        block = channels
    else:
        raise ValueError(bits)
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_decode_wav_real_pcm():
    from deduplication_ray.stages.multimodal import decode_wav

    for bits, channels in [(16, 1), (16, 2), (8, 1)]:
        x, rate = decode_wav(_make_wav(bits=bits, channels=channels))
        assert rate == 16000
        assert len(x) == 16000
        # 0.5-amplitude sine: RMS = 0.5/sqrt(2)
        assert abs(np.sqrt((x.astype(np.float64) ** 2).mean()) - 0.3536) < 0.01


def test_audio_wav_compressed_format_raises():
    import struct

    from deduplication_ray.stages.multimodal import decode_wav

    fmt = struct.pack("<HHIIHH", 85, 1, 16000, 32000, 2, 16)  # 85 = MP3
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", 4) + b"\x00" * 4
    with pytest.raises(NotImplementedError):
        decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_decode_wav_ieee_float():
    """IEEE-float WAV (format code 3) decodes without a codec library —
    lossless round-trip at 32/64 bits vs the integer PCM quantization."""
    from deduplication_ray.stages.multimodal import decode_wav, encode_wav

    rng = np.random.RandomState(5)
    pcm = np.clip(rng.randn(4000) * 0.3, -1, 1).astype(np.float32)
    for bits, tol in ((32, 0.0), (64, 1e-7)):
        x, rate = decode_wav(encode_wav(pcm, 16000, bits, ieee_float=True))
        assert rate == 16000
        assert len(x) == len(pcm)
        assert np.abs(x - pcm).max() <= tol


def test_decode_wav_ieee_float_multichannel_downmix():
    import struct

    from deduplication_ray.stages.multimodal import decode_wav

    n, rate = 1000, 8000
    left = np.full(n, 0.5, np.float32)
    right = np.full(n, -0.25, np.float32)
    inter = np.empty(2 * n, np.float32)
    inter[0::2], inter[1::2] = left, right
    body = inter.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, rate, rate * 8, 8, 32)
    payload = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(body)) + body)
    x, r = decode_wav(b"RIFF" + struct.pack("<I", len(payload)) + payload)
    assert r == rate and len(x) == n
    assert np.allclose(x, 0.125)
