"""Pure-numpy baseline JPEG codec: round-trip quality, conformance edges,
and the flagship pipeline over a fixture with REAL JPEG payloads."""

import shutil

import numpy as np
import pytest

from deduplication_ray.functions import jpeg as J
from deduplication_ray.functions.codecs import (JPEG_QUALITY, phash64,
                                                psnr_db)
from tests.conftest import load_parquet_dir


def _natural(h=96, w=144, seed=0):
    yy, xx = np.mgrid[0:h, 0:w]
    rng = np.random.RandomState(seed)
    img = np.stack([np.sin(yy / 17 + seed) * 90 + 120,
                    np.cos(xx / 23) * 90 + 120,
                    (yy + xx) / 2 % 220], -1)
    return np.clip(img + rng.randn(h, w, 3) * 2, 0, 255).astype(np.uint8)


def test_roundtrip_matrix_psnr():
    img = _natural()
    for subsample in (False, True):
        for q in (95, 90, 75):
            for ri in (0, 3):
                out = J.decode_jpeg(J.encode_jpeg(
                    img, quality=q, subsample=subsample, restart_interval=ri))
                assert out.shape == img.shape
                floor = 40.0 if not subsample else 34.0  # 4:2:0 halves chroma
                assert psnr_db(img, out) >= floor, (subsample, q, ri)


def test_engine_quality_meets_lossy_invariant():
    """The fmt='jpg' dispatch quality satisfies the north rule's
    PSNR >= 40 dB bound even on noise-textured fixture content."""
    from deduplication_ray.sources.fixtures import apply_noise, render_pattern

    for seed in (1, 9, 23):
        img = apply_noise(render_pattern(seed * 7 + 1, 64, 64), seed)
        out = J.decode_jpeg(J.encode_jpeg(img, quality=JPEG_QUALITY))
        assert psnr_db(img, out) >= 40.0


def test_phash_survives_jpeg_reencode():
    """A JPEG re-encode of the same pixels must land inside the pipeline's
    pHash Hamming ball — the property the near-dup channel relies on.
    Content = the fixture generator's low-frequency patterns (what the
    pipeline's planted truth is made of)."""
    from deduplication_ray.sources.fixtures import render_pattern

    for seed in range(5):
        img = render_pattern(seed * 131 + 7, 64, 64)
        for q in (99, 92):
            out = J.decode_jpeg(J.encode_jpeg(img, quality=q))
            d = bin(int(phash64(img)) ^ int(phash64(out))).count("1")
            assert d <= 4, (seed, q, d)


def test_restart_interval_resets_predictors():
    """With DRI, a file whose DC drifts block-to-block still round-trips
    (predictor resets verified against the no-restart encode)."""
    img = (np.linspace(0, 255, 64 * 256).reshape(64, 256)[..., None]
           .repeat(3, -1)).astype(np.uint8)
    a = J.decode_jpeg(J.encode_jpeg(img, quality=95, restart_interval=0))
    b = J.decode_jpeg(J.encode_jpeg(img, quality=95, restart_interval=2))
    assert np.array_equal(a, b)


def test_decoder_reads_tables_from_file_not_constants():
    """Sanity pin: two encodes with different quality produce different DQT
    payloads and both decode — the decoder honors in-file tables."""
    img = _natural(32, 32)
    lo, hi = J.encode_jpeg(img, quality=50), J.encode_jpeg(img, quality=95)
    assert lo != hi
    assert psnr_db(img, J.decode_jpeg(hi)) > psnr_db(img, J.decode_jpeg(lo))


def test_progressive_raises_not_implemented():
    img = _natural(16, 16)
    data = bytearray(J.encode_jpeg(img))
    i = data.find(b"\xff\xc0")
    assert i > 0
    data[i + 1] = 0xC2  # rewrite SOF0 -> SOF2 (progressive)
    with pytest.raises(NotImplementedError, match="SOF2"):
        J.decode_jpeg(bytes(data))


def test_compiled_entropy_path_matches_pure_python():
    """The optional ctypes-compiled entropy loop must be BITWISE identical
    to the pure-Python fallback across subsampling x restart-interval
    variants (and the fallback must still work when forced)."""
    imgs = [_natural(40 + 8 * i, 56, seed=i) for i in range(4)]
    enc = [J.encode_jpeg(i, quality=q, subsample=s, restart_interval=r)
           for i in imgs for q in (92, 70) for s in (False, True)
           for r in (0, 2)]
    default_outs = [J.decode_jpeg(e) for e in enc]
    prev = J.FORCE_PURE_PYTHON
    try:
        J.FORCE_PURE_PYTHON = True
        pure_outs = [J.decode_jpeg(e) for e in enc]
    finally:
        J.FORCE_PURE_PYTHON = prev
    for a, b in zip(default_outs, pure_outs):
        assert np.array_equal(a, b)
    # informational: on hosts without a compiler the default IS the pure
    # path and this test still pins fallback self-consistency


def test_second_sos_raises_not_implemented():
    """Per-component (multi-SOS) baseline files must fail loudly at the
    stub boundary, not silently decode only the last scan."""
    img = _natural(16, 16)
    data = J.encode_jpeg(img)
    i = data.find(b"\xff\xda")
    j = data.rfind(b"\xff\xd9")
    assert 0 < i < j
    doubled = data[:j] + data[i:j] + data[j:]  # replay SOS+entropy before EOI
    with pytest.raises(NotImplementedError, match="multiple SOS"):
        J.decode_jpeg(doubled)


def test_partial_component_sos_raises_not_implemented():
    """An SOS naming fewer components than the frame (first scan of a
    non-interleaved file) must raise, not KeyError mid-decode."""
    img = _natural(16, 16)
    data = J.encode_jpeg(img)
    i = data.find(b"\xff\xda")
    assert i > 0
    seglen = int.from_bytes(data[i + 2:i + 4], "big")
    body = data[i + 2:i + 2 + seglen]  # [len16, ns, (cid,tt)*ns, ss, se, ah_al]
    ns = body[2]
    assert ns == 3
    new_body = bytes([0, 0, 1]) + body[3:5] + body[3 + 2 * ns:]
    new_body = (len(new_body)).to_bytes(2, "big") + new_body[2:]
    patched = data[:i + 2] + new_body + data[i + 2 + seglen:]
    with pytest.raises(NotImplementedError, match="1 of 3"):
        J.decode_jpeg(patched)


def test_malformed_raises_value_error():
    with pytest.raises(ValueError):
        J.decode_jpeg(b"\x00\x01\x02")
    img = _natural(16, 16)
    data = J.encode_jpeg(img)
    with pytest.raises(ValueError):
        J.decode_jpeg(data[:40])  # truncated before SOS


def test_subsampled_odd_dimensions():
    """4:2:0 with dims not divisible by 16 exercises the pad/crop path."""
    img = _natural(41, 53)
    out = J.decode_jpeg(J.encode_jpeg(img, quality=95, subsample=True))
    assert out.shape == img.shape
    assert psnr_db(img, out) >= 30.0


def test_flagship_pipeline_over_jpeg_fixture(ray_session):
    """The whole dedup DAG over a fixture whose payloads include REAL JPEG
    bytes: recall/precision >= 0.99 vs planted truth — the verdict's 'done'
    bar for closing the JPEG stub."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.sources import fixtures

    fix = "/tmp/dedup_ray_jpegfix"
    run_dir = "/tmp/dedup_ray_jpegrun"
    shutil.rmtree(fix, ignore_errors=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    fixtures.generate(fix, 400, seed=11, fmts=("jpg", "png", "raw"))
    data = load_parquet_dir(f"{fix}/data")
    assert (data["fmt"] == "jpg").sum() > 60  # the fixture really plants jpg
    cfg = DedupConfig(num_partitions=4)
    image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
    pred = load_parquet_dir(f"{run_dir}/clusters")
    truth = load_parquet_dir(f"{fix}/truth")
    m = pair_metrics(pred, truth)
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m
