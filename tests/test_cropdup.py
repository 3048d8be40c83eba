"""Crop/pad-robust (window-pyramid pHash) dedup tests."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from deduplication_ray.functions import codecs as C
from deduplication_ray.pipelines.cropdup import (MIN_WINDOW_STD, window_grays,
                                                 window_phashes)
from deduplication_ray.sources import fixtures as F


def _ham(a: int, b: int) -> int:
    return bin(int(a) ^ int(b)).count("1")


# crop variant v -> (window index of the COPY, window index of the ORIGINAL)
_VARIANT_WINDOW = {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (0, 4),
                   4: (0, 5), 5: (5, 0)}


def test_window_hashes_match_planted_crops_bitwise():
    """A crop at a canonical boundary hashes EXACTLY like the original's
    corresponding window (both resize the same raw pixel region)."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        h, w = rng.integers(48, 120, 2)
        img = F.apply_noise(
            F.render_pattern(int(rng.integers(1 << 30)), int(w), int(h)),
            int(rng.integers(1 << 30)))
        hs, _ = window_phashes(window_grays(C.to_grayscale(img), 32)[None])
        for v in range(6):
            timg = np.ascontiguousarray(F.crop_apply(img, v))
            ths, _ = window_phashes(
                window_grays(C.to_grayscale(timg), 32)[None])
            wc, wo = _VARIANT_WINDOW[v]
            assert _ham(ths[0, wc], hs[0, wo]) == 0, F.CROP_VARIANTS[v]


def test_flat_windows_are_invalid():
    """Letterbox bars must not band: a pad-to-double copy's bar windows
    (flat black) are masked out of its validity bitmask."""
    rng = np.random.default_rng(5)
    img = F.apply_noise(F.render_pattern(9, 80, 60), 1)
    padded = np.ascontiguousarray(F.crop_apply(img, 5))
    _, valid = window_phashes(window_grays(C.to_grayscale(padded), 32)[None])
    v = int(valid[0])
    assert (v >> 5) & 1, "center window (real content) must stay valid"
    # the four quadrant windows of a pad2x image are half bars: at least
    # the full-flat case — an all-black canvas — must be invalid everywhere
    black = np.zeros((64, 64, 3), np.uint8)
    _, bvalid = window_phashes(window_grays(C.to_grayscale(black), 32)[None])
    assert int(bvalid[0]) == 0
    assert rng is not None


@pytest.fixture(scope="module")
def crop_fixture(ray_session, tiny_fixture):
    out = "/tmp/dedup_ray_test_cropfix"
    shutil.rmtree(out, ignore_errors=True)
    F.generate_cropped(tiny_fixture, out, stride=5)
    return out


def test_crop_dup_pipeline_recovers_planted_crops(ray_session, crop_fixture,
                                                  tiny_fixture):
    _check_crop_dup(crop_fixture, tiny_fixture)


def test_crop_dup_pipeline_recovers_planted_crops_in_salted_buckets(
        ray_session, crop_fixture, tiny_fixture):
    """``bucket_cap=4``: window buckets above 4 rows are salted into stars
    + ambassadors, which connect a hot bucket's members without emitting
    all of its pairs, so recall is asserted on the connectivity of the
    predicted pairs; precision is unchanged, and catches any star pair
    that reaches the output without the resolve's check."""
    _check_crop_dup(crop_fixture, tiny_fixture, connected=True,
                     bucket_cap=4)


def _check_crop_dup(crop_fixture, tiny_fixture, connected=False,
                    **cfg_kw):
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import cropdup
    from deduplication_ray.sources import storage
    from tests.conftest import unconnected_pairs

    cfg = DedupConfig(num_partitions=4, **cfg_kw)
    ds = storage.read_table(f"{crop_fixture}/data")
    pairs = cropdup.run_crop_dup(ds, cfg).to_pandas()
    truth = storage.read_table(f"{crop_fixture}/truth_pairs").to_pandas()
    assert len(truth) > 50

    def key(a, b):
        return (a, b) if a <= b else (b, a)

    pred = {key(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    want = {key(a, b) for a, b in zip(truth["id_a"], truth["id_b"])}
    missing = unconnected_pairs(pred, want) if connected else want - pred
    assert not missing, f"missed {len(missing)}/{len(want)}: {list(missing)[:5]}"

    # precision: every predicted pair maps into the same planted cluster
    base_truth = storage.read_table(f"{tiny_fixture}/truth").to_pandas()
    cluster = dict(zip(base_truth["image_id"], base_truth["cluster_id"]))

    def root(i: str) -> str:
        if i.startswith("crop_") and "_of_" in i:
            i = i.split("_of_", 1)[1]
        return cluster[i]

    wrong = [(a, b) for a, b in pred if root(a) != root(b)]
    # window hashes see 1/4 of the pixels: allow a tiny cross-cluster
    # leak from genuinely similar quadrants, but it must stay marginal
    assert len(wrong) <= max(2, len(pred) // 100), \
        f"{len(wrong)}/{len(pred)} cross-cluster pairs, e.g. {wrong[:5]}"


def test_plain_phash_is_blind_to_crops(ray_session, crop_fixture):
    """The planted crop/pad copies sit far from their originals in plain
    pHash space — whole-image hashing cannot pair them."""
    from deduplication_ray.sources import storage

    data = storage.read_table(f"{crop_fixture}/data",
                              columns=["image_id", "phash"]).to_pandas()
    truth = storage.read_table(f"{crop_fixture}/truth_pairs").to_pandas()

    def u64(v) -> int:
        return int(np.int64(v).astype(np.uint64))

    ph = dict(zip(data["image_id"], data["phash"]))
    d = np.array([_ham(u64(ph[a]), u64(ph[b]))
                  for a, b in zip(truth["id_a"], truth["id_b"])])
    assert np.median(d) > 6, f"median plain-pHash Hamming {np.median(d)}"
    assert (d > 6).mean() > 0.7, f"only {(d > 6).mean():.0%} beyond threshold"


def test_pipeline_with_crop_channel_clusters_crops(ray_session, crop_fixture):
    """End-to-end: cfg.crop_channel folds window-pyramid edges into the
    main pipeline's union-find, so every planted crop/pad copy lands in its
    original's cluster."""
    import shutil as _sh

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.sources import storage

    run_dir = "/tmp/dedup_ray_test_croprun"
    _sh.rmtree(run_dir, ignore_errors=True)
    cfg = DedupConfig(num_partitions=4, crop_channel=True)
    image_dedup.run_pipeline(f"{crop_fixture}/data", run_dir, cfg)
    clusters = storage.read_table(f"{run_dir}/clusters").to_pandas()
    lab = dict(zip(clusters["image_id"], clusters["cluster_id"]))
    truth = storage.read_table(f"{crop_fixture}/truth_pairs").to_pandas()
    split = [(a, b) for a, b in zip(truth["id_a"], truth["id_b"])
             if lab[a] != lab[b]]
    assert not split, f"{len(split)}/{len(truth)} crop pairs split: {split[:5]}"
