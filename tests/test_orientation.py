"""Orientation-invariant (dihedral) pHash + rot-dup pipeline tests."""

from __future__ import annotations

import shutil

import numpy as np
import pandas as pd
import pytest

from deduplication_ray.functions import codecs as C


def _ham(a: int, b: int) -> int:
    return bin(int(a) ^ int(b)).count("1")


def test_dihedral_phash_matches_pixel_transforms():
    """Column k of phash64_dihedral_batch is the pHash of
    dihedral_apply(img, k): bitwise for identity, <= 1 bit otherwise (the
    one-DCT derivation differs from a fresh DCT only by float jitter on
    near-median ties)."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        h, w = rng.integers(40, 120, 2)
        img = rng.integers(0, 256, (int(h), int(w), 3), dtype=np.uint8)
        gray = C.resize_area(C.to_grayscale(img), 32)
        dh = C.phash64_dihedral_batch(gray[None])[0]
        assert dh[0] == C.phash64(img)
        for k in range(8):
            ph = C.phash64(np.ascontiguousarray(C.dihedral_apply(img, k)))
            assert _ham(dh[k], ph) <= 1, (k, C.DIHEDRAL_NAMES[k])


def test_dihedral_hash_set_is_group_invariant():
    """The 8-hash multiset of g(A) equals (a permutation of) the multiset of
    A, within 1 bit per element — the property the verify step's
    'a0 vs all 8 of b' comparison relies on."""
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (64, 96, 3), dtype=np.uint8)
    base = C.phash64_dihedral_batch(
        C.resize_area(C.to_grayscale(img), 32)[None])[0]
    for g in range(8):
        t = np.ascontiguousarray(C.dihedral_apply(img, g))
        th = C.phash64_dihedral_batch(
            C.resize_area(C.to_grayscale(t), 32)[None])[0]
        for k in range(8):
            assert min(_ham(th[k], b) for b in base) <= 1, (g, k)


def test_dihedral_apply_is_a_group():
    """All 8 transforms are distinct and each is an involution or has its
    inverse in the set (applying all 8 to a marker image yields 8 distinct
    images whose transform sets coincide)."""
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    outs = [C.dihedral_apply(img, k) for k in range(8)]
    flat = {o.tobytes() + bytes(o.shape) for o in outs}
    assert len(flat) == 8


@pytest.fixture(scope="module")
def rot_fixture(ray_session, tiny_fixture):
    out = "/tmp/dedup_ray_test_rotfix"
    shutil.rmtree(out, ignore_errors=True)
    from deduplication_ray.sources import fixtures

    fixtures.generate_rotated(tiny_fixture, out, stride=5)
    return out


def test_rot_dup_pipeline_recovers_planted_rotations(ray_session,
                                                     rot_fixture,
                                                     tiny_fixture):
    _check_rot_dup(rot_fixture, tiny_fixture)


def test_rot_dup_pipeline_recovers_planted_rotations_in_salted_buckets(
        ray_session, rot_fixture, tiny_fixture):
    """``bucket_cap=4``: orientation buckets above 4 rows are salted into
    stars + ambassadors, which connect a hot bucket's members without emitting
    all of its pairs, so recall is asserted on the connectivity of the
    predicted pairs; precision is unchanged, and catches any star pair
    that reaches the output without the resolve's check."""
    _check_rot_dup(rot_fixture, tiny_fixture, connected=True,
                    bucket_cap=4)


def _check_rot_dup(rot_fixture, tiny_fixture, connected=False,
                   **cfg_kw):
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import orientation
    from deduplication_ray.sources import storage
    from tests.conftest import unconnected_pairs

    cfg = DedupConfig(num_partitions=4, **cfg_kw)
    ds = storage.read_table(f"{rot_fixture}/data")
    pairs = orientation.run_rot_dup(ds, cfg).to_pandas()
    truth = storage.read_table(f"{rot_fixture}/truth_pairs").to_pandas()
    assert len(truth) > 50

    def key(a, b):
        return (a, b) if a <= b else (b, a)

    pred = {key(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    want = {key(a, b) for a, b in zip(truth["id_a"], truth["id_b"])}
    missing = unconnected_pairs(pred, want) if connected else want - pred
    assert not missing, f"missed {len(missing)}/{len(want)}: {list(missing)[:5]}"

    # precision: every predicted pair is truth-consistent — both endpoints
    # map (rot copies to their original) into the SAME planted cluster
    base_truth = storage.read_table(f"{tiny_fixture}/truth").to_pandas()
    cluster = dict(zip(base_truth["image_id"], base_truth["cluster_id"]))

    def root(i: str) -> str:
        if i.startswith("rot") and "_of_" in i:
            i = i.split("_of_", 1)[1]
        return cluster[i]

    wrong = [(a, b) for a, b in pred if root(a) != root(b)]
    assert not wrong, f"{len(wrong)} cross-cluster pairs, e.g. {wrong[:5]}"


def test_plain_phash_is_blind_to_rotations(ray_session, rot_fixture):
    """The capability is real: the planted rotated copies sit FAR from
    their originals in plain pHash space (beyond any sane Hamming verify
    threshold), while the dihedral min-Hamming is ~0."""
    from deduplication_ray.sources import storage

    data = storage.read_table(f"{rot_fixture}/data",
                              columns=["image_id", "phash"]).to_pandas()
    truth = storage.read_table(f"{rot_fixture}/truth_pairs").to_pandas()

    def u64(v) -> int:
        return int(np.int64(v).astype(np.uint64))

    ph = dict(zip(data["image_id"], data["phash"]))
    # near-symmetric patterns can fluke close; assert on the distribution
    d = np.array([_ham(u64(ph[a]), u64(ph[b]))
                  for a, b in zip(truth["id_a"], truth["id_b"])])
    assert np.median(d) > 6, f"median plain-pHash Hamming {np.median(d)}"
    assert (d > 6).mean() > 0.7, f"only {(d > 6).mean():.0%} beyond threshold"


def test_pipeline_with_orientation_channel_clusters_rotations(ray_session,
                                                              rot_fixture):
    """End-to-end: cfg.orientation_channel folds dihedral edges into the
    main pipeline's union-find, so every planted rotated copy lands in its
    original's cluster (default config leaves them apart)."""
    import shutil as _sh

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.sources import storage

    run_dir = "/tmp/dedup_ray_test_rotrun"
    _sh.rmtree(run_dir, ignore_errors=True)
    cfg = DedupConfig(num_partitions=4, orientation_channel=True)
    image_dedup.run_pipeline(f"{rot_fixture}/data", run_dir, cfg)
    clusters = storage.read_table(f"{run_dir}/clusters").to_pandas()
    lab = dict(zip(clusters["image_id"], clusters["cluster_id"]))
    truth = storage.read_table(f"{rot_fixture}/truth_pairs").to_pandas()
    split = [(a, b) for a, b in zip(truth["id_a"], truth["id_b"])
             if lab[a] != lab[b]]
    assert not split, f"{len(split)}/{len(truth)} rot pairs split: {split[:5]}"


def test_incremental_ingest_with_orientation_channel(ray_session,
                                                     rot_fixture,
                                                     tiny_fixture):
    """Delta-bounded channel edges: ingesting the rotated copies against a
    channels-on base run yields the SAME clusters as a from-scratch
    channels-on run over base+copies — base pixels never re-decode."""
    import os
    import shutil as _sh

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.incremental import ingest_delta
    from tests.conftest import load_parquet_dir

    cfg = DedupConfig(num_partitions=4, orientation_channel=True)
    tbl = pads.dataset(
        [f"{rot_fixture}/data/{f}" for f in os.listdir(f"{rot_fixture}/data")
         if f.endswith(".parquet")]).to_table()
    is_rot = pc.starts_with(tbl["image_id"].combine_chunks(), "rot")
    delta_dir = "/tmp/dedup_ray_rotinc_delta"
    _sh.rmtree(delta_dir, ignore_errors=True)
    os.makedirs(delta_dir)
    pq.write_table(tbl.filter(is_rot), f"{delta_dir}/part-0.parquet")

    base_run = "/tmp/dedup_ray_rotinc_base_run"
    inc_run = "/tmp/dedup_ray_rotinc_run"
    fs_run = "/tmp/dedup_ray_rotinc_fs_run"
    for d in (base_run, inc_run, fs_run):
        _sh.rmtree(d, ignore_errors=True)
    image_dedup.run_pipeline(f"{tiny_fixture}/data", base_run, cfg)
    metrics = ingest_delta(base_run, f"{tiny_fixture}/data", delta_dir,
                           inc_run, cfg)
    # delta bounding held: only the rotated copies were signature-computed
    n_delta = int(tbl.filter(is_rot).num_rows)
    assert metrics["rows"]["signatures"] == n_delta
    image_dedup.run_pipeline(f"{rot_fixture}/data", fs_run, cfg)

    full = (load_parquet_dir(f"{fs_run}/clusters")
            .sort_values("image_id").reset_index(drop=True))
    inc = (load_parquet_dir(f"{inc_run}/clusters")
           .sort_values("image_id").reset_index(drop=True))
    assert len(inc) == len(full)
    merged = full.merge(inc, on="image_id", suffixes=("_f", "_i"))
    mismatch = (merged["cluster_id_f"] != merged["cluster_id_i"]).sum()
    assert mismatch == 0, f"{mismatch}/{len(merged)} assignments differ"


def test_merge_runs_with_orientation_channel(ray_session, rot_fixture,
                                             tiny_fixture):
    """Federating a channels-on base run with a rotated-copies run equals
    the from-scratch channels-on run over the union (cross-run channel
    edges B-bounded, no media re-decode)."""
    import os
    import shutil as _sh

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.incremental import merge_runs
    from tests.conftest import load_parquet_dir

    cfg = DedupConfig(num_partitions=4, orientation_channel=True)
    tbl = pads.dataset(
        [f"{rot_fixture}/data/{f}" for f in os.listdir(f"{rot_fixture}/data")
         if f.endswith(".parquet")]).to_table()
    is_rot = pc.starts_with(tbl["image_id"].combine_chunks(), "rot")
    b_dir = "/tmp/dedup_ray_rotmerge_b_data"
    _sh.rmtree(b_dir, ignore_errors=True)
    os.makedirs(b_dir)
    pq.write_table(tbl.filter(is_rot), f"{b_dir}/part-0.parquet")

    run_a = "/tmp/dedup_ray_rotinc_base_run"  # reuse if the ingest test ran
    run_b = "/tmp/dedup_ray_rotmerge_b_run"
    merged = "/tmp/dedup_ray_rotmerge_run"
    fs_run = "/tmp/dedup_ray_rotinc_fs_run"   # reuse if the ingest test ran
    for d in (run_b, merged):
        _sh.rmtree(d, ignore_errors=True)
    image_dedup.run_pipeline(f"{tiny_fixture}/data", run_a, cfg)
    image_dedup.run_pipeline(b_dir, run_b, cfg)
    merge_runs(run_a, f"{tiny_fixture}/data", run_b, b_dir, merged, cfg)
    image_dedup.run_pipeline(f"{rot_fixture}/data", fs_run, cfg)

    full = (load_parquet_dir(f"{fs_run}/clusters")
            .sort_values("image_id").reset_index(drop=True))
    got = (load_parquet_dir(f"{merged}/clusters")
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(full)
    m = full.merge(got, on="image_id", suffixes=("_f", "_m"))
    mismatch = (m["cluster_id_f"] != m["cluster_id_m"]).sum()
    assert mismatch == 0, f"{mismatch}/{len(m)} assignments differ"
