"""Audio near-dup pipeline vs planted truth (WAV fixture)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.pipelines.audio_dedup import audio_dedup_clusters
from deduplication_ray.pipelines.evaluate import pair_metrics
from deduplication_ray.sources import fixtures as F


@pytest.fixture(scope="module")
def audio_fixture(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("audfix"))
    F.generate_audios(out, 160, seed=7)
    return out


def test_plan_audios_deterministic():
    s1, t1 = F.plan_audios(120, seed=7)
    s2, t2 = F.plan_audios(120, seed=7)
    pd.testing.assert_frame_equal(s1, s2)
    pd.testing.assert_frame_equal(t1, t2)
    assert set(s1["kind"]).issubset(set(F.AUDIO_KINDS))
    assert (t1["cluster_id"] <= t1["audio_id"]).all()


def test_wav_roundtrip_16_and_8_bit():
    from deduplication_ray.stages.multimodal import decode_wav, encode_wav

    pcm = F.render_audio_pcm(123, 5000)
    for bits, tol in ((16, 1.5 / 32768), (8, 1.5 / 128)):
        out, rate = decode_wav(encode_wav(pcm, F.AUDIO_RATE, bits))
        assert rate == F.AUDIO_RATE
        assert len(out) == len(pcm)
        assert np.abs(out - pcm).max() <= tol


def test_audio_dedup_matches_planted_truth(audio_fixture):
    from deduplication_ray.sources import storage

    cfg = DedupConfig(num_partitions=4)
    ds = storage.read_table(f"{audio_fixture}/data")
    pred = audio_dedup_clusters(ds, cfg).to_pandas()
    truth = storage.read_table(f"{audio_fixture}/truth").to_pandas()
    m = pair_metrics(
        pred.rename(columns={"audio_id": "image_id"}),
        truth.rename(columns={"audio_id": "image_id"}),
    )
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m


def test_audio_dedup_deterministic_across_partitioning(audio_fixture):
    from deduplication_ray.sources import storage

    ds = storage.read_table(f"{audio_fixture}/data")
    a = audio_dedup_clusters(ds.repartition(2), DedupConfig(num_partitions=2))
    b = audio_dedup_clusters(ds.repartition(7), DedupConfig(num_partitions=4))
    pa_ = a.to_pandas().sort_values("audio_id").reset_index(drop=True)
    pb_ = b.to_pandas().sort_values("audio_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(pa_, pb_)


def test_verify_rejects_coincidental_shingle(ray_session):
    """Clips sharing only a short run must not link (containment gate)."""
    from deduplication_ray.stages.multimodal import encode_wav

    # two distinct clips with the same 4-window head grafted on
    head = F.render_audio_pcm(900, 3072)
    a = np.concatenate([head, F.render_audio_pcm(901, 14000)])
    b = np.concatenate([head, F.render_audio_pcm(902, 14000)])
    t = pa.table({
        "audio_id": ["a", "b"],
        "bytes": [encode_wav(a, F.AUDIO_RATE), encode_wav(b, F.AUDIO_RATE)],
    })
    cfg = DedupConfig(num_partitions=2)
    out = audio_dedup_clusters(ray.data.from_arrow(t), cfg).to_pandas()
    assert out["cluster_id"].nunique() == 2


def test_aligned_scores_batch_matches_scalar():
    """The vectorized batch scorer is bit-identical to the per-pair scalar
    form across random lengths (incl. empty and shorter-than-offset lists)."""
    import numpy as np

    from deduplication_ray.pipelines.audio_dedup import (
        aligned_match_score, aligned_match_scores_batch)

    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(200):
        la, lb = int(rng.integers(0, 50)), int(rng.integers(0, 50))
        a = rng.integers(0, 2**63, size=la, dtype=np.int64).view(np.uint64)
        b = rng.integers(0, 2**63, size=lb, dtype=np.int64).view(np.uint64)
        # make some pairs near-dups so scores are non-trivial
        if la and rng.random() < 0.4:
            b = a[: min(la, lb)].copy()
            if len(b):
                b[0] ^= np.uint64(1)
        pairs.append((a, b))
    tau, mo = 2, 8
    want = np.array([aligned_match_score(a, b, tau, mo) for a, b in pairs])
    fa = np.concatenate([a for a, _ in pairs]) if pairs else np.empty(0, np.uint64)
    fb = np.concatenate([b for _, b in pairs]) if pairs else np.empty(0, np.uint64)
    la_ = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    lb_ = np.array([len(b) for _, b in pairs], dtype=np.int64)
    got = aligned_match_scores_batch(fa, la_, fb, lb_, tau, mo)
    assert np.allclose(got, want)


def test_audio_reverse_channel_catches_reversed_reuploads(ray_session,
                                                          tmp_path):
    """cfg.audio_reverse_channel pairs a time-reversed re-upload with its
    original (canonical min(fwd, rev) shingle keys + bidirectional aligned
    verify); the default config is blind to it. Recall/precision on the
    WHOLE planted mix stay >= 0.99 with the channel on."""
    from deduplication_ray.sources import storage

    out = str(tmp_path / "revfix")
    F.generate_audios(out, 160, seed=9, with_reverse=True)
    ds = storage.read_table(f"{out}/data")
    truth = storage.read_table(f"{out}/truth").to_pandas()
    spec, _ = F.plan_audios(160, seed=9, with_reverse=True)
    spec = spec.merge(truth, on="audio_id")
    # pair each reversed copy with a FORWARD member of its cluster (the
    # truth root can itself be a reversed copy after the id shuffle, which
    # would make a label self-comparison vacuously "joined")
    fwd_of = spec[spec["reversed"] == 0].groupby("cluster_id")["audio_id"] \
        .first().to_dict()
    rev = spec[spec["reversed"] == 1]
    pairs = [(a, fwd_of[c]) for a, c in zip(rev["audio_id"],
                                            rev["cluster_id"])]
    assert pairs

    on = audio_dedup_clusters(
        ds, DedupConfig(num_partitions=4, audio_reverse_channel=True)
    ).to_pandas()
    lab = dict(zip(on["audio_id"], on["cluster_id"]))
    split = [a for a, f in pairs if lab[a] != lab[f]]
    assert not split, f"reverse channel missed {split}"

    off = audio_dedup_clusters(ds, DedupConfig(num_partitions=4)).to_pandas()
    lab0 = dict(zip(off["audio_id"], off["cluster_id"]))
    joined = [a for a, f in pairs if lab0[a] == lab0[f]]
    assert len(joined) <= 1, f"default config unexpectedly paired {joined}"

    m = pair_metrics(on.rename(columns={"audio_id": "image_id"}),
                     truth.rename(columns={"audio_id": "image_id"}))
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m


def test_audio_no_verified_edges_all_singletons(ray_session, monkeypatch):
    """Distinct recordings produce zero verified edges and come out as
    singletons, keyed by the caller's id column."""
    from deduplication_ray.stages.multimodal import encode_wav
    from deduplication_ray.state import unionfind

    ids = [f"a{i:02d}" for i in range(3)]
    t = pa.table({"audio_id": ids, "bytes": [
        encode_wav(F.render_audio_pcm(100 + i, F.AUDIO_RATE), F.AUDIO_RATE, 16)
        for i in range(3)]})
    real, rows = unionfind.connected_components, []
    monkeypatch.setattr(
        unionfind, "connected_components",
        lambda edges, cfg, **kw: rows.append(edges.count())
        or real(edges, cfg, **kw))
    out = audio_dedup_clusters(
        ray.data.from_arrow(t), DedupConfig(num_partitions=2)).to_pandas()
    assert rows == [0]
    assert list(out.columns) == ["audio_id", "cluster_id"]
    assert sorted(out["audio_id"]) == ids
    assert (out["audio_id"] == out["cluster_id"]).all()


def test_float_wav_dups_cluster_with_int_wav(ray_session):
    """A float32-WAV re-encode of the same recording must land in the same
    cluster as its 16-bit-PCM original: the decoder normalizes both to mono
    float32, so the spectral shingles line up exactly."""
    from deduplication_ray.stages.multimodal import encode_wav

    rng = np.random.RandomState(11)
    rows = []
    for i in range(6):
        pcm = F.render_audio_pcm(100 + i, F.AUDIO_RATE)
        rows.append((f"a{i:02d}_int", encode_wav(pcm, F.AUDIO_RATE, 16)))
        if i < 2:  # plant float re-encodes of the first two recordings
            rows.append((f"a{i:02d}_flt",
                         encode_wav(pcm, F.AUDIO_RATE, 32, ieee_float=True)))
    t = pa.table({"audio_id": [r[0] for r in rows],
                  "bytes": [r[1] for r in rows]})
    out = audio_dedup_clusters(
        ray.data.from_arrow(t), DedupConfig(num_partitions=2)).to_pandas()
    c = out.set_index("audio_id")["cluster_id"]
    for i in range(2):
        assert c[f"a{i:02d}_int"] == c[f"a{i:02d}_flt"]
    # distinct recordings stay apart
    assert c[["a02_int", "a03_int", "a04_int", "a05_int"]].nunique() == 4
