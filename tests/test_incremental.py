"""Incremental ingest: delta dedup against a finished base run must equal a
from-scratch run over base+delta, while only computing delta signatures."""

import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from tests.conftest import load_parquet_dir

SPLIT_BASE = "/tmp/dedup_ray_inc_base_data"
SPLIT_DELTA = "/tmp/dedup_ray_inc_delta_data"
BASE_RUN = "/tmp/dedup_ray_inc_base_run"
INC_RUN = "/tmp/dedup_ray_inc_run"


@pytest.fixture(scope="module")
def incremental_run(ray_session, tiny_fixture, tiny_run):
    """Split the 800-row fixture 5:1, run base, then ingest the delta."""
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.incremental import ingest_delta

    _, cfg, _ = tiny_run

    tbl = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]).to_table()
    idx = pa.array([i % 6 == 0 for i in range(tbl.num_rows)])
    delta_tbl = tbl.filter(idx)
    base_tbl = tbl.filter(pa.compute.invert(idx))

    for d, t, parts in ((SPLIT_BASE, base_tbl, 4), (SPLIT_DELTA, delta_tbl, 2)):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        step = (t.num_rows + parts - 1) // parts
        for i in range(parts):
            pq.write_table(t.slice(i * step, step), f"{d}/part-{i}.parquet")

    shutil.rmtree(BASE_RUN, ignore_errors=True)
    shutil.rmtree(INC_RUN, ignore_errors=True)
    image_dedup.run_pipeline(SPLIT_BASE, BASE_RUN, cfg)
    metrics = ingest_delta(BASE_RUN, SPLIT_BASE, SPLIT_DELTA, INC_RUN, cfg)
    return metrics, delta_tbl.num_rows, tbl.num_rows


def test_incremental_matches_full_run(incremental_run, tiny_run):
    """Cluster assignments from incremental ingest == from-scratch full run."""
    full_dir, _, _ = tiny_run
    full = (load_parquet_dir(f"{full_dir}/clusters")
            .sort_values("image_id").reset_index(drop=True))
    inc = (load_parquet_dir(f"{INC_RUN}/clusters")
           .sort_values("image_id").reset_index(drop=True))
    assert len(inc) == len(full)
    merged = full.merge(inc, on="image_id", suffixes=("_f", "_i"))
    mismatch = (merged["cluster_id_f"] != merged["cluster_id_i"]).sum()
    assert mismatch == 0, f"{mismatch}/{len(merged)} assignments differ"


def test_incremental_signatures_are_delta_bounded(incremental_run):
    """The expensive stage (image decode -> signatures) ran on delta rows
    ONLY — base signatures came from the base run's checkpoint."""
    metrics, n_delta, n_total = incremental_run
    assert metrics["rows"]["signatures"] == n_delta
    assert n_delta < n_total // 4


def test_incremental_resumes_from_checkpoint(incremental_run, tiny_run):
    """Re-invoking the ingest skips every completed stage."""
    from deduplication_ray.pipelines.incremental import ingest_delta

    _, cfg, _ = tiny_run
    m2 = ingest_delta(BASE_RUN, SPLIT_BASE, SPLIT_DELTA, INC_RUN, cfg)
    assert m2["stages_executed"] == []
    assert "signatures" in m2["stages_resumed"]
    assert "clusters" in m2["stages_resumed"]


def test_chained_ingest_matches_full_run(ray_session, tiny_fixture, tiny_run):
    """Day-2 ingest: base run -> ingest delta1 -> ingest delta2 (base = both
    prior runs). Final clusters == the from-scratch full run over all rows."""
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.incremental import ingest_delta

    full_dir, cfg, _ = tiny_run

    tbl = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]).to_table()
    mod = pa.array([i % 6 for i in range(tbl.num_rows)])
    import pyarrow.compute as pc
    splits = {
        "base": tbl.filter(pc.greater(mod, 1)),
        "d1": tbl.filter(pc.equal(mod, 0)),
        "d2": tbl.filter(pc.equal(mod, 1)),
    }
    dirs = {}
    for name, t in splits.items():
        d = f"/tmp/dedup_ray_chain_{name}_data"
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        step = (t.num_rows + 1) // 2
        for i in range(2):
            pq.write_table(t.slice(i * step, step), f"{d}/part-{i}.parquet")
        dirs[name] = d

    r0, r1, r2 = ("/tmp/dedup_ray_chain_run0", "/tmp/dedup_ray_chain_run1",
                  "/tmp/dedup_ray_chain_run2")
    for d in (r0, r1, r2):
        shutil.rmtree(d, ignore_errors=True)
    image_dedup.run_pipeline(dirs["base"], r0, cfg)
    ingest_delta(r0, dirs["base"], dirs["d1"], r1, cfg)
    m2 = ingest_delta([r0, r1], [dirs["base"], dirs["d1"]], dirs["d2"], r2, cfg)

    assert m2["rows"]["signatures"] == splits["d2"].num_rows
    full = (load_parquet_dir(f"{full_dir}/clusters")
            .sort_values("image_id").reset_index(drop=True))
    inc = (load_parquet_dir(f"{r2}/clusters")
           .sort_values("image_id").reset_index(drop=True))
    assert len(inc) == len(full)
    merged = full.merge(inc, on="image_id", suffixes=("_f", "_i"))
    mismatch = (merged["cluster_id_f"] != merged["cluster_id_i"]).sum()
    assert mismatch == 0, f"{mismatch}/{len(merged)} assignments differ"


def test_ingest_refuses_mismatched_base_config(ray_session, incremental_run,
                                               tiny_run):
    """Mixing signature configs across base runs must fail loudly, not
    silently produce wrong buckets."""
    import pytest

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import ingest_delta

    _, cfg, _ = tiny_run
    other = DedupConfig(num_partitions=cfg.num_partitions,
                        shingle_k=cfg.shingle_k + 1)
    with pytest.raises(ValueError, match="not comparable"):
        ingest_delta(BASE_RUN, SPLIT_BASE, SPLIT_DELTA,
                     "/tmp/dedup_ray_inc_badcfg", other)


@pytest.mark.parametrize("sig_mode", ["perm", "oph"])
def test_text_ingest_matches_full_run(ray_session, tmp_path, sig_mode):
    """mode='text': a text delta ingested against a checkpointed text base
    run yields EXACTLY the clusters of a from-scratch run over base+delta,
    and the ingest's signature stage is delta-bounded. Parametrized over
    both signature modes: the base-signature re-key must stay mode-agnostic
    (stored minhash columns are re-banded, never recomputed)."""
    import pyarrow.compute as pc

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import ingest_delta
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline
    from deduplication_ray.sources import storage

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet") \
        .select(["doc_id", "text"])
    # one exact duplicate straddling base and delta: a new delta doc
    # (doc_id % 4 == 0) repeating base doc 1's text, so the exact family of
    # the ingest bucket stream must link across the split
    dup_id = (max(src["doc_id"].to_pylist()) // 4 + 1) * 4
    src = pa.concat_tables([src, pa.table({
        "doc_id": pa.array([dup_id], pa.int64()),
        "text": pa.array([src["text"][1].as_py()],
                         src.schema.field("text").type)})])
    is_delta = pc.equal(pc.bit_wise_and(src["doc_id"], 3), 0)
    parts = {"base": src.filter(pc.invert(is_delta)),
             "delta": src.filter(is_delta), "full": src}
    for name, t in parts.items():
        d = tmp_path / name
        os.makedirs(d)
        step = (t.num_rows + 3) // 4
        for i in range(4):
            pq.write_table(t.slice(i * step, step), f"{d}/part-{i}.parquet")

    cfg = DedupConfig(num_partitions=8, sa_batch_size=1024,
                      signature_mode=sig_mode)
    run_text_pipeline(str(tmp_path / "base"), str(tmp_path / "base_run"), cfg)
    metrics = ingest_delta(str(tmp_path / "base_run"), str(tmp_path / "base"),
                           str(tmp_path / "delta"), str(tmp_path / "inc_run"),
                           cfg, mode="text")
    run_text_pipeline(str(tmp_path / "full"), str(tmp_path / "full_run"), cfg)

    inc = storage.read_table(f"{tmp_path}/inc_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(f"{tmp_path}/full_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (inc["image_id"].values == full["image_id"].values).all()
    assert (inc["cluster_id"].values == full["cluster_id"].values).all()
    lab = dict(zip(inc["image_id"], inc["cluster_id"]))
    assert lab[str(dup_id)] == lab["1"]
    # delta-bounded: the ingest signature checkpoint holds ONLY delta rows
    assert metrics["rows"]["signatures"] == parts["delta"].num_rows


def test_chained_text_ingest_matches_full_run(ray_session, tmp_path):
    """Day-2 text delta against [base run, day-1 ingest] equals the
    from-scratch text run over all three slices."""
    import pyarrow.compute as pc

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import ingest_delta
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline
    from deduplication_ray.sources import storage

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet") \
        .select(["doc_id", "text"])
    mod = pc.bit_wise_and(src["doc_id"], 3)
    parts = {"base": src.filter(pc.greater(mod, 1)),     # 2, 3
             "d1": src.filter(pc.equal(mod, 0)),
             "d2": src.filter(pc.equal(mod, 1)),
             "full": src}
    for name, t in parts.items():
        d = tmp_path / name
        os.makedirs(d)
        step = (t.num_rows + 2) // 3
        for i in range(3):
            pq.write_table(t.slice(i * step, step), f"{d}/part-{i}.parquet")

    cfg = DedupConfig(num_partitions=8, sa_batch_size=1024)
    p = lambda n: str(tmp_path / n)  # noqa: E731
    run_text_pipeline(p("base"), p("base_run"), cfg)
    ingest_delta(p("base_run"), p("base"), p("d1"), p("run1"), cfg, mode="text")
    ingest_delta([p("base_run"), p("run1")], [p("base"), p("d1")],
                 p("d2"), p("run2"), cfg, mode="text")
    run_text_pipeline(p("full"), p("full_run"), cfg)

    inc = storage.read_table(f"{tmp_path}/run2/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(f"{tmp_path}/full_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (inc["image_id"].values == full["image_id"].values).all()
    assert (inc["cluster_id"].values == full["cluster_id"].values).all()


@pytest.mark.parametrize("kind", ["video", "audio"])
def test_modal_ingest_matches_full_run(ray_session, tmp_path, kind):
    """Video/audio delta ingested against a checkpointed modal base run
    yields EXACTLY the clusters of (a) a from-scratch checkpointed run over
    base+delta and (b) the lazy video/audio_dedup_clusters pipeline, while
    decoding only the delta."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.audio_dedup import audio_dedup_clusters
    from deduplication_ray.pipelines.incremental import (
        ingest_delta, run_checkpointed)
    from deduplication_ray.pipelines.video_dedup import video_dedup_clusters
    from deduplication_ray.sources import fixtures, storage

    gen = (fixtures.generate_videos if kind == "video"
           else fixtures.generate_audios)
    fix = tmp_path / "fix"
    gen(str(fix), 200, seed=7)
    tbl = pads.dataset(
        [f"{fix}/data/{f}" for f in os.listdir(f"{fix}/data")
         if f.endswith(".parquet")]).to_table()
    mask = pa.array([i % 5 == 0 for i in range(tbl.num_rows)])
    parts = {"base": tbl.filter(pa.compute.invert(mask)),
             "delta": tbl.filter(mask), "full": tbl}
    for name, t in parts.items():
        d = tmp_path / name
        os.makedirs(d)
        step = (t.num_rows + 1) // 2
        for i in range(2):
            pq.write_table(t.slice(i * step, step), f"{d}/part-{i}.parquet")

    cfg = DedupConfig(num_partitions=4)
    p = lambda n: str(tmp_path / n)  # noqa: E731
    run_checkpointed(p("base"), p("base_run"), cfg, mode=kind)
    metrics = ingest_delta(p("base_run"), None, p("delta"), p("inc_run"),
                           cfg, mode=kind)
    run_checkpointed(p("full"), p("full_run"), cfg, mode=kind)

    inc = storage.read_table(f"{tmp_path}/inc_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(f"{tmp_path}/full_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (inc["image_id"].values == full["image_id"].values).all()
    assert (inc["cluster_id"].values == full["cluster_id"].values).all()
    # delta-bounded: the ingest signature checkpoint holds ONLY delta rows
    assert metrics["rows"]["signatures"] == parts["delta"].num_rows

    # the checkpointed DAG equals the lazy pipeline on the same input
    lazy_fn = (video_dedup_clusters if kind == "video"
               else audio_dedup_clusters)
    id_col = "video_id" if kind == "video" else "audio_id"
    lazy = lazy_fn(storage.read_table(p("full")), cfg).to_pandas() \
        .rename(columns={id_col: "image_id"}) \
        .sort_values("image_id").reset_index(drop=True)
    lazy["image_id"] = lazy["image_id"].astype(str)
    assert (lazy["image_id"].values == full["image_id"].values).all()
    assert (lazy["cluster_id"].astype(str).values
            == full["cluster_id"].values).all()


def test_embedding_ingest_matches_full_run(ray_session, tmp_path):
    """Semantic (embedding) delta ingested against a checkpointed embedding
    base run equals the from-scratch run over base+delta, and recovers the
    planted near-identical pairs — including base<->delta cross pairs."""
    import numpy as np

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import (
        ingest_delta, run_checkpointed)
    from deduplication_ray.sources import storage

    rng = np.random.default_rng(11)
    n, d = 600, 64
    base_m = rng.standard_normal((n, d)).astype(np.float32)
    for i in range(40):  # rows 2i+1 near-identical to 2i
        base_m[2 * i + 1] = (base_m[2 * i]
                             + rng.standard_normal(d).astype(np.float32) * 0.01)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in base_m],
                              type=pa.list_(pa.float32())),
    })
    # delta = every odd planted partner of the first 20 pairs plus a tail
    # slice: cross-side (base<->delta) links must be found by the ingest
    is_delta = np.zeros(n, bool)
    is_delta[[2 * i + 1 for i in range(20)]] = True
    is_delta[500:] = True
    parts = {"base": tbl.filter(pa.array(~is_delta)),
             "delta": tbl.filter(pa.array(is_delta)), "full": tbl}
    for name, t in parts.items():
        dd = tmp_path / name
        os.makedirs(dd)
        step = (t.num_rows + 1) // 2
        for i in range(2):
            pq.write_table(t.slice(i * step, step), f"{dd}/part-{i}.parquet")

    cfg = DedupConfig(num_partitions=4)
    p = lambda s: str(tmp_path / s)  # noqa: E731
    run_checkpointed(p("base"), p("base_run"), cfg, mode="embedding")
    metrics = ingest_delta(p("base_run"), None, p("delta"), p("inc_run"),
                           cfg, mode="embedding")
    run_checkpointed(p("full"), p("full_run"), cfg, mode="embedding")

    inc = storage.read_table(f"{tmp_path}/inc_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(f"{tmp_path}/full_run/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (inc["image_id"].values == full["image_id"].values).all()
    assert (inc["cluster_id"].values == full["cluster_id"].values).all()
    assert metrics["rows"]["signatures"] == parts["delta"].num_rows

    # every planted pair clusters together (ids are 12-digit zero-padded)
    lab = dict(zip(inc["image_id"], inc["cluster_id"]))
    pad = lambda i: str(i).zfill(12)  # noqa: E731
    hits = sum(lab[pad(2 * i)] == lab[pad(2 * i + 1)] for i in range(40))
    assert hits >= 38, hits


def test_merge_runs_matches_full_run(ray_session, tiny_fixture, tiny_run):
    """Two independently deduplicated halves merged via merge_runs equal the
    from-scratch run over the whole fixture — with NO signature recompute
    (the merge run dir has no signatures stage; both sides' signatures come
    from their checkpoints)."""
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.incremental import merge_runs

    full_dir, cfg, _ = tiny_run
    root = "/tmp/dedup_ray_merge_test"
    shutil.rmtree(root, ignore_errors=True)

    tbl = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]).to_table()
    # round-robin split scatters planted cluster members across both sides,
    # so real cross-run duplicate pairs exist
    idx = pa.array([i % 2 == 0 for i in range(tbl.num_rows)])
    for name, t in (("a", tbl.filter(idx)),
                    ("b", tbl.filter(pa.compute.invert(idx)))):
        os.makedirs(f"{root}/{name}")
        step = (t.num_rows + 2) // 3
        for i in range(3):
            pq.write_table(t.slice(i * step, step),
                           f"{root}/{name}/part-{i}.parquet")

    image_dedup.run_pipeline(f"{root}/a", f"{root}/run_a", cfg)
    image_dedup.run_pipeline(f"{root}/b", f"{root}/run_b", cfg)
    metrics = merge_runs(f"{root}/run_a", f"{root}/a",
                         f"{root}/run_b", f"{root}/b",
                         f"{root}/merged", cfg)

    full = (load_parquet_dir(f"{full_dir}/clusters")
            .sort_values("image_id").reset_index(drop=True))
    merged = (load_parquet_dir(f"{root}/merged/clusters")
              .sort_values("image_id").reset_index(drop=True))
    assert (merged["image_id"].values == full["image_id"].values).all()
    mismatch = (merged["cluster_id"].values != full["cluster_id"].values).sum()
    assert mismatch == 0, f"{mismatch}/{len(full)} assignments differ"

    # no decode happened: the merge checkpoints only edges + clusters
    assert not os.path.exists(f"{root}/merged/signatures")
    assert metrics["rows"]["verified_edges"] is not None

    # re-invocation resumes every stage
    m2 = merge_runs(f"{root}/run_a", f"{root}/a", f"{root}/run_b",
                    f"{root}/b", f"{root}/merged", cfg)
    assert m2["stages_executed"] == []


def test_merge_runs_text_mode(ray_session, tmp_path):
    """Text-mode merge: two halves of the documents table deduplicated
    separately, merged == from-scratch text run."""
    import pyarrow.compute as pc

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import merge_runs
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline
    from deduplication_ray.sources import storage

    cfg = DedupConfig(num_partitions=4, sa_batch_size=1024)
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet") \
        .select(["doc_id", "text"])
    is_a = pc.equal(pc.bit_wise_and(src["doc_id"], 1), 0)
    parts = {"a": src.filter(is_a), "b": src.filter(pc.invert(is_a)),
             "full": src}
    for name, t in parts.items():
        os.makedirs(tmp_path / name)
        step = (t.num_rows + 1) // 2
        for i in range(2):
            pq.write_table(t.slice(i * step, step),
                           f"{tmp_path}/{name}/part-{i}.parquet")

    p = lambda s: str(tmp_path / s)  # noqa: E731
    run_text_pipeline(p("a"), p("run_a"), cfg)
    run_text_pipeline(p("b"), p("run_b"), cfg)
    merge_runs(p("run_a"), p("a"), p("run_b"), p("b"), p("merged"), cfg,
               mode="text")
    run_text_pipeline(p("full"), p("run_full"), cfg)

    merged = storage.read_table(p("merged") + "/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(p("run_full") + "/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (merged["image_id"].values == full["image_id"].values).all()
    assert (merged["cluster_id"].values == full["cluster_id"].values).all()


@pytest.mark.parametrize("kind", ["video", "audio", "embedding"])
def test_modal_merge_matches_full_run(ray_session, tmp_path, kind):
    """Two finished modal runs merged via merge_runs equal the
    from-scratch run over both halves — reading ONLY the two run dirs (no
    media, no signature recompute)."""
    import numpy as np

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import (
        merge_runs, run_checkpointed)
    from deduplication_ray.sources import fixtures, storage

    if kind in ("video", "audio"):
        fix = tmp_path / "fix"
        gen = (fixtures.generate_videos if kind == "video"
               else fixtures.generate_audios)
        gen(str(fix), 200, seed=9)
        tbl = pads.dataset(
            [f"{fix}/data/{f}" for f in os.listdir(f"{fix}/data")
             if f.endswith(".parquet")]).to_table()
    else:
        n, d = 500, 64
        rng = np.random.default_rng(9)
        m = rng.standard_normal((n, d)).astype(np.float32)
        for i in range(40):  # rows 2i+1 near-identical to 2i
            m[2 * i + 1] = (m[2 * i]
                            + rng.standard_normal(d).astype(np.float32) * 0.01)
        tbl = pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([v.tolist() for v in m],
                                  type=pa.list_(pa.float32())),
        })
    # round-robin split scatters planted duplicate pairs across both sides
    mask = pa.array([i % 2 == 0 for i in range(tbl.num_rows)])
    parts = {"a": tbl.filter(mask), "b": tbl.filter(pa.compute.invert(mask)),
             "full": tbl}
    for name, t in parts.items():
        d_ = tmp_path / name
        os.makedirs(d_)
        step = (t.num_rows + 1) // 2
        for i in range(2):
            pq.write_table(t.slice(i * step, step), f"{d_}/part-{i}.parquet")

    cfg = DedupConfig(num_partitions=4)
    p = lambda s: str(tmp_path / s)  # noqa: E731
    run_checkpointed(p("a"), p("run_a"), cfg, mode=kind)
    run_checkpointed(p("b"), p("run_b"), cfg, mode=kind)
    merge_runs(p("run_a"), None, p("run_b"), None, p("merged"), cfg,
               mode=kind)
    run_checkpointed(p("full"), p("full_run"), cfg, mode=kind)

    merged = storage.read_table(p("merged") + "/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    full = storage.read_table(p("full_run") + "/clusters").to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert (merged["image_id"].values == full["image_id"].values).all()
    assert (merged["cluster_id"].values == full["cluster_id"].values).all()
    # the merge re-decoded nothing: no signatures stage in the merged run
    assert not os.path.exists(p("merged") + "/signatures")


def test_merge_runs_refuses_overlapping_ids(ray_session, tmp_path):
    """Merging two runs that share ids must fail loudly (overlap silently
    corrupts the XOR cross filter and signature joins)."""
    import numpy as np
    import pytest as _pytest

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import (
        merge_runs, run_checkpointed)

    n, d = 60, 16
    rng = np.random.default_rng(3)
    tbl = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),  # SAME ids on both sides
        "embedding": pa.array(
            [v.tolist() for v in rng.standard_normal((n, d)).astype(
                np.float32)], type=pa.list_(pa.float32())),
    })
    cfg = DedupConfig(num_partitions=2)
    for name in ("a", "b"):
        os.makedirs(tmp_path / name)
        pq.write_table(tbl, f"{tmp_path}/{name}/part-0.parquet")
        run_checkpointed(str(tmp_path / name), str(tmp_path / f"run_{name}"),
                         cfg, mode="embedding")
    with _pytest.raises(ValueError, match="disjoint ids"):
        merge_runs(str(tmp_path / "run_a"), None, str(tmp_path / "run_b"),
                   None, str(tmp_path / "merged"), cfg, mode="embedding")


def test_delete_ids_propagates_deletion(ray_session, tiny_fixture, tiny_run,
                                        tmp_path):
    """Deletion propagation: no deleted id survives in any output stage;
    surviving membership PARTITION is unchanged (retained-edge semantics);
    every new label is its cluster's min surviving member; representatives
    cover exactly the new cluster heads with survivor counts."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import delete_ids
    from deduplication_ray.sources import storage

    run_dir, _, _ = tiny_run
    cfg = DedupConfig(num_partitions=4)
    orig = storage.read_table(f"{run_dir}/clusters").to_pandas()

    sizes = orig.groupby("cluster_id").size()
    multi = sizes[sizes > 1].index.tolist()
    assert len(multi) >= 5, "fixture must contain multi-member clusters"
    # delete: 3 cluster HEADS (labels die), 3 non-head members, 3 singletons
    heads = multi[:3]
    nonheads = [orig[(orig.cluster_id == c) & (orig.image_id != c)]
                .image_id.iloc[0] for c in multi[3:6]]
    singles = sizes[sizes == 1].index.tolist()[:3]
    deleted = set(heads) | set(nonheads) | set(singles)

    out = str(tmp_path / "del_run")
    m = delete_ids(run_dir, f"{tiny_fixture}/data", deleted, out, cfg)
    assert m["deleted_ids"] == len(deleted)

    new = storage.read_table(f"{out}/clusters").to_pandas()
    # (a) exact survivor id set, nothing deleted anywhere
    assert set(new.image_id) == set(orig.image_id) - deleted
    assert not (set(new.image_id) | set(new.cluster_id)) & deleted
    sigs = storage.read_table(f"{out}/signatures").to_pandas()
    assert not set(sigs.image_id) & deleted
    assert set(sigs.image_id) == set(orig.image_id) - deleted

    # (b) membership partition unchanged on survivors
    surv = orig[~orig.image_id.isin(deleted)]
    want = {c: frozenset(g.image_id) for c, g in surv.groupby("cluster_id")}
    got = {c: frozenset(g.image_id) for c, g in new.groupby("cluster_id")}
    assert set(want.values()) == set(got.values())

    # (c) every label is the min surviving member; untouched clusters keep
    # their label bit-for-bit
    for c, members in got.items():
        assert c == min(members)
    untouched = surv[~surv.cluster_id.isin(deleted)]
    merged = untouched.merge(new, on="image_id", suffixes=("_old", "_new"))
    assert (merged.cluster_id_old == merged.cluster_id_new).all()

    # (d) representatives = exactly the new heads, with survivor counts
    reps = storage.read_table(f"{out}/representatives").to_pandas()
    assert set(reps.image_id) == set(new.cluster_id)
    rep_sizes = dict(zip(reps.image_id, reps.cluster_size))
    for c, members in got.items():
        assert rep_sizes[c] == len(members)


def test_delete_ids_text_mode(ray_session, tmp_path):
    """Deletion propagation on a TEXT run (checkpoints carry the
    engine-canonical image_id column): survivors only, partition
    unchanged, labels re-elected."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import delete_ids
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline
    from deduplication_ray.sources import storage

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "text"]).slice(0, 150)
    d_in = str(tmp_path / "docs")
    import os
    os.makedirs(d_in)
    pq.write_table(src, f"{d_in}/part-0.parquet")
    cfg = DedupConfig(num_partitions=4, sa_batch_size=1024)
    base = str(tmp_path / "base_run")
    run_text_pipeline(d_in, base, cfg)

    orig = storage.read_table(f"{base}/clusters").to_pandas()
    deleted = set(orig.image_id.iloc[:10])  # engine-canonical string ids
    out = str(tmp_path / "out_run")
    delete_ids(base, None, deleted, out, cfg)

    new = storage.read_table(f"{out}/clusters").to_pandas()
    assert set(new.image_id) == set(orig.image_id) - deleted
    surv = orig[~orig.image_id.isin(deleted)]
    want = {frozenset(g.image_id) for _, g in surv.groupby("cluster_id")}
    got = {frozenset(g.image_id) for _, g in new.groupby("cluster_id")}
    assert want == got
    for c, g in new.groupby("cluster_id"):
        assert c == min(g.image_id)
    sigs = storage.read_table(f"{out}/signatures").to_pandas()
    assert not set(sigs.image_id) & deleted


def test_delete_then_ingest_never_resurrects(ray_session, tiny_fixture,
                                             tiny_run, tmp_path):
    """Composition contract: a deletion-propagated run is a valid ingest
    base, and deleted ids can never resurface in the ingest output — even
    though the (unfiltered) original input is passed as base_input: the id
    universe comes from the filtered clusters/signatures checkpoints, and
    edges touching deleted ids drop at signature attach."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import delete_ids, ingest_delta
    from deduplication_ray.sources import storage

    run_dir, _, _ = tiny_run
    cfg = DedupConfig(num_partitions=4)
    orig = storage.read_table(f"{run_dir}/clusters").to_pandas()
    deleted = set(orig.image_id.iloc[10:25])

    del_run = str(tmp_path / "del_run")
    delete_ids(run_dir, f"{tiny_fixture}/data", deleted, del_run, cfg)

    # delta = 40 fresh rows, remapped into a DISTINCT id namespace (the
    # fixture generator reuses img_%09d ids, which would collide)
    from deduplication_ray.sources import fixtures
    gen_dir = str(tmp_path / "gen")
    fixtures.generate(gen_dir, 40, seed=7)
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    t = pads.dataset(gen_dir + "/data").to_table()
    t = t.set_column(t.column_names.index("image_id"), "image_id",
                     pc.replace_substring(t["image_id"], "img_", "new_"))
    delta_dir = str(tmp_path / "delta")
    os.makedirs(delta_dir)
    pq.write_table(t, f"{delta_dir}/part-0.parquet")

    out = str(tmp_path / "ingested")
    ingest_delta(del_run, f"{tiny_fixture}/data", delta_dir, out, cfg)
    final = storage.read_table(f"{out}/clusters").to_pandas()
    assert not set(final.image_id) & deleted
    assert not set(final.cluster_id) & deleted
    delta_ids = set(storage.read_table(delta_dir, columns=["image_id"])
                    .to_pandas().image_id)
    assert set(final.image_id) == (set(orig.image_id) - deleted) | delta_ids


def test_cli_modal_run_ingest_merge_match_library(ray_session, tmp_path,
                                                  capsys, monkeypatch):
    """`cli run` / `ingest` / `merge --mode embedding` each make the one
    library call: the row counts they print equal those of
    ``run_checkpointed`` / ``ingest_delta`` / ``merge_runs`` on the same
    inputs, and a merge reports rows for the stages it runs only."""
    import json

    import numpy as np

    from deduplication_ray import cli
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import (
        ingest_delta, merge_runs, run_checkpointed)

    # the commands run in (and leave running) this test session
    rng = np.random.default_rng(4)
    n, d = 120, 16
    m = rng.standard_normal((n, d)).astype(np.float32)
    m[1::2][:20] = m[0::2][:20] + 0.01 * rng.standard_normal(
        (20, d)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array([v.tolist() for v in m],
                                          type=pa.list_(pa.float32()))})
    p = lambda s: str(tmp_path / s)  # noqa: E731
    for name, t in (("a", tbl.slice(0, 80)), ("b", tbl.slice(80))):
        os.makedirs(p(name))
        pq.write_table(t, f"{p(name)}/part-0.parquet")

    def cli_rows(*argv) -> dict:
        assert cli.main([*argv, "--mode", "embedding",
                         "--num-partitions", "4"]) == 0
        return json.loads(capsys.readouterr().out.strip()
                          .splitlines()[-1])["rows"]

    cfg = DedupConfig(num_partitions=4)
    lib = {"run": run_checkpointed(p("a"), p("lib_a"), cfg,
                                   mode="embedding")["rows"],
           "run_b": run_checkpointed(p("b"), p("lib_b"), cfg,
                                     mode="embedding")["rows"],
           "ingest": ingest_delta(p("lib_a"), None, p("b"), p("lib_inc"),
                                  cfg, mode="embedding")["rows"],
           "merge": merge_runs(p("lib_a"), None, p("lib_b"), None,
                               p("lib_merged"), cfg,
                               mode="embedding")["rows"]}
    got = {"run": cli_rows("run", "--input", p("a"), "--out", p("cli_a")),
           "run_b": cli_rows("run", "--input", p("b"), "--out", p("cli_b")),
           "ingest": cli_rows("ingest", "--base-run", p("cli_a"),
                              "--delta-input", p("b"), "--out",
                              p("cli_inc")),
           "merge": cli_rows("merge", "--run-a", p("cli_a"), "--run-b",
                             p("cli_b"), "--out", p("cli_merged"))}
    assert got == lib
    assert lib["merge"]["clusters"] == lib["ingest"]["clusters"] == n
    assert set(lib["merge"]) == {"verified_edges", "clusters"}


@pytest.mark.parametrize("argv", [
    ["ingest", "--base-run", "r", "--delta-input", "d", "--out", "o"],
    ["merge", "--run-a", "a", "--input-a", "ia", "--run-b", "b",
     "--out", "o"],
])
def test_cli_missing_caption_input_exits_before_session(monkeypatch, argv):
    """Image `ingest` without --base-input and image `merge` without both
    inputs exit before any Ray session starts."""
    from deduplication_ray import cli

    def no_session(n):
        raise AssertionError("Ray session started before validation")

    monkeypatch.setattr(cli, "_session", no_session)
    with pytest.raises(SystemExit, match="required for mode=image"):
        cli.main(argv)


CLI_SESSION_SCRIPT = """
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from deduplication_ray import cli

src, out = sys.argv[1], sys.argv[2]
pq.write_table(pa.table({"x": list(range(10))}), f"{src}/part-0.parquet")
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
assert cli.main(["compact", "--input", src, "--out", out]) == 0
assert ray.is_initialized(), "cli.main ended the caller's Ray session"
assert ray.cluster_resources()["CPU"] == 2, ray.cluster_resources()
ray.shutdown()
"""


def test_cli_main_keeps_callers_session(tmp_path):
    """An in-process ``cli.main`` verb runs in the caller's live Ray session
    and leaves it running, with its CPU count unchanged (run in a fresh
    interpreter: the caller's session is a 2-CPU one)."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    (tmp_path / "src").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SESSION_SCRIPT, str(tmp_path / "src"),
         str(tmp_path / "out")],
        cwd=repo, env=dict(os.environ, PYTHONPATH=repo),
        capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def test_caption_modes_require_inputs(tmp_path):
    """Image and text bucket streams re-read the input captions: an ingest
    or merge without them raises before any stage runs."""
    from deduplication_ray.pipelines.incremental import (ingest_delta,
                                                         merge_runs)

    with pytest.raises(ValueError, match="needs base_input_path"):
        ingest_delta("r", None, "d", str(tmp_path / "o"), mode="text")
    with pytest.raises(ValueError, match="needs input_b"):
        merge_runs("a", "ia", "b", None, str(tmp_path / "o"))
    assert not os.listdir(tmp_path)
