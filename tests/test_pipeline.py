"""End-to-end pipeline tests: truth parity, oracle parity, invariants,
resume, determinism (Ray session-scoped)."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest

from tests.conftest import load_parquet_dir


def _truth(tiny_fixture):
    return load_parquet_dir(f"{tiny_fixture}/truth")


def test_recall_and_precision_vs_truth(tiny_run, tiny_fixture):
    from deduplication_ray.pipelines.evaluate import pair_metrics

    run_dir, cfg, metrics = tiny_run
    pred = load_parquet_dir(f"{run_dir}/clusters")
    m = pair_metrics(pred, _truth(tiny_fixture))
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m


def test_oracle_parity(tiny_run, tiny_fixture):
    """Distributed clusters == serial O(n^2) oracle clusters (same config)."""
    from oracle.serial import serial_clusters

    run_dir, cfg, _ = tiny_run
    table = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]
    ).to_table()
    oracle = serial_clusters(table, cfg).sort_values("image_id").reset_index(drop=True)
    pred = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id").reset_index(drop=True)
    merged = oracle.merge(pred, on="image_id", suffixes=("_o", "_p"))
    mismatch = (merged["cluster_id_o"] != merged["cluster_id_p"]).sum()
    assert mismatch == 0, f"{mismatch} rows assigned differently than serial oracle"


def test_phash_column_verified(tiny_run):
    run_dir, _, _ = tiny_run
    sigs = load_parquet_dir(f"{run_dir}/signatures")
    assert sigs["phash_ok"].all()


def test_representatives_are_cluster_min_ids(tiny_run):
    run_dir, _, _ = tiny_run
    clusters = load_parquet_dir(f"{run_dir}/clusters")
    mins = clusters.groupby("cluster_id")["image_id"].min()
    assert (mins.index == mins.values).all()
    reps = load_parquet_dir(f"{run_dir}/representatives")
    assert set(reps["image_id"]) == set(clusters["cluster_id"].unique())
    assert (reps["cluster_size"] >= 1).all()


def test_per_row_invariants(tiny_run, tiny_fixture):
    """Surviving (representative) rows: decoded pixels identical to input
    decode; PSNR bound holds for lossy fmt; captions exactly equal."""
    from deduplication_ray.functions import codecs as C

    run_dir, _, _ = tiny_run
    reps = load_parquet_dir(f"{run_dir}/representatives")
    inp = load_parquet_dir(f"{tiny_fixture}/data").set_index("image_id")
    sample = reps.head(100)
    for _, r in sample.iterrows():
        orig = inp.loc[r["image_id"]]
        assert r["caption"] == orig["caption"]
        dec_out = C.decode_image(r["bytes"], r["fmt"], r["w"], r["h"])
        dec_in = C.decode_image(orig["bytes"], orig["fmt"], orig["w"], orig["h"])
        assert (dec_out == dec_in).all()
        if r["fmt"] == "qrgb":
            # lossy bound vs its own re-encode (idempotence of the codec)
            again = C.decode_qrgb(C.encode_qrgb(dec_out))
            assert C.psnr_db(dec_out, again) >= 40.0


def test_reconstruct_covers_all_rows(tiny_run, ray_session):
    from deduplication_ray.pipelines.image_dedup import reconstruct

    run_dir, cfg, _ = tiny_run
    rec = reconstruct(run_dir, cfg)
    df = rec.to_pandas()
    clusters = load_parquet_dir(f"{run_dir}/clusters")
    assert len(df) == len(clusters)
    assert set(df["image_id"]) == set(clusters["image_id"])
    # every row carries its representative's payload
    assert df["bytes"].notna().all() and df["caption"].notna().all()


def test_resume_skips_completed_stages(tiny_run, tiny_fixture, ray_session):
    """Second run over the same dir must resume, not recompute, and produce
    byte-identical clusters."""
    from deduplication_ray.pipelines import image_dedup

    run_dir, cfg, _ = tiny_run
    before = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id")
    m2 = image_dedup.run_pipeline(f"{tiny_fixture}/data", run_dir, cfg)
    assert "signatures" in m2["stages_resumed"]
    assert "verified_edges" in m2["stages_resumed"]
    assert "clusters" in m2["stages_resumed"]
    after = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id")
    pd.testing.assert_frame_equal(before.reset_index(drop=True),
                                  after.reset_index(drop=True))


def test_resume_mid_unionfind(tiny_run, tiny_fixture, ray_session):
    """Kill after the first union-find round: resume completes from the
    round checkpoint and matches the full run exactly (the 'mid-shuffle'
    resume contract)."""
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.sources import storage

    run_dir, cfg, _ = tiny_run
    full = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id")

    partial_dir = "/tmp/dedup_ray_test_resume"
    shutil.rmtree(partial_dir, ignore_errors=True)
    os.makedirs(partial_dir)
    # simulate the killed job: copy stage checkpoints up to labels_r0 only
    for stage in ("signatures", "verified_edges", "labels_r0"):
        shutil.copytree(f"{run_dir}/{stage}", f"{partial_dir}/{stage}")
    m = image_dedup.run_pipeline(f"{tiny_fixture}/data", partial_dir, cfg)
    assert "signatures" in m["stages_resumed"]
    assert "labels_r0" in m["stages_resumed"]
    # the local tier's labels_r0 is final: resume runs no hash-min round
    assert "labels_r1" not in m["stages_executed"]
    resumed = load_parquet_dir(f"{partial_dir}/clusters").sort_values("image_id")
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))


def test_resume_mid_unionfind_distributed(tiny_run, tiny_fixture, ray_session,
                                         tmp_path):
    """The distributed tier resumes too: with ``local_uf_limit=0`` a run
    killed after hash-min round 0 resumes from ``labels_r0`` and yields the
    same clusters as its uninterrupted run (and as the local tier)."""
    import dataclasses

    from deduplication_ray.pipelines import image_dedup

    run_dir, cfg, _ = tiny_run
    local = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id")
    cfg = dataclasses.replace(cfg, local_uf_limit=0)
    full_dir, partial_dir = str(tmp_path / "full"), str(tmp_path / "partial")
    image_dedup.run_pipeline(f"{tiny_fixture}/data", full_dir, cfg)
    full = load_parquet_dir(f"{full_dir}/clusters").sort_values("image_id")
    assert os.path.isdir(f"{full_dir}/labels_r1")  # rounds really ran
    os.makedirs(partial_dir)
    for stage in ("signatures", "verified_edges", "labels_r0"):
        shutil.copytree(f"{full_dir}/{stage}", f"{partial_dir}/{stage}")
    m = image_dedup.run_pipeline(f"{tiny_fixture}/data", partial_dir, cfg)
    assert "labels_r0" in m["stages_resumed"]
    assert "labels_r1" in m["stages_executed"]
    resumed = load_parquet_dir(f"{partial_dir}/clusters").sort_values("image_id")
    for other in (full, local):
        pd.testing.assert_frame_equal(other.reset_index(drop=True),
                                      resumed.reset_index(drop=True))


def test_resume_mid_signatures_shards(tiny_run, tiny_fixture, ray_session):
    """Kill mid-signature-stage: only the unfinished input-shard groups are
    recomputed; final clusters byte-match the full run (partition lineage)."""
    import json

    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.sources import storage

    run_dir, cfg, _ = tiny_run
    full = load_parquet_dir(f"{run_dir}/clusters").sort_values("image_id")

    partial_dir = "/tmp/dedup_ray_test_resume_sig"
    shutil.rmtree(partial_dir, ignore_errors=True)
    os.makedirs(f"{partial_dir}/signatures")
    # simulate a crash after the FIRST shard group committed
    src_groups = sorted(
        d for d in os.listdir(f"{run_dir}/signatures") if d.startswith("group_")
    )
    assert len(src_groups) >= 1
    shutil.copytree(f"{run_dir}/signatures/{src_groups[0]}",
                    f"{partial_dir}/signatures/{src_groups[0]}")
    files = storage.dataset_files(f"{tiny_fixture}/data")
    done = files[:8]  # group_size=8: first group's files
    storage.write_manifest(f"{partial_dir}/signatures", {
        "stage": "signatures", "config_hash": cfg.config_hash(),
        "upstream": ["input"], "shards_done": done, "complete": False,
    })
    m = image_dedup.run_pipeline(f"{tiny_fixture}/data", partial_dir, cfg)
    assert "signatures" in m["stages_resumed"]
    resumed = load_parquet_dir(f"{partial_dir}/clusters").sort_values("image_id")
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))


def test_resume_mid_signatures_shards_text(ray_session, tmp_path):
    """A text run over 9 input files (two shard groups of 8) killed after
    ``signatures/group_0`` committed recomputes only the later group and
    ends with the full run's clusters."""
    import pyarrow.parquet as pq

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline
    from deduplication_ray.sources import storage

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet") \
        .select(["doc_id", "text"])
    data = tmp_path / "docs"
    data.mkdir()
    step = (src.num_rows + 8) // 9
    for i in range(9):
        pq.write_table(src.slice(i * step, step), f"{data}/part-{i}.parquet")
    files = storage.dataset_files(str(data))
    assert len(files) == 9

    cfg = DedupConfig(num_partitions=4, sa_batch_size=1024)
    full_dir = str(tmp_path / "full_run")
    run_text_pipeline(str(data), full_dir, cfg)
    full = load_parquet_dir(f"{full_dir}/clusters").sort_values("image_id")

    partial_dir = str(tmp_path / "partial_run")
    os.makedirs(f"{partial_dir}/signatures")
    shutil.copytree(f"{full_dir}/signatures/group_0",
                    f"{partial_dir}/signatures/group_0")
    storage.write_manifest(f"{partial_dir}/signatures", {
        "stage": "signatures", "config_hash": cfg.config_hash(),
        "upstream": ["input"], "shards_done": files[:8], "complete": False,
    })
    g0 = f"{partial_dir}/signatures/group_0"
    before = {f: os.stat(f"{g0}/{f}").st_mtime_ns for f in os.listdir(g0)}
    m = run_text_pipeline(str(data), partial_dir, cfg)
    assert "signatures" in m["stages_resumed"]
    assert {f: os.stat(f"{g0}/{f}").st_mtime_ns
            for f in os.listdir(g0)} == before  # group 0 not recomputed
    assert sorted(d for d in os.listdir(f"{partial_dir}/signatures")
                  if d.startswith("group_")) == ["group_0", "group_1"]
    resumed = load_parquet_dir(f"{partial_dir}/clusters").sort_values(
        "image_id")
    assert len(resumed) == src.num_rows
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))


def test_stale_config_strict_refuses_default_recomputes(tiny_run, tiny_fixture, ray_session):
    """Explicit ``resume`` refuses checkpoints from a different config (the
    R15 header re-validation analog); a default ``run`` treats them as a
    cache miss and recomputes (round-1 driver regression: a DedupConfig
    change must never wedge a cached /tmp run dir)."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from tests.conftest import TINY_ROWS

    run_dir, cfg, _ = tiny_run
    copy_dir = "/tmp/dedup_ray_test_staleconf"
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(run_dir, copy_dir)
    other = DedupConfig(num_partitions=4, jaccard_tau=0.77)
    with pytest.raises(RuntimeError, match="refusing to resume"):
        image_dedup.run_pipeline(f"{tiny_fixture}/data", copy_dir, other,
                                 strict_resume=True)
    m = image_dedup.run_pipeline(f"{tiny_fixture}/data", copy_dir, other)
    assert "signatures" in m["stages_executed"]
    assert "clusters" in m["stages_executed"]
    clusters = load_parquet_dir(f"{copy_dir}/clusters")
    assert len(clusters) == TINY_ROWS
    shutil.rmtree(copy_dir, ignore_errors=True)


def test_partitioned_pairing_matches_local(tiny_run, ray_session):
    """The distributed (bucket-sharded) pairing stage must emit exactly the
    deduped slim pair set of the driver-local oracle — the tagger and the
    kernel over the whole concatenated bucket stream — on the same
    signatures; also at a partition count where most partitions of the
    bucket shuffle hold no multi-member bucket."""
    import dataclasses

    import pyarrow as pa

    from deduplication_ray.sources import storage
    from deduplication_ray.stages import lsh

    run_dir, cfg, _ = tiny_run
    sigs = storage.read_table(f"{run_dir}/signatures")

    def as_set(df):
        return set(zip(df["ah"].tolist(), df["bh"].tolist(),
                       df["prio"].tolist()))

    def pairs(c, families=("minhash", "phash", "simhash")):
        buckets = sigs.map_batches(lsh.ExplodeBands(c, families),
                                   batch_format="pyarrow",
                                   batch_size=c.text_batch_size)
        got = as_set(lsh.dedupe_slim_pairs(
            lsh.slim_pairs_from_buckets(buckets, c), c).to_pandas())
        whole = pa.concat_tables(list(buckets.iter_batches(
            batch_size=None, batch_format="pyarrow")))
        assert got == as_set(lsh._pair_tagged_table_slim(
            lsh._tag_buckets(lsh._pair_rows(whole), c), c).to_pandas())
        return got

    assert len(pairs(cfg)) > 0
    # the exact family has 24 multi-bucket rows on this fixture: over the
    # 192 pair partitions of num_partitions=48 most hold none of them
    exact = pairs(cfg, ("exact",))
    assert len(exact) > 0
    assert exact == pairs(dataclasses.replace(cfg, num_partitions=48),
                          ("exact",))


def test_all_singleton_buckets_give_no_index_and_no_pairs(ray_session):
    """A bucket stream with no bucket holding two rows pairs nothing, and
    neither does a bucket stream with no rows at all."""
    import pyarrow as pa
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages import lsh, verify

    def stream(n):
        return ray.data.from_arrow(pa.table({
            "band": pa.array([0] * n, pa.int64()),
            "bucket": pa.array(range(n), pa.int64()),
            "image_id": pa.array([f"id{i}" for i in range(n)],
                                 pa.string())}))

    cfg = DedupConfig(num_partitions=4)
    for n in (64, 0):
        buckets = stream(n)
        assert lsh.slim_pairs_from_buckets(buckets, cfg).count() == 0
        sigs = ray.data.from_arrow(pa.table({
            "image_id": pa.array([f"id{i}" for i in range(n)], pa.string())}))
        assert verify.pair_and_verify(
            buckets, verify.signature_index(sigs, cfg), cfg,
            accept=verify.keep_all).count() == 0


def test_image_join_tier_matches_broadcast(tiny_fixture, ray_session,
                                           tmp_path):
    """Image run_pipeline at num_partitions=8: the hash-join signature
    resolve (broadcast_limit=0) must finish and give clusters identical to
    the broadcast gather."""
    import dataclasses

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from tests.conftest import deadline

    cfg = DedupConfig(num_partitions=8)
    out = {}
    with deadline(300):
        for name, c in (("bcast", cfg),
                        ("join", dataclasses.replace(cfg, broadcast_limit=0))):
            image_dedup.run_pipeline(f"{tiny_fixture}/data",
                                     str(tmp_path / name), c)
            out[name] = load_parquet_dir(str(tmp_path / name / "clusters")) \
                .sort_values("image_id").reset_index(drop=True)
    assert out["bcast"]["cluster_id"].nunique() < len(out["bcast"])
    pd.testing.assert_frame_equal(out["bcast"], out["join"])


def test_id_hash_collision_fails_loudly(ray_session, monkeypatch):
    """Pairs travel as 64-bit id hashes: one id repeated across bucket rows
    (video frames) never pairs with itself, while two DISTINCT ids sharing
    a hash must raise in the resolve — in the broadcast ``signature_index``
    and in the ``broadcast_limit=0`` ``id_hash_table`` tier alike."""
    import dataclasses

    import pyarrow as pa
    import ray
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages import join, lsh, verify

    def weak_hash(arr, seed=0):  # byte sum: anagrams collide
        return np.array([sum(x.encode()) for x in arr.to_pylist()],
                        np.uint64)

    class WeakBlockHashes:  # signature_index hashes blocks in remote tasks
        @staticmethod
        def remote(ref, on):
            return ray.put(weak_hash(ray.get(ref)["image_id"]))

    def weak_id_hash_rows(t, cols=()):  # id_hash_table maps in workers
        ids = t["image_id"].combine_chunks().cast(pa.string())
        return t.select(list(cols)).append_column("image_id", ids) \
            .append_column("idh", pa.array(weak_hash(ids).view(np.int64)))

    cfg = DedupConfig(num_partitions=2)

    def buckets(ids):
        n = len(ids)
        return ray.data.from_arrow(pa.table({
            "band": pa.array([0] * n, pa.int64()),
            "bucket": pa.array([1] * n, pa.int64()),
            "image_id": pa.array(ids, pa.string()),
            "ph": pa.array([0] * n, pa.int64()),
            "sh": pa.array([0] * n, pa.int64())}))

    # the pair kernel runs in worker tasks, where only the real hash applies
    p = lsh.slim_pairs_from_buckets(buckets(["v1", "v1", "v2"]),
                                    cfg).to_pandas()
    h1, h2 = (int(x) for x in H.bitcast_u64_to_i64(
        np.sort(H.hash_bytes_array(pa.array(["v1", "v2"])))))
    assert set(zip(p["ah"], p["bh"])) == {(h1, h2)}

    monkeypatch.setattr(H, "hash_bytes_array", weak_hash)
    monkeypatch.setattr(join, "_block_key_hashes", WeakBlockHashes)
    monkeypatch.setattr(lsh, "id_hash_rows", weak_id_hash_rows)
    ids = ["ab", "ba", "zz"]
    # the slim pair the kernel emits under the weak hash: "ab" and "ba"
    # share one hash, so only the (ab|ba, zz) pair remains
    hab, hzz = (int(x) for x in weak_hash(pa.array(["ab", "zz"])))
    pairs = ray.data.from_arrow(pa.table({
        "ah": pa.array([min(hab, hzz)], pa.int64()),
        "bh": pa.array([max(hab, hzz)], pa.int64()),
        "prio": pa.array([lsh.KIND_PRIORITY.index("minhash")], pa.int8())}))
    sigs = ray.data.from_arrow(pa.table({"image_id": pa.array(ids)}))
    with pytest.raises(RuntimeError, match="collision"):
        verify.signature_index(sigs, cfg)
    join_cfg = dataclasses.replace(cfg, broadcast_limit=0)
    with pytest.raises(RuntimeError, match="collision"):
        verify.resolve_and_verify_pairs(
            pairs, verify.DeferredSignatureIndex(sigs, join_cfg), join_cfg,
            accept=verify.keep_all).materialize()


def test_local_unionfind_matches_distributed(tiny_run, ray_session):
    """The local vectorized union-find must produce byte-identical labels to
    the distributed hash-min rounds on the same verified edge set."""
    import dataclasses

    from deduplication_ray.sources import storage
    from deduplication_ray.state import unionfind

    run_dir, cfg, _ = tiny_run
    vedges = storage.read_table(f"{run_dir}/verified_edges")
    loc = unionfind.local_components(vedges).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    cfg_dist = dataclasses.replace(cfg, local_uf_limit=0)
    dist = unionfind.connected_components(vedges, cfg_dist).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert len(loc) > 0
    pd.testing.assert_frame_equal(loc, dist)


def test_round_cap_shared_by_lazy_and_checkpointed(ray_session, tmp_path):
    """One round cap for both entry points of the distributed tier: on a
    10-node path (a label moves one hop per round) a cap below the path
    length makes ``connected_components`` and ``checkpointed_clusters``
    raise the same error; with a high cap both give ``local_components``'
    labels."""
    import dataclasses

    import pyarrow as pa
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.image_dedup import checkpointed_clusters
    from deduplication_ray.sources import storage
    from deduplication_ray.state import unionfind
    from deduplication_ray.state.checkpoint import CheckpointedRun

    nodes = [f"n{i}" for i in range(10)]
    edges = ray.data.from_arrow(pa.table({
        "src": nodes[1:], "dst": nodes[:-1], "kind": ["exact"] * 9}))
    ids = ray.data.from_arrow(pa.table({"image_id": nodes}))
    base = DedupConfig(num_partitions=2, local_uf_limit=0)

    def lazy(cfg):
        return unionfind.connected_components(edges, cfg)

    def checkpointed(cfg, d):
        run = CheckpointedRun(str(tmp_path / d), cfg)
        checkpointed_clusters(run, edges, ids, cfg)
        run.flush()
        k = run.latest_labels_round()
        return storage.read_table(run.stage_dir(f"labels_r{k}"))

    low = dataclasses.replace(base, max_rounds=4)
    with pytest.raises(RuntimeError) as e_lazy:
        lazy(low)
    with pytest.raises(RuntimeError) as e_ckpt:
        checkpointed(low, "low")
    assert str(e_lazy.value) == str(e_ckpt.value)
    assert "4 rounds" in str(e_lazy.value)

    def canon(ds):
        return ds.to_pandas().sort_values("node").reset_index(drop=True)

    want = canon(unionfind.local_components(edges))
    assert (want["label"] == "n0").all()
    high = dataclasses.replace(base, max_rounds=20)
    pd.testing.assert_frame_equal(canon(lazy(high)), want)
    pd.testing.assert_frame_equal(canon(checkpointed(high, "high")), want)


def test_adversary_cluster_intact(tiny_run):
    """The hot-bucket adversary cluster must survive as ONE cluster."""
    run_dir, cfg, _ = tiny_run
    clusters = load_parquet_dir(f"{run_dir}/clusters")
    sizes = clusters.groupby("cluster_id").size()
    assert sizes.max() >= 10  # the adversary cluster survived intact


def test_salting_path_on_oversized_bucket(ray_session):
    """A caption shared by 4x bucket_cap rows must (a) trigger hot-bucket
    detection + salting and (b) still come out as ONE cluster (ambassador
    re-linking preserves connectivity)."""
    import pandas as pd
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.stages import lsh
    from deduplication_ray.pipelines.text_dedup import text_signatures

    cfg = DedupConfig(num_partitions=4, bucket_cap=16)
    n_hot, n_bg = 80, 40
    import numpy as np

    from deduplication_ray.sources.fixtures import make_vocab

    vocab = make_vocab(7, 500)
    rng = np.random.default_rng(7)
    bg = [" ".join(vocab[i] for i in rng.integers(0, 500, 20)) for _ in range(n_bg)]
    rows = pd.DataFrame({
        "doc_id": [f"d{i:04d}" for i in range(n_hot + n_bg)],
        "text": ["completely identical duplicated caption text"] * n_hot + bg,
    })
    ds = ray.data.from_pandas(rows).repartition(4)

    # (a) the pipeline's per-partition tagger, run over the whole bucket
    # stream, must salt the duplicated caption's buckets across
    # >= n_hot / cap salts
    import pyarrow as pa

    sigs = text_signatures(ds, cfg).materialize()
    buckets = sigs.map_batches(lsh.ExplodeBands(cfg),
                               batch_format="pyarrow").materialize()
    whole = pa.concat_tables(list(buckets.iter_batches(
        batch_format="pyarrow", batch_size=None)))
    salts = lsh._tag_buckets(lsh._pair_rows(whole), cfg)["salt"].to_numpy()
    hot = salts[salts >= 0]
    assert len(hot) > 0
    assert len(np.unique(hot)) >= n_hot // cfg.bucket_cap

    # (b) end-to-end: one cluster for the hot rows, singletons for background
    clusters = text_dedup_clusters(ds, cfg).to_pandas()
    hot_ids = set(rows["doc_id"][:n_hot])
    hot_clusters = clusters[clusters["doc_id"].isin(hot_ids)]["cluster_id"].unique()
    assert len(hot_clusters) == 1
    bg = clusters[~clusters["doc_id"].isin(hot_ids)]
    assert bg["cluster_id"].nunique() == n_bg


def test_signature_decode_probe_scatter(tiny_fixture, ray_session):
    """The batch-local distinct-decode probe (decode once per distinct
    (payload, fmt, w, h), scatter to repeats) must emit BIT-IDENTICAL
    signatures to the same rows processed without repeats — repeats get
    their representative's plane, uniques are untouched."""
    import pyarrow as pa

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages.signatures import ComputeSignatures

    tbl = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]).to_table().slice(0, 40)
    # append shuffled repeats of the first 15 rows: plenty of in-batch dups
    rep = tbl.slice(0, 15).take(pa.array([7, 2, 11, 0, 14, 3, 9, 1, 12, 5]))
    dup = pa.concat_tables([tbl, rep])

    sig = ComputeSignatures(DedupConfig(num_partitions=4))
    out_dup, out_ref = sig(dup), sig(tbl)

    cols = ["phash", "simhash", "minhash", "ck1", "ck2"]
    # the unique prefix is untouched by the scatter
    for c in cols:
        assert out_dup.slice(0, 40)[c].equals(out_ref[c]), c
    # every repeat carries its original's exact signatures
    ids_ref = {i: r for i, r in enumerate(out_ref.to_pylist())}
    for j, src in enumerate([7, 2, 11, 0, 14, 3, 9, 1, 12, 5]):
        got = out_dup.slice(40 + j, 1).to_pylist()[0]
        want = ids_ref[src]
        for c in cols:
            assert got[c] == want[c], (c, j, src)


def test_skip_undecodable_drops_corrupt_rows(tiny_fixture, ray_session,
                                             tmp_path):
    """Corrupt payloads: the strict default fails fast; with
    cfg.skip_undecodable the pipeline completes and exactly the corrupt
    rows (and nothing else) are absent from the clusters output."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.image_dedup import run_pipeline
    from deduplication_ray.sources import storage

    tbl = pads.dataset(
        [f"{tiny_fixture}/data/{f}" for f in os.listdir(f"{tiny_fixture}/data")
         if f.endswith(".parquet")]).to_table().slice(0, 120)
    cols = {c: tbl[c].to_pylist() for c in tbl.column_names}
    corrupt_ids = set()
    for i in (5, 50, 99):
        cols["bytes"][i] = b"\x00corrupt"
        corrupt_ids.add(cols["image_id"][i])
    data = str(tmp_path / "data")
    os.makedirs(data)
    pq.write_table(pa.table(cols, schema=tbl.schema), f"{data}/part-0.parquet")

    with _pytest.raises(Exception):
        run_pipeline(data, str(tmp_path / "run_strict"),
                     DedupConfig(num_partitions=4))

    cfg = DedupConfig(num_partitions=4, skip_undecodable=True)
    run_pipeline(data, str(tmp_path / "run_skip"), cfg)
    got = set(storage.read_table(str(tmp_path / "run_skip") + "/clusters")
              .to_pandas()["image_id"])
    assert got == set(cols["image_id"]) - corrupt_ids


def test_image_pipeline_deterministic_across_partitioning(tiny_fixture,
                                                          ray_session,
                                                          tmp_path):
    """North-rule determinism: the same input at different partition counts
    must produce byte-identical cluster assignments (representative = min
    image_id, never 'first seen' — SURVEY §7.5)."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.image_dedup import run_pipeline
    from deduplication_ray.sources import storage

    outs = []
    for npart in (4, 16):
        cfg = DedupConfig(num_partitions=npart)
        run = str(tmp_path / f"run_p{npart}")
        run_pipeline(f"{tiny_fixture}/data", run, cfg)
        outs.append(storage.read_table(f"{run}/clusters").to_pandas()
                    .sort_values("image_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_image_tier_dedup_funnel(tiny_run, tiny_fixture, ray_session):
    """Tiered funnel invariants: chained tiers, monotone attrition with
    every planted dup family biting its tier, tier-1 parity with the
    distinct content-key count, and final survivors >= the one-shot
    pipeline's cluster count (sequential tiers cannot follow cross-channel
    bridges through rows an earlier tier dropped — and the funnel carries
    no substring channel)."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.sources import storage

    cfg = DedupConfig(num_partitions=4)
    ds = storage.read_table(f"{tiny_fixture}/data")
    rep = image_dedup.tier_dedup_report(ds, cfg)

    assert list(rep["tier"]) == [1, 2, 3]
    assert rep["images_in"][0] == ds.count()
    # chained funnel: each tier's output feeds the next
    assert rep["images_in"][1] == rep["images_out"][0]
    assert rep["images_in"][2] == rep["images_out"][1]
    # monotone attrition; the fixture plants exact dups (tier 1), re-encode
    # + pixel-noise near-dups (tier 2), caption paraphrases (tier 3)
    assert rep["images_out"][0] < rep["images_in"][0]
    assert rep["images_out"][1] < rep["images_in"][1]
    assert rep["images_out"][2] < rep["images_in"][2]

    # tier-1 parity: distinct 128-bit (pixel key, caption hash) count
    distinct = (image_dedup.compute_signatures(ds, cfg)
                .groupby(["ck1", "ck2"]).count().count())
    assert rep["images_out"][0] == distinct

    # never below the one-shot engine's cluster count
    run_dir, _, _ = tiny_run
    oneshot = (storage.read_table(f"{run_dir}/clusters")
               .groupby("cluster_id").count().count())
    assert rep["images_out"][2] >= oneshot


def test_validate_run_passes_and_catches_corruption(tiny_run, tiny_fixture,
                                                    ray_session, tmp_path):
    """The validate verb's core: a finished run audits clean; corrupting a
    representative's caption and payload is detected and counted."""
    import shutil as sh

    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.evaluate import validate_run

    run_dir, _, _ = tiny_run
    rep = validate_run(f"{tiny_fixture}/data", run_dir, sample=200)
    assert rep["ok"] and rep["n"] > 0
    assert rep["caption_fail"] == rep["pixel_fail"] == rep["psnr_fail"] == 0

    # corrupt: copy the run dir, break one representative row
    bad = str(tmp_path / "bad_run")
    sh.copytree(run_dir, bad)
    import glob

    f = sorted(glob.glob(f"{bad}/representatives/**/*.parquet",
                         recursive=True))[0]
    t = pq.read_table(f)
    cap = t["caption"].to_pylist()
    cap[0] = cap[0] + " CORRUPTED"
    byts = t["bytes"].to_pylist()
    # XOR-flip MID-payload bytes: tail bytes can be container padding the
    # decoder ignores (pixel-identical is correctly a PASS), but mid-stream
    # corruption either errors or changes pixels — counted either way
    mid = len(byts[1]) // 2
    byts[1] = (byts[1][:mid]
               + bytes(b ^ 0xFF for b in byts[1][mid:mid + 4])
               + byts[1][mid + 4:])
    t = t.set_column(t.schema.get_field_index("caption"), "caption",
                     pa.array(cap, pa.string()))
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                     pa.array(byts, pa.binary()))
    pq.write_table(t, f)

    rep2 = validate_run(f"{tiny_fixture}/data", bad)
    assert not rep2["ok"]
    assert rep2["caption_fail"] >= 1

    # a TRUNCATED payload (undecodable) must count as a pixel failure, not
    # abort the distributed audit
    f2 = sorted(glob.glob(f"{bad}/representatives/**/*.parquet",
                          recursive=True))[0]
    t2 = pq.read_table(f2)
    byts2 = t2["bytes"].to_pylist()
    byts2[2] = byts2[2][: max(1, len(byts2[2]) // 3)]
    t2 = t2.set_column(t2.schema.get_field_index("bytes"), "bytes",
                       pa.array(byts2, pa.binary()))
    pq.write_table(t2, f2)
    rep3 = validate_run(f"{tiny_fixture}/data", bad)
    assert not rep3["ok"] and rep3["pixel_fail"] >= 2

    # a mismatched --input (disjoint ids) must FAIL via the coverage check,
    # never audit vacuously green or crash on the empty join
    import pyarrow.dataset as pads2

    files = sorted(glob.glob(f"{tiny_fixture}/data/*.parquet"))
    t3 = pads2.dataset(files).to_table()
    ids = [f"zz_{x}" for x in t3["image_id"].to_pylist()]
    t3 = t3.set_column(t3.schema.get_field_index("image_id"), "image_id",
                       pa.array(ids, pa.string()))
    wrong = str(tmp_path / "wrong_input")
    os.makedirs(wrong)
    pq.write_table(t3, f"{wrong}/part-0.parquet")
    rep4 = validate_run(wrong, run_dir, sample=50)
    assert not rep4["ok"]
    assert rep4["missing"] == rep4["expected"] == 50 and rep4["n"] == 0


def test_tier_funnel_deterministic_across_partitioning(tiny_fixture,
                                                       ray_session):
    """The funnel's per-tier counts must be identical at different partition
    counts (min-id representative election, never 'first seen')."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.image_dedup import tier_dedup_report
    from deduplication_ray.sources import storage

    reps = []
    for npart in (4, 16):
        ds = storage.read_table(f"{tiny_fixture}/data")
        rep = tier_dedup_report(ds, DedupConfig(num_partitions=npart))
        reps.append(rep.reset_index(drop=True))
    pd.testing.assert_frame_equal(reps[0], reps[1])


def test_image_pipeline_recall_with_oph_signatures(tiny_fixture, ray_session):
    """The FLAGSHIP image pipeline holds the north-rule recall gate with
    one-permutation-hashing caption signatures (`signature_mode='oph'`) —
    the pixel channels are untouched, the caption channel feeds the same
    banding/verify, so quality must not regress."""
    import shutil

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.evaluate import pair_metrics

    run_dir = "/tmp/dedup_ray_test_run_oph"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = DedupConfig(num_partitions=4, signature_mode="oph")
    image_dedup.run_pipeline(f"{tiny_fixture}/data", run_dir, cfg)
    pred = load_parquet_dir(f"{run_dir}/clusters")
    m = pair_metrics(pred, _truth(tiny_fixture))
    assert m["recall"] >= 0.99, m
    assert m["precision"] >= 0.99, m
    shutil.rmtree(run_dir, ignore_errors=True)


def test_modality_agreement_report(tiny_fixture, ray_session):
    """Pixel-only vs caption-only clusterings of the planted fixture must
    substantially agree (duplicate families are planted in BOTH modalities)
    while neither side drops ids; ARI is exact-rational micro units."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.image_dedup import modality_agreement
    from deduplication_ray.sources import storage

    df = modality_agreement(
        storage.read_table(f"{tiny_fixture}/data"),
        DedupConfig(num_partitions=4))
    r = df.iloc[0]
    assert r["only_a"] == 0 and r["only_b"] == 0
    assert r["pairs_agree"] > 0
    assert r["pairs_agree"] <= min(r["pairs_a"], r["pairs_b"])
    assert -1_000_000 <= r["ari_micro"] <= 1_000_000
    # planted dup families are cross-modal: the channels must mostly agree
    assert r["ari_micro"] >= 400_000


def test_keep_best_representatives_serial_parity(tiny_run, tiny_fixture,
                                                 ray_session):
    """Distributed keep-best election == serial pandas argmax with the same
    (px desc, id asc) order, on the session's finished tiny run."""
    import pandas as pd

    from deduplication_ray.pipelines.image_dedup import \
        keep_best_representatives
    from deduplication_ray.sources import storage

    run_dir, cfg, _ = tiny_run
    clusters = storage.read_table(f"{run_dir}/clusters")
    meta = storage.read_table(f"{tiny_fixture}/data",
                              columns=["image_id", "w", "h"])
    got = keep_best_representatives(clusters, meta, cfg).to_pandas() \
        .sort_values("cluster_id").reset_index(drop=True)

    cl = clusters.to_pandas().merge(meta.to_pandas(), on="image_id")
    cl["px"] = cl["w"].astype("int64") * cl["h"].astype("int64")
    cl = cl.sort_values(["cluster_id", "px", "image_id"],
                        ascending=[True, False, True])
    want = cl.groupby("cluster_id", sort=True).agg(
        best_id=("image_id", "first"), best_px=("px", "first"),
        n_members=("image_id", "size")).reset_index()

    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got[["cluster_id", "best_id", "best_px", "n_members"]],
        want[["cluster_id", "best_id", "best_px", "n_members"]],
        check_dtype=False)
    # the election is quality-aware: on the planted fixture at least one
    # cluster's best member is NOT the min-id representative
    mins = cl.groupby("cluster_id")["image_id"].min()
    assert (got.set_index("cluster_id")["best_id"] != mins).any()


def test_cluster_density_serial_parity(tiny_run, ray_session):
    """Distributed per-cluster density report == serial pandas recompute
    from the run's own verified_edges + clusters checkpoints; density is
    a valid fraction (0, 1000] and every pair-verified 2-cluster is a
    clique."""
    from deduplication_ray.pipelines.evaluate import cluster_density_report
    from deduplication_ray.sources import storage

    run_dir, cfg, _ = tiny_run
    got = cluster_density_report(run_dir, cfg).to_pandas() \
        .sort_values("cluster_id").reset_index(drop=True)

    cl = storage.read_table(f"{run_dir}/clusters").to_pandas()
    ed = storage.read_table(f"{run_dir}/verified_edges").to_pandas()
    lab = cl.set_index("image_id")["cluster_id"]
    ec = ed.assign(cluster_id=ed["src"].map(lab)) \
        .groupby("cluster_id").size()
    mc = cl.groupby("cluster_id").size()
    want = (
        mc[mc >= 2].rename("n_members").to_frame()
        .join(ec.rename("n_edges")).fillna(0).astype("int64")
        .reset_index())
    want["density_milli"] = (2 * want["n_edges"] * 1000
                             // (want["n_members"] * (want["n_members"] - 1)))
    want = want.sort_values("cluster_id").reset_index(drop=True)

    import pandas as pd
    pd.testing.assert_frame_equal(
        got[["cluster_id", "n_members", "n_edges", "density_milli"]],
        want[["cluster_id", "n_members", "n_edges", "density_milli"]],
        check_dtype=False)
    assert ((got["density_milli"] > 0) & (got["density_milli"] <= 1000)).all()
    two = got[got["n_members"] == 2]
    assert (two["density_milli"] == 1000).all()


def test_keep_sharpest_prefers_sharp_original(ray_session):
    """The sharpness election picks the crisp ORIGINAL over its box-blurred
    2x UPSCALE — exactly the case the pixel-area election gets wrong (the
    upscale has 4x the pixels) — and ties on exact copies break to the
    smaller id."""
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.functions import codecs as C
    from deduplication_ray.pipelines.image_dedup import (
        keep_best_representatives, keep_sharpest_representatives)

    rng = np.random.default_rng(5)
    rows, cl_rows = [], []

    def add(iid: str, img: np.ndarray, cluster: str):
        rows.append({
            "image_id": iid, "bytes": C.encode_image(img, "raw"),
            "w": np.int32(img.shape[1]), "h": np.int32(img.shape[0]),
            "fmt": "raw", "caption": "c", "phash": np.int64(0),
        })
        cl_rows.append({"image_id": iid, "cluster_id": cluster})

    for k in range(4):
        base = rng.integers(0, 255, (40, 40, 3)).astype(np.uint8)
        # blurred 2x upscale: nearest-neighbor enlarge then two box passes
        up = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1).astype(np.float32)
        for _ in range(2):
            up[1:-1, 1:-1] = (up[:-2, 1:-1] + up[2:, 1:-1] + up[1:-1, :-2]
                              + up[1:-1, 2:] + up[1:-1, 1:-1]) / 5
        add(f"cl{k}_a_orig", base, f"cl{k}_a_orig")
        add(f"cl{k}_b_blurup", up.astype(np.uint8), f"cl{k}_a_orig")

    import pandas as pd
    cfg = DedupConfig(num_partitions=4)
    inp = ray.data.from_pandas(pd.DataFrame(rows))
    clusters = ray.data.from_pandas(pd.DataFrame(cl_rows))

    sharp = keep_sharpest_representatives(clusters, inp, cfg).to_pandas()
    assert len(sharp) == 4
    assert sharp["best_id"].str.endswith("_a_orig").all()
    assert (sharp["n_members"] == 2).all()

    # the area election demonstrably keeps the blurry upscale instead
    area = keep_best_representatives(
        clusters, inp.select_columns(["image_id", "w", "h"]), cfg).to_pandas()
    assert area["best_id"].str.endswith("_b_blurup").all()
