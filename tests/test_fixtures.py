"""Fixture generator: determinism, planted-structure integrity, metamorphic
properties (permutation invariance of clustering)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from deduplication_ray.sources import fixtures as F
from tests.conftest import load_parquet_dir


def test_plan_deterministic():
    s1, t1 = F.plan_rows(500, 42)
    s2, t2 = F.plan_rows(500, 42)
    pd.testing.assert_frame_equal(s1, s2)
    pd.testing.assert_frame_equal(t1, t2)
    s3, _ = F.plan_rows(500, 43)
    assert not s1.equals(s3)


def test_plan_populations():
    spec, truth = F.plan_rows(2000, 42)
    counts = spec["kind"].value_counts()
    assert counts["exact"] == 300
    assert abs(counts["near_img"] - 160) <= 2
    assert counts["hot"] == 40
    # hot rows form ONE truth cluster
    hot_ids = spec[spec.kind == "hot"]["image_id"]
    hot_clusters = truth[truth.image_id.isin(hot_ids)]["cluster_id"].nunique()
    assert hot_clusters == 1
    # cluster id is the min image_id of the cluster
    g = truth.groupby("cluster_id")["image_id"].min()
    assert (g.index == g.values).all()


def test_render_deterministic_and_valid():
    spec, _ = F.plan_rows(64, 42)
    t = pa.Table.from_pandas(spec)
    r1 = F.RenderImages()(t)
    r2 = F.RenderImages()(t)
    assert r1.equals(r2)
    # rendering a SHUFFLED spec yields identical per-row outputs
    perm = np.random.default_rng(0).permutation(len(spec))
    r3 = F.RenderImages()(pa.Table.from_pandas(spec.iloc[perm].reset_index(drop=True)))
    d1 = r1.to_pandas().set_index("image_id").sort_index()
    d3 = r3.to_pandas().set_index("image_id").sort_index()
    assert (d1["phash"] == d3["phash"]).all()
    assert (d1["bytes"] == d3["bytes"]).all()


def test_permutation_metamorphic_clusters(ray_session, tiny_fixture, tmp_path):
    """Shuffling input row order must not change cluster partitions."""
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.incremental import engine_clusters

    cfg = DedupConfig(num_partitions=4)
    base = load_parquet_dir(f"{tiny_fixture}/data").head(300)
    shuffled = base.sample(frac=1.0, random_state=7).reset_index(drop=True)

    def clusters_of(df: pd.DataFrame) -> pd.Series:
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(4)
        out = engine_clusters("image", ds, cfg).to_pandas()
        return out.sort_values("image_id").set_index("image_id")["cluster_id"]

    c1 = clusters_of(base)
    c2 = clusters_of(shuffled)
    assert (c1 == c2).all()


def test_read_table_csv_and_json_sources(ray_session, tmp_path):
    """The storage facade reads CSV and JSONL tables interchangeably with
    Parquet — same rows through a real pipeline op."""
    import duckdb
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.docops import q_doc_stats
    from deduplication_ray.sources import storage

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    base = str(tmp_path)
    con = duckdb.connect()
    con.register("t", src)
    con.execute(f"COPY t TO '{base}/documents.csv' (HEADER)")
    con.execute(f"COPY t TO '{base}/documents.jsonl' (FORMAT JSON)")

    ref = q_doc_stats("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    for ext in ("csv", "jsonl"):
        d = str(tmp_path / ext)
        import os
        os.makedirs(d)
        os.rename(f"{base}/documents.{ext}", f"{d}/documents.{ext}")
        ds = storage.read_table(f"{d}/documents.{ext}",
                                columns=["doc_id", "text"])
        got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(got) == len(ref)
        assert list(got.columns) == ["doc_id", "text"]


def test_read_table_filter_kwarg_all_formats(ray_session, tmp_path):
    """The `filter=` pushdown kwarg works for parquet (scan-level) AND for
    CSV/JSON (applied post-read), including predicates on non-projected
    columns — format interchangeability holds for filtered reads."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from deduplication_ray.sources import storage

    src_path = "/root/testdata/sf0.001/documents.parquet"
    src = pq.read_table(src_path)
    expected = sorted(r["doc_id"] for r in src.to_pylist() if r["doc_id"] > 250)
    base = str(tmp_path)
    con = duckdb.connect()
    con.register("t", src)
    con.execute(f"COPY t TO '{base}/documents.csv' (HEADER)")
    con.execute(f"COPY t TO '{base}/documents.jsonl' (FORMAT JSON)")
    for path in (src_path, f"{base}/documents.csv", f"{base}/documents.jsonl"):
        ds = storage.read_table(path, columns=["doc_id"],
                                filter=(pc.field("doc_id") > 250))
        got = sorted(ds.to_pandas()["doc_id"].tolist())
        assert got == expected, path


def test_plan_text_rows_planted_structure():
    """Text fixture invariants: exact copies are byte-identical; near
    copies differ in at most 3 tokens; substring copies embed a 40-token
    verbatim run of their root; truth roots are min ids (generation
    order); every requested row exists exactly once."""
    from deduplication_ray.sources.fixtures import plan_text_rows

    for seed in (1, 42):
        docs, truth = plan_text_rows(900, seed=seed)
        assert len(docs) == len(truth) == 900
        assert docs["doc_id"].is_unique
        by_id = docs.set_index("doc_id")["text"]
        fam = truth[truth["doc_id"] != truth["cluster_id"]]
        assert len(fam) > 0
        for did, root in zip(fam["doc_id"], fam["cluster_id"]):
            a = by_id[did].split()
            b = by_id[root].split()
            # exact (0 diffs) / near (<=3 substitutions, same length) ...
            near = (len(a) == len(b)
                    and sum(x != y for x, y in zip(a, b)) <= 3)
            # ... or substring: a 40-token verbatim run of the root
            # (lengths can coincide across families, so test the OR)
            joined = " ".join(a)
            substr = any(" ".join(b[i:i + 40]) in joined
                         for i in range(0, max(1, len(b) - 39)))
            assert near or substr, (did, root)
        # min-id root convention
        roots = truth.groupby("cluster_id")["doc_id"].min()
        assert (roots.index == roots.values).all()
