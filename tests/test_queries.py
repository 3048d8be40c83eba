"""Driver-contract conformance: queries() vs oracle_sql() via DuckDB at
sf0.001 (small + fast; the driver itself runs sf0.01)."""

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype(str)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * "
                  f"FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(res):
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)


# every oracle-backed query gets a value-hash check — derived from the
# registry itself so a new oracle entry can never silently skip testing
def _sql_checked():
    import __ray_entry__ as _E

    return sorted(_E.oracle_sql())


SQL_CHECKED = _sql_checked()


def test_shuffle_join_full_outer_semantics(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deduplication_ray.stages.join import shuffle_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 5], pa.int64()),
        "a": pa.array(["l1", "l2", "l3", "l5"]),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3, 4], pa.int64()),
        "b": pa.array([20, 30, 40], pa.int64()),
    }))
    out = shuffle_join(left, right, on=["k"], how="full outer",
                       num_buckets=4).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert list(out["k"]) == [1, 2, 3, 4, 5]
    assert list(out["a"].fillna("")) == ["l1", "l2", "l3", "", "l5"]
    assert list(np.nan_to_num(out["b"].to_numpy(), nan=0).astype(int)) == \
        [0, 20, 30, 40, 0]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(name, entry_mod, con):
    qs, oq = entry_mod.queries(), entry_mod.oracle_sql()
    mine = _canon(_to_pandas(qs[name](SF_DIR)))
    oracle = _canon(con.execute(oq[name]).fetchdf())
    assert list(mine.columns) == list(oracle.columns)
    assert len(mine) == len(oracle)
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)


# oracle-backed queries whose keyed exchange finishes a per-batch combiner
# ann_topk and knn_label_check read with batch_size=2048/4096, which merges
# the scattered blocks of the 500-row embeddings table back into one batch:
# they run here, but their keys do not span batches in this test.
_KEYED_ORACLE_QUERIES = [
    "source_cap_sample", "doc_token_budget_mix", "doc_upsert",
    "doc_apply_changelog", "ann_topk", "knn_label_check",
    "distinct_orders_per_flag_hll", "edit_distance_pairs",
    "doc_ppjoin_pairs", "doc_weighted_ppjoin_pairs",
]


def test_keyed_queries_match_oracle_across_blocks(entry_mod, con,
                                                  monkeypatch):
    """Every testdata table is one parquet row group, so the oracle test
    above sees each key in one block, where a per-batch combiner alone is
    already the answer. Here every table read arrives as 16 blocks in
    shuffled row order: a key spans blocks, and only a combiner finished
    by its keyed exchange still matches the oracle. The two ann queries
    re-batch their blocks into one (see ``_KEYED_ORACLE_QUERIES``), so
    for them this is an oracle check only."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from deduplication_ray.sources import storage

    def scattered(path, columns=None, filter=None):
        t = pq.read_table(path, columns=columns, filters=filter)
        t = t.take(np.random.default_rng(7).permutation(t.num_rows))
        return ray.data.from_arrow(
            [t.take(ix) for ix in np.array_split(np.arange(t.num_rows), 16)])

    assert scattered(f"{SF_DIR}/documents.parquet").num_blocks() == 16
    monkeypatch.setattr(storage, "read_table", scattered)
    qs, oq = entry_mod.queries(), entry_mod.oracle_sql()
    for name in _KEYED_ORACLE_QUERIES:
        mine = _canon(_to_pandas(qs[name](SF_DIR)))
        oracle = _canon(con.execute(oq[name]).fetchdf())
        assert list(mine.columns) == list(oracle.columns), name
        assert len(mine) == len(oracle), name
        pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                      obj=name)


def test_ngram_jaccard_lsh_path_matches_exact(ray_session):
    """The sub-linear LSH candidate path (exact_limit=0) must score every
    surviving pair IDENTICALLY to the all-pairs path — exercises the
    zero-copy flat-u64 verify over blobs that crossed lookup_join."""
    from deduplication_ray.pipelines import docops

    exact = _to_pandas(docops.q_ngram_jaccard_pairs(SF_DIR)) \
        .sort_values(["src", "dst"]).reset_index(drop=True)
    lsh = _to_pandas(docops.q_ngram_jaccard_pairs(SF_DIR, exact_limit=0)) \
        .sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, lsh, check_dtype=False)


def test_containment_scale_path_recall(ray_session):
    """The containment scale path (MinHash bands + substring rendezvous +
    consistent gram sampling) must recover the exact all-pairs result on the
    test corpus with no spurious pairs (every candidate is exactly
    verified)."""
    from deduplication_ray.pipelines import docops

    exact = _to_pandas(docops.q_ngram_containment_pairs(SF_DIR))
    scale = _to_pandas(docops.q_ngram_jaccard_pairs(
        SF_DIR, exact_limit=0, metric="containment", tau=0.7))
    e = set(zip(exact["src"], exact["dst"]))
    s = set(zip(scale["src"], scale["dst"]))
    assert not (s - e), "scale path produced unverified spurious pairs"
    assert len(e & s) / max(len(e), 1) >= 0.95, (len(e & s), len(e))


def test_gram_sample_hot_buckets_dropped(ray_session):
    """A stopword-gram bucket (DF above gram_sample_drop_df) must be DROPPED
    from the gram-sample family, not star-salted into bucket-size candidate
    edges; a rare-gram bucket must still pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages import lsh, verify

    n = 50
    rows = {"band": [], "bucket": [], "image_id": [], "ph": [], "sh": []}
    for i in range(n):  # every doc shares the stopword gram (bucket 7)
        rows["band"].append(lsh.BAND_GRAM_SAMPLE)
        rows["bucket"].append(7)
        rows["image_id"].append(f"d{i:03d}")
        rows["ph"].append(0)
        rows["sh"].append(0)
    for i in (1, 2):  # two docs share a rare gram (bucket 99)
        rows["band"].append(lsh.BAND_GRAM_SAMPLE)
        rows["bucket"].append(99)
        rows["image_id"].append(f"d{i:03d}")
        rows["ph"].append(0)
        rows["sh"].append(0)
    buckets = ray.data.from_arrow(pa.table({
        k: pa.array(v, pa.int64() if k != "image_id" else pa.string())
        for k, v in rows.items()}))
    cfg = DedupConfig(num_partitions=2, gram_sample_drop_df=10)
    sigs = ray.data.from_arrow(pa.table({
        "image_id": pa.array(sorted(set(rows["image_id"])))}))
    edges = verify.pair_and_verify(
        buckets, verify.signature_index(sigs, cfg), cfg,
        accept=verify.keep_all).to_pandas()
    pairs = {tuple(sorted(p)) for p in zip(edges["src"], edges["dst"])}
    assert pairs == {("d001", "d002")}, pairs


def test_registry_ordering_contract(entry_mod):
    """The driver scores the FIRST 50 registered queries: every one of those
    must be oracle-backed (a rows-only entry inside the window wastes a green
    slot), and every oracle key must resolve to a registered query."""
    qs, oq = list(entry_mod.queries()), entry_mod.oracle_sql()
    assert len(qs) >= 50
    assert [n for n in qs[:50] if n not in oq] == []
    assert [n for n in oq if n not in entry_mod.queries()] == []
    # rows-only entries all sit AFTER every oracle-backed entry
    first_rows_only = next(i for i, n in enumerate(qs) if n not in oq)
    assert all(n not in oq for n in qs[first_rows_only:])


def test_round5_window_rotation(entry_mod):
    """Round-5 rotation contract: the scored window (first 50) is exactly
    _R5_WINDOW and is disjoint from the round-1..4 driver window, so the
    driver-signed artifacts cumulatively cover 100 distinct queries."""
    import json
    import os

    qs = list(entry_mod.queries())
    assert tuple(qs[:50]) == entry_mod._R5_WINDOW
    assert len(set(entry_mod._R5_WINDOW)) == 50
    r04 = os.path.join(os.path.dirname(entry_mod.__file__),
                       "CORRECTNESS_r04.json")
    if os.path.exists(r04):  # repo checkout; absent in a bare install
        with open(r04) as f:
            prior = set(json.load(f))
        assert not prior & set(entry_mod._R5_WINDOW)


def test_rows_only_queries_execute(entry_mod):
    qs, oq = entry_mod.queries(), entry_mod.oracle_sql()
    rows_only = [n for n in qs if n not in oq]
    assert rows_only  # there are non-SQL-expressible ops
    # image_dedup_clusters (full image pipeline, covered by test_pipeline) and
    # doc_lsh_dedup (same engine as entry(), covered below) excluded for time
    for name in ("doc_simhash_pairs", "doc_langid", "doc_quality", "doc_langid",
                 "doc_fingerprints", "embedding_dup_pairs"):
        df = _to_pandas(qs[name](SF_DIR))
        # embedding_dup_pairs legitimately finds 0 pairs in the random corpus
        assert len(df.columns) >= 1 or len(df) == 0


def test_model_score_matches_serial_and_partition_invariant(ray_session):
    """The inference stage — as tasks, and as an actor pool in the explicit
    ``concurrency`` leg — must emit EXACTLY what one serial
    pass over the whole table emits (construct-once weights, per-row
    reduceat — nothing may depend on batch composition), at any partition
    count, and the labels must be non-degenerate."""
    import pyarrow.parquet as pq
    import ray.data

    from deduplication_ray.pipelines.docops import (_DocClassifier,
                                                    q_doc_model_score)

    tbl = pq.read_table(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"])
    serial = _canon(_DocClassifier(seed=42)(tbl).to_pandas())

    dist = _canon(_to_pandas(q_doc_model_score(SF_DIR)))
    pd.testing.assert_frame_equal(dist, serial, check_dtype=False)

    repart = ray.data.from_arrow(tbl).repartition(7).map_batches(
        _DocClassifier, fn_constructor_kwargs={"seed": 42},
        batch_format="pyarrow", batch_size=64, concurrency=(1, 2))
    pd.testing.assert_frame_equal(_canon(_to_pandas(repart)), serial,
                                  check_dtype=False)
    assert serial["label"].nunique() >= 2  # scorer is not vacuous


def test_entry_runs(entry_mod):
    r = entry_mod.entry()
    df = _to_pandas(r)
    assert len(df) == 500
    assert set(df.columns) == {"doc_id", "cluster_id"}


def test_hll_distinct_within_error_bound(entry_mod, con):
    from deduplication_ray.pipelines.relational import q_distinct_orderkeys_hll

    est = q_distinct_orderkeys_hll(SF_DIR).to_pandas()["distinct_est"].iloc[0]
    exact = con.execute("SELECT count(DISTINCT l_orderkey) FROM lineitem").fetchone()[0]
    assert abs(est - exact) / exact < 0.03, (est, exact)


def test_hll_merge_order_invariant():
    import numpy as np

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    h = H.splitmix64(np.arange(100_000, dtype=np.uint64))
    whole = SK.hll_update(SK.hll_init(), h.copy())
    parts = [SK.hll_update(SK.hll_init(), c.copy()) for c in np.array_split(h, 7)]
    merged = parts[0]
    for q in parts[1:][::-1]:
        merged = SK.hll_merge(merged, q)
    assert (merged == whole).all()
    est = SK.hll_estimate(whole)
    assert abs(est - 100_000) / 100_000 < 0.02, est


def test_kmv_merge_invariance_and_estimates():
    """KMV bottom-k: merge is order/partition-invariant; distinct-count,
    Jaccard and intersection estimates land within the 4.5-sigma bounds the
    verdict query relies on."""
    import numpy as np

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    k = 1024
    a_keys = np.arange(0, 30_000, dtype=np.uint64)
    b_keys = np.arange(18_000, 48_000, dtype=np.uint64)  # overlap 12k
    ha, hb = H.splitmix64(a_keys), H.splitmix64(b_keys)
    a = SK.kmv_update(np.empty(0, np.uint64), ha, k)
    parts = [SK.kmv_update(np.empty(0, np.uint64), c, k)
             for c in np.array_split(ha, 5)]
    merged = parts[2]
    for p in (parts[0], parts[4], parts[1], parts[3]):
        merged = SK.kmv_merge(merged, p, k)
    assert (merged == a).all()

    b = SK.kmv_update(np.empty(0, np.uint64), hb, k)
    est_a = SK.kmv_estimate(a, k)
    assert abs(est_a - 30_000) / 30_000 < 4.5 / np.sqrt(k)
    j = SK.kmv_jaccard(a, b, k)
    true_j = 12_000 / 48_000
    assert abs(j - true_j) <= 4.5 * np.sqrt(true_j * (1 - true_j) / k)
    union_est = SK.kmv_estimate(SK.kmv_merge(a, b, k), k)
    inter_est = j * union_est
    bound = 4.5 * (np.sqrt(j * (1 - j) / k) + 1 / np.sqrt(k)) * 48_000
    assert abs(inter_est - 12_000) <= bound
    # below-k sets are EXACT
    tiny = SK.kmv_update(np.empty(0, np.uint64), H.splitmix64(
        np.arange(100, dtype=np.uint64)), k)
    assert SK.kmv_estimate(tiny, k) == 100.0


def test_doc_dedup_keep_best_quality(entry_mod, con):
    """Every cluster keeps its highest-quality member (tie -> min doc_id);
    kept ids cover exactly the cluster set of the plain dedup."""
    import pandas as pd

    qs = entry_mod.queries()
    best = _to_pandas(qs["doc_dedup_keep_best"](SF_DIR))
    plain = _to_pandas(qs["doc_lsh_dedup"](SF_DIR))
    plain["doc_id"] = plain["doc_id"].astype("int64")
    plain["cluster_id"] = plain["cluster_id"].astype("int64")
    assert set(best["cluster_id"]) == set(plain["cluster_id"].unique())
    # kept doc belongs to its own cluster
    merged = best.merge(plain, left_on="kept_doc_id", right_on="doc_id")
    assert (merged["cluster_id_x"] == merged["cluster_id_y"]).all()
    # quality is the cluster max (recompute via the SQL quality oracle)
    qual = con.execute(entry_mod.oracle_sql()["doc_quality"]).fetchdf()
    j = plain.merge(qual, on="doc_id").merge(best, on="cluster_id")
    cluster_max = j.groupby("cluster_id")["quality_milli"].max()
    got = best.set_index("cluster_id")["kept_quality_milli"]
    pd.testing.assert_series_equal(
        got.sort_index(), cluster_max.sort_index(),
        check_names=False, check_dtype=False)


def test_global_shuffle_partition_invariant(entry_mod, ray_session):
    """zipWithIndex positions are identical under different partitioning."""
    from deduplication_ray.pipelines.docops import q_doc_global_shuffle

    a = _to_pandas(q_doc_global_shuffle(SF_DIR)).sort_values("doc_id")
    import ray.data

    # same op over a repartitioned copy of the table
    from deduplication_ray.sources import storage
    import os, shutil

    d = "/tmp/dedup_ray_shufrepart"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    storage.read_table(f"{SF_DIR}/documents.parquet").repartition(13) \
        .write_parquet(d)
    b = _to_pandas(q_doc_global_shuffle_over(d)).sort_values("doc_id")
    assert (a["shuffle_pos"].to_numpy() == b["shuffle_pos"].to_numpy()).all()


def q_doc_global_shuffle_over(table_dir: str):
    import os
    import shutil

    # point the op at a directory-shaped documents table
    tmp_sf = "/tmp/dedup_ray_shufsf"
    shutil.rmtree(tmp_sf, ignore_errors=True)
    os.makedirs(tmp_sf)
    os.symlink(table_dir, f"{tmp_sf}/documents.parquet")
    from deduplication_ray.pipelines.docops import q_doc_global_shuffle

    return q_doc_global_shuffle(tmp_sf)


def test_shuffle_join_single_hot_key(ray_session):
    """Degenerate skew: every row shares ONE join key — the join must still
    complete and produce the full cross product within that key's bucket
    (documents the 'salt upstream if one key dominates' caveat: correctness
    holds, the bucket just does the work serially)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deduplication_ray.stages.join import shuffle_join

    n = 300
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.zeros(n, np.int64)),
        "a": pa.array(np.arange(n, dtype=np.int64)),
    })).repartition(8)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.zeros(n, np.int64)),
        "b": pa.array(np.arange(n, dtype=np.int64)),
    })).repartition(8)
    out = shuffle_join(left, right, on=["k"], how="inner", num_buckets=16)
    assert out.count() == n * n


def test_doc_redact_pii_on_planted_pii(ray_session, tmp_path):
    """Non-vacuous redaction check: plant real PII-shaped strings in a
    synthetic documents table and assert Ray and the DuckDB oracle agree
    AND actually redact (the sf fixtures contain no PII, so the corpus
    check alone would pass even with a broken oracle regex)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E
    from deduplication_ray.pipelines.docops import q_doc_redact_pii

    rows = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "contact jane.doe+x@example.co.uk for details",
            "call 555-123-4567 or 555.987.6543 now",
            "card 12345678901234567 on file",
            "clean text with no pii at all",
        ]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([10] * 4, pa.int64()),
    })
    d = str(tmp_path / "pii_sf")
    import os

    os.makedirs(d)
    pq.write_table(rows, f"{d}/documents.parquet")

    mine = (q_doc_redact_pii(d).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{d}/documents.parquet')")
    oracle = (con.execute(E.oracle_sql()["doc_redact_pii"]).fetchdf()
              .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)
    assert "<EMAIL>" in mine["clean_text"][0]
    assert mine["clean_text"][1].count("<PHONE>") == 2
    assert "<LONGNUM>" in mine["clean_text"][2]
    assert list(mine["n_redactions"]) == [1, 2, 1, 0]


def test_source_overlap_matrix_pair_direction(ray_session, tmp_path):
    """Pairs must be directed by SOURCE STRING order (src_a < src_b) even
    when sources first APPEAR in reverse order: dictionary_encode assigns
    codes by first appearance, so pairing by raw code would emit
    ('zeta','alpha') rows that split/flip intersection keys vs the
    oracle's a.source < b.source join (regression for the Arrow rewrite
    of pair_part)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.docops import (
        Q_SOURCE_OVERLAP_MATRIX_SQL, q_source_overlap_matrix)

    rows = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        # 'zeta' appears before 'alpha' in every batch
        "source": pa.array(["zeta.example", "zeta.example",
                            "alpha.example", "mid.example"]),
        "text": pa.array(["shared tokens one two", "zeta only words",
                          "shared tokens one two", "shared tokens extra"]),
    })
    d = str(tmp_path / "overlap_sf")
    os.makedirs(d)
    pq.write_table(rows, f"{d}/documents.parquet")

    mine = (q_source_overlap_matrix(d).to_pandas()
            .sort_values(["src_a", "src_b"]).reset_index(drop=True))
    assert (mine["src_a"] < mine["src_b"]).all()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{d}/documents.parquet')")
    oracle = (con.execute(Q_SOURCE_OVERLAP_MATRIX_SQL).fetchdf()
              .sort_values(["src_a", "src_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)


def test_pack_sequences_invariants(entry_mod, ray_session):
    """Packing manifest conservation laws: (1) per-doc token spans sum to
    the doc's token count (nothing lost or duplicated at sequence cuts);
    (2) every sequence except the last is exactly full; (3) positions are
    partition-invariant (same manifest over a 13-part repartitioned copy)."""
    import numpy as np

    from deduplication_ray.pipelines.docops import q_doc_pack_sequences

    L = 128
    df = _to_pandas(q_doc_pack_sequences(SF_DIR, seq_len=L))
    per_seq = df.groupby("seq_id")["seq_tokens"].sum()
    assert (per_seq.iloc[:-1] == L).all()
    assert 0 < per_seq.iloc[-1] <= L
    # doc totals match an independent count
    import duckdb

    exp = duckdb.sql(
        "SELECT doc_id, CAST(length(string_split_regex(lower(trim(text)),"
        " '\\s+')) AS BIGINT) AS n FROM "
        f"read_parquet('{SF_DIR}/documents.parquet') ORDER BY doc_id"
    ).fetchdf()
    got = df.groupby("doc_id")["seq_tokens"].sum().sort_index()
    assert (got.to_numpy() == exp["n"].to_numpy()).all()

    # partition invariance through the two-pass prefix sum
    import os
    import shutil

    from deduplication_ray.sources import storage

    d = "/tmp/dedup_ray_packrepart"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    storage.read_table(f"{SF_DIR}/documents.parquet").repartition(13) \
        .write_parquet(d)
    tmp_sf = "/tmp/dedup_ray_packsf"
    shutil.rmtree(tmp_sf, ignore_errors=True)
    os.makedirs(tmp_sf)
    os.symlink(d, f"{tmp_sf}/documents.parquet")
    df2 = _to_pandas(q_doc_pack_sequences(tmp_sf, seq_len=L))
    key = ["doc_id", "seq_id"]
    a = df.sort_values(key).reset_index(drop=True)
    b = df2.sort_values(key).reset_index(drop=True)
    assert (a[["seq_tokens", "start_in_seq"]].to_numpy()
            == b[["seq_tokens", "start_in_seq"]].to_numpy()).all()


def test_grouped_hll_within_error_bound(entry_mod, con):
    from deduplication_ray.pipelines.relational import (
        q_distinct_orders_per_flag_hll)

    got = q_distinct_orders_per_flag_hll(SF_DIR).to_pandas() \
        .set_index("l_returnflag")["distinct_est"]
    exact = con.execute(
        "SELECT l_returnflag, count(DISTINCT l_orderkey) AS n "
        "FROM lineitem GROUP BY l_returnflag").fetchdf() \
        .set_index("l_returnflag")["n"]
    assert set(got.index) == set(exact.index)
    for f in exact.index:
        assert abs(got[f] - exact[f]) / exact[f] < 0.03, (f, got[f], exact[f])


def test_weighted_sample_is_length_biased(entry_mod, con):
    """pps semantics: with w = doc length, the sampled docs' mean length must
    exceed the corpus mean (deterministic given the fixed seed constants)."""
    from deduplication_ray.pipelines.docops import q_doc_weighted_sample

    got = q_doc_weighted_sample(SF_DIR, k=100)
    ids = got.to_pandas()["doc_id"].tolist()
    assert len(ids) == 100 and len(set(ids)) == 100
    mean_all = con.execute("SELECT avg(length(text)) FROM documents").fetchone()[0]
    mean_sample = con.execute(
        "SELECT avg(length(text)) FROM documents WHERE doc_id IN "
        f"({','.join(map(str, ids))})").fetchone()[0]
    assert mean_sample > mean_all


def test_fuzzy_decontaminate_drops_planted_near_dup(ray_session):
    """A training doc that is a near-copy of an eval doc (id % 29 == 0) is
    dropped; an unrelated doc and a doc sharing only ONE gram survive (the
    one-gram case is exactly what the exact filter would over-fire on)."""
    import pyarrow as pa
    import ray

    from deduplication_ray.pipelines.docops import q_doc_fuzzy_decontaminate

    eval_text = "the quick brown fox jumps over the lazy dog again and again"
    near = eval_text + " extra"            # jaccard >> 0.5 vs eval doc
    one_gram = ("completely different content except the quick brown words "
                "nothing else lines up at all here")
    other = "unrelated text with no overlap whatsoever in any window"
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([29, 1, 2, 3], pa.int64()),
        "text": pa.array([eval_text, near, one_gram, other]),
    }))
    kept = q_doc_fuzzy_decontaminate("", ds=ds).to_pandas()["doc_id"].tolist()
    assert sorted(kept) == [2, 3]


def test_top_terms_sketch_bounds(entry_mod, con, ray_session):
    """Misra-Gries guarantees: estimates undercount by at most n/(k+1)
    (n = distinct doc-token pairs), and the exact top-10 all survive into
    the sketch's top-20."""
    from deduplication_ray.pipelines.docops import q_top_terms_sketch

    k = 200
    sk = q_top_terms_sketch(SF_DIR, k=k, top=20).to_pandas()
    exact = con.execute("""
        WITH toks AS (SELECT doc_id,
          unnest(list_distinct(string_split_regex(lower(trim(text)), '\\s+'))) AS tok
          FROM documents)
        SELECT tok, CAST(count(*) AS BIGINT) AS df FROM toks GROUP BY tok
    """).fetchdf()
    n = int(exact["df"].sum())
    bound = n / (k + 1)
    m = sk.merge(exact, on="tok", how="left").fillna(0)
    assert (m["df_est"] <= m["df"]).all()
    assert ((m["df"] - m["df_est"]) <= bound).all()
    top10 = set(exact.sort_values(["df", "tok"], ascending=[False, True])
                .head(10)["tok"])
    assert top10 <= set(sk["tok"])


def test_grouped_quantile_sketch_rank_error(entry_mod, con, ray_session):
    """Bottom-k sample quantiles: the estimate's TRUE rank must sit within
    the O(1/sqrt(k)) band around the target quantile; with k >= group size
    the sketch degenerates to exact."""
    import numpy as np

    from deduplication_ray.pipelines.relational import q_grouped_quantiles_sketch

    k = 256
    est = q_grouped_quantiles_sketch(SF_DIR, k=k)
    exact = con.execute(
        "SELECT l_returnflag, list(l_extendedprice ORDER BY l_extendedprice) v "
        "FROM lineitem GROUP BY l_returnflag").fetchdf()
    bound = 4 * np.sqrt(0.25 / k) + 0.01
    for _, r in est.iterrows():
        v = np.array(exact[exact["l_returnflag"] == r["l_returnflag"]]["v"].iloc[0])
        n = len(v)
        for q, col in ((0.50, "p50_est"), (0.90, "p90_est"), (0.99, "p99_est")):
            rank = np.searchsorted(v, r[col], side="right") / n
            assert abs(rank - q) <= bound, (r["l_returnflag"], q, rank)
    # k >= group size -> sample IS the group -> exact quantile_disc values
    full = q_grouped_quantiles_sketch(SF_DIR, k=10**7)
    ex = con.execute(
        "SELECT l_returnflag, quantile_disc(l_extendedprice, 0.5) p50 "
        "FROM lineitem GROUP BY l_returnflag").fetchdf()
    m = full.merge(ex, on="l_returnflag")
    assert (m["p50_est"] == m["p50"]).all()


def test_lookup_join_distributed_fallback_parity(ray_session, monkeypatch):
    """lookup_join with broadcast_limit=0 (forced shuffle fallback, default
    32 partitions) must equal the broadcast path, for inner, left, semi and
    anti joins, nulls included, without calling Ray's Dataset.join."""
    import dataclasses

    import pyarrow as pa
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages.join import lookup_join
    from tests.conftest import deadline

    def no_dataset_join(*args, **kwargs):
        raise AssertionError("lookup_join must not call Ray's Dataset.join")

    monkeypatch.setattr(ray.data.Dataset, "join", no_dataset_join)
    big = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 5, 7], pa.int64()),
        "a": pa.array(["x1", "x2", "x2b", "x3", "x5", "x7"]),
    })).repartition(3)
    look = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3, 4], pa.int64()),
        "b": pa.array([20, 30, 40], pa.int64()),
    }))
    cfg = DedupConfig()
    cfg0 = dataclasses.replace(cfg, broadcast_limit=0)
    for how in ("inner", "left", "semi", "anti"):
        bcast = lookup_join(big, look, on=["k"], cfg=cfg, how=how).to_pandas()
        with deadline(120):
            dist = lookup_join(big, look, on=["k"], cfg=cfg0,
                               how=how).to_pandas()
        bcast = bcast.sort_values(["k", "a"]).reset_index(drop=True)
        dist = dist[bcast.columns].sort_values(["k", "a"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(bcast, dist, check_dtype=False)


def test_sample_and_sketch_partition_invariance(ray_session):
    """Bottom-k constructions (weighted sample, quantile sketch) must give
    IDENTICAL results under any partitioning — the property that makes them
    safe on a 256-node cluster where block boundaries are arbitrary."""
    from deduplication_ray.pipelines.docops import q_doc_weighted_sample
    from deduplication_ray.pipelines.relational import q_grouped_quantiles_sketch
    from deduplication_ray.sources import storage

    base = storage.read_table(f"{SF_DIR}/documents.parquet")
    a = q_doc_weighted_sample("", k=50, ds=base).to_pandas()
    b = q_doc_weighted_sample("", k=50, ds=base.repartition(17)).to_pandas()
    assert a["doc_id"].tolist() == b["doc_id"].tolist()

    import os
    import shutil

    tmp_sf = "/tmp/dedup_ray_qsketch_repart"
    shutil.rmtree(tmp_sf, ignore_errors=True)
    os.makedirs(tmp_sf)
    storage.read_table(f"{SF_DIR}/lineitem.parquet").repartition(11) \
        .write_parquet(f"{tmp_sf}/lineitem.parquet")
    x = q_grouped_quantiles_sketch(SF_DIR, k=128)
    y = q_grouped_quantiles_sketch(tmp_sf, k=128)
    pd.testing.assert_frame_equal(
        x.sort_values("l_returnflag").reset_index(drop=True),
        y.sort_values("l_returnflag").reset_index(drop=True))


def test_lsh_bucket_stats_invariants(ray_session):
    """Per band: rows accounted exactly (every doc lands in every MinHash
    band once), percentiles ordered, over-cap count consistent with max."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.docops import q_lsh_bucket_stats
    from deduplication_ray.sources import storage

    n_docs = storage.read_table(f"{SF_DIR}/documents.parquet").count()
    df = q_lsh_bucket_stats(SF_DIR)
    cfg = DedupConfig()
    mh = df[df["band"] < cfg.bands]
    assert len(mh) == cfg.bands
    assert (mh["n_rows"] == n_docs).all()
    assert (df["p50_size"] <= df["p99_size"]).all()
    assert (df["p99_size"] <= df["max_size"]).all()
    assert ((df["max_size"] > cfg.bucket_cap) == (df["n_over_cap"] > 0)).all()


def test_bloom_filter_properties():
    """No false negatives ever; false-positive rate near the theoretical
    (1 - e^{-kn/m})^k; partial bitmaps OR-merge to the whole."""
    import numpy as np

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    n, bits_per_key, k = 20_000, 10, 7
    keys = H.splitmix64(np.arange(n, dtype=np.uint64))
    fresh = H.splitmix64(np.arange(n, n + 100_000, dtype=np.uint64))
    m = n * bits_per_key
    whole = SK.bloom_add(SK.bloom_init(m), keys, k=k)
    assert SK.bloom_might_contain(whole, keys, k=k).all()
    fpr = SK.bloom_might_contain(whole, fresh, k=k).mean()
    theory = (1 - np.exp(-k * n / m)) ** k
    assert fpr < 3 * theory, (fpr, theory)
    parts = [SK.bloom_add(SK.bloom_init(m), c, k=k)
             for c in np.array_split(keys, 5)]
    merged = parts[0]
    for p in parts[1:]:
        merged = np.bitwise_or(merged, p)
    assert (merged == whole).all()


def test_count_min_properties():
    """Count-min: estimates NEVER undercount; overcount bounded by eps*N
    (eps = e/width) for a Zipf-ish stream; per-partition partials merge by
    elementwise sum to the whole-stream sketch exactly."""
    import numpy as np

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    rng = np.random.default_rng(7)
    keys = rng.zipf(1.3, size=200_000).astype(np.uint64)  # heavy head
    h = H.splitmix64(keys)
    width, depth = 2048, 4
    whole = SK.cm_add(SK.cm_init(width, depth), h)

    uniq, exact = np.unique(h, return_counts=True)
    est = SK.cm_query(whole, uniq)
    assert (est >= exact).all()  # deterministic guarantee
    n = len(keys)
    eps_bound = np.e * n / width
    over = est - exact
    # the eps*N bound holds per-key w.p. 1 - e^-depth; with 4 rows it
    # should hold for every key here, and the 3N/width verdict bound
    # (used by term_freq_cm_check) must hold for the heavy hitters
    assert (over <= eps_bound).mean() > 0.999, over.max()
    top = np.argsort(exact)[-20:]
    assert (over[top] <= (3 * n) // width).all()

    parts = [SK.cm_add(SK.cm_init(width, depth), c)
             for c in np.array_split(h, 6)]
    merged = SK.cm_init(width, depth)
    for p in parts:
        merged += p
    assert (merged == whole).all()


def test_queries_survive_empty_tables(ray_session, tmp_path):
    """Zero-row inputs (with real schemas) must flow through representative
    operators without raising — the first failure mode of a resumed run
    whose filter killed every row of a partition."""
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines import docops, relational as R

    empty_sf = str(tmp_path / "sf_empty")
    import os

    os.makedirs(empty_sf)
    for t in TABLES:
        src = pq.read_table(f"{SF_DIR}/{t}.parquet")
        pq.write_table(src.slice(0, 0), f"{empty_sf}/{t}.parquet")

    for name, fn in [
        ("q1", R.q1_pricing_summary),
        ("filter_agg", R.q_filter_agg),
        ("semi_join", R.q_semi_join),
        ("semi_join_bloom", R.q_semi_join_bloom),
        ("grouped_quantiles_sketch", R.q_grouped_quantiles_sketch),
        ("doc_stats", docops.q_doc_stats),
        ("doc_uniform_sample", docops.q_doc_uniform_sample),
        ("doc_weighted_sample", docops.q_doc_weighted_sample),
        ("doc_token_estimate", docops.q_doc_token_estimate),
        ("doc_fuzzy_decontaminate", docops.q_doc_fuzzy_decontaminate),
        ("top_terms_sketch", docops.q_top_terms_sketch),
        ("lsh_bucket_stats", docops.q_lsh_bucket_stats),
        ("doc_lsh_dedup", docops.q_doc_lsh_dedup),  # full text engine, 0 docs
        ("doc_boilerplate_scrub", docops.q_doc_boilerplate_scrub),
    ]:
        out = fn(empty_sf)
        df = _to_pandas(out)
        assert len(df) == 0, (name, len(df))

    # report-shaped / model-shaped ops: fixed-size outputs, must not raise
    rep = docops.q_doc_tier_dedup(empty_sf)
    assert list(rep["docs_out"]) == [0, 0, 0]
    w, bias, trace = docops.train_doc_classifier(
        docops._docs(empty_sf, ["doc_id", "text"]), iters=2)
    assert trace == [] and bias == 0.0


def test_dedup_index_streaming_gate(ray_session):
    """The live index's probe_and_insert reports prior membership (the
    ingest-gate semantics no groupby can provide) and keeps min ids under
    out-of-order arrival."""
    import numpy as np

    from deduplication_ray.state.index import DedupIndexShard

    shard = DedupIndexShard.remote()
    import ray as _ray

    k1 = np.array([10, 20, 30], dtype=np.int64)
    k2 = -k1
    seen1 = _ray.get(shard.probe_and_insert.remote(k1, k2, np.array([5, 6, 7])))
    assert not seen1.any()
    # re-probe same keys with a LOWER id for key 20 and a new key
    seen2 = _ray.get(shard.probe_and_insert.remote(
        np.array([20, 40], dtype=np.int64),
        np.array([-20, -40], dtype=np.int64), np.array([2, 9])))
    assert list(seen2) == [True, False]
    dump = _ray.get(shard.dump.remote()).to_pydict()
    state = dict(zip(zip(dump["key1"], dump["key2"]), dump["id"]))
    assert state == {(10, -10): 5, (20, -20): 2, (30, -30): 7, (40, -40): 9}


def test_boilerplate_scrub_removes_planted_lines(ray_session):
    """Non-vacuity: a planted 8-word boilerplate segment shared by many docs
    must be scrubbed from EVERY document (df > cap), while each document's
    unique tail survives verbatim."""
    import ray.data

    from deduplication_ray.pipelines.docops import q_doc_boilerplate_scrub

    boiler = "subscribe to our newsletter for all cookie updates"
    rows = [{"doc_id": i,
             "text": f"{boiler} unique payload number {i} for document {i}"}
            for i in range(6)]
    rows.append({"doc_id": 99, "text": boiler})  # fully-boilerplate doc
    ds = ray.data.from_items(rows)
    out = q_doc_boilerplate_scrub("", words_per_line=8, df_cap=2, ds=ds) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (out["n_dropped"] >= 1).all()
    full = out[out["doc_id"] == 99].iloc[0]
    assert full["clean_text"] == "" and full["n_kept"] == 0
    for _, r in out[out["doc_id"] != 99].iterrows():
        assert boiler not in r["clean_text"]
        assert f"unique payload number {r['doc_id']}" in r["clean_text"]


def test_tier_dedup_funnel(ray_session):
    """Funnel invariants on a planted corpus: the exact tier collapses the
    byte-identical pair; the scrub tier drops the all-boilerplate doc; and
    two docs that differ ONLY in boilerplate chrome — invisible to exact
    dedup — become identical after the scrub and are merged by the near-dup
    tier. Attrition is monotone and the tiers chain (docs_in[t] ==
    docs_out[t-1])."""
    import ray.data

    from deduplication_ray.pipelines.docops import q_doc_tier_dedup

    b1 = "subscribe to our newsletter for all cookie updates"
    b2 = "accept cookies to continue reading this premium article"
    payload = "the actual document content both articles share here today"
    rows = [
        {"doc_id": 0, "text": f"{b1} {payload}"},          # chrome b1 + X
        {"doc_id": 1, "text": f"{b2} {payload}"},          # chrome b2 + X
        {"doc_id": 2, "text": "totally unique document two alpha"},
        {"doc_id": 3, "text": "totally unique document two alpha"},  # exact dup of 2
        {"doc_id": 4, "text": b1},                          # pure boilerplate
        # df support so b1/b2 cross df_cap=2 (tails mutually dissimilar so
        # only the planted 0/1 pair merges at the near-dup tier)
        {"doc_id": 5, "text": f"{b1} quartz penguin lattice forty governs maple river stone"},
        {"doc_id": 6, "text": f"{b2} velvet compass thunder eleven oranges drift candle spoon"},
        {"doc_id": 7, "text": f"{b1} gamma harbor pencil sixteen walrus ribbon meadow flask"},
        {"doc_id": 8, "text": f"{b2} indigo turbine saddle ninety lemon copper anchor quill"},
    ]
    ds = ray.data.from_items(rows)
    rep = q_doc_tier_dedup("", ds=ds).sort_values("tier").reset_index(drop=True)

    assert list(rep["tier_name"]) == ["exact", "boilerplate_scrub", "near_dup"]
    # tiers chain and attrition is monotone
    assert list(rep["docs_in"][1:]) == list(rep["docs_out"][:-1])
    assert (rep["docs_out"] <= rep["docs_in"]).all()
    # tier 1: 9 docs -> 8 (doc 3 is an exact dup of doc 2)
    assert rep.loc[0, "docs_in"] == 9 and rep.loc[0, "docs_out"] == 8
    # tier 2: doc 4 is pure boilerplate -> scrubbed empty -> dropped
    assert rep.loc[1, "docs_out"] == 7
    # tier 3: docs 0 and 1 are identical after the scrub -> one cluster
    assert rep.loc[2, "docs_out"] == 6


def test_train_classifier_learns_and_matches_serial(ray_session):
    """The distributed full-batch trainer (dense gradient partials, driver
    combine) must reproduce a SERIAL whole-corpus gradient descent with the
    same init — weights allclose, same trace — and must actually LEARN:
    final accuracy beats the majority-class baseline and loss decreases."""
    import numpy as np
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.docops import (_marker_labels,
                                                    _presence_features,
                                                    _TRAIN_BUCKETS,
                                                    q_doc_train_classifier,
                                                    train_doc_classifier)
    from deduplication_ray.sources import storage

    sf, marker, iters, lr = "/root/testdata/sf0.001", "dup", 40, 50.0
    tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])

    # serial oracle: one whole-corpus batch per round, same math
    b, row = _presence_features(tbl)
    y = _marker_labels(tbl, marker)
    n = tbl.num_rows
    rate = y.mean()
    w = np.zeros(_TRAIN_BUCKETS)
    bias = float(np.log((rate + 1e-9) / (1 - rate + 1e-9)))
    strace = []
    for _ in range(iters):
        z = np.zeros(n)
        np.add.at(z, row, w[b])
        z = np.clip(z + bias, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = np.zeros(_TRAIN_BUCKETS)
        np.add.at(grad, b, (p - y)[row])
        strace.append([float(-(y * np.log(p + 1e-12)
                               + (1 - y) * np.log(1 - p + 1e-12)).mean()),
                       float(((p > 0.5) == (y > 0.5)).mean())])
        w -= lr * grad / n
        bias -= lr * (p - y).sum() / n

    ds = storage.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
    dw, dbias, dtrace = train_doc_classifier(ds, marker, iters, lr)
    np.testing.assert_allclose(dw, w, atol=1e-8)
    np.testing.assert_allclose(dtrace, strace, atol=1e-8)

    # it learns: loss drops, accuracy beats the majority baseline
    baseline = max(rate, 1 - rate)
    assert dtrace[-1][0] < dtrace[0][0] * 0.5  # loss fell by > 2x
    assert dtrace[-1][1] >= baseline + 0.002
    assert dtrace[-1][1] >= 0.99

    out = q_doc_train_classifier(sf, marker, iters, lr).to_pandas()
    assert len(out) == n
    assert out["correct"].mean() >= baseline + 0.02


def test_doc_validate_counts_planted_violations(ray_session):
    """Non-vacuity for the validation pass (the sf tables are clean, so the
    driver row is all zeros): planted duplicates, unknown langs, wrong
    n_chars and empty texts must each be counted exactly."""
    import pyarrow as pa
    import ray.data

    from deduplication_ray.pipelines.docops import q_doc_validate

    rows = pa.table({
        "doc_id": pa.array([1, 2, 2, 3, 4, 5, 5, 5], pa.int64()),
        "text": pa.array(["abc", "", "de", "fgh", "", "xy", "xy", "z"]),
        "lang": pa.array(["en", "xx", "fr", "yy", "en", "zz", "de", "en"]),
        "n_chars": pa.array([3, 0, 99, 3, 1, 2, 2, 1], pa.int64()),
    })
    out = q_doc_validate("", ds=ray.data.from_arrow(rows)) \
        .set_index("rule")["violations"].to_dict()
    # 8 rows, 5 distinct ids -> 3 dup rows; 3 unknown langs; n_chars wrong
    # for rows (99 vs 2) and (1 vs 0); 2 empty texts
    assert out == {"doc_id_unique": 3, "lang_known": 3,
                   "n_chars_consistent": 2, "text_nonempty": 2}, out


def test_source_dup_stats_counts_planted_dups(ray_session):
    """Non-vacuity (the sf corpus has no exact text dups): a source with
    planted copies must report the exact integer-milli dup rate."""
    import pyarrow as pa
    import ray.data

    from deduplication_ray.pipelines.docops import q_source_dup_stats

    rows = pa.table({
        "source": pa.array(["a"] * 4 + ["b"] * 3),
        "text": pa.array(["x", "x", "x", "y", "p", "q", "r"]),
    })
    out = q_source_dup_stats("", ds=ray.data.from_arrow(rows)) \
        .to_pandas().set_index("source")
    assert out.loc["a"].to_dict() == {"n_docs": 4, "n_distinct": 2,
                                      "dup_rate_milli": 500}
    assert out.loc["b"].to_dict() == {"n_docs": 3, "n_distinct": 3,
                                      "dup_rate_milli": 0}


def test_lm_score_serial_parity_and_signal(ray_session):
    """The distributed trigram-LM scorer must (a) exactly equal one serial
    pass (train + score on the whole table at once), (b) be partition
    invariant, and (c) actually carry the quality signal: gibberish docs
    score strictly more bits-per-char than corpus-typical docs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from deduplication_ray.pipelines.docops import (q_doc_lm_score,
                                                    score_char_lm,
                                                    train_char_lm)

    dist = _canon(_to_pandas(q_doc_lm_score(SF_DIR)))

    tbl = pq.read_table(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"])
    model = train_char_lm(ray.data.from_arrow(tbl))
    serial = _canon(score_char_lm(tbl, model).to_pandas())
    pd.testing.assert_frame_equal(dist, serial, check_dtype=False)

    # partition invariance: 17 blocks vs default read layout
    repart = _canon(_to_pandas(
        ray.data.from_arrow(tbl).repartition(17).map_batches(
            lambda t: score_char_lm(t, model), batch_format="pyarrow")))
    pd.testing.assert_frame_equal(dist, repart, check_dtype=False)

    # signal: plant gibberish rows, score under the corpus model
    rng = np.random.default_rng(7)
    gib = ["".join(chr(c) for c in rng.integers(33, 127, size=120))
           for _ in range(20)]
    planted = pa.table({
        "doc_id": pa.array(np.arange(40, dtype=np.int64)),
        "text": pa.array(gib + [tbl["text"][i].as_py() for i in range(20)]),
    })
    sc = score_char_lm(planted, model).to_pandas()
    gib_scores = sc["bits_per_char_micro"][:20].to_numpy()
    real_scores = sc["bits_per_char_micro"][20:].to_numpy()
    assert gib_scores.min() > real_scores.max(), \
        (gib_scores.min(), real_scores.max())


def test_trigram_codes_row_boundaries(ray_session):
    """Trigram windows must never cross document boundaries, and empty /
    short docs must contribute zero trigrams (incl. trailing empties —
    the reduceat sentinel edge)."""
    import numpy as np
    import pyarrow as pa

    from deduplication_ray.pipelines.docops import (_trigram_codes,
                                                    score_char_lm,
                                                    train_char_lm)
    import ray.data

    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array(["abcd", "", "xy", "pqr"])})
    codes, offs = _trigram_codes(t["text"])
    assert list(offs) == [0, 2, 2, 2, 3]
    def code(s):
        return (ord(s[0]) << 16) | (ord(s[1]) << 8) | ord(s[2])
    assert list(codes) == [code("abc"), code("bcd"), code("pqr")]

    # trailing empty doc: last real trigram must still be counted
    t2 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                   "text": pa.array(["abc", ""])})
    model = train_char_lm(ray.data.from_arrow(t2))
    out = score_char_lm(t2, model).to_pandas()
    assert out["bits_per_char_micro"][0] > 0  # 'abc' seen once: p=2/257ish
    assert out["bits_per_char_micro"][1] == 0


def test_doc_pii_stats_counts_planted_pii(ray_session):
    """Non-vacuity (the sf corpus contains no PII, so the corpus-level hash
    check is zeros): planted PII-shaped strings must be counted per source
    and per class, and a doc with two hits counts once in docs_with_*."""
    import pyarrow as pa
    import ray.data

    from deduplication_ray.pipelines.docops import q_doc_pii_stats

    rows = pa.table({
        "source": pa.array(["a", "a", "a", "b"]),
        "text": pa.array([
            "reach me at bob@example.com or sue@test.org",  # 2 emails, 1 doc
            "call 555-867-5309 now",                        # 1 phone
            "plain text",                                    # nothing
            "card 4111111111111111 on file",                 # 1 longnum
        ]),
    })
    out = q_doc_pii_stats("", ds=ray.data.from_arrow(rows)) \
        .to_pandas().set_index("source")
    assert out.loc["a"].to_dict() == {
        "n_docs": 3, "docs_with_email": 1, "docs_with_phone": 1,
        "docs_with_longnum": 0, "total_hits": 3}
    assert out.loc["b"].to_dict() == {
        "n_docs": 1, "docs_with_email": 0, "docs_with_phone": 0,
        "docs_with_longnum": 1, "total_hits": 1}


def test_compression_ratio_signal_and_determinism(ray_session):
    """The zlib quality signal must flag what it claims: a repeated-template
    doc compresses far below a typical doc, random hex far above; ratios are
    exact integer milli and identical across batch sizes."""
    import numpy as np
    import pandas as pd

    from deduplication_ray.pipelines import docops

    rng = np.random.default_rng(3)
    typical = [" ".join(rng.choice(
        ["the", "quick", "brown", "fox", "jumps", "lazy", "dog", "over"],
        40)) for _ in range(20)]
    spam = ["buy now " * 60 for _ in range(5)]
    alphabet = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "0123456789+/=!@#$%^&*()[]{}<>?,.;:")
    noise = ["".join(rng.choice(alphabet, 480)) for _ in range(5)]
    df = pd.DataFrame({"doc_id": range(30), "text": typical + spam + noise})

    # the query reads sf_dir, so write the frame as a one-table corpus
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        import pyarrow.parquet as pq
        import pyarrow as pa

        pq.write_table(pa.Table.from_pandas(df), f"{d}/documents.parquet")
        r1 = docops.q_doc_compression_ratio(d).to_pandas() \
            .set_index("doc_id").sort_index()
        r2 = docops.q_doc_compression_ratio(d).to_pandas() \
            .set_index("doc_id").sort_index()
    assert r1.equals(r2)
    t_med = r1.loc[0:19, "ratio_milli"].median()
    assert (r1.loc[20:24, "ratio_milli"] < t_med * 0.5).all()   # spam
    assert (r1.loc[25:29, "ratio_milli"] > t_med * 1.3).all()   # noise
    assert (r1["raw_bytes"] > 0).all()


def test_cluster_agreement_ari(ray_session):
    """Distributed-ARI invariants: identical clusterings score exactly 1e6
    micro (including under label permutation); splitting every cluster to
    singletons agrees on zero pairs; a half-random relabel lands strictly
    between; values match a serial contingency-based ARI bit-for-bit."""
    import numpy as np
    import pandas as pd
    import ray.data

    from deduplication_ray.pipelines.evaluate import cluster_agreement

    rng = np.random.default_rng(11)
    n = 400
    labels = rng.integers(0, 40, n)
    ids = np.arange(n)

    def ds(lab):
        return ray.data.from_pandas(pd.DataFrame(
            {"doc_id": ids.astype(str), "cluster_id": lab.astype(str)}))

    # identical + permuted labels -> exact 1.0
    perm = rng.permutation(40)
    r_same = cluster_agreement(ds(labels), ds(perm[labels]))
    assert r_same["ari_micro"].iloc[0] == 1_000_000
    assert r_same["pairs_agree"].iloc[0] == r_same["pairs_a"].iloc[0]

    # singletons vs real clustering -> zero agreeing pairs
    r_sing = cluster_agreement(ds(labels), ds(ids))
    assert r_sing["pairs_b"].iloc[0] == 0
    assert r_sing["pairs_agree"].iloc[0] == 0

    # half-random relabel: strictly between, and bit-equal to a serial ARI
    noisy = labels.copy()
    flip = rng.random(n) < 0.5
    noisy[flip] = rng.integers(40, 80, flip.sum())
    r = cluster_agreement(ds(labels), ds(noisy))

    def serial_ari_micro(la, lb):
        df = pd.DataFrame({"a": la, "b": lb})
        nij = df.groupby(["a", "b"]).size()
        ai = df.groupby("a").size()
        bj = df.groupby("b").size()
        c2 = lambda s: int(sum(int(x) * (int(x) - 1) // 2 for x in s))
        s_ab, s_a, s_b = c2(nij), c2(ai), c2(bj)
        tot = len(df) * (len(df) - 1) // 2
        num = 2 * (s_ab * tot - s_a * s_b)
        den = (s_a + s_b) * tot - 2 * s_a * s_b
        return num * 1_000_000 // den
    expect = serial_ari_micro(labels, noisy)
    got = int(r["ari_micro"].iloc[0])
    assert got == expect
    assert 0 < got < 1_000_000


def test_global_reductions_partition_invariant(entry_mod, ray_session):
    """The sweep-line peak and the transition matrix must be bit-identical
    at different bucket counts (the distributed block-prefix / bucketed
    reductions cannot depend on partitioning)."""
    from deduplication_ray.pipelines import relational as R

    a = R.q_peak_concurrent_sessions(SF_DIR, num_buckets=3).reset_index(
        drop=True)
    b = R.q_peak_concurrent_sessions(SF_DIR, num_buckets=32).reset_index(
        drop=True)
    assert a.equals(b)

    ta = R.q_events_type_transitions(SF_DIR, num_buckets=3).to_pandas() \
        .sort_values(["prev_type", "next_type"]).reset_index(drop=True)
    tb = R.q_events_type_transitions(SF_DIR, num_buckets=32).to_pandas() \
        .sort_values(["prev_type", "next_type"]).reset_index(drop=True)
    assert ta.equals(tb)


ONE_CPU_SCRIPT = r"""
import logging, sys
import pandas as pd, pyarrow as pa, ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
logging.getLogger("ray.data").setLevel(logging.ERROR)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as E
sf, out_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
qs = E.queries()
for name in names:
    res = qs[name](sf)
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    elif hasattr(res, "to_pandas"):
        res = res.to_pandas()
    pd.DataFrame(res).to_parquet(f"{out_dir}/{name}.parquet")
ray.shutdown()
"""


def test_headline_queries_in_one_cpu_session(entry_mod, tmp_path):
    """The bench.py headline queries finish in a ``num_cpus=1`` session: no
    map stage holds the only CPU as an actor while the read tasks feeding
    it wait. Each result equals its DuckDB oracle; the model score equals
    one serial pass; the LSH dedup equals the same query in this
    (8-CPU) session."""
    import os
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.docops import _DocClassifier

    sf = os.path.join(os.path.dirname(SF_DIR), "sf0.01")
    names = ["broadcast_join", "top_revenue_orders", "doc_lsh_dedup",
             "ann_topk", "doc_model_score"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_SCRIPT, sf, str(tmp_path), *names],
        cwd=repo, env=dict(os.environ, PYTHONPATH=repo),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("headline queries did not finish in 180 s at num_cpus=1")
    assert proc.returncode == 0, err.decode()[-2000:]

    def got(name):
        return _canon(pd.read_parquet(tmp_path / f"{name}.parquet"))

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{sf}/{t}.parquet')")
    oq = entry_mod.oracle_sql()
    for name in ("broadcast_join", "top_revenue_orders", "ann_topk"):
        pd.testing.assert_frame_equal(
            got(name), _canon(con.execute(oq[name]).fetchdf()),
            check_dtype=False, obj=name)
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    pd.testing.assert_frame_equal(
        got("doc_model_score"),
        _canon(_DocClassifier(seed=42)(docs).to_pandas()), check_dtype=False)
    pd.testing.assert_frame_equal(
        got("doc_lsh_dedup"),
        _canon(_to_pandas(entry_mod.queries()["doc_lsh_dedup"](sf))),
        check_dtype=False)


def test_package_has_no_actor_pools():
    """Every map stage runs as tasks: no source file of the package passes
    ``concurrency=`` (a fixed actor pool) or reads ``sig_concurrency``."""
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parents[1] / "deduplication_ray"
    hits = [f"{p.relative_to(pkg.parent)}:{i}"
            for p in sorted(pkg.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "concurrency=" in line or "sig_concurrency" in line]
    assert not hits, hits


def test_package_tasks_request_whole_cpus():
    """Every task the package submits asks for at least one CPU, so a
    session runs at most one task worker per CPU: no ``ray.remote(...)`` or
    ``.options(...)`` passes ``num_cpus`` below 1. A zero-CPU ACTOR class
    stays allowed (``state/index.DedupIndexShard``: reserving CPU for the
    shards can deadlock the tasks that call them)."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parents[1] / "deduplication_ray"
    hits = []
    for p in sorted(pkg.rglob("*.py")):
        tree = ast.parse(p.read_text())
        actor_decorators = {id(d) for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)
                            for d in node.decorator_list}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in actor_decorators:
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name not in ("remote", "options"):
                continue
            for kw in node.keywords:
                if kw.arg != "num_cpus":
                    continue
                try:
                    whole = ast.literal_eval(kw.value) >= 1
                except ValueError:  # not a literal: cannot be shown whole
                    whole = False
                if not whole:
                    hits.append(f"{p.relative_to(pkg.parent)}:{node.lineno}")
    assert not hits, hits


def test_package_map_groups_only_in_the_keyed_exchange():
    """The package has one keyed exchange: every ``map_groups`` call sits in
    ``stages/groupred.py`` (``hash_grouped_reduce``). A hand-tagged bucket
    or part column grouped with ``map_groups``, or a ``groupby(key)``
    reduced one key per call, is a second copy of the exchange."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parents[1] / "deduplication_ray"
    hits = []
    for p in sorted(pkg.rglob("*.py")):
        rel = p.relative_to(pkg).as_posix()
        if rel == "stages/groupred.py":
            continue
        for top in ast.parse(p.read_text()).body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "map_groups"):
                    hits.append(f"{rel}:{node.lineno} in {name}")
    assert not hits, hits
