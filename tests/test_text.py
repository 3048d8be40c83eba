"""Text-analysis kernels vs DuckDB semantics + SimHash properties (no Ray)."""

import duckdb
import numpy as np
import pyarrow as pa

from deduplication_ray.functions import text as T
from deduplication_ray.functions.hashing import hamming_distance_u64

DOCS = [
    "the quick brown fox",
    "  padded   whitespace\ttabs  ",
    "digits 123 and UPPER case",
    "x",
    "une phrase en francais avec le la et les mots",
]


def test_token_count_matches_duckdb():
    arr = pa.array(DOCS)
    mine = T.token_count(arr).to_pylist()
    con = duckdb.connect()
    theirs = [
        con.execute(
            r"SELECT length(string_split_regex(trim(?), '\s+'))", [d]
        ).fetchone()[0]
        for d in DOCS
    ]
    assert mine == theirs


def test_quality_features_match_duckdb():
    arr = pa.array(DOCS)
    f = T.quality_features(arr)
    con = duckdb.connect()
    for i, d in enumerate(DOCS):
        n_alpha, n_digit, n_space, n_chars = con.execute(
            "SELECT length(regexp_replace(?, '[^a-zA-Z]', '', 'g')),"
            " length(regexp_replace(?, '[^0-9]', '', 'g')),"
            " length(regexp_replace(?, '[^ ]', '', 'g')),"
            " length(?)",
            [d, d, d, d],
        ).fetchone()
        assert f["n_alpha"][i].as_py() == n_alpha
        assert f["n_digit"][i].as_py() == n_digit
        assert f["n_space"][i].as_py() == n_space
        assert f["n_chars"][i].as_py() == n_chars


def test_charset_jaccard_matches_duckdb():
    con = duckdb.connect()
    pairs = [("abc", "abd"), ("hello", "world"), ("same", "same"), ("ABC", "abc")]
    for a, b in pairs:
        theirs = con.execute("SELECT jaccard(?, ?)", [a, b]).fetchone()[0]
        mine = T.char_set_jaccard_matrix([a], [b])[0, 0]
        assert abs(mine - theirs) < 1e-12, (a, b, mine, theirs)


def test_language_id_heuristic():
    arr = pa.array([
        "the cat and the dog sat with the hat for fun",
        "le chat et le chien dans la maison avec les amis",
        "zzz qqq www",  # no profile hits
    ])
    out = T.language_id(arr).to_pylist()
    assert out[0] == "en"
    assert out[1] == "fr"
    assert out[2] == "und"


def test_simhash_text_near_vs_far():
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    near = base.replace("kappa", "lambda")
    far = "one two three four five six seven eight nine ten"
    sig = T.simhash_text(pa.array([base, near, far]))
    d_near = hamming_distance_u64(sig[0:1], sig[1:2])[0]
    d_far = hamming_distance_u64(sig[0:1], sig[2:3])[0]
    assert d_near < d_far
    assert d_near <= 16


def test_winnow_fingerprint_containment():
    big = "prefix words here " + "a shared segment of text" * 2 + " suffix"
    small = "a shared segment of text" * 2
    fps = T.winnow_fingerprint(pa.array([big, small, "unrelated content zzz"]))
    assert set(fps[1]) & set(fps[0])
    assert not (set(fps[2]) & set(fps[0]))


def test_quality_score_ranges():
    arr = pa.array(DOCS + [""])
    q = T.quality_score(arr)
    assert ((q >= 0) & (q <= 1)).all()


def test_text_dedup_partition_determinism(ray_session):
    """The full text near-dup engine yields IDENTICAL cluster assignments
    under different partition counts and input layouts — block boundaries
    are arbitrary on a real cluster, so any partition-sensitivity is a bug."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import storage

    def run(num_partitions, repart):
        ds = storage.read_table("/root/testdata/sf0.001/documents.parquet",
                                columns=["doc_id", "text"])
        if repart:
            ds = ds.repartition(repart)
        out = text_dedup_clusters(
            ds, DedupConfig(num_partitions=num_partitions, sa_batch_size=1024))
        return out.to_pandas().sort_values("doc_id").reset_index(drop=True)

    a = run(4, None)
    b = run(13, 7)
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["cluster_id"].to_numpy() == b["cluster_id"].to_numpy()).all()


def test_text_dedup_names_output_after_id_col(ray_session):
    """Clusters come back keyed by the caller's id column, whatever its
    name."""
    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters

    t = pa.table({"uid": ["u1", "u2", "u3"],
                  "body": [DOCS[0], DOCS[0], DOCS[2]]})
    out = text_dedup_clusters(ray.data.from_arrow(t),
                              DedupConfig(num_partitions=2),
                              id_col="uid", text_col="body").to_pandas()
    assert list(out.columns) == ["uid", "cluster_id"]
    c = out.set_index("uid")["cluster_id"]
    assert c["u1"] == c["u2"] == "u1" and c["u3"] == "u3"


def test_text_join_tier_matches_broadcast(ray_session, tmp_path):
    """The signature resolve has two physical plans — the broadcast gather
    (the default at bench/test sizes) and the hash-join resolve above the
    broadcast tier (forced via broadcast_limit=0). At num_partitions=8,
    where two chained hash joins once stalled, both must finish and yield
    IDENTICAL clusters: one semantics, two physical plans."""
    import dataclasses

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import fixtures, storage
    from tests.conftest import deadline

    fix = str(tmp_path / "txtfix")
    fixtures.generate_text(fix, 3000, seed=17)
    ds = storage.read_table(f"{fix}/data", columns=["doc_id", "text"])
    cfg = DedupConfig(num_partitions=8, sa_batch_size=1024)
    with deadline(300):
        fast = text_dedup_clusters(ds, cfg).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        slow = text_dedup_clusters(
            ds, dataclasses.replace(cfg, broadcast_limit=0)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    assert fast.equals(slow)
    # and both recover the planted truth exactly at this size
    from deduplication_ray.pipelines.evaluate import pair_metrics

    truth = storage.read_table(f"{fix}/truth").to_pandas() \
        .rename(columns={"doc_id": "image_id"})
    m = pair_metrics(fast.rename(columns={"doc_id": "image_id"}), truth)
    assert m["recall"] >= 0.99 and m["precision"] >= 0.99, m


def test_suffix_array_cross_check_matches_rendezvous(ray_session, tmp_path):
    """``use_suffix_array`` only cross-checks the L-gram rendezvous: its
    trusted 'substr' edges, unioned after verification, must not change
    the clusters."""
    import dataclasses

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import fixtures, storage

    fix = str(tmp_path / "txtfix")
    fixtures.generate_text(fix, 800, seed=5)
    ds = storage.read_table(f"{fix}/data", columns=["doc_id", "text"])
    cfg = DedupConfig(num_partitions=4, sa_batch_size=256)
    out = [text_dedup_clusters(ds, c).to_pandas()
           .sort_values("doc_id").reset_index(drop=True)
           for c in (cfg, dataclasses.replace(cfg, use_suffix_array=True))]
    assert out[0]["cluster_id"].nunique() < len(out[0])
    assert out[0].equals(out[1])


def test_text_dedup_all_unique_corpus(ray_session, tmp_path):
    """A corpus with ZERO duplicate edges (every doc unique) must yield all
    singletons through both the lazy and the checkpointed text pipelines —
    regression: the empty labels dataset used to reach lookup_join with a
    stale (pre-rename) schema and crash on the missing key column."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import (
        run_text_pipeline, text_dedup_clusters)
    from deduplication_ray.sources import storage

    rng = np.random.RandomState(0)
    texts = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz "), 30))
             for _ in range(40)]
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": pa.array(texts)})
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, f"{d}/part-0.parquet")
    cfg = DedupConfig(num_partitions=4, sa_batch_size=1024)
    out = text_dedup_clusters(storage.read_table(str(d)), cfg).to_pandas()
    assert len(out) == 40
    assert (out["doc_id"].astype(str).values == out["cluster_id"].values).all()
    m = run_text_pipeline(str(d), str(tmp_path / "run"), cfg)
    assert m["rows"] == {"signatures": 40, "verified_edges": 0, "clusters": 40}


def test_text_engine_recall_vs_planted_truth(ray_session, tmp_path):
    """North-rule recall gate for the TEXT engine: >= 0.99 dup-pair recall
    (and high precision) on a fixture with planted exact / 3-word-edit
    near-dup / 40-word-excerpt substring families."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import fixtures, storage

    fix = str(tmp_path / "txtfix")
    fixtures.generate_text(fix, 1500, seed=11)
    docs = storage.read_table(f"{fix}/data")
    pred = text_dedup_clusters(docs, DedupConfig(num_partitions=4)).to_pandas()
    truth = storage.read_table(f"{fix}/truth").to_pandas()
    m = pair_metrics(pred.rename(columns={"doc_id": "image_id"}),
                     truth.rename(columns={"doc_id": "image_id"}))
    assert m["recall"] >= 0.99
    assert m["precision"] >= 0.95


def test_text_engine_recall_with_oph_signatures(ray_session, tmp_path):
    """The OPH signature path (``signature_mode='oph'``: one remix pass
    instead of P permutation sweeps) must hold the same north-rule recall
    gate as classic MinHash on the planted fixture — it feeds the SAME
    banding and verification."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.sources import fixtures, storage

    fix = str(tmp_path / "txtfix")
    fixtures.generate_text(fix, 1500, seed=11)
    docs = storage.read_table(f"{fix}/data")
    cfg = DedupConfig(num_partitions=4, signature_mode="oph")
    pred = text_dedup_clusters(docs, cfg).to_pandas()
    truth = storage.read_table(f"{fix}/truth").to_pandas()
    m = pair_metrics(pred.rename(columns={"doc_id": "image_id"}),
                     truth.rename(columns={"doc_id": "image_id"}))
    assert m["recall"] >= 0.99
    assert m["precision"] >= 0.95


def test_leakage_safe_split_never_splits_clusters(ray_session, tmp_path):
    """Leakage-safe split invariants: no near-dup cluster straddles
    splits; every planted dup pair co-assigns; ratios stay in a loose
    80/10/10 band; doc_id coverage is exact."""
    import numpy as np

    from deduplication_ray.pipelines.docops import q_doc_leakage_safe_split
    from deduplication_ray.sources import fixtures, storage

    fix = str(tmp_path / "txtfix")
    fixtures.generate_text(fix, 1200, seed=5)
    docs = storage.read_table(f"{fix}/data")
    out = q_doc_leakage_safe_split("", ds=docs).to_pandas()
    assert len(out) == 1200 and out["doc_id"].is_unique

    # no cluster straddles splits
    straddle = out.groupby("cluster_id")["split"].nunique()
    assert (straddle == 1).all()

    # every PLANTED pair co-assigns (truth roots, not just engine clusters)
    truth = storage.read_table(f"{fix}/truth").to_pandas()
    j = out.merge(truth, on="doc_id", suffixes=("", "_t"))
    by_truth = j.groupby("cluster_id_t")["split"].nunique()
    assert (by_truth == 1).all()

    # loose ratio band around 80/10/10
    frac = out["split"].value_counts(normalize=True)
    assert 0.7 <= frac.get("train", 0) <= 0.9
    assert 0.03 <= frac.get("val", 0) <= 0.2
    assert 0.03 <= frac.get("test", 0) <= 0.2


def test_dup_span_removal_semantics(ray_session, tmp_path):
    """Planted ExactSubstr check (Lee et al. 2022 semantics at word
    granularity): a verbatim block shared by two docs reports as ONE merged
    span per doc and is cut out by the rewrite; a within-doc repeated
    phrase counts as duplicated (multiplicity, not distinct-docs) and BOTH
    occurrences are removed; fully unique docs come back verbatim."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduplication_ray.pipelines.docops import (q_doc_dup_spans,
                                                    q_doc_remove_dup_spans)

    boiler = " ".join(f"b{i}" for i in range(12))      # 12-word shared block
    phrase = " ".join(f"p{i}" for i in range(8))       # 8-word self-repeat
    docs = [
        f"u0 u1 u2 {boiler} u3 u4 u5",                 # block at words 3..14
        f"v0 {boiler}",                                # block at words 1..12
        "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9",               # fully unique
        f"x0 {phrase} x1 x2 x3 {phrase} x4",           # repeats itself
        "y0 y1",                                       # shorter than n
        "",                                            # one empty token
    ]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    spans = (q_doc_dup_spans(str(tmp_path), n=8).to_pandas()
             .sort_values(["doc_id", "span_start"]).reset_index(drop=True))
    expect = pd.DataFrame({"doc_id": [0, 1, 3, 3],
                           "span_start": [3, 1, 1, 12],
                           "span_end": [15, 13, 9, 20]})
    pd.testing.assert_frame_equal(spans.astype("int64"), expect.astype("int64"))

    out = (q_doc_remove_dup_spans(str(tmp_path), n=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["text"]) == ["u0 u1 u2 u3 u4 u5", "v0",
                                 "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9",
                                 "x0 x1 x2 x3 x4", "y0 y1", ""]
    # DuckDB string_split_regex('', '\s+') == [''] -> the empty doc still
    # counts one (empty) token; _tokens_flat mirrors that exactly
    assert list(out["n_words"]) == [18, 13, 10, 21, 2, 1]
    assert list(out["n_removed"]) == [12, 12, 0, 16, 0, 0]


def test_cli_compare_verb(ray_session, tmp_path, capsys):
    """`cli compare` reports exact agreement between two finished runs —
    here the same corpus run twice under the two signature modes."""
    import json

    import pyarrow.parquet as pq

    from deduplication_ray import cli
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import run_text_pipeline

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet") \
        .select(["doc_id", "text"]).slice(0, 300)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(src, f"{d}/part-0.parquet")

    cfg_a = DedupConfig(num_partitions=4, sa_batch_size=1024)
    cfg_b = DedupConfig(num_partitions=4, sa_batch_size=1024,
                        signature_mode="oph")
    run_text_pipeline(str(d), str(tmp_path / "run_a"), cfg_a)
    run_text_pipeline(str(d), str(tmp_path / "run_b"), cfg_b)

    rc = cli.main(["compare", "--run-a", str(tmp_path / "run_a"),
                   "--run-b", str(tmp_path / "run_b")])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert rep["rows"] == 300
    assert rep["ari_micro"] == 1_000_000  # modes agree on this corpus


def test_edit_distance_hot_gram_cap(ray_session, tmp_path):
    """The edit-distance candidate kernel must fail LOUDLY (PPJoin
    precedent — exactness forbids lossy DF-dropping) when one word n-gram
    is shared by more than gram_df_cap docs, instead of silently emitting
    a quadratic pair product; with the cap above the planted DF the same
    corpus verifies normally and matches the DuckDB oracle."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from deduplication_ray.pipelines.docops import (edit_distance_pairs_sql,
                                                    q_edit_distance_pairs)

    boiler = "the quick brown fox jumps"            # one hot 5-gram
    docs = [f"{boiler} unique tail {i} word{i} extra{i}" for i in range(6)]
    docs += ["entirely different text with no shared grams at all here ok"]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    with _pytest.raises(Exception, match="gram_df_cap"):
        q_edit_distance_pairs(str(tmp_path), gram_df_cap=3).materialize()

    got = (q_edit_distance_pairs(str(tmp_path), gram_df_cap=64).to_pandas()
           .sort_values(["src", "dst"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    want = (con.execute(edit_distance_pairs_sql()).df()
            .sort_values(["src", "dst"]).reset_index(drop=True))
    con.close()
    assert got.astype("int64").equals(want.astype("int64"))
