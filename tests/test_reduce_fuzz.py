"""Differential fuzz for the pre-aggregation spine and the broadcast join.

`_keyed_reduce` (in-batch partial + hash-partitioned combine) is the
pre-shuffle aggregation discipline under most TPC-H analogs, and
`hash_grouped_reduce` with pandas batches runs the query library's window
and session reducers; `lookup_join` is the broadcast edge under every
dimension decoration. They must match DuckDB on randomized inputs and be
partition-count invariant."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.pipelines.relational import _keyed_reduce
from deduplication_ray.stages.groupred import hash_grouped_reduce
from deduplication_ray.stages.join import lookup_join

from conftest import deadline, fuzz_blocks, fuzz_canon, fuzz_collect


def _rows(ds_or_table) -> list[tuple]:
    if ds_or_table is None:
        return []
    return fuzz_canon(ds_or_table)


@pytest.mark.parametrize("seed", range(6))
def test_keyed_reduce_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.choice([0, 1, 37, 500]))
    card = int(rng.choice([2, 9, 1000]))
    t = pa.table({
        "k": pa.array(rng.integers(-card, card, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })
    num_parts = int(rng.choice([1, 5, 32]))
    out = fuzz_collect(_keyed_reduce(fuzz_blocks(rng, t), "k",
                                     {"s": ("v", "sum"), "m": ("v", "max"),
                                      "c": ("v", "count")},
                                     num_parts=num_parts))
    con = duckdb.connect()
    con.register("t", t)
    oracle = con.execute(
        "SELECT k, CAST(sum(v) AS BIGINT) AS s, max(v) AS m, "
        "count(*) AS c FROM t GROUP BY k").arrow()
    assert _rows(out) == _rows(oracle), \
        f"seed={seed} n={n} card={card} parts={num_parts}"


def test_keyed_reduce_partition_count_invariance(ray_session):
    rng = np.random.default_rng(88)
    t = pa.table({
        "k": pa.array(rng.integers(0, 11, 400), pa.int64()),
        "v": pa.array(rng.integers(-5, 6, 400), pa.int64()),
    })
    outs = [_rows(fuzz_collect(_keyed_reduce(fuzz_blocks(rng, t), "k",
                                             {"s": ("v", "sum")},
                                             num_parts=p)))
            for p in (1, 3, 32)]
    # the same reduction on the pandas reducer path (the query library's
    # window and session reducers): column-list key, pandas batches
    outs.append(_rows(fuzz_collect(hash_grouped_reduce(
        fuzz_blocks(rng, t), ["k"],
        lambda df: df.groupby("k", as_index=False)["v"].sum()
        .rename(columns={"v": "s"}), 7, batch_format="pandas"))))
    assert outs[0] == outs[1] == outs[2] == outs[3]


@pytest.mark.parametrize("seed", range(6))
def test_lookup_join_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.choice([0, 1, 64, 300]))
    m = int(rng.choice([0, 1, 12, 50]))
    how = ("inner", "left")[seed % 2]
    big = pa.table({
        "k": pa.array(rng.integers(0, 25, n), pa.int64()),
        "x": pa.array(rng.integers(-9, 9, n), pa.int64()),
    })
    # duplicate lookup keys exercise the fan-out path
    small = pa.table({
        "k": pa.array(rng.integers(0, 25, m), pa.int64()),
        "y": pa.array(rng.integers(100, 200, m), pa.int64()),
    })
    out = lookup_join(fuzz_blocks(rng, big), fuzz_blocks(rng, small),
                      on=["k"], cfg=DedupConfig(), how=how)
    con = duckdb.connect()
    con.register("big", big)
    con.register("small", small)
    oracle = con.execute(
        f"SELECT big.k, x, y FROM big "
        f"{'LEFT ' if how == 'left' else ''}JOIN small USING (k)").arrow()
    assert _rows(fuzz_collect(out)) == _rows(oracle), \
        f"seed={seed} how={how} n={n} m={m}"


def _no_dataset_join(*args, **kwargs):
    raise AssertionError("lookup_join must not call Ray's Dataset.join")


def _semi_tables(rng, n: int, m: int, dup_lookup: bool):
    """Probe rows with ~10% null keys; lookup keys with nulls and, when
    ``dup_lookup``, repeated keys (the hash-join path), else distinct keys
    (the gather path)."""
    k = rng.integers(0, 25, n)
    big = pa.table({
        "k": pa.array([int(v) if rng.random() > 0.1 else None for v in k],
                      pa.int64()),
        "x": pa.array(rng.integers(-9, 9, n), pa.int64()),
    })
    lk = (rng.integers(0, 25, m) if dup_lookup
          else rng.permutation(25)[:min(m, 25)])
    small = pa.table({
        "k": pa.array([int(v) for v in lk] + [None], pa.int64()),
        "y": pa.array(rng.integers(100, 200, len(lk) + 1), pa.int64()),
    })
    return big, small


@pytest.mark.parametrize("how", ["semi", "anti"])
@pytest.mark.parametrize("seed", range(4))
def test_lookup_join_semi_anti_vs_duckdb(ray_session, monkeypatch, how,
                                        seed):
    """semi/anti keep the probe rows whose key does / does not occur in the
    lookup (EXISTS / NOT EXISTS: a null key matches nothing), append no
    column, never duplicate a row on duplicate lookup keys, and give the
    same rows on the shuffle fallback (``broadcast_limit=0``, the default
    partition count), which runs on ``shuffle_join``, never on Ray's
    ``Dataset.join``."""
    monkeypatch.setattr(ray.data.Dataset, "join", _no_dataset_join)
    rng = np.random.default_rng(4000 + seed)
    n, m = int(rng.choice([1, 64, 300])), int(rng.choice([1, 12, 50]))
    big, small = _semi_tables(rng, n, m, dup_lookup=seed % 2 == 0)
    con = duckdb.connect()
    con.register("big", big)
    con.register("small", small)
    oracle = con.execute(
        f"SELECT k, x FROM big WHERE {'NOT ' if how == 'anti' else ''}"
        "EXISTS (SELECT 1 FROM small WHERE small.k = big.k)").arrow()
    ctx = f"seed={seed} how={how} n={n} m={m}"
    for cfg in (DedupConfig(), DedupConfig(broadcast_limit=0)):
        with deadline(120):
            out = fuzz_collect(lookup_join(fuzz_blocks(rng, big),
                                           fuzz_blocks(rng, small), on=["k"],
                                           cfg=cfg, how=how))
        if out is not None:
            assert sorted(out.column_names) == ["k", "x"], ctx
        assert _rows(out) == _rows(oracle), \
            f"{ctx} broadcast_limit={cfg.broadcast_limit}"
    # a pandas lookup is broadcast as one table (pandas holds
    # no null int64, and a null lookup key matches nothing anyway)
    small_df = small.filter(small["k"].is_valid()).to_pandas()
    out = fuzz_collect(lookup_join(fuzz_blocks(rng, big), small_df,
                                   on=["k"], cfg=DedupConfig(), how=how))
    assert _rows(out) == _rows(oracle), f"{ctx} pandas lookup"


@pytest.mark.parametrize("how", ["semi", "anti", "inner", "left"])
def test_lookup_join_semi_anti_empty_lookup(ray_session, how):
    """An empty lookup matches nothing: semi and inner keep no row, anti
    keeps all, left keeps all with a null lookup column. The lookup may be
    Arrow blocks, a pandas frame, or pandas blocks filtered to zero rows
    with a string column (typed ``object`` by Ray's schema)."""
    rng = np.random.default_rng(5)
    big, _ = _semi_tables(rng, 40, 1, dup_lookup=True)
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "y": pa.array([], pa.int64())})
    pandas_blocks = ray.data.from_pandas(
        pa.table({"k": [1], "y": ["s"]}).to_pandas()).map_batches(
            lambda df: df[df["k"] < 0], batch_format="pandas")
    expected = {"anti": _rows(big), "semi": [], "inner": [],
                "left": _rows(big.append_column("y", pa.nulls(len(big))))}
    for lookup in (fuzz_blocks(rng, empty), empty.to_pandas(),
                   pandas_blocks):
        out = fuzz_collect(lookup_join(fuzz_blocks(rng, big), lookup,
                                       on=["k"], cfg=DedupConfig(), how=how))
        assert _rows(out) == expected[how], type(lookup)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_lookup_join_fallback_edge_probes(ray_session, monkeypatch, how):
    """The shuffle fallback (``broadcast_limit=0``, 32 partitions) gives the
    broadcast tier's rows for a probe whose first block is empty, for an
    all-empty probe, for pandas blocks (whose schema reports numpy dtypes)
    and for a ``string`` probe key against a ``large_string`` lookup key
    (the lookup's keys take the probe's type)."""
    monkeypatch.setattr(ray.data.Dataset, "join", _no_dataset_join)
    rng = np.random.default_rng(6)
    big, small = _semi_tables(rng, 60, 12, dup_lookup=True)
    as_str = lambda t, typ: t.set_column(  # noqa: E731
        0, "k", t["k"].cast(pa.string()).cast(typ))
    probes = {
        "first block empty": (
            lambda: ray.data.from_arrow([big.slice(0, 0), big.slice(0, 25),
                                         big.slice(25)]), small),
        "all empty": (lambda: ray.data.from_arrow(big.slice(0, 0)), small),
        "pandas blocks": (  # string keys: object dtype in pandas
            lambda: fuzz_blocks(rng, as_str(big, pa.string())).map_batches(
                lambda df: df, batch_format="pandas"),
            as_str(small, pa.string())),
        "string vs large_string": (
            lambda: fuzz_blocks(rng, as_str(big, pa.string())),
            as_str(small, pa.large_string())),
    }
    for name, (probe, lookup) in probes.items():
        outs = []
        for cfg in (DedupConfig(), DedupConfig(broadcast_limit=0)):
            with deadline(120):
                outs.append(_rows(fuzz_collect(lookup_join(
                    probe(), fuzz_blocks(rng, lookup), on=["k"], cfg=cfg,
                    how=how))))
        assert outs[0] == outs[1], f"{name} how={how}"
        if name == "all empty":
            assert outs[1] == []
        else:
            assert outs[1], f"{name} how={how}: no rows on either tier"


def test_shuffle_join_pandas_string_side_without_schema(ray_session):
    """A side passed without a schema is read from its blocks: a side of
    pandas blocks with a string column (typed ``object`` by Ray's schema)
    joins like its Arrow twin."""
    from deduplication_ray.stages.join import shuffle_join

    l = ray.data.range(40).map_batches(
        lambda df: df.assign(s=df["id"].astype(str)),
        batch_format="pandas").materialize()
    r = ray.data.range(40).map_batches(
        lambda df: df.assign(v=df["id"] * 2), batch_format="pandas")
    with deadline(120):
        out = fuzz_collect(shuffle_join(l, r, ["id"], "inner", 4))
    assert sorted(zip(out["id"].to_pylist(), out["s"].to_pylist(),
                      out["v"].to_pylist())) == [
        (i, str(i), 2 * i) for i in range(40)]
