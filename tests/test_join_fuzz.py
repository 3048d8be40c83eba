"""Differential fuzz: shuffle_join vs DuckDB on randomized inputs.

The TPC-H analogs all ride shuffle_join for their one big-big edge, but they
only exercise the key/type shapes those queries happen to have. This fuzzes
the operator itself: random row counts (including empty sides), skewed key
distributions (many-to-many fan-out), single- and multi-column keys, null
VALUES (null keys are out of contract — SQL nulls never match anyway), and
all five join types, against DuckDB as the oracle; plus bucket-count
invariance (1 vs 7 vs 32 buckets must be a no-op on the result). Key arity
and join type are drawn from coprime seed residues so every (arity, how)
combination occurs."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest

from deduplication_ray.stages.join import shuffle_join

from conftest import fuzz_blocks, fuzz_canon, fuzz_collect

# semi / anti keep the left rows whose key does / does not occur on the
# right (EXISTS / NOT EXISTS), left columns only, one row per left row
# however often its key repeats on the right
HOWS = {"inner": "INNER", "left": "LEFT", "full outer": "FULL",
        "semi": "", "anti": "NOT "}


def _rand_table(rng, prefix: str, keys: list[str], n: int) -> pa.Table:
    cols = {}
    for k in keys:
        # small cardinality forces many-to-many matches and misses on both
        # sides; occasional wide range gives mostly-unique keys
        card = int(rng.choice([3, 8, 40, 10_000]))
        cols[k] = pa.array(rng.integers(0, card, n), pa.int64())
    ints = rng.integers(-50, 50, n)
    int_valid = rng.random(n) > 0.1
    cols[f"{prefix}_v"] = pa.array(
        [int(x) if ok else None for x, ok in zip(ints, int_valid)], pa.int64())
    words = np.array(["", "a", "bb", "ccc", "dd dd", "éé"])
    cols[f"{prefix}_s"] = pa.array(words[rng.integers(0, len(words), n)],
                                   pa.string())
    return pa.table(cols)


@pytest.mark.parametrize("seed", range(15))
def test_shuffle_join_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(1000 + seed)
    keys = ["k1", "k2"] if seed % 2 == 0 else ["k1"]   # coprime with % 5
    nl = int(rng.choice([0, 1, 17, 230]))
    nr = int(rng.choice([0, 1, 23, 180]))
    lt = _rand_table(rng, "l", keys, nl)
    rt = _rand_table(rng, "r", keys, nr)
    how = list(HOWS)[seed % 5]

    mine = fuzz_collect(shuffle_join(fuzz_blocks(rng, lt),
                                     fuzz_blocks(rng, rt),
                                     on=keys, how=how, num_buckets=7))

    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    if how in ("semi", "anti"):
        names = list(lt.column_names)
        match = " AND ".join(f"r.{k} = l.{k}" for k in keys)
        sql = (f"SELECT * FROM l WHERE {HOWS[how]}"
               f"EXISTS (SELECT 1 FROM r WHERE {match})")
    else:
        names = list(lt.column_names) + ["r_v", "r_s"]
        sql = (f"SELECT {', '.join(names)} FROM l {HOWS[how]} JOIN r "
               f"USING ({', '.join(keys)})")
    oracle = con.execute(sql).arrow()
    ctx = f"seed={seed} how={how} keys={keys} nl={nl} nr={nr}"
    if mine is None:
        assert oracle.num_rows == 0, ctx
        return
    assert mine.column_names == names, ctx
    oracle = oracle.cast(mine.schema)
    assert fuzz_canon(mine, names) == fuzz_canon(oracle, names), ctx


def test_shuffle_join_bucket_count_invariance(ray_session):
    rng = np.random.default_rng(77)
    lt = _rand_table(rng, "l", ["k1"], 150)
    rt = _rand_table(rng, "r", ["k1"], 90)
    names = list(lt.column_names) + ["r_v", "r_s"]
    outs = []
    for nb in (1, 7, 32):
        res = fuzz_collect(shuffle_join(fuzz_blocks(rng, lt),
                                        fuzz_blocks(rng, rt),
                                        on=["k1"], how="full outer",
                                        num_buckets=nb))
        outs.append(fuzz_canon(res, names))
    assert outs[0] == outs[1] == outs[2]


def test_shuffle_join_empty_lazy_side_with_schema_override(ray_session):
    """A fully-filtered lazy side produces zero blocks and no derivable
    schema; the explicit schema override must keep the join well-formed
    (regression: q12 with an empty shipdate window crashed in _schema)."""
    import ray as _ray

    lt = pa.table({"k": pa.array([], pa.int64()),
                   "l_v": pa.array([], pa.int64())})
    rt = pa.table({"k": pa.array([1, 2], pa.int64()),
                   "r_v": pa.array([10, 20], pa.int64())})
    # an empty dataset piped through map_batches loses its schema
    empty = _ray.data.from_arrow(lt).filter(lambda r: False) \
        .map_batches(lambda t: t, batch_format="pyarrow")
    out = fuzz_collect(shuffle_join(
        empty, _ray.data.from_arrow(rt), on=["k"], how="inner",
        left_schema=lt.schema, right_schema=rt.schema))
    assert out is None  # inner join with empty left => empty result
