"""Distributed as-of join — an operator Ray Data lacks natively.

For every left row (key, ts), attach the LAST right row of the same key
with right_ts <= ts (ties on right_ts broken by a caller-named tiebreak
column, descending — making the result deterministic and SQL-checkable via
DuckDB LATERAL), plus the count of qualifying right rows.

Plan (no all-to-all join, no per-key Python):
  1. both sides map to one unified schema (side tag, key, ts, tiebreak,
     left/right payload columns null-padded), and ONE keyed exchange
     (``groupred.hash_grouped_reduce`` on the key) co-locates every key;
  2. per partition, ONE vectorized merge: lexsort the combined rows by
     (key, ts, tiebreak, side) with right-before-left at equal ts, then a
     forward-fill of the latest right position (np.maximum.accumulate with
     per-key-segment reset) and a cumulative right-count — O(n log n) numpy,
     no row loops.

Partitioning assumption: every key's rows fit one partition (same contract
as every groupby here); skewed keys cost sort time within their partition,
not correctness.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.stages.groupred import hash_grouped_reduce

_SIDE = "__side"
_TS = "__ts"
_TIE = "__tie"
_KEY = "__key"


def _ts_i8(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).view("i8").astype(np.int64)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: tuple[str, str],
    ts: tuple[str, str],
    tiebreak: str,
    right_payload: list[str],
    num_parts: int = 32,
) -> ray.data.Dataset:
    """left cols + {c}_asof for each right payload col (null when no right
    row qualifies) + n_right_asof (count of right rows with right_ts <=
    left_ts for the key).

    ``key``/``ts`` are (left_col, right_col) name pairs; ``tiebreak`` is a
    right int column ordering equal-ts rows (max wins).
    """
    lkey, rkey = key
    lts, rts = ts

    left_cols = left.schema().names

    def prep_left(t: pa.Table) -> pa.Table:
        k = t[lkey].to_numpy().astype(np.int64)
        out = {c: t[c] for c in left_cols}
        out[_KEY] = pa.array(k)
        out[_TS] = pa.array(_ts_i8(t[lts]))
        out[_TIE] = pa.array(np.full(t.num_rows, np.iinfo(np.int64).max))
        out[_SIDE] = pa.array(np.ones(t.num_rows, np.int8))
        for c in right_payload:
            out[f"{c}_asof"] = pa.nulls(t.num_rows, pa.int64())
        return pa.table(out)

    def prep_right(t: pa.Table) -> pa.Table:
        k = t[rkey].to_numpy().astype(np.int64)
        n = t.num_rows
        out = {}
        for c in left_cols:
            out[c] = pa.nulls(n, pa.int64()) if c not in t.column_names else t[c]
        out[_KEY] = pa.array(k)
        out[_TS] = pa.array(_ts_i8(t[rts]))
        out[_TIE] = t[tiebreak].cast(pa.int64())
        out[_SIDE] = pa.array(np.zeros(n, np.int8))
        for c in right_payload:
            out[f"{c}_asof"] = t[c].cast(pa.int64())
        return pa.table(out)

    # the left schema's column types must survive the right side's null
    # padding: cast right's padded left-columns to left's types
    lschema = None

    def align(t: pa.Table, ref: pa.Schema) -> pa.Table:
        for i, f in enumerate(t.schema):
            rf = ref.field(f.name) if f.name in ref.names else None
            if rf is not None and rf.type != f.type:
                t = t.set_column(i, f.name, t[f.name].cast(rf.type))
        return t

    lt_prepped = left.map_batches(prep_left, batch_format="pyarrow")
    # capture left's prepped schema once (cheap: schema inference only)
    lschema = lt_prepped.schema()
    ref_schema = pa.schema([pa.field(n, t) for n, t in
                            zip(lschema.names, lschema.types)])
    rt_prepped = right.map_batches(
        lambda t: align(prep_right(t), ref_schema), batch_format="pyarrow")

    def merge(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out_cols = left_cols + [f"{c}_asof" for c in right_payload] + \
            ["n_right_asof"]
        if n == 0:
            return pa.table({
                **{c: t[c] for c in left_cols},
                **{f"{c}_asof": pa.array([], pa.int64()) for c in right_payload},
                "n_right_asof": pa.array([], pa.int64()),
            }).select(out_cols)
        k = t[_KEY].to_numpy()
        tsv = t[_TS].to_numpy()
        tie = t[_TIE].to_numpy()
        side = t[_SIDE].to_numpy()
        order = np.lexsort((side, tie, tsv, k))
        ks, ss = k[order], side[order]
        is_r = ss == 0
        starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
        seg_len = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, seg_len)
        pos = np.arange(n)
        acc = np.maximum.accumulate(np.where(is_r, pos, -1))
        last_r_pos = np.where(acc >= seg_start, acc, -1)
        cum = np.cumsum(is_r)
        base = np.where(starts > 0, cum[np.maximum(starts - 1, 0)], 0)
        cnt = cum - np.repeat(base, seg_len)

        lpos = np.flatnonzero(~is_r)              # left rows, merged order
        l_orig = pa.array(order[lpos], pa.int64())  # rows in t
        lr = last_r_pos[lpos]
        r_orig = pa.array(np.where(lr >= 0, order[np.maximum(lr, 0)], 0),
                          mask=lr < 0, type=pa.int64())
        out = {c: t[c].take(l_orig) for c in left_cols}
        for c in right_payload:
            out[f"{c}_asof"] = t[f"{c}_asof"].take(r_orig)
        out["n_right_asof"] = pa.array(cnt[lpos].astype(np.int64))
        return pa.table(out).select(out_cols)

    return hash_grouped_reduce([lt_prepped, rt_prepped], [_KEY], merge,
                               num_parts)
