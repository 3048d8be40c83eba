"""Distributed range (interval) join — an operator Ray Data lacks natively.

For every row (key, ts), count (or emit) the rows of the SAME key whose
timestamp falls in the half-open interval (ts + lo, ts + hi]. The classic
uses: "events of this user in the following 5 minutes", "readings within
±1 s of each sample", self-correlation windows.

Plan (no all-to-all join, no per-key Python):
  1. ONE keyed exchange (``groupred.hash_grouped_reduce`` on the key, the
     same partitioning contract as stages/asof.py) co-locates every key's
     rows;
  2. per partition, ONE vectorized sweep: lexsort by (key, ts), then map
     each key segment onto a disjoint numeric range by adding
     ``segment_rank * BIG`` (BIG > partition ts span + hi), which makes the
     composite array GLOBALLY sorted while preserving in-segment order.
     Two global ``np.searchsorted`` calls then bound every row's interval
     at once — crossing a segment boundary is impossible because
     |hi| < BIG. O(n log n), no row loops, no per-key calls.

Partitioning assumption: every key's rows fit one partition (same contract
as every groupby here); skewed keys cost sort time within their partition,
not correctness.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.stages.groupred import hash_grouped_reduce


def _ts_i8(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).view("i8").astype(np.int64)


def range_join_count(
    ds: ray.data.Dataset,
    key: str,
    ts: str,
    lo: int,
    hi: int,
    out_cols: list[str] | None = None,
    count_col: str = "n_in_range",
    num_parts: int = 32,
) -> ray.data.Dataset:
    """Self range join, aggregated: per input row, the count of same-``key``
    rows with timestamp in (row.ts + lo, row.ts + hi] (``lo``/``hi`` in the
    timestamp's native unit, e.g. microseconds; lo=0 counts strictly-later
    rows only). Returns ``out_cols`` (default: all input columns) +
    ``count_col``.

    The pair-emitting variant is the same sweep with the per-row
    [lb, ub) position ranges expanded via np.repeat — counts are the
    SQL-checkable contract, so that is what ships.
    """
    cols = out_cols or ds.schema().names

    def prep(t: pa.Table) -> pa.Table:
        keep = {c: t[c] for c in cols}
        keep[key] = t[key]
        keep["__ts_i8"] = pa.array(_ts_i8(t[ts]))
        return pa.table(keep)

    def sweep(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({**{c: t[c] for c in cols},
                             count_col: pa.array([], pa.int64())})
        k = t[key].to_numpy().astype(np.int64)
        tsv = t["__ts_i8"].to_numpy()
        order = np.lexsort((tsv, k))
        ks, tss = k[order], tsv[order]
        seg_id = np.cumsum(np.concatenate([[0], (ks[1:] != ks[:-1]).astype(np.int64)]))
        tmin = tss.min()
        span = int(tss.max() - tmin)
        big = span + max(abs(lo), abs(hi)) + 1
        n_seg = int(seg_id[-1]) + 1
        if big > 0 and n_seg > (2**62) // big:
            raise OverflowError(
                "range_join_count composite key overflow: ts span x segment "
                "count exceeds int64 — shrink partitions (raise num_parts)")
        comp = seg_id * big + (tss - tmin)
        ub = np.searchsorted(comp, comp + hi, side="right")
        lb = np.searchsorted(comp, comp + lo, side="right")
        cnt = (ub - lb).astype(np.int64)
        # scatter counts back to the input row order
        out_cnt = np.empty(n, dtype=np.int64)
        out_cnt[order] = cnt
        return pa.table({**{c: t[c] for c in cols},
                         count_col: pa.array(out_cnt)})

    return hash_grouped_reduce(ds.map_batches(prep, batch_format="pyarrow"),
                               [key], sweep, num_parts)
