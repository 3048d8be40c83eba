"""Size-dispatched joins: broadcast map-side gather vs shuffle join.

Every metadata join in this engine (edge <- signature attach, star-edge
min-id attach, label propagation, cluster finalize) has a 'lookup' side that
is usually far smaller than a worker's heap: broadcast it once with
``ray.put`` and gather (unique keys) or Arrow-join (duplicate keys) per
batch — no shuffle. Above ``cfg.broadcast_limit`` rows the same call
transparently falls back to ``shuffle_join`` — that is the 10^12-row path:
one sort-shuffle exchange keyed by a key-hash partition, then one Arrow C++
hash join per partition, with no aggregator actors and no per-partition
memory reservation. The broadcast tier mirrors the reference's decode
gather (R17): the dictionary is the small side, broadcast everywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.stages.groupred import hash_grouped_reduce, key_hashes
from deduplication_ray.stages.tuning import ensure_blocks


# bytes guard: broadcast payloads are SHARED plasma blocks (every task maps
# the same buffers read-only — no per-task copy), so the guard only needs to
# keep one lookup within a worker heap's mmap budget; the row guard
# (cfg.broadcast_limit) is what keeps 10^12-row tables off the broadcast
# tier. 512MB silently pushed the 600k-row signature attach onto the
# shuffle tier (measured cliff); 2GB keeps every sub-limit lookup on the
# gather path.
MAX_BROADCAST_BYTES = 2 * 1024 * 1024 * 1024


def broadcast_ok(ds: ray.data.Dataset, cfg: DedupConfig,
                 rows: int | None = None) -> bool:
    """The one broadcast-tier predicate: a MATERIALIZED table broadcasts
    iff its rows <= ``cfg.broadcast_limit`` and its bytes <= 2 GiB.
    ``rows`` skips the count when the caller already knows it."""
    n = ds.count() if rows is None else rows
    return (n <= cfg.broadcast_limit
            and (ds.size_bytes() or 0) <= MAX_BROADCAST_BYTES)


def _as_arrow_block(tbl) -> pa.Table:
    """Ray Data blocks are pa.Table OR pandas.DataFrame (when the producing
    stage ran ``batch_format=\"pandas\"``); the by-refs broadcast index must
    accept both."""
    if isinstance(tbl, pa.Table):
        return tbl
    return pa.Table.from_pandas(tbl, preserve_index=False)


@ray.remote
def _block_key_hashes(tbl, on: list[str]) -> np.ndarray:
    """Per-block key hashes for the broadcast index — runs where the block
    lives; only the u64 array travels to the driver. Empty blocks may carry
    a STALE schema (a lazy rename/Project over zero rows is dropped), so
    they hash to nothing unconditionally — ``_resolve_small`` skips the
    same blocks, keeping row indices aligned."""
    tbl = _as_arrow_block(tbl)
    if tbl.num_rows == 0:
        return np.zeros(0, np.uint64)
    return key_hashes(tbl, on)


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema | None:
    """A MATERIALIZED ``ds``'s ``schema()`` as a pa.Schema; None when a
    fully empty dataset has none. Ray types a pandas string column as
    ``object``, which becomes ``null`` here, as Arrow types an empty object
    column (``_rows_schema`` reads the non-empty blocks' own Arrow
    schemas)."""
    s = ds.schema()
    if s is None:
        return None
    if isinstance(s.base_schema, pa.Schema):
        return s.base_schema
    return pa.schema([pa.field(nm, tp if isinstance(tp, pa.DataType)
                               else pa.null())
                      for nm, tp in zip(s.names, s.types)])


@ray.remote
def _block_arrow_schema(tbl) -> pa.Schema:
    return _as_arrow_block(tbl).schema


def _rows_schema(ds: ray.data.Dataset) -> pa.Schema | None:
    """The unified Arrow schema of a MATERIALIZED ``ds``'s non-empty blocks
    (None if it has no rows). Empty blocks may carry a stale or null-typed
    schema and pandas blocks report numpy dtypes, so each non-empty block
    reports its own Arrow schema where it lives; only schemas travel."""
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    if not refs:
        return None
    return pa.unify_schemas(
        ray.get([_block_arrow_schema.remote(r) for r in refs]),
        promote_options="permissive")


def _resolve_small(small) -> pa.Table:
    """The broadcast payload is either a driver-built pa.Table (tiny/empty
    lookups) or a LIST OF BLOCK REFS (the normal path): the lookup's blocks
    stay in the object store and each task ray.gets them zero-copy (plasma
    mmap) and concatenates metadata-only — the driver never copies the
    lookup's bytes, which removed an O(|lookup|) driver-serial section from
    every broadcast join (measured ~1s per join at a 600k-row signature
    table)."""
    if isinstance(small, pa.Table):
        return small
    blocks = [b for b in map(_as_arrow_block, ray.get(list(small)))
              if b.num_rows]
    if not blocks:
        return (_as_arrow_block(ray.get(small[0])).slice(0, 0)
                if small else pa.table({}))
    return pa.concat_tables(blocks, promote_options="default")


def _empty_joined(t: pa.Table, small: pa.Table) -> pa.Table:
    """The joined schema for an empty probe batch: empty batches carry
    null-typed columns, which the Arrow join kernel rejects; they take the
    lookup's type (else string), and the lookup's columns are appended."""
    cols = {}
    for f in t.schema:
        typ = f.type
        if pa.types.is_null(typ):
            typ = (small.schema.field(f.name).type
                   if f.name in small.column_names else pa.string())
        cols[f.name] = pa.array([], typ)
    for f in small.schema:
        cols.setdefault(f.name, pa.array([], f.type))
    return pa.table(cols)


class _GatherMerge:
    """Broadcast unique-key lookup realized as a vectorized gather: probe by
    searchsorted over presorted key hashes (built ONCE on the driver from
    distributed per-block hashes — 8 bytes/row to the driver, never the
    data), take matched lookup rows, confirm key equality exactly. No
    per-batch hash table build."""

    def __init__(self, ref, on: list[str], how: str):
        self.ref = ref
        self.on = on
        self.how = how
        self._state = None

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self._state is None:
            small, sorted_h, order = ray.get(self.ref)
            self._state = (_resolve_small(small), sorted_h, order)
        small, sorted_h, order = self._state
        non_key = [c for c in small.column_names if c not in self.on]

        if t.num_rows == 0:
            return _empty_joined(t, small)

        for i, f in enumerate(t.schema):
            if pa.types.is_null(f.type) and f.name in small.column_names:
                t = t.set_column(
                    i, f.name, t[f.name].cast(small.schema.field(f.name).type))

        ph = key_hashes(t, self.on)
        if len(sorted_h):
            pos = np.minimum(np.searchsorted(sorted_h, ph),
                             len(sorted_h) - 1)
            cand = order[pos]
            matched = sorted_h[pos] == ph
        else:
            cand = np.zeros(len(ph), np.int64)
            matched = np.zeros(len(ph), bool)

        if matched.any():
            idx = pa.array(cand, pa.int64())
            for k in self.on:
                right_k = small[k].take(idx)
                lt_type = t.schema.field(k).type
                if right_k.type != lt_type:
                    right_k = right_k.cast(lt_type)
                eq = pc.fill_null(pc.equal(t[k], right_k), False)
                matched &= eq.to_numpy(zero_copy_only=False).astype(bool)

        if self.how in ("semi", "anti"):
            return t.filter(pa.array(matched if self.how == "semi"
                                     else ~matched))
        if self.how == "inner":
            t_out = t.filter(pa.array(matched))
            gidx = pa.array(cand[matched], pa.int64())
        else:
            t_out = t
            gidx = pa.array(cand, mask=~matched, type=pa.int64())
        for c in non_key:
            t_out = t_out.append_column(c, small[c].take(gidx))
        return t_out


def lookup_join(
    ds: ray.data.Dataset,
    lookup: ray.data.Dataset | pd.DataFrame,
    on: list[str],
    cfg: DedupConfig,
    how: str = "inner",
    lookup_rows: int | None = None,
) -> ray.data.Dataset:
    """ds JOIN lookup ON on — broadcast when lookup is small, else shuffle.

    ``how``: 'inner' or 'left' output the ds columns + lookup's non-key
    columns (caller guarantees no name collisions). 'semi' / 'anti' keep
    the ds rows whose key does / does not occur in lookup and append
    nothing: lookup is projected to its keys, and a duplicated lookup key
    never duplicates a ds row. A null key matches nothing.
    """
    keys_only = how in ("semi", "anti")
    small_refs: list | None = None
    if isinstance(lookup, pd.DataFrame):
        small = pa.Table.from_pandas(lookup[on] if keys_only else lookup,
                                     preserve_index=False)
    else:
        lookup = (lookup.select_columns(list(on)) if keys_only
                  else lookup).materialize()
        n = lookup_rows if lookup_rows is not None else lookup.count()
        if broadcast_ok(lookup, cfg, rows=n):
            if n > 0:
                # broadcast BY REFERENCE: keep the lookup's blocks in the
                # object store and ship the ref list; only the 8-byte/row
                # key hashes (computed distributed, per block) reach the
                # driver for the one argsort that builds the probe index
                small_refs = [r for r in lookup.to_arrow_refs()]
                hs = ray.get([_block_key_hashes.remote(r, list(on))
                              for r in small_refs])
                kh = (np.concatenate(hs) if hs
                      else np.zeros(0, np.uint64))
                small = None
            else:
                arrow_schema = _arrow_schema(lookup)
                left = getattr(ds.schema(), "base_schema", None)
                if arrow_schema is None:
                    # a FULLY empty dataset can lose its schema entirely
                    # (Dataset.schema() -> None); the join keys' types are
                    # still known from the probe side, and an all-empty
                    # lookup contributes no other columns to the output
                    if left is None:
                        # BOTH sides schema-less empty: the join of nothing
                        # with nothing is the (empty) probe side
                        return ds
                    arrow_schema = pa.schema([left.field(c) for c in on])
                # empty datasets can also report a STALE schema: a lazy
                # rename_columns/Project over zero blocks is dropped, so the
                # key columns may appear under their pre-rename names.
                # Synthesize the missing key fields from the probe side (the
                # stale-named leftovers become empty value columns, which the
                # merge fills with nulls — harmless).
                for c in on:
                    if arrow_schema.get_field_index(c) == -1:
                        if left is None:
                            return ds
                        arrow_schema = arrow_schema.append(left.field(c))
                small = arrow_schema.empty_table()
        else:
            # materialized: a lazy probe's schema() would run its plan up
            # to the first block, ALL of it above a shuffle (two chained
            # 240k x 60k joins: 6.9 s vs 4.5 s at 8 buckets, 4 CPUs)
            ds = ds.materialize()
            left = _rows_schema(ds)
            if left is None:  # an empty probe joins to nothing
                return ds
            # the lookup's keys take the probe's types (string vs
            # large_string), as on the broadcast tier: shuffle_join's pad
            # casts every block to these schemas
            right = pa.schema([left.field(f.name) if f.name in on else f
                               for f in _rows_schema(lookup)])
            # the sort shuffle emits one block per INPUT block: 64-block
            # sides at 8 partitions gave 128 (60k x 60k: 8.5 s vs 1.3 s split)
            n = cfg.num_partitions
            return shuffle_join(ensure_blocks(ds, n), ensure_blocks(lookup, n),
                                list(on), how, num_buckets=n,
                                left_schema=left, right_schema=right)

    if small_refs is None:
        small = small.combine_chunks()
        kh = key_hashes(small, on)
    payload = small_refs if small_refs is not None else small

    # Unique-key fast path: when every lookup key is distinct (signature
    # attach, label/cluster/rep lookups — the common case here), the join is
    # a GATHER, not a join: presort the key hashes ONCE on the driver and
    # ship (sorted_hashes, permutation, block refs); each batch does a
    # searchsorted probe + take. pa.Table.join would rebuild a hash table
    # over the whole lookup for EVERY batch (measured: 2/3 of the signature
    # attach cost at 60k rows x 64 blocks). Hash equality is confirmed
    # against the actual key values, so a 64-bit collision can only cause a
    # fallback-free exact mismatch -> row treated as unmatched, never a
    # wrong match.
    order = np.argsort(kh, kind="stable")
    sorted_h = kh[order]
    unique_keys = bool(len(sorted_h) == 0 or (sorted_h[1:] != sorted_h[:-1]).all())
    if unique_keys:
        ref = ray.put((payload, sorted_h, order.astype(np.int64)))
        return ds.map_batches(
            _GatherMerge(ref, list(on), how), batch_format="pyarrow")

    ref = ray.put(payload)
    pa_join_type = {"inner": "inner", "left": "left outer",
                    "semi": "left semi", "anti": "left anti"}[how]

    class Merge:
        """Task-mode broadcast merge: the lookup lives in the object store
        (ray.put once); each task ray.gets it — plasma-local after the first
        fetch on a node, so no per-batch re-ship and no actor-pool ramp.
        The per-batch join is Arrow-native (pa.Table.join, C++ hash join) —
        no pandas round trip inside otherwise Arrow-only stages."""

        def __init__(self):
            self.lookup = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.lookup is None:
                self.lookup = _resolve_small(ray.get(ref)).combine_chunks()
            right = self.lookup
            if t.num_rows == 0:
                return _empty_joined(t, right)
            # align types (string vs large_string, residual null-typed
            # columns from earlier outer joins) for the Arrow join kernel
            for i, f in enumerate(t.schema):
                if pa.types.is_null(f.type) and f.name in right.column_names:
                    t = t.set_column(
                        i, f.name,
                        t[f.name].cast(right.schema.field(f.name).type))
            for k in on:
                lt = t.schema.field(k).type
                if right.schema.field(k).type != lt:
                    idx = right.column_names.index(k)
                    right = right.set_column(idx, k, right[k].cast(lt))
            return t.join(right, keys=on, join_type=pa_join_type)

    return ds.map_batches(Merge(), batch_format="pyarrow")


def shuffle_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    how: str = "full outer",
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Hash-co-partitioned shuffle join: the join for two LARGE sides
    (neither fits a broadcast), outer joins included, and ``lookup_join``'s
    tier above ``broadcast_limit``. 'semi' / 'anti' keep the left rows whose
    key does / does not occur on the right, with the left columns only; a
    duplicated right key never duplicates a left row.

    Plan: pad each side to the combined schema (typed nulls, zero-copy for
    the real columns), tag the side, union the two streams, and run ONE
    Arrow C++ join per key-hash partition through ``hash_grouped_reduce``
    — the single all-to-all carries each row exactly once, and
    per-partition memory is |rows|/num_buckets per side. Padding also gives
    every block, empty or stale-schema'd, the full typed schema.
    Key-skew caveat: a single key lands in one bucket; salt upstream if one
    key dominates (same discipline as the LSH hot-bucket path).
    """
    # a side without a schema is materialized once and its schema read
    # from its blocks: a lazy side's schema() would run its plan up to the
    # first block (all of it above a shuffle), cancel the rest and leave
    # the join to run it again; pandas blocks type a string column as
    # ``object``, which only the blocks' own Arrow schemas resolve
    ls, rs = left_schema, right_schema
    if ls is None:
        left = left.materialize()
        ls = _rows_schema(left) or _arrow_schema(left)
    if rs is None:
        right = right.materialize()
        rs = _rows_schema(right) or _arrow_schema(right)
    if ls is None or rs is None:
        # a side that produced zero blocks (e.g. a fully-filtered read
        # feeding map_batches) has no derivable schema
        raise ValueError(
            "shuffle_join: side has no derivable schema (empty dataset) — "
            "pass left_schema/right_schema explicitly")
    for k in on:
        if ls.field(k).type != rs.field(k).type:
            raise TypeError(f"join key {k}: {ls.field(k).type} != {rs.field(k).type}")
    l_cols = list(ls.names)
    r_extra = ([] if how in ("semi", "anti")
               else [f.name for f in rs if f.name not in on])
    combined = list(ls) + [rs.field(c) for c in r_extra]

    def pad(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {}
            for f in combined:
                if f.name in t.column_names:
                    col = t[f.name]
                    cols[f.name] = col.cast(f.type) if col.type != f.type else col
                else:
                    cols[f.name] = pa.nulls(n, f.type)
            return pa.table(cols).append_column(
                "__side", pa.array(np.full(n, side, np.int8)))
        return fn

    pa_how = {"inner": "inner", "left": "left outer",
              "semi": "left semi", "anti": "left anti",
              "full outer": "full outer", "full_outer": "full outer"}[how]

    def join_bucket(g: pa.Table) -> pa.Table:
        lt = (g.filter(pc.equal(g["__side"], pa.scalar(0, pa.int8())))
              .select(l_cols))
        rt = (g.filter(pc.equal(g["__side"], pa.scalar(1, pa.int8())))
              .select(on + r_extra))
        out = lt.join(rt, keys=on, join_type=pa_how)
        return out.select(l_cols + r_extra)

    return hash_grouped_reduce(
        [left.map_batches(pad(0), batch_format="pyarrow"),
         right.map_batches(pad(1), batch_format="pyarrow")],
        list(on), join_bucket, num_buckets)
