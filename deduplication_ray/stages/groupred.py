"""High-cardinality grouped reduction without per-group overhead.

Ray Data's ``groupby().aggregate()`` pays a per-distinct-group cost in its
aggregation machinery: measured 26s for a Sum over 3.6M rows / 2.8M groups
vs 1.2s for the same reduction expressed as hash-partition + one vectorized
merge per partition (single node, 32 CPUs). When the group count is ~O(rows)
— edge dedupe keys, union-find node labels, content keys — that per-group
cost dominates the whole pipeline, so every such reduction here goes through
this helper instead: add ``part = key_hash % num_parts``, shuffle on the
small-int part key, and run ONE vectorized ``reduce_fn`` per partition
(sort + ``np.add.reduceat`` / pandas groupby), which handles all of its
groups at once.

Shuffle joins run here too (``join.shuffle_join``). Ray's aggregate stays
the right tool for LOW-cardinality groupbys (the relational queries' 6-way
aggregates) where partial combining shrinks the shuffle; this helper is for
the group-per-row regime. Contract: every row of a key lands wholly in one
partition (hashing the key guarantees it); ``reduce_fn`` keeps no state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray.data

_PART_COL = "__part"


def hash_grouped_reduce(
    ds: ray.data.Dataset | list[ray.data.Dataset],
    key_hash: Callable[[pa.Table], np.ndarray],
    reduce_fn: Callable[[pa.Table], pa.Table],
    num_parts: int,
) -> ray.data.Dataset:
    """Partition rows by ``key_hash(batch) % num_parts`` and apply the
    vectorized ``reduce_fn`` once per partition.

    ``key_hash`` returns a uint64 array (one hash per row); ``reduce_fn``
    receives the partition's rows (part column already dropped) and reduces
    every group it contains in one vectorized pass. A list of datasets is
    reduced as their union, each tagged first: the tag fuses into its
    upstream map, where after the union it would be a stage of its own."""
    n_parts = max(int(num_parts), 1)

    def add_part(t: pa.Table) -> pa.Table:
        h = key_hash(t).astype(np.uint64, copy=False)
        return t.append_column(
            _PART_COL, pa.array((h % np.uint64(n_parts)).astype(np.int64)))

    def red(t: pa.Table) -> pa.Table:
        return reduce_fn(t.drop_columns([_PART_COL]))

    first, *rest = [d.map_batches(add_part, batch_format="pyarrow",
                                  batch_size=None)
                    for d in (ds if isinstance(ds, list) else [ds])]
    tagged = first.union(*rest) if rest else first
    return tagged.groupby(_PART_COL).map_groups(red, batch_format="pyarrow")
