"""Distributed union-find: iterative hash-min label propagation (T12).

The reference's connectivity notion is trivial — a block either equals a
dictionary entry or it doesn't (``/root/reference/src/dictionary.c:49-59``).
Near-dup clustering needs transitive closure over the verified edge set, as a
*distributed* algorithm: no driver-side union-find, no shared mutable index.

``connected_components`` is the one entry point of every engine. Below
``cfg.local_uf_limit`` edges it runs ``local_components`` (one vectorized
pass in the driver); above it, hash-min rounds over Datasets:

  labels(node, label) init: label = node
  each round:
    msgs  = bidirectional(edges) JOIN labels ON nbr  -> (node, nbr_label)
    new   = (msgs UNION labels).groupby(node).min(label)
  stop when label_state_hash(new) == label_state_hash(old) (a round that
  changed nothing); more than cfg.max_rounds rounds raise.

min(label) over string image_ids converges to the min image_id of each
component — the deterministic, parallel-safe analog of the reference's
first-occurrence representative ids (``compressor.c:109-113``). Star+chain
candidate edges keep component diameters small, so rounds = O(log n) in
practice (3-5 on the fixtures).

Each round can checkpoint its frontier (labels Dataset) — that is the
"resume mid-shuffle" story: a killed job restarts at round k, not row 0
(``image_dedup.checkpointed_clusters`` runs round k as stage
``labels_r{k}`` and resumes from the latest one).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig


def init_labels(edges: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """One (node, label=node) row per distinct edge endpoint.

    Nodes outside any edge are singletons and never enter propagation; the
    finalize step (pipelines) left-joins labels onto the full id column.
    """
    def split(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["src"].combine_chunks().cast(pa.string()),
             t["dst"].combine_chunks().cast(pa.string())]
        )
        return pa.table({"node": ids})

    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.tuning import ensure_blocks

    nodes = ensure_blocks(edges.map_batches(split, batch_format="pyarrow"),
                          num_partitions)

    # distinct at group-per-row cardinality: hash-partition by node, ONE
    # vectorized pc.unique per partition (Ray's aggregate pays a per-
    # distinct-group cost that dominates in this regime)
    def red(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        uniq = pc.unique(t["node"].combine_chunks())
        return pa.table({"node": uniq, "label": uniq})

    return hash_grouped_reduce(
        nodes,
        lambda t: H.hash_bytes_array(t["node"].combine_chunks().cast(pa.string())),
        red,
        num_partitions,
    )


def propagate_round(
    labels: ray.data.Dataset, edges_bidir: ray.data.Dataset, cfg: DedupConfig
) -> ray.data.Dataset:
    """One hash-min round: neighbor labels + own label -> min per node.

    The labels table only covers edge endpoints, so it broadcasts below
    cfg.broadcast_limit (lookup_join falls back to a hash join above). The
    min-reduce is hash-partitioned by node with one vectorized pandas
    groupby-min per partition (group-per-row cardinality)."""
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.join import lookup_join

    msgs = lookup_join(
        edges_bidir,
        labels.rename_columns({"node": "nbr", "label": "nbr_label"}),
        on=["nbr"],
        cfg=cfg,
    ).select_columns(["node", "nbr_label"]).rename_columns({"nbr_label": "label"})
    allmsgs = labels.union(msgs)

    schema = pa.schema([("node", pa.string()), ("label", pa.string())])

    def red(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df.groupby("node", sort=False)["label"].min().reset_index()
        # explicit schema: empty frames round-trip to Arrow null type
        return pa.Table.from_pandas(out, preserve_index=False).cast(schema)

    return hash_grouped_reduce(
        allmsgs,
        lambda t: H.hash_bytes_array(t["node"].combine_chunks().cast(pa.string())),
        red,
        cfg.num_partitions,
    )


def label_state_hash(labels: ray.data.Dataset) -> int:
    """Order-independent fingerprint of the (node, label) assignment: sum of
    mixed per-row hashes (u64 wraparound). One tiny aggregate per round —
    replaces a per-round join for convergence detection; collision odds are
    ~rounds/2^64."""
    import numpy as np

    from deduplication_ray.functions import hashing as H

    def part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([0], pa.int64())})
        hn = H.hash_bytes_array(t["node"].combine_chunks().cast(pa.string()))
        hl = H.hash_bytes_array(t["label"].combine_chunks().cast(pa.string()))
        with np.errstate(over="ignore"):
            s = H.hash_u64_pair(hn, hl).sum(dtype=np.uint64)
        return pa.table({"h": pa.array([np.int64(s.astype(np.int64))], pa.int64())})

    total = np.uint64(0)
    for b in labels.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        # iter_batches may coalesce several partials into one batch — sum ALL
        with np.errstate(over="ignore"):
            total += b["h"].to_numpy().view(np.uint64).sum(dtype=np.uint64)
    return int(total)


def local_components(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Size-dispatched LOCAL fast path for small edge sets: one vectorized
    min-label propagation with pointer doubling over numpy index arrays.

    The distributed rounds pay ~4 dataset executions (broadcast join,
    partitioned reduce, state hash, checkpoint) per round — tens of seconds
    of barrier latency for an edge set that fits in one worker's heap. Below
    ``cfg.local_uf_limit`` edges this computes identical labels (min
    image_id per component, same as hash-min fixpoint) in one pass.
    ``connected_components`` keeps the distributed path above the limit —
    that is the 10^12-row story; this is the everything-converged-already
    story.
    """
    tbls = list(edges.select_columns(["src", "dst"])
                .iter_batches(batch_format="pyarrow", batch_size=None))
    if not tbls:
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.string()),
             "label": pa.array([], pa.string())}))
    t = pa.concat_tables(tbls, promote_options="default")
    src = t["src"].to_pandas().to_numpy()
    dst = t["dst"].to_pandas().to_numpy()
    ids = np.concatenate([src, dst])
    # hash-based factorize instead of np.unique: no lexicographic sort of
    # ~2|E| strings (the dominant serial cost of this driver pass — ~1.5s
    # at 825k edges). The propagation needs ids ordered so that min INDEX
    # == min image_id; factorize codes are first-occurrence-ordered, so
    # build that order explicitly over the (much smaller) distinct set.
    codes, uniq_unordered = pd.factorize(ids, sort=False)
    order = np.argsort(uniq_unordered, kind="stable")  # distinct-only sort
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    inv = rank[codes]
    uniq = uniq_unordered[order]
    m = len(src)
    es, ed = inv[:m], inv[m:]
    lab = np.arange(len(uniq), dtype=np.int64)
    # uniq is lexicographically sorted, so min INDEX per component == min
    # image_id per component — exactly the distributed hash-min fixpoint
    for _ in range(64):
        l2 = lab.copy()
        np.minimum.at(l2, es, lab[ed])
        np.minimum.at(l2, ed, lab[es])
        l2 = l2[l2]
        l2 = l2[l2]
        if np.array_equal(l2, lab):
            break
        lab = l2
    else:  # pragma: no cover - 2^64-diameter component cannot exist
        raise RuntimeError("local union-find did not converge")
    uniq_pa = pa.array(uniq, pa.string())
    return ray.data.from_arrow(pa.table(
        {"node": uniq_pa, "label": uniq_pa.take(pa.array(lab, pa.int64()))}))


def bidirectional(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(src,dst) -> (node, nbr) both directions, projected lean."""

    def expand(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().cast(pa.string())
        dst = t["dst"].combine_chunks().cast(pa.string())
        return pa.table(
            {
                "node": pa.concat_arrays([src, dst]),
                "nbr": pa.concat_arrays([dst, src]),
            }
        )

    return edges.map_batches(expand, batch_format="pyarrow")


def connected_components(
    edges: ray.data.Dataset,
    cfg: DedupConfig,
    checkpoint_cb=None,
    *,
    run_round=None,
    resume: tuple[int, ray.data.Dataset] | None = None,
    edge_rows: int | None = None,
) -> ray.data.Dataset:
    """Run label propagation to fixpoint; returns labels(node, label).

    The only local/distributed dispatch: ``local_components`` (reported as
    round 0) when ``edges`` hold at most ``cfg.local_uf_limit`` rows, else
    hash-min rounds 0 .. ``cfg.max_rounds - 1``.

    ``checkpoint_cb(round_idx, labels_ds) -> labels_ds`` sees each round's
    materialized frontier (and lets tests kill/resume mid-run).
    ``run_round(round_idx, compute) -> labels_ds`` replaces the default
    ``compute().materialize()`` + ``checkpoint_cb`` step, so a checkpointed
    run can time and persist each round's compute as one stage.
    ``resume=(k, labels_rk)`` continues the distributed rounds after round
    k; on the local tier a resumed round 0 is the final labels (every
    config field is in the checkpoint's config hash, so it can only be
    ``local_components``' output) and is returned as is. ``edge_rows`` is
    the known row count of ``edges`` (skips counting).
    """
    from deduplication_ray.stages.tuning import apply_context_tuning, ensure_blocks

    if run_round is None:
        def run_round(rnd, compute):
            labels = compute().materialize()
            return labels if checkpoint_cb is None else checkpoint_cb(rnd, labels)

    apply_context_tuning()
    if edge_rows is None:
        edges = edges.materialize()
        edge_rows = edges.count()
    if edge_rows <= cfg.local_uf_limit:
        if resume is not None:
            return resume[1]
        return run_round(0, lambda: local_components(edges))
    eb = ensure_blocks(bidirectional(edges), cfg.num_partitions).materialize()
    if resume is None:
        last, labels = -1, init_labels(edges, cfg.num_partitions).materialize()
    else:
        last, labels = resume
    prev_hash = label_state_hash(labels)
    for rnd in range(last + 1, cfg.max_rounds):
        labels = run_round(rnd, lambda: propagate_round(labels, eb, cfg))
        new_hash = label_state_hash(labels)
        if new_hash == prev_hash:
            return labels
        prev_hash = new_hash
    raise RuntimeError(
        f"union-find did not converge in {cfg.max_rounds} rounds — "
        "component diameter exceeds the round cap; raise cfg.max_rounds"
    )
