"""Relational query operators over the driver testdata (TPC-H-ish tables).

Each function takes ``sf_dir`` and returns a Dataset / pandas DataFrame whose
column NAMES and values match the DuckDB oracle SQL registered in
``__ray_entry__.oracle_sql()`` (the driver compares row-count + schema +
order-insensitive value hash). These exercise the engine's relational
sub-operators: groupby-aggregate with partial combine, broadcast joins,
hash-partitioned joins, filter/projection pushdown, sort/top-k, distinct,
tumbling windows, semi-join.

Reference parity notes: the broadcast join is the R17 gather generalized
(``/root/reference/src/compressor.c:320-339`` — dictionary as small side);
groupby-min rep election is R8 (``compressor.c:105-114``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.sources import storage
from deduplication_ray.stages.groupred import hash_grouped_reduce
from deduplication_ray.stages.join import lookup_join


def _read(sf_dir: str, table: str, columns: list[str] | None = None,
          **kwargs) -> ray.data.Dataset:
    """Column pruning + optional row-filter pushdown (``filter=`` a pyarrow
    dataset expression): selective predicates skip whole row groups at the
    parquet scan, so filtered-out rows never leave storage."""
    return storage.read_table(f"{sf_dir}/{table}.parquet", columns=columns,
                              **kwargs)


def _collect_int_column(ds: ray.data.Dataset, col: str) -> np.ndarray:
    """Driver collect of one int64 column of a BOUNDED dataset. Empty-safe:
    ``Dataset.to_pandas()`` on zero rows returns a COLUMN-LESS frame (schema
    loss), which a plain ``df[col]`` turns into a KeyError."""
    df = ds.select_columns([col]).to_pandas()
    if col not in df.columns:
        return np.empty(0, dtype=np.int64)
    return df[col].to_numpy()


# ---------------------------------------------------------------- groupby-agg

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: filtered groupby-aggregate with partial combine.
    Column pruning at the read; revenue computed vectorized per batch."""
    import datetime

    # shipdate predicate pushed to the parquet scan; the column itself is
    # then not even projected (filter columns need not be read columns)
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount"],
               filter=(pc.field("l_shipdate") <= datetime.datetime(1998, 9, 2)))

    def prep(t: pa.Table) -> pa.Table:
        # money in integer cents / 1e-4 units: float sums are order-dependent
        # across partitions, integer sums are exact + associative, so the
        # DuckDB oracle hash-compares bit-identically at any parallelism
        qty = pc.round(t["l_quantity"]).cast(pa.int64())
        base_c = pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64())
        disc = pc.multiply(
            pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0),
        )
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": qty,
            "base_cents": base_c,
            "disc_e4": pc.round(disc).cast(pa.int64()),
        })

    out = ds.map_batches(prep, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]
    ).aggregate(
        Sum("qty", alias_name="sum_qty"),
        Sum("base_cents", alias_name="sum_base_price_cents"),
        Sum("disc_e4", alias_name="sum_disc_price_e4"),
        Count(alias_name="count_order"),
    )
    return out


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS sum_disc_price_e4,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------- broadcast join

def q_broadcast_join(sf_dir: str):
    """orders x customer via BROADCAST of the small dimension side
    (``lookup_join``: one gather per batch, no shuffle — the idiomatic R17
    small-side gather)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .rename_columns({"c_custkey": "o_custkey"})

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "price_cents": pc.round(pc.multiply(
                t["o_totalprice"], pa.scalar(100.0))).cast(pa.int64()),
        })

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    out = lookup_join(orders, cust, on=["o_custkey"], cfg=DedupConfig()) \
        .map_batches(cents, batch_format="pyarrow") \
        .groupby("c_mktsegment").aggregate(
            Count(alias_name="n_orders"),
            Sum("price_cents", alias_name="total_price_cents"),
        )
    return out


Q_BROADCAST_JOIN_SQL = """
SELECT c_mktsegment, count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_price_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


# ---------------------------------------------------------------- hash join + top-k

def q_top_revenue_orders(sf_dir: str, k: int = 10):
    """lineitem revenue per order + top-k, enriched with orders attributes.

    Scale plan (no all-to-all join, no global sort): (1) per-order revenue
    via hash_grouped_reduce — orderkey cardinality is O(rows), the regime
    where Ray's aggregate pays per-group costs; (2) per-block partial top-K
    then one tiny final reduce (K*num_blocks rows); (3) o_orderpriority for
    the <= 5K candidate keys via a broadcast-keyset filter pass over orders
    (columns pruned) — the only driver materializations are O(K) rows.
    """
    from deduplication_ray.functions import hashing as H
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0))).cast(pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"], "revenue_part": r})

    def sum_by_key(t: pa.Table) -> pa.Table:
        ks = t["l_orderkey"].to_numpy()
        vs = t["revenue_part"].to_numpy()
        order = np.argsort(ks, kind="stable")
        ks, vs = ks[order], vs[order]
        starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
        return pa.table({
            "l_orderkey": ks[starts],
            "revenue_e4": np.add.reduceat(vs, starts).astype(np.int64),
        })

    li_rev = hash_grouped_reduce(
        li.map_batches(rev, batch_format="pyarrow"),
        key_hash=["l_orderkey"],
        reduce_fn=sum_by_key,
        num_parts=32,
    )

    # candidate margin 5K: correct as long as fewer than 4K of the global
    # top-5K revenue keys lack an orders row (with referential integrity,
    # zero do — the margin guards the inner-join semantics regardless)
    kcand = max(k * 5, 50)

    def ptop(t: pa.Table) -> pa.Table:
        if t.num_rows <= kcand:
            return t
        idx = pc.sort_indices(t, sort_keys=[("revenue_e4", "descending"),
                                            ("l_orderkey", "ascending")])
        return t.take(idx[:kcand])

    cand_tbls = list(
        li_rev.map_batches(ptop, batch_format="pyarrow")
        .repartition(1)
        .map_batches(ptop, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    cand = pa.concat_tables(cand_tbls) if cand_tbls else pa.table(
        {"l_orderkey": pa.array([], pa.int64()),
         "revenue_e4": pa.array([], pa.int64())})

    keys = pd.DataFrame({"o_orderkey": cand["l_orderkey"].to_numpy()})
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    matched = pa.concat_tables(
        list(lookup_join(orders, keys, on=["o_orderkey"], cfg=DedupConfig(),
                         how="semi")
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default") if len(cand) else cand

    out = cand.join(matched.rename_columns(["l_orderkey", "o_orderpriority"]),
                    keys=["l_orderkey"], join_type="inner")
    idx = pc.sort_indices(out, sort_keys=[("revenue_e4", "descending"),
                                          ("l_orderkey", "ascending")])
    return out.take(idx[:k]).select(
        ["l_orderkey", "revenue_e4", "o_orderpriority"])


Q_TOP_REVENUE_ORDERS_SQL = """
SELECT l_orderkey,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4,
       o_orderpriority
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY l_orderkey, o_orderpriority
ORDER BY revenue_e4 DESC, l_orderkey LIMIT 10
"""


# ---------------------------------------------------------------- sort / limit

def q_sort_limit(sf_dir: str):
    """Global ORDER BY ... LIMIT k: Ray's distributed range sort feeding a
    bounded limit — top-10 orders by total price."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


Q_SORT_LIMIT_SQL = """
SELECT o_orderkey, o_totalprice, o_orderdate
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


# ---------------------------------------------------------------- filter + agg

def q_filter_agg(sf_dir: str):
    """Filtered groupby-aggregate in exact integer cents; the quantity
    predicate is pushed INTO the parquet scan (row-group pruning), so
    filtered rows never leave storage."""
    # predicate pushed to the parquet scan: row groups whose max quantity
    # is <= 45 are never read off storage
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"],
               filter=(pc.field("l_quantity") > 45))

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "price_cents": pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64()),
            "l_quantity": t["l_quantity"],
        })

    return ds.map_batches(
        cents, batch_format="pyarrow"
    ).groupby("l_returnflag").aggregate(
        Count(alias_name="n"),
        Sum("price_cents", alias_name="sum_price_cents"),
        Max("l_quantity", alias_name="max_qty"),
    )


Q_FILTER_AGG_SQL = """
SELECT l_returnflag, count(*) AS n,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       max(l_quantity) AS max_qty
FROM lineitem WHERE l_quantity > 45 GROUP BY l_returnflag
"""


# ---------------------------------------------------------------- distinct

def q_distinct_pairs(sf_dir: str):
    """Distinct (lang, source) — groupby-count then project keys (the
    scalable distinct; Dataset.unique is single-column only)."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    g = ds.groupby(["lang", "source"]).aggregate(Count(alias_name="_n"))
    return g.select_columns(["lang", "source"])


Q_DISTINCT_PAIRS_SQL = "SELECT DISTINCT lang, source FROM documents"


# ---------------------------------------------------------------- top-k groups

def q_topk_sources(sf_dir: str):
    """Top-k groups by count: pre-aggregated groupby (partials combine
    before the exchange) then a bounded sort+limit over |sources| rows."""
    ds = _read(sf_dir, "documents", ["source"])
    g = ds.groupby("source").aggregate(Count(alias_name="n_docs"))
    return g.sort(["n_docs", "source"], descending=[True, False]).limit(5)


Q_TOPK_SOURCES_SQL = """
SELECT source, count(*) AS n_docs FROM documents
GROUP BY source ORDER BY n_docs DESC, source LIMIT 5
"""


# ---------------------------------------------------------------- windows

def q_events_window(sf_dir: str):
    """Tumbling 1-day window per event_type: streaming-shaped groupby."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def window(t: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(t["ts"], unit="day"), format="%Y-%m-%d")
        return pa.table({
            "event_type": t["event_type"],
            "day": day,
            "value_cents": pc.round(pc.multiply(t["value"], pa.scalar(100.0))).cast(pa.int64()),
        })

    return ds.map_batches(window, batch_format="pyarrow").groupby(
        ["event_type", "day"]
    ).aggregate(
        Count(alias_name="n_events"),
        Sum("value_cents", alias_name="sum_value_cents"),
    )


Q_EVENTS_WINDOW_SQL = """
SELECT event_type, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY event_type, day
"""


# ---------------------------------------------------------------- semi join

def q_semi_join(sf_dir: str):
    """Customers with at least one high-value order: broadcast key-set
    semi-join (Bloom-filter pattern, exact set at this scale)."""
    # predicate pushed to the parquet scan (row-group pruning at the source)
    hot = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                filter=(pc.field("o_totalprice") > 300000.0))

    def f(t: pa.Table) -> pa.Table:
        return t.select(["o_custkey"])

    # distributed distinct first: the broadcast lookup is the bounded set of
    # distinct hot customers, not the raw filtered stream
    distinct = (hot.map_batches(f, batch_format="pyarrow")
                .groupby("o_custkey").aggregate(Count(alias_name="_n"))
                .select_columns(["o_custkey"])
                .rename_columns({"o_custkey": "c_custkey"}))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    out = lookup_join(cust, distinct, on=["c_custkey"], cfg=DedupConfig(),
                      how="semi")
    return out.groupby("c_nationkey").aggregate(Count(alias_name="n_customers"))


Q_SEMI_JOIN_SQL = """
SELECT c_nationkey, count(*) AS n_customers
FROM customer WHERE c_custkey IN (
  SELECT o_custkey FROM orders WHERE o_totalprice > 300000.0)
GROUP BY c_nationkey
"""


# ---------------------------------------------------------------- exact dedup (documents)

def q_exact_dedup_docs(sf_dir: str):
    """Exact dedup by content: min-id representative + group size per text.
    The reference's R8 in relational form (first-occurrence -> min id)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.groupby("text").aggregate(
        Min("doc_id", alias_name="rep_id"),
        Count(alias_name="n_copies"),
    )


Q_EXACT_DEDUP_DOCS_SQL = """
SELECT text, min(doc_id) AS rep_id, count(*) AS n_copies
FROM documents GROUP BY text
"""


# ---------------------------------------------------------------- session windows

def q_sessionize(sf_dir: str, gap_minutes: int = 30, num_buckets: int = 32):
    """Session windows over the events stream: per user, a new session starts
    after a > gap_minutes silence. Scale shape: ``hash_grouped_reduce``
    keyed on user_id co-locates each user's rows in one of ``num_buckets``
    partitions, then ONE vectorized pandas pass per partition (the user
    window queries below share this exchange) — sort by (user, ts),
    boundary-aware diff/cumsum across all users at once. No per-user Python call: the work
    per key is O(1) amortized regardless of user cardinality.

    Returns (user_id, session_id, n_events) matching the DuckDB window SQL.
    """
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        sid = (new_user | gap).cumsum()
        start = sid.where(new_user).ffill()  # sid at each user's first row
        g = g.assign(session_id=(sid - start).astype("int64"))
        out = (g.groupby(["user_id", "session_id"], sort=False).size()
                .rename("n_events").reset_index())
        return out[["user_id", "session_id", "n_events"]]

    return hash_grouped_reduce(ds, ["user_id"], sessionize_bucket, num_buckets,
                               batch_format="pandas")


Q_SESSIONIZE_SQL = """
SELECT user_id, session_id, count(*) AS n_events FROM (
  SELECT user_id,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM (
    SELECT user_id, ts,
           CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
    FROM events))
GROUP BY user_id, session_id
"""


def q_dedup_keep_first(sf_dir: str):
    """The deduplicated id set: rows whose doc_id is its text-group min."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    mins = ds.groupby("text").aggregate(Min("doc_id", alias_name="rep_id"))
    return mins.select_columns(["rep_id"]).rename_columns({"rep_id": "doc_id"})


Q_DEDUP_KEEP_FIRST_SQL = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
"""


def q_dedup_keep_first_lowshuffle(sf_dir: str):
    """``dedup_keep_first`` where full text payloads shuffle ONLY for rows
    whose 64-bit content hash is globally duplicated — the low-wire exact
    dedup plan for corpora whose dup share is a minority.

    The one-shot plan (``groupby(text).min``) ships EVERY text byte through
    the all-to-all exchange. This plan ships, per pass:

    1. 8 bytes per per-batch-DISTINCT content hash (pre-aggregated in-batch,
       so a batch full of copies sends one row) into a hash-keyed count
       aggregate bounded by |distinct contents|;
    2. the sorted set of hashes with global count >= 2 — bounded by
       |distinct DUPLICATED contents|, the small side by construction —
       broadcast once via ``ray.put``;
    3. text payloads of ONLY the rows probing into that set, into the exact
       min-id election. Rows outside the set are provably unique (the hash
       dup set OVER-approximates the text dup set), so they stream straight
       to the output with ``text`` projected away at the map.

    A 64-bit collision between two distinct texts co-locates them in pass 3
    but never merges them: the election groups by the TEXT, not the hash.
    At a web-crawl dup share of ~20-40% this moves a third of the one-shot
    plan's bytes; the corpus is scanned twice (unique stream + dup stream),
    which is the documented trade — scans are cheap and pruned, exchanges
    are not. Same oracle as ``dedup_keep_first``.
    """
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def hash_counts(t: pa.Table) -> pa.Table:
        h = H.hash_bytes_array(t["text"])
        uniq, cnt = np.unique(h, return_counts=True)
        return pa.table({"h": pa.array(uniq.view(np.int64), pa.int64()),
                         "n": pa.array(cnt.astype(np.int64), pa.int64())})

    def dup_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_total"], 2)).select(["h"])

    counts = ds.map_batches(hash_counts, batch_format="pyarrow") \
        .groupby("h").aggregate(Sum("n", alias_name="n_total")) \
        .map_batches(dup_only, batch_format="pyarrow")
    dup_hashes = np.sort(_collect_int_column(counts, "h"))
    if len(dup_hashes) == 0:
        dup_hashes = np.array([np.iinfo(np.int64).min], dtype=np.int64)
    ref = ray.put(dup_hashes)

    class SplitBase:
        def __init__(self):
            self.dups = None

        def _dup_mask(self, t: pa.Table) -> np.ndarray:
            if self.dups is None:
                self.dups = ray.get(ref)
            h = H.hash_bytes_array(t["text"]).view(np.int64)
            pos = np.clip(np.searchsorted(self.dups, h), 0,
                          len(self.dups) - 1)
            return self.dups[pos] == h

    class UniqueSide(SplitBase):
        def __call__(self, t: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": t.filter(pa.array(~self._dup_mask(t)))["doc_id"]})

    class DupSide(SplitBase):
        def __call__(self, t: pa.Table) -> pa.Table:
            return t.filter(pa.array(self._dup_mask(t)))

    uniq_ids = ds.map_batches(UniqueSide(), batch_format="pyarrow")
    reps = ds.map_batches(DupSide(), batch_format="pyarrow") \
        .groupby("text").aggregate(Min("doc_id", alias_name="rep_id")) \
        .select_columns(["rep_id"]).rename_columns({"rep_id": "doc_id"})
    return uniq_ids.union(reps)


# ---------------------------------------------------------------- as-of join

def q_events_asof_orders(sf_dir: str):
    """As-of join: each event gets its user's most recent order at event
    time (ties on o_orderdate broken by max o_orderkey — deterministic) and
    the count of orders placed so far. Realized by the distributed asof_join
    operator (one key-hash shuffle + one vectorized merge per partition)."""
    from deduplication_ray.stages.asof import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    j = asof_join(
        ev, orders,
        key=("user_id", "o_custkey"),
        ts=("ts", "o_orderdate"),
        tiebreak="o_orderkey",
        right_payload=["o_orderkey"],
    )
    return j.rename_columns({"o_orderkey_asof": "last_orderkey",
                             "n_right_asof": "orders_before"})


Q_EVENTS_ASOF_ORDERS_SQL = """
SELECT e.event_id, e.user_id, e.ts,
       o.o_orderkey AS last_orderkey,
       (SELECT CAST(count(*) AS BIGINT) FROM orders oo
        WHERE oo.o_custkey = e.user_id AND oo.o_orderdate <= e.ts) AS orders_before
FROM events e
LEFT JOIN LATERAL (
  SELECT o_orderkey FROM orders o
  WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1
) o ON true
"""


# ---------------------------------------------------------------- range join

def q_events_follow_range(sf_dir: str, window_min: int = 5):
    """Range (interval) self-join, aggregated: per event, the count of
    same-user events in the FOLLOWING ``window_min`` minutes. Realized by
    the distributed range_join_count operator (one key-hash shuffle + one
    vectorized segment-offset sweep per partition — stages/rangejoin.py)."""
    from deduplication_ray.stages.rangejoin import range_join_count

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return range_join_count(
        ev, key="user_id", ts="ts",
        lo=0, hi=window_min * 60 * 1_000_000,
        out_cols=["event_id"], count_col="n_follow",
    )


Q_EVENTS_FOLLOW_RANGE_SQL = """
SELECT e.event_id,
       CAST(count(b.event_id) AS BIGINT) AS n_follow
FROM events e
LEFT JOIN events b
  ON b.user_id = e.user_id
 AND b.ts > e.ts
 AND b.ts <= e.ts + INTERVAL 5 MINUTE
GROUP BY e.event_id
"""


# ---------------------------------------------------------------- sliding window

def q_events_sliding_window(sf_dir: str, size_min: int = 60, hop_min: int = 15):
    """HOPPING (sliding) window aggregate: 1h windows every 15min — each
    event lands in size/hop = 4 overlapping windows. Realized as a per-batch
    row replication (vectorized np.repeat into the window-start column)
    feeding one low-cardinality groupby with partial combine — the
    streaming-shaped custom window operator Ray Data lacks natively."""
    ds = _read(sf_dir, "events", ["ts", "value"])
    hop_us = hop_min * 60 * 1_000_000
    n_win = size_min // hop_min

    def explode(t: pa.Table) -> pa.Table:
        ts = t["ts"].combine_chunks().to_numpy(zero_copy_only=False) \
            .view("i8").astype(np.int64)
        bucket = (ts // hop_us) * hop_us
        # windows [w, w+size) containing ts: w = bucket - j*hop, j=0..n_win-1
        starts = (np.repeat(bucket, n_win)
                  - np.tile(np.arange(n_win, dtype=np.int64) * hop_us, len(ts)))
        cents = pc.round(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy()
        return pa.table({
            "window_start": pa.array(starts).cast(pa.timestamp("us")),
            "value_cents": np.repeat(cents, n_win),
        })

    return ds.map_batches(explode, batch_format="pyarrow").groupby(
        "window_start"
    ).aggregate(
        Count(alias_name="n_events"),
        Sum("value_cents", alias_name="sum_value_cents"),
    )


Q_EVENTS_SLIDING_WINDOW_SQL = """
SELECT make_timestamp((epoch_us(ts) // 900000000) * 900000000
                      - j * 900000000) AS window_start,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events, UNNEST(generate_series(0, 3)) AS t(j)
GROUP BY window_start
"""


# ---------------------------------------------------------------- HLL sketch

def q_distinct_orderkeys_hll(sf_dir: str, p: int = 14):
    """Distinct l_orderkey count via a HyperLogLog sketch — the mergeable-
    sketch path for COUNT(DISTINCT) at 10^12 rows: per-block 2^p-register
    partials (one np.maximum.at each), elementwise-max merge in ONE final
    task. No shuffle of keys, ~16KB per block on the wire regardless of
    cardinality. Approximate (~0.8% @ p=14) -> rows-only driver check; the
    error bound is asserted against exact distinct in tests."""
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    ds = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        regs = SK.hll_init(p)
        SK.hll_update(regs, H.splitmix64(
            t["l_orderkey"].to_numpy().astype(np.int64).view(np.uint64)))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    def final(t: pa.Table) -> pa.Table:
        regs = SK.hll_init(p)
        for b in t["regs"].to_pylist():
            regs = SK.hll_merge(regs, np.frombuffer(b, np.uint8))
        return pa.table({"distinct_est": pa.array(
            [int(round(SK.hll_estimate(regs)))], pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=None) \
        .repartition(1).map_batches(final, batch_format="pyarrow",
                                    batch_size=None)


# ---------------------------------------------------------------- grouped top-n

def q_grouped_topn(sf_dir: str, n: int = 2):
    """Top-n orders per customer by total price (SQL row_number <= n).

    Scale plan: a per-batch partial top-n per key (vectorized
    rank-within-group over a lexsort) caps what enters the shuffle at
    <= n rows per key per input block, then ``hash_grouped_reduce`` applies
    the same kernel once per key-partition — never a per-group Python call,
    never a global sort. Ties broken on o_orderkey ascending to match the
    deterministic SQL window order."""
    from deduplication_ray.functions import hashing as H
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def topn(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy()
        order = np.lexsort((t["o_orderkey"].to_numpy(),
                            -t["o_totalprice"].to_numpy(), ck))
        cks = ck[order]
        idx = np.arange(len(cks))
        new = np.concatenate([[True], cks[1:] != cks[:-1]]) if len(cks) \
            else np.zeros(0, bool)
        start = np.maximum.accumulate(np.where(new, idx, 0))
        return t.take(pa.array(order[(idx - start) < n]))

    partials = ds.map_batches(topn, batch_format="pyarrow")
    return hash_grouped_reduce(
        partials,
        key_hash=["o_custkey"],
        reduce_fn=topn,
        num_parts=32,
    )


Q_GROUPED_TOPN_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders) WHERE rn <= 2
"""


# ---------------------------------------------------------------- anti join

def q_anti_join(sf_dir: str):
    """Customers with NO urgent order (NOT IN): the broadcast complement of
    the semi-join. Distributed distinct of the probe keys first (the
    broadcast lookup is the bounded distinct keyset, never the raw stream),
    then a ``lookup_join`` anti probe per batch. At 100 TB the keyset
    broadcast is replaced by the same Bloom-prefilter + exact-set pattern; the
    filter pass is unchanged."""
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   filter=(pc.field("o_orderpriority") == "1-URGENT"))

    def f(t: pa.Table) -> pa.Table:
        return t.select(["o_custkey"])

    distinct = (urgent.map_batches(f, batch_format="pyarrow")
                .groupby("o_custkey").aggregate(Count(alias_name="_n"))
                .select_columns(["o_custkey"])
                .rename_columns({"o_custkey": "c_custkey"}))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return lookup_join(cust, distinct, on=["c_custkey"], cfg=DedupConfig(),
                       how="anti")


Q_ANTI_JOIN_SQL = """
SELECT c_custkey, c_mktsegment FROM customer
WHERE c_custkey NOT IN (
  SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
"""


# ---------------------------------------------------------------- exact grouped quantiles

def q_grouped_quantiles(sf_dir: str):
    """Exact grouped quantiles via a distributed CDF — no sort, no data
    shuffle. Per-batch (flag, quantity) value-count partials (Arrow hash
    aggregate), a tiny groupby-sum whose shuffle carries at most
    |flags| x |distinct values| rows per block (150 here, independent of row
    count), then one CDF walk over the collected counts. Exact whenever the
    value domain is bounded; DuckDB ``quantile_disc`` picks
    ``sorted_v[floor(q*(n-1))]``, reproduced from cumulative counts."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_quantity"]).aggregate(
            [("l_quantity", "count")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_quantity": g["l_quantity"],
            "cnt": g["l_quantity_count"].cast(pa.int64()),
        })

    agg = ds.map_batches(counts, batch_format="pyarrow", batch_size=None) \
        .groupby(["l_returnflag", "l_quantity"]) \
        .aggregate(Sum("cnt", alias_name="cnt")).to_pandas()

    rows = []
    for flag, g in agg.groupby("l_returnflag"):
        g = g.sort_values("l_quantity")
        v = g["l_quantity"].to_numpy()
        cum = np.cumsum(g["cnt"].to_numpy())
        n = int(cum[-1])

        def pick(q):
            i = int(np.floor(q * (n - 1)))
            return float(v[np.searchsorted(cum, i, side="right")])

        rows.append({"l_returnflag": flag, "q25": pick(0.25),
                     "q50": pick(0.50), "q75": pick(0.75), "n_rows": n})
    return pd.DataFrame(rows)


Q_GROUPED_QUANTILES_SQL = """
SELECT l_returnflag,
       quantile_disc(l_quantity, 0.25) AS q25,
       quantile_disc(l_quantity, 0.50) AS q50,
       quantile_disc(l_quantity, 0.75) AS q75,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------- rollup aggregate

def q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP (priority, status) — an operator Ray Data lacks.

    Scale plan: the base table is aggregated ONCE at the finest grouping
    level (per-batch Arrow hash-agg partials, then one tiny groupby-sum
    shuffle carrying at most |priorities| x |statuses| rows per block); the
    coarser rollup levels are re-aggregated FROM that finest aggregate,
    whose size is bounded by group cardinality, not row count — never a
    second pass over the data. Subtotal rows mark the rolled-up column with
    'ALL' (both grouping columns are non-null by schema, so the marker is
    unambiguous)."""
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))).cast(pa.int64())
        g = (t.set_column(2, "cents", cents)
             .group_by(["o_orderpriority", "o_orderstatus"])
             .aggregate([("cents", "sum"), ("cents", "count")]))
        return pa.table({
            "o_orderpriority": g["o_orderpriority"],
            "o_orderstatus": g["o_orderstatus"],
            "total_cents": g["cents_sum"].cast(pa.int64()),
            "n_orders": g["cents_count"].cast(pa.int64()),
        })

    fine = (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(["o_orderpriority", "o_orderstatus"])
            .aggregate(Sum("total_cents", alias_name="total_cents"),
                       Sum("n_orders", alias_name="n_orders"))
            .to_pandas())  # bounded: |priorities| x |statuses| rows

    lvl1 = (fine.groupby("o_orderpriority", as_index=False)
            [["total_cents", "n_orders"]].sum())
    lvl1["o_orderstatus"] = "ALL"
    grand = pd.DataFrame({
        "o_orderpriority": ["ALL"], "o_orderstatus": ["ALL"],
        "total_cents": [fine["total_cents"].sum()],
        "n_orders": [fine["n_orders"].sum()],
    })
    cols = ["o_orderpriority", "o_orderstatus", "n_orders", "total_cents"]
    out = pd.concat([fine[cols], lvl1[cols], grand[cols]], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_cents"] = out["total_cents"].astype("int64")
    return out


Q_ORDERS_ROLLUP_SQL = """
SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
"""


# ---------------------------------------------------------------- pivot (conditional agg)

def q_events_type_pivot(sf_dir: str):
    """PIVOT events on event_type: one row per user, one count column per
    event type — the wide-format operator Ray Data lacks.

    Scale plan: pivot = conditional aggregation. A tiny distinct pass finds
    the column set (event-type cardinality is bounded by design in any
    pivot); then one map_batches emits per-batch WIDE partials (one boolean
    mask + bincount per type, all vectorized) and the only shuffle is a
    groupby-sum over user_id carrying |users| x |types| cells — never the
    raw event stream."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    parts = ds.select_columns(["event_type"]).map_batches(
        lambda t: pa.table({"event_type": pc.unique(t["event_type"])}),
        batch_format="pyarrow").to_pandas()
    types = sorted(parts["event_type"].unique())

    def wide(t: pa.Table) -> pa.Table:
        users = t["user_id"].to_numpy()
        uu, inv = np.unique(users, return_inverse=True)
        et = t["event_type"]
        cols = {"user_id": pa.array(uu, pa.int64())}
        for ty in types:
            m = pc.equal(et, pa.scalar(ty)).to_numpy(zero_copy_only=False)
            cols[ty] = pa.array(
                np.bincount(inv[m.astype(bool)], minlength=len(uu)).astype(np.int64))
        return pa.table(cols)

    agg = (ds.map_batches(wide, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(*[Sum(ty, alias_name=ty) for ty in types]))
    return agg


def events_type_pivot_sql() -> str:
    # DuckDB's dynamic PIVOT discovers the column set from the data, exactly
    # like the Ray side's distinct pass — no hardcoded type list, so a table
    # with fewer/more/new event types stays oracle-comparable (missing
    # (user, type) cells fill 0 on both sides; verified behavior)
    return "PIVOT events ON event_type USING count(*) GROUP BY user_id"


# ---------------------------------------------------------------- lead/lag window

def q_events_lag(sf_dir: str, num_buckets: int = 32):
    """Per-user LAG window: for every event, seconds since the user's
    previous event (-1 for the first) and the previous event's type ('' for
    the first) — the generic lead/lag operator.

    Scale shape (same as sessionize): hash-partition users into buckets
    co-locating each user's rows, ONE vectorized sort + shift pass per
    bucket over all its users at once — per-key cost O(1) amortized, no
    per-user Python call."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def lag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = (g["ts"] - g["ts"].shift()).dt.total_seconds()
        gap_sec = np.floor(gap.to_numpy())
        gap_sec[new_user.to_numpy()] = -1
        prev_type = g["event_type"].shift().where(~new_user, "")
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "gap_sec": gap_sec.astype("int64"),
            "prev_type": prev_type.to_numpy(),
        })

    return hash_grouped_reduce(ds, ["user_id"], lag_bucket, num_buckets,
                               batch_format="pandas")


Q_EVENTS_LAG_SQL = """
SELECT event_id,
       COALESCE(CAST(floor(epoch(ts - lag(ts) OVER w)) AS BIGINT), -1) AS gap_sec,
       COALESCE(lag(event_type) OVER w, '') AS prev_type
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# ---------------------------------------------------------------- full outer shuffle join

def q_daily_purchase_error_join(sf_dir: str):
    """FULL OUTER JOIN of two large derived aggregates — per-(user, day)
    purchase counts vs error counts — via the hash-co-partitioned
    ``stages.join.shuffle_join`` (one all-to-all, one Arrow C++ join per
    bucket; neither side is broadcast). Days where a user purchased but
    never errored (and vice versa) surface as genuine outer rows,
    zero-filled."""
    from deduplication_ray.stages.join import shuffle_join

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def daily(ty: str, out: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], pa.scalar(ty)))
            day = pc.strftime(t["ts"], format="%Y%m%d").cast(pa.int64())
            g = (pa.table({"user_id": t["user_id"], "day": day})
                 .group_by(["user_id", "day"]).aggregate([("day", "count")]))
            return pa.table({"user_id": g["user_id"], "day": g["day"],
                             out: g["day_count"].cast(pa.int64())})
        return fn

    from ray.data.aggregate import Sum as _Sum

    p = (ds.map_batches(daily("purchase", "n_purchase"), batch_format="pyarrow")
         .groupby(["user_id", "day"]).aggregate(_Sum("n_purchase", alias_name="n_purchase")))
    e = (ds.map_batches(daily("error", "n_error"), batch_format="pyarrow")
         .groupby(["user_id", "day"]).aggregate(_Sum("n_error", alias_name="n_error")))

    j = shuffle_join(p, e, on=["user_id", "day"], how="full outer")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"], "day": t["day"],
            "n_purchase": t["n_purchase"].cast(pa.int64()).fill_null(0),
            "n_error": t["n_error"].cast(pa.int64()).fill_null(0),
        })

    return j.map_batches(fill, batch_format="pyarrow")


Q_DAILY_PURCHASE_ERROR_JOIN_SQL = """
WITH p AS (
  SELECT user_id, CAST(strftime(ts, '%Y%m%d') AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS n_purchase
  FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
), e AS (
  SELECT user_id, CAST(strftime(ts, '%Y%m%d') AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS n_error
  FROM events WHERE event_type = 'error' GROUP BY 1, 2
)
SELECT COALESCE(p.user_id, e.user_id) AS user_id,
       COALESCE(p.day, e.day) AS day,
       COALESCE(n_purchase, 0) AS n_purchase,
       COALESCE(n_error, 0) AS n_error
FROM p FULL OUTER JOIN e ON p.user_id = e.user_id AND p.day = e.day
"""


# ---------------------------------------------------------------- rank window

def q_events_value_rank(sf_dir: str, num_buckets: int = 32):
    """Per-user dense value ranking: rank every event within its user by
    (value DESC, event_id) — the ROW_NUMBER window operator. Same bucketed
    shape as sessionize/lag: one hash shuffle co-locating each user, one
    vectorized sort + arithmetic rank pass per bucket over ALL its users at
    once (rank = position − user-segment start; no per-user call)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "value", "event_id"],
                          ascending=[True, False, True], kind="mergesort")
        uid = g["user_id"].to_numpy()
        pos = np.arange(len(g), dtype=np.int64)
        seg_start = np.zeros(len(g), dtype=np.int64)
        new = np.concatenate([[True], uid[1:] != uid[:-1]]) if len(g) else \
            np.zeros(0, bool)
        seg_start[new] = pos[new]
        seg_start = np.maximum.accumulate(seg_start)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": uid,
            "value_rank": pos - seg_start + 1,
        })

    return hash_grouped_reduce(ds, ["user_id"], rank_bucket, num_buckets,
                               batch_format="pandas")


Q_EVENTS_VALUE_RANK_SQL = """
SELECT event_id, user_id,
       CAST(row_number() OVER (PARTITION BY user_id
                               ORDER BY value DESC, event_id) AS BIGINT)
           AS value_rank
FROM events
"""


# ---------------------------------------------------------------- funnel analysis

def q_signup_purchase_funnel(sf_dir: str, window_days: int = 7,
                             num_buckets: int = 32):
    """Sequential funnel: for every user who signed up, did a purchase
    follow within ``window_days`` of their FIRST signup? The event-sequence
    operator behind conversion metrics.

    Scale shape: one hash shuffle co-locating each user's events, then a
    vectorized pandas pass per bucket (first-signup min, windowed purchase
    existence via one merge) over all the bucket's users at once — no
    per-user call, no broadcast of per-user state."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def signup_or_purchase(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"],
                                 value_set=pa.array(["signup", "purchase"])))

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = (g[g["event_type"] == "signup"].groupby("user_id")["ts"].min()
             .rename("signup_ts"))
        if s.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "converted": pd.Series([], dtype="int64")})
        p = g[g["event_type"] == "purchase"][["user_id", "ts"]]
        m = p.merge(s, on="user_id")
        hit = m[(m["ts"] >= m["signup_ts"])
                & (m["ts"] <= m["signup_ts"] + pd.Timedelta(days=window_days))]
        conv = hit["user_id"].unique()
        return pd.DataFrame({
            "user_id": s.index.to_numpy(),
            "converted": np.isin(s.index.to_numpy(), conv).astype("int64"),
        })

    return hash_grouped_reduce(
        ds.map_batches(signup_or_purchase, batch_format="pyarrow"),
        ["user_id"], funnel_bucket, num_buckets, batch_format="pandas")


Q_SIGNUP_PURCHASE_FUNNEL_SQL = """
WITH s AS (
  SELECT user_id, min(ts) AS signup_ts
  FROM events WHERE event_type = 'signup' GROUP BY user_id
)
SELECT s.user_id,
       CAST(CASE WHEN EXISTS (
         SELECT 1 FROM events e
         WHERE e.user_id = s.user_id AND e.event_type = 'purchase'
           AND e.ts >= s.signup_ts
           AND e.ts <= s.signup_ts + INTERVAL 7 DAY
       ) THEN 1 ELSE 0 END AS BIGINT) AS converted
FROM s
"""


# ---------------------------------------------------------------- cube aggregate

def q_orders_cube(sf_dir: str):
    """GROUP BY CUBE (priority, status): the rollup family completed — all
    four grouping sets. Same scale plan as q_orders_rollup: ONE pass over
    the data to the finest aggregate (cardinality-bounded), every coarser
    grouping set re-aggregated from it on the driver; the extra set vs
    ROLLUP ((), status) costs one more tiny pandas groupby, never a table
    scan."""
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))).cast(pa.int64())
        g = (t.set_column(2, "cents", cents)
             .group_by(["o_orderpriority", "o_orderstatus"])
             .aggregate([("cents", "sum"), ("cents", "count")]))
        return pa.table({
            "o_orderpriority": g["o_orderpriority"],
            "o_orderstatus": g["o_orderstatus"],
            "total_cents": g["cents_sum"].cast(pa.int64()),
            "n_orders": g["cents_count"].cast(pa.int64()),
        })

    fine = (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(["o_orderpriority", "o_orderstatus"])
            .aggregate(Sum("total_cents", alias_name="total_cents"),
                       Sum("n_orders", alias_name="n_orders"))
            .to_pandas())  # bounded: |priorities| x |statuses| rows

    def coarser(by: list[str], filled: list[str]) -> pd.DataFrame:
        if by:
            g = fine.groupby(by, as_index=False)[["total_cents", "n_orders"]].sum()
        else:
            g = pd.DataFrame({"total_cents": [fine["total_cents"].sum()],
                              "n_orders": [fine["n_orders"].sum()]})
        for c in filled:
            g[c] = "ALL"
        return g

    cols = ["o_orderpriority", "o_orderstatus", "n_orders", "total_cents"]
    out = pd.concat([
        fine[cols],
        coarser(["o_orderpriority"], ["o_orderstatus"])[cols],
        coarser(["o_orderstatus"], ["o_orderpriority"])[cols],
        coarser([], ["o_orderpriority", "o_orderstatus"])[cols],
    ], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_cents"] = out["total_cents"].astype("int64")
    return out


Q_ORDERS_CUBE_SQL = """
SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY CUBE (o_orderpriority, o_orderstatus)
"""


# ---------------------------------------------------------------- running total

def q_events_running_total(sf_dir: str, num_buckets: int = 32):
    """Per-user cumulative value sum ordered by time — the running-total
    window (ROWS UNBOUNDED PRECEDING frame). Same bucketed shape as
    sessionize/lag/rank: one hash shuffle co-locating users, one vectorized
    sort + segment-reset cumsum per bucket over all its users at once."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        # exact integer cents so the cumulative sum is order-independent
        # across engines (float accumulation order would differ)
        cents = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        csum = np.cumsum(cents)
        uid = g["user_id"].to_numpy()
        new = np.concatenate([[True], uid[1:] != uid[:-1]]) if len(g) else \
            np.zeros(0, bool)
        base = np.zeros(len(g), dtype=np.int64)
        starts = np.flatnonzero(new)
        if len(starts):
            seg_base = np.concatenate([[0], csum[starts[1:] - 1]])
            base = np.repeat(seg_base, np.diff(np.append(starts, len(g))))
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "running_cents": csum - base,
        })

    return hash_grouped_reduce(ds, ["user_id"], running, num_buckets,
                               batch_format="pandas")


Q_EVENTS_RUNNING_TOTAL_SQL = """
SELECT event_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
FROM events
"""


# ------------------------------------------------- bounded sliding row frame

def q_events_moving_window(sf_dir: str, preceding: int = 3,
                           num_buckets: int = 32):
    """Per-user BOUNDED sliding row frame (ROWS BETWEEN ``preceding``
    PRECEDING AND CURRENT ROW): windowed value sum + frame size per event —
    the moving-average building block, and the one ROWS-frame shape the
    running-total operator (unbounded frame) doesn't cover.

    Scale shape identical to sessionize/lag/running-total: one hash shuffle
    co-locating each user's rows, then ONE vectorized pass per bucket —
    segment-aware cumulative sums where each row's frame start is
    ``max(pos - preceding, segment_start)``, so the whole bucket is two
    array subtractions regardless of user cardinality. Sum and count are
    emitted as exact integer cents (float mean would hash differently
    across engines); mean = win_sum_cents / win_n for the consumer."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def moving(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        cents = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        csum0 = np.concatenate([[0], np.cumsum(cents)])
        uid = g["user_id"].to_numpy()
        pos = np.arange(n, dtype=np.int64)
        new = np.concatenate([[True], uid[1:] != uid[:-1]]) if n else \
            np.zeros(0, bool)
        seg_start = np.zeros(n, dtype=np.int64)
        seg_start[new] = pos[new]
        seg_start = np.maximum.accumulate(seg_start)
        start = np.maximum(pos - preceding, seg_start)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "win_sum_cents": csum0[pos + 1] - csum0[start],
            "win_n": pos - start + 1,
        })

    return hash_grouped_reduce(ds, ["user_id"], moving, num_buckets,
                               batch_format="pandas")


Q_EVENTS_MOVING_WINDOW_SQL = """
SELECT event_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT)
           AS win_sum_cents,
       CAST(count(*) OVER w AS BIGINT) AS win_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


# ------------------------------------------------- time-series gap fill

def q_events_daily_gapfill(sf_dir: str, num_buckets: int = 32):
    """Per-user daily event counts DENSIFIED over each user's observed
    [first_day, last_day] span, missing days zero-filled — the
    resample/gap-fill operator time-series feature pipelines need and Ray
    Data lacks (a groupby can only emit observed keys).

    Scale shape: per-batch Arrow hash-agg partials collapse events to
    (user, day, n) rows BEFORE the only shuffle (``hash_grouped_reduce``
    on user_id); inside each bucket one vectorized pass over all its users
    densifies via np.repeat + per-segment aranges and scatters observed
    counts into the grid — no per-user Python. Output size is the sum of
    user spans: a production run over years-long histories would cap the
    span or emit gap runs instead; the shape (partial agg, one shuffle,
    segment arithmetic) is the 100 TB plan either way."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t["ts"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))  # epoch days
        g = (pa.table({"user_id": t["user_id"],
                       "day": pa.array(day, pa.int64())})
             .group_by(["user_id", "day"]).aggregate([("day", "count")]))
        return pa.table({
            "user_id": g["user_id"], "day": g["day"],
            "n": g["day_count"].cast(pa.int64()),
        })

    def densify(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby(["user_id", "day"], sort=True)["n"].sum()
             .reset_index())  # merge cross-batch partials; sorted by user,day
        uid = g["user_id"].to_numpy()
        day = g["day"].to_numpy().astype(np.int64)
        n = g["n"].to_numpy().astype(np.int64)
        new = np.concatenate([[True], uid[1:] != uid[:-1]]) if len(g) else \
            np.zeros(0, bool)
        lo = day[new]
        seg_bounds = np.flatnonzero(new)
        seg_end = np.concatenate([seg_bounds[1:] - 1, [len(uid) - 1]]) \
            if len(g) else np.empty(0, np.int64)
        spans = day[seg_end] - lo + 1
        out_n = np.zeros(int(spans.sum()), np.int64)
        seg_offset = np.concatenate([[0], np.cumsum(spans)[:-1]])
        seg_idx = np.cumsum(new) - 1
        out_n[seg_offset[seg_idx] + (day - lo[seg_idx])] = n
        return pd.DataFrame({
            "user_id": np.repeat(uid[new], spans),
            "day": np.repeat(lo, spans) + H._ranges(spans),
            "n_events": out_n,
        })

    return hash_grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), ["user_id"],
        densify, num_buckets, batch_format="pandas")


Q_EVENTS_DAILY_GAPFILL_SQL = """
WITH d AS (
  SELECT user_id, CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), grid AS (
  SELECT user_id, unnest(generate_series(min(day), max(day))) AS day
  FROM d GROUP BY user_id
)
SELECT g.user_id, g.day, CAST(COALESCE(d.n, 0) AS BIGINT) AS n_events
FROM grid g LEFT JOIN d ON d.user_id = g.user_id AND d.day = g.day
"""


# ------------------------------------------------- semi-structured JSON props

def q_events_props_agg(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` payload column,
    pull the numeric field ``k``, and aggregate it per event_type — the
    "query the JSON blob" operator every event-log pipeline needs (the
    reference's R3 schema-imposition generalized to nested payloads:
    interpretation is imposed at read time, not stored).

    Scale plan: extraction is ONE vectorized RE2 kernel per batch
    (``pc.extract_regex`` — no Python json.loads per row, which would be a
    row loop over 10^12 events); per-batch partial aggregation collapses
    each block to <= |event_types| rows before the only shuffle, a
    groupby-sum over the bounded type set. Documents absent/malformed ``k``
    as NULL (counted in n_events, excluded from sums) exactly like SQL
    ``json_extract_string``."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        valid = pc.is_valid(k).to_numpy(zero_copy_only=False)
        kv = k.fill_null(0).to_numpy(zero_copy_only=False)
        et = t["event_type"]
        uu, inv = np.unique(
            et.to_numpy(zero_copy_only=False), return_inverse=True)
        n = np.bincount(inv, minlength=len(uu)).astype(np.int64)
        nk = np.bincount(inv[valid], minlength=len(uu)).astype(np.int64)
        sk = np.zeros(len(uu), dtype=np.int64)
        np.add.at(sk, inv[valid], kv[valid])
        # per-type partial min/max over valid k only (identity fills so
        # empty partials never win the final min/max)
        mn = np.full(len(uu), np.iinfo(np.int64).max)
        mx = np.full(len(uu), np.iinfo(np.int64).min)
        np.minimum.at(mn, inv[valid], kv[valid])
        np.maximum.at(mx, inv[valid], kv[valid])
        return pa.table({
            "event_type": pa.array(uu, pa.string()),
            "n_events": pa.array(n), "n_with_k": pa.array(nk),
            "sum_k": pa.array(sk), "min_k": pa.array(mn),
            "max_k": pa.array(mx),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("n_with_k", alias_name="n_with_k"),
                       Sum("sum_k", alias_name="sum_k"),
                       Min("min_k", alias_name="min_k"),
                       Max("max_k", alias_name="max_k")))


Q_EVENTS_PROPS_AGG_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(json_extract_string(props, '$.k')) AS BIGINT) AS n_with_k,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(min(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY event_type
"""


# ------------------------------------------------------ multi-way join (Q5 shape)

def q_revenue_by_nation(sf_dir: str, num_buckets: int = 32):
    """TPC-H Q5 shape: revenue per nation for customers of ONE region —
    a five-table join composed from both join strategies this engine has:
    the dimension chain region -> nation -> customer collapses into one
    broadcast custkey->nation lookup (tiny, ``lookup_join``), while
    lineitem x orders — the big-big edge where no side is broadcastable at
    10^12 rows — goes through the hash-co-partitioned ``shuffle_join``.

    Scale plan: lineitem is pre-collapsed per batch (np.unique + add.at on
    l_orderkey) so the all-to-all carries partial aggregates, not raw
    items; orders is filtered to the region's customers BEFORE the
    shuffle (broadcast semi-join); the final groupby is nation-bounded.
    The region is picked data-independently (min r_name) so the query is
    deterministic on any dataset."""
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    rname = region["r_name"].min()
    rkeys = set(region.loc[region["r_name"] == rname, "r_regionkey"])
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    nation = nation[nation["n_regionkey"].isin(rkeys)]
    cn = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas() \
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey") \
        [["c_custkey", "n_name"]].rename(columns={"c_custkey": "o_custkey"})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders_nat = lookup_join(orders, cn, on=["o_custkey"], cfg=DedupConfig()) \
        .select_columns(["o_orderkey", "n_name"]) \
        .rename_columns({"o_orderkey": "l_orderkey"})

    def li_partial(t: pa.Table) -> pa.Table:
        rev = pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0))).cast(pa.int64()).to_numpy()
        ok_ = t["l_orderkey"].to_numpy()
        uu, inv = np.unique(ok_, return_inverse=True)
        s = np.zeros(len(uu), dtype=np.int64)
        np.add.at(s, inv, rev)
        return pa.table({
            "l_orderkey": pa.array(uu),
            "rev_e4": pa.array(s),
            "n_items": pa.array(np.bincount(inv, minlength=len(uu))
                                .astype(np.int64)),
        })

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_partial, batch_format="pyarrow")

    from deduplication_ray.stages.join import shuffle_join
    joined = shuffle_join(li, orders_nat, on=["l_orderkey"], how="inner",
                          num_buckets=num_buckets)
    return joined.groupby("n_name").aggregate(
        Sum("rev_e4", alias_name="revenue_e4"),
        Sum("n_items", alias_name="n_items"))


Q_REVENUE_BY_NATION_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = (SELECT min(r_name) FROM region)
GROUP BY n_name
"""


# ------------------------------------------------------ grouped distinct sketch

def q_distinct_orders_per_flag_hll(sf_dir: str, p: int = 14):
    """Approximate COUNT(DISTINCT l_orderkey) GROUP BY l_returnflag via
    per-group HyperLogLog sketches — the grouped form of the mergeable-
    sketch path (``q_distinct_orderkeys_hll``). At 10^12 rows an EXACT
    grouped distinct needs a (group, key) all-to-all; the sketch shuffle
    carries |groups| x 16KB register blobs per block regardless of key
    cardinality, and the final merge is one elementwise max per group in
    a keyed exchange on the flag.

    Per-batch work stays vectorized: keys are hashed in one splitmix64
    pass and grouped with np.unique; the Python loop is over the (tiny,
    bounded) set of groups present in the batch, never rows. Approximate
    (~0.8% @ p=14) -> rows-only driver check; per-group error vs exact
    distinct is asserted in tests."""
    from deduplication_ray.functions import hashing as H
    from deduplication_ray.functions import sketch as SK

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        h = H.splitmix64(
            t["l_orderkey"].to_numpy().astype(np.int64).view(np.uint64))
        uu, inv = np.unique(flags, return_inverse=True)
        out_f, out_r = [], []
        for gi, f in enumerate(uu):
            regs = SK.hll_init(p)
            SK.hll_update(regs, h[inv == gi])
            out_f.append(str(f))
            out_r.append(regs.tobytes())
        return pa.table({"l_returnflag": pa.array(out_f, pa.string()),
                         "regs": pa.array(out_r, pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        # one elementwise max over each flag's register rows
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        regs = np.frombuffer(b"".join(t["regs"].to_pylist()), np.uint8) \
            .reshape(t.num_rows, -1)
        uu, inv = np.unique(flags, return_inverse=True)
        return pa.table({
            "l_returnflag": pa.array([str(f) for f in uu], pa.string()),
            "distinct_est": pa.array(
                [int(round(SK.hll_estimate(regs[inv == gi].max(axis=0))))
                 for gi in range(len(uu))], pa.int64())})

    return hash_grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["l_returnflag"], merge, 4)


# -------------------------------------------- grouped quantile SKETCH (bottom-k)

def q_grouped_quantiles_sketch(sf_dir: str, k: int = 4096):
    """Approximate grouped quantiles over a CONTINUOUS value column via a
    per-group bottom-k sample sketch (Cohen & Kaplan's bottom-k sketches,
    public): every row gets a deterministic 64-bit hash of its identity
    (l_orderkey, l_linenumber); each group keeps the values of its k
    smallest hashes. Bottom-k sets are MERGEABLE (union then re-truncate)
    and partition-invariant, and the survivors are a uniform random sample
    of the group, so the sample quantile's rank error is O(1/sqrt(k)) with
    high probability.

    This complements ``q_grouped_quantiles`` (exact distributed CDF): the
    CDF plan's shuffle is bounded by |distinct values|, which is fine for
    bounded domains (quantities 1..50) but becomes the corpus itself on
    continuous columns like prices; the sketch ships a CONSTANT
    |groups| x k rows per block no matter the domain. One linear pass,
    no shuffle of raw rows; partials bounded at |groups| x k x #blocks.
    Rows-only (approximate by design); the rank-error bound is asserted in
    tests against DuckDB's exact quantiles."""
    from deduplication_ray.functions import hashing as H

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_orderkey", "l_linenumber", "l_extendedprice"])

    def bottom_k(t: pa.Table) -> pa.Table:
        h = H.bitcast_u64_to_i64(H.hash_u64_pair(
            t["l_orderkey"].to_numpy().astype(np.uint64),
            t["l_linenumber"].to_numpy().astype(np.uint64)))
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        v = t["l_extendedprice"].to_numpy()
        order = np.lexsort((h, flags))
        f_s, h_s, v_s = flags[order], h[order], v[order]
        keep = H.run_ranks(f_s) < k
        return pa.table({"l_returnflag": pa.array(f_s[keep]),
                         "h": pa.array(h_s[keep]),
                         "v": pa.array(v_s[keep])})

    parts = list(ds.map_batches(bottom_k, batch_format="pyarrow",
                                batch_size=None)
                 .iter_batches(batch_format="pyarrow", batch_size=None))
    merged = pa.concat_tables(parts, promote_options="default") if parts else \
        pa.table({"l_returnflag": pa.array([], pa.string()),
                  "h": pa.array([], pa.int64()),
                  "v": pa.array([], pa.float64())})
    df = merged.to_pandas()
    rows = []
    for flag, g in df.groupby("l_returnflag"):
        sample = np.sort(g.nsmallest(k, "h")["v"].to_numpy())
        n = len(sample)
        rows.append({
            "l_returnflag": flag,
            "p50_est": float(sample[int(np.floor(0.50 * (n - 1)))]),
            "p90_est": float(sample[int(np.floor(0.90 * (n - 1)))]),
            "p99_est": float(sample[int(np.floor(0.99 * (n - 1)))]),
            "sample_n": n,
        })
    return pd.DataFrame(rows)


def q_semi_join_bloom(sf_dir: str, n_bits: int = 1 << 20):
    """The 100 TB semi-join plan the plain ``q_semi_join`` docstring promises:
    a BLOOM prefilter (mergeable bitmap, ~128 KB here) broadcast to the probe
    side kills almost every non-matching row for free, and only the tiny
    surviving fraction is confirmed EXACTLY against the key set — so the
    result is identical to the exact semi-join (same DuckDB oracle) while
    the driver never collects an unbounded key list and the probe table
    never shuffles.

    Build: distinct hot-customer keys stay a Dataset; per-block Bloom
    partials (one bitmap row per block) are OR-merged — the same
    commutative-merge shape as the HLL sketch. Probe: stateless map_batches,
    vectorized k-probe per batch. Confirm: the Bloom survivors (true matches
    + ~0.8% false positives) go through the size-dispatched lookup_join
    against the key Dataset — broadcast here, ``shuffle_join`` above
    ``cfg.broadcast_limit``."""
    from deduplication_ray.functions import sketch as SK

    cfg = DedupConfig(num_partitions=8)
    hot = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                filter=(pc.field("o_totalprice") > 300000.0))
    keys = (hot.map_batches(lambda t: t.select(["o_custkey"]),
                            batch_format="pyarrow")
            .groupby("o_custkey").aggregate(Count(alias_name="_n"))
            .select_columns(["o_custkey"]).materialize())

    def bloom_partial(t: pa.Table) -> pa.Table:
        bits = SK.bloom_init(n_bits)
        SK.bloom_add(bits, t["o_custkey"].to_numpy().astype(np.uint64))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    merged = SK.bloom_init(n_bits)
    for b in (keys.map_batches(bloom_partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for blob in b["bits"].to_pylist():
            np.bitwise_or(merged, np.frombuffer(blob, dtype=np.uint8),
                          out=merged)
    ref = ray.put(merged)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    class BloomProbe:
        def __init__(self):
            self.bits = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.bits is None:
                self.bits = ray.get(ref)
            maybe = SK.bloom_might_contain(
                self.bits, t["c_custkey"].to_numpy().astype(np.uint64))
            return t.filter(pa.array(maybe))

    survivors = cust.map_batches(BloomProbe(), batch_format="pyarrow")
    confirmed = lookup_join(
        survivors, keys.rename_columns({"o_custkey": "c_custkey"}),
        on=["c_custkey"], cfg=cfg)
    return confirmed.groupby("c_nationkey").aggregate(
        Count(alias_name="n_customers"))


def q_dedup_keep_first_index(sf_dir: str):
    """``dedup_keep_first`` computed through the live SHARED MUTABLE INDEX
    (``state/index.py``) instead of groupby-min: the raw-actor pattern for
    semantics the Dataset API can't express (probing mid-stream). Final
    index state is deterministic (commutative min updates), so this is
    SQL-checked against the SAME oracle as the groupby plan."""
    from deduplication_ray.state.index import dedup_index_keep_min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    t = dedup_index_keep_min(ds, "text", "doc_id")
    return t.select(["id"]).rename_columns(["doc_id"])


# ------------------------------------------- sketch verdict (driver-checkable)
#
# The three sketch queries above are approximate by design, so their raw
# estimates cannot be value-hash-compared against exact SQL. These verdict
# forms encode the tolerance check INTO the hash-match protocol: the Ray side
# recomputes the exact answer (distributed; the exact pass exists only to
# verify, the sketch is the production path) and emits (exact, within_bound)
# rows; the oracle emits the same exact values with a constant TRUE. A sketch
# drifting outside its proven error bound flips the boolean and fails the
# driver's value-hash — the same bound pytest asserts, now driver-visible.

def q_distinct_orderkeys_hll_check(sf_dir: str, p: int = 14,
                                   tol: float = 0.03):
    """HLL global COUNT(DISTINCT) verdict: one row
    (exact_distinct, hll_within_3pct). Exact side = per-batch np.unique
    partials -> groupby(count groups), fully distributed; the |est-exact|
    comparison touches two scalars on the driver."""
    est = int(q_distinct_orderkeys_hll(sf_dir, p=p)
              .to_pandas()["distinct_est"].iloc[0])

    def uniq(t: pa.Table) -> pa.Table:
        return pa.table({"k": np.unique(t["l_orderkey"].to_numpy())})

    exact = int(_read(sf_dir, "lineitem", ["l_orderkey"])
                .map_batches(uniq, batch_format="pyarrow")
                .groupby("k").count().count())
    ok = abs(est - exact) <= tol * exact
    return pd.DataFrame({"exact_distinct": [exact], "hll_within_3pct": [ok]})


Q_DISTINCT_ORDERKEYS_HLL_CHECK_SQL = """
SELECT count(DISTINCT l_orderkey) AS exact_distinct,
       TRUE AS hll_within_3pct
FROM lineitem
"""


def q_distinct_orders_per_flag_hll_check(sf_dir: str, p: int = 14,
                                         tol: float = 0.03):
    """Grouped-HLL verdict: per l_returnflag
    (exact_distinct, hll_within_3pct). Exact side = per-batch unique
    (flag, key) pairs -> one keyed exchange on l_orderkey, where every row
    of a key sits in one partition, so the same unique is exact there and
    each partition counts its keys per flag -> the per-flag partials are
    summed. The shuffle is bounded by the true distinct cardinality."""
    est = q_distinct_orders_per_flag_hll(sf_dir, p=p).to_pandas() \
        .set_index("l_returnflag")["distinct_est"]

    def uniq(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        keys = t["l_orderkey"].to_numpy()
        order = np.lexsort((keys, flags))
        f_s, k_s = flags[order], keys[order]
        keep = np.concatenate([[True], (f_s[1:] != f_s[:-1])
                               | (k_s[1:] != k_s[:-1])]) \
            if len(f_s) else np.zeros(0, bool)
        return pa.table({"l_returnflag": pa.array(f_s[keep]),
                         "l_orderkey": pa.array(k_s[keep])})

    def per_flag(t: pa.Table) -> pa.Table:
        flags, n = np.unique(uniq(t)["l_returnflag"].to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({"l_returnflag": pa.array(flags, pa.string()),
                         "n": pa.array(n, pa.int64())})

    exact = hash_grouped_reduce(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_orderkey"])
        .map_batches(uniq, batch_format="pyarrow"),
        ["l_orderkey"], per_flag, 8,
    ).to_pandas().groupby("l_returnflag")["n"].sum()
    rows = []
    for f in sorted(exact.index):
        e = int(exact[f])
        rows.append({"l_returnflag": f, "exact_distinct": e,
                     "hll_within_3pct":
                         f in est.index and abs(int(est[f]) - e) <= tol * e})
    return pd.DataFrame(rows)


Q_DISTINCT_ORDERS_PER_FLAG_HLL_CHECK_SQL = """
SELECT l_returnflag,
       count(DISTINCT l_orderkey) AS exact_distinct,
       TRUE AS hll_within_3pct
FROM lineitem GROUP BY l_returnflag
"""


def q_grouped_quantiles_sketch_check(sf_dir: str, k: int = 4096):
    """Bottom-k quantile-sketch verdict: per l_returnflag
    (p50_ok, p90_ok, p99_ok) — each TRUE iff the sketch estimate's TRUE rank
    in the group sits within the O(1/sqrt(k)) band the sketch guarantees
    (same bound tests/test_queries.py::test_grouped_quantile_sketch_rank_error
    asserts). Rank side = broadcast the 3x3 estimate table, per-batch
    vectorized <=-counts, Sum-aggregated per flag — raw values never leave
    their blocks."""
    est = q_grouped_quantiles_sketch(sf_dir, k=k)
    est_map = {r["l_returnflag"]: (r["p50_est"], r["p90_est"], r["p99_est"])
               for _, r in est.iterrows()}

    def counts(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        v = t["l_extendedprice"].to_numpy()
        out = {"l_returnflag": [], "n": [], "le50": [], "le90": [], "le99": []}
        for f, (e50, e90, e99) in est_map.items():
            g = v[flags == f]
            out["l_returnflag"].append(f)
            out["n"].append(len(g))
            out["le50"].append(int((g <= e50).sum()))
            out["le90"].append(int((g <= e90).sum()))
            out["le99"].append(int((g <= e99).sum()))
        return pa.table({k2: pa.array(vv) for k2, vv in out.items()})

    agg = (_read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
           .map_batches(counts, batch_format="pyarrow")
           .groupby("l_returnflag")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("le50", alias_name="le50"),
                      Sum("le90", alias_name="le90"),
                      Sum("le99", alias_name="le99"))
           .to_pandas())
    bound = 4 * np.sqrt(0.25 / k) + 0.01
    rows = []
    for _, r in agg.sort_values("l_returnflag").iterrows():
        n = max(int(r["n"]), 1)
        rows.append({
            "l_returnflag": r["l_returnflag"],
            "p50_ok": bool(abs(r["le50"] / n - 0.50) <= bound),
            "p90_ok": bool(abs(r["le90"] / n - 0.90) <= bound),
            "p99_ok": bool(abs(r["le99"] / n - 0.99) <= bound),
        })
    return pd.DataFrame(rows)


Q_GROUPED_QUANTILES_SKETCH_CHECK_SQL = """
SELECT l_returnflag, TRUE AS p50_ok, TRUE AS p90_ok, TRUE AS p99_ok
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------- streaming window dedup

def q_events_dedup_window(sf_dir: str, window_min: int = 240,
                          num_buckets: int = 32):
    """Streaming-shaped event dedup: flag every event whose previous
    same-(user, event_type) event lies within ``window_min`` minutes — the
    at-least-once-delivery dedup every event-log ingest needs (retries,
    double-clicks, replayed webhooks). Downstream keeps ``NOT is_dup``.

    The suppression key is (user_id, event_type); the predecessor is the
    previous event in stream order regardless of its own flag (the standard
    LAG formulation — windowed, not chained, so any worker can decide any
    row from its partition alone). Gaps compare in exact integer
    MICROSECONDS on both engines — no float epoch math.

    Scale shape (same as sessionize/lag): hash-partition users into
    ``num_buckets`` buckets co-locating each user's rows, ONE vectorized
    sort + shift pass per bucket over all its (user, type) runs at once —
    per-key cost O(1) amortized, no per-key Python call. At 100 TB this is
    one all-to-all of the events table's four narrow columns."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    window_us = np.int64(window_min) * 60 * 1_000_000

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"],
                          kind="mergesort")
        new_key = (g["user_id"].ne(g["user_id"].shift())
                   | g["event_type"].ne(g["event_type"].shift()))
        # force microsecond resolution (the storage unit — exact integers)
        # regardless of the unit pandas materialized the column in
        us = g["ts"].to_numpy(dtype="datetime64[us]").view("int64")
        gap_us = np.empty(len(us), dtype=np.int64)
        gap_us[0] = np.iinfo(np.int64).max
        if len(us) > 1:
            gap_us[1:] = us[1:] - us[:-1]
        gap_us[new_key.to_numpy()] = np.iinfo(np.int64).max
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "is_dup": gap_us <= window_us,
        })

    return hash_grouped_reduce(ds, ["user_id"], dedup_bucket, num_buckets,
                               batch_format="pandas")


def events_dedup_window_sql(window_min: int = 240) -> str:
    return f"""
SELECT event_id,
       COALESCE(date_diff('microsecond',
                          lag(ts) OVER (PARTITION BY user_id, event_type
                                        ORDER BY ts, event_id),
                          ts) <= {window_min * 60 * 1_000_000},
                FALSE) AS is_dup
FROM events
"""


# ---------------------------------------------------------- degree histogram

def q_events_user_degree_hist(sf_dir: str):
    """Count-of-counts report: the distribution of per-user event counts
    (the degree histogram) — the skew-diagnosis primitive behind hot-key
    detection, sessionization sizing and join-salting decisions (the same
    signal ``lsh_bucket_stats`` reports for LSH buckets, here as a
    SQL-checked operator over a real key column).

    Scale plan: the raw stream collapses twice before anything is small —
    per-batch ``(user_id, n)`` Arrow hash-agg partials feed ONE groupby-sum
    bounded by |users| (never |events|), then per-batch histogram partials
    feed a second groupby-sum bounded by |distinct degrees| (typically a
    few hundred rows at any corpus size)."""
    ds = _read(sf_dir, "events", ["user_id"])

    def per_user_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([("user_id", "count")])
        return pa.table({"user_id": g["user_id"],
                         "n": g["user_id_count"].cast(pa.int64())})

    per_user = (ds.map_batches(per_user_partial, batch_format="pyarrow")
                .groupby("user_id").aggregate(Sum("n", alias_name="degree")))

    def hist_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("degree").aggregate([("degree", "count")])
        return pa.table({"degree": g["degree"].cast(pa.int64()),
                         "n_users": g["degree_count"].cast(pa.int64())})

    return (per_user.map_batches(hist_partial, batch_format="pyarrow")
            .groupby("degree").aggregate(Sum("n_users", alias_name="n_users")))


Q_EVENTS_USER_DEGREE_HIST_SQL = """
SELECT CAST(cnt AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_users
FROM (SELECT COUNT(*) AS cnt FROM events GROUP BY user_id)
GROUP BY cnt
"""


# ---------------------------------------------------------- session stats

def q_events_session_stats(sf_dir: str, gap_minutes: int = 30,
                           num_buckets: int = 32):
    """Per-SESSION aggregate report: the session-level output the
    ``sessionize`` assignment feeds (funnel/engagement analytics): for
    every (user, session), event count, duration in seconds, and total
    value in cents — exact integers on both sides.

    Scale shape: identical to ``q_sessionize`` (one user-hash bucket
    shuffle, one vectorized boundary-aware pass per bucket); the per-batch
    pandas groupby emits one row per session, so output is bounded by
    session cardinality, never event cardinality."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64())
        return t.drop_columns(["value"]).append_column("cents", cents)

    def stats_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        sid = (new_user | gap).cumsum()
        start = sid.where(new_user).ffill()
        g = g.assign(session_id=(sid - start).astype("int64"))
        out = (g.groupby(["user_id", "session_id"], sort=False)
               .agg(n_events=("ts", "size"),
                    t0=("ts", "min"), t1=("ts", "max"),
                    value_cents=("cents", "sum"))
               .reset_index())
        out["duration_sec"] = ((out["t1"] - out["t0"])
                               // pd.Timedelta(seconds=1)).astype("int64")
        out["value_cents"] = out["value_cents"].astype("int64")
        return out[["user_id", "session_id", "n_events",
                    "duration_sec", "value_cents"]]

    return hash_grouped_reduce(
        ds.map_batches(to_cents, batch_format="pyarrow"), ["user_id"],
        stats_bucket, num_buckets, batch_format="pandas")


Q_EVENTS_SESSION_STATS_SQL = """
SELECT user_id, session_id, count(*) AS n_events,
       CAST(date_diff('microsecond', min(ts), max(ts)) // 1000000
            AS BIGINT) AS duration_sec,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM (
  SELECT user_id, ts, value,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM (
    SELECT user_id, ts, value,
           CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
    FROM events))
GROUP BY user_id, session_id
"""


# ---------------------------------------------------------- k-step funnel

_FUNNEL_STEPS = ("signup", "view", "purchase")


def q_events_funnel_steps(sf_dir: str, window_hours: int = 24,
                          num_buckets: int = 32):
    """Multi-step ORDERED funnel: for every user who did step 1, how many
    of the steps signup -> view -> purchase they completed, where each
    step must be the user's FIRST qualifying event strictly after the
    previous step's time and within ``window_hours`` of it — the k-step
    generalization of ``q_signup_purchase_funnel`` (conversion-path
    analytics).

    Scale shape: one user-hash bucket shuffle co-locates each user's
    events; per bucket, one sort + (k-1) vectorized per-user min-reduce
    passes (a groupby-min and a merge per step, never a per-user Python
    loop). Output is one row per step-1 user."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    window = pd.Timedelta(hours=window_hours)

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t_prev = (g[g.event_type == _FUNNEL_STEPS[0]]
                  .groupby("user_id")["ts"].min())
        users = t_prev.index.to_numpy()
        steps_done = pd.Series(1, index=t_prev.index, dtype="int64")
        for st in _FUNNEL_STEPS[1:]:
            sub = g[g.event_type == st].merge(
                t_prev.rename("t_prev"), left_on="user_id", right_index=True)
            sub = sub[(sub.ts > sub.t_prev)
                      & (sub.ts <= sub.t_prev + window)]
            # t_next's users are a subset of t_prev's (the merge), so only
            # users already at the previous step can advance
            t_next = sub.groupby("user_id")["ts"].min()
            steps_done.loc[t_next.index] += 1
            t_prev = t_next
        return pd.DataFrame({"user_id": users,
                             "steps_completed": steps_done.to_numpy()})

    return hash_grouped_reduce(ds, ["user_id"], funnel_bucket, num_buckets,
                               batch_format="pandas")


Q_EVENTS_FUNNEL_STEPS_SQL = f"""
WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = '{_FUNNEL_STEPS[0]}' GROUP BY user_id
), s2 AS (
  SELECT e.user_id, min(e.ts) AS t2
  FROM events e JOIN s1 USING (user_id)
  WHERE e.event_type = '{_FUNNEL_STEPS[1]}'
    AND e.ts > s1.t1 AND e.ts <= s1.t1 + INTERVAL 24 HOUR
  GROUP BY e.user_id
), s3 AS (
  SELECT e.user_id, min(e.ts) AS t3
  FROM events e JOIN s2 USING (user_id)
  WHERE e.event_type = '{_FUNNEL_STEPS[2]}'
    AND e.ts > s2.t2 AND e.ts <= s2.t2 + INTERVAL 24 HOUR
  GROUP BY e.user_id
)
SELECT s1.user_id,
       CAST(1 + CAST(s2.user_id IS NOT NULL AS INTEGER)
              + CAST(s3.user_id IS NOT NULL AS INTEGER)
            AS BIGINT) AS steps_completed
FROM s1 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)
"""


# ---------------------------------------------------------- retention cohorts

def q_events_retention_cohorts(sf_dir: str, num_buckets: int = 32):
    """Cohort RETENTION matrix — the classic product-analytics report: users
    cohorted by the DAY of their first event; cell (cohort_day,
    day_offset) counts the cohort's users active that many days later
    (day granularity: the testdata events span 30 days).

    Scale shape: one user-hash bucket shuffle co-locates each user's
    events (per-user first-week is exact in one vectorized pass per
    bucket); each bucket emits DISTINCT (cohort, offset, user) collapsed
    to per-bucket cell counts, so the final groupby-sum is bounded by
    |days|^2 cells, never events."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def to_day(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "day": pc.floor_temporal(t["ts"], unit="day")})

    def cohort_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d0 = g.groupby("user_id")["day"].transform("min")
        doff = ((g["day"] - d0) // pd.Timedelta(days=1)).astype("int64")
        cell = pd.DataFrame({
            "cohort_day": d0.dt.strftime("%Y-%m-%d"),
            "day_offset": doff,
            "user_id": g["user_id"],
        }).drop_duplicates()
        out = (cell.groupby(["cohort_day", "day_offset"], sort=False)
               .size().rename("n_users").reset_index())
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return (hash_grouped_reduce(
                ds.map_batches(to_day, batch_format="pyarrow"), ["user_id"],
                cohort_bucket, num_buckets, batch_format="pandas")
            .groupby(["cohort_day", "day_offset"])
            .aggregate(Sum("n_users", alias_name="n_users")))


Q_EVENTS_RETENTION_COHORTS_SQL = """
WITH first AS (
  SELECT user_id, date_trunc('day', min(ts)) AS d0
  FROM events GROUP BY user_id
), act AS (
  SELECT DISTINCT e.user_id, f.d0,
         date_diff('day', f.d0, date_trunc('day', e.ts)) AS doff
  FROM events e JOIN first f USING (user_id)
)
SELECT strftime(d0, '%Y-%m-%d') AS cohort_day,
       CAST(doff AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM act GROUP BY 1, 2
"""


# ---------------------------------------------------------- decile bucketing

def q_orders_price_deciles(sf_dir: str):
    """Exact VALUE-quantile bucketing (ntile-by-value): every order labeled
    with its global price decile 1..10, cut at the exact
    quantile_disc(0.1..0.9) points — the feature-binning / stratification
    primitive (deterministic under ties, unlike row-number NTILE).

    Scale shape: the same distributed-CDF trick as ``grouped_quantiles``
    — per-batch value-count partials over integer cents, one groupby-sum
    bounded by the distinct-value cardinality, a driver-side CDF walk
    picks the nine cutpoints (DuckDB ``quantile_disc``:
    ``sorted_v[floor(p*(n-1))]``), and the broadcast cutpoints drive one
    stateless vectorized searchsorted pass. For continuous domains at
    10^12 rows the bottom-k sketch variant (``grouped_quantiles_sketch``)
    is the bounded-cardinality fallback."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def cents_t(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "cents": pc.round(pc.multiply(t["o_totalprice"],
                                          pa.scalar(100.0))).cast(pa.int64()),
        })

    c = ds.map_batches(cents_t, batch_format="pyarrow").materialize()

    def vcount(t: pa.Table) -> pa.Table:
        g = t.group_by("cents").aggregate([("cents", "count")])
        return pa.table({"cents": g["cents"],
                         "cnt": g["cents_count"].cast(pa.int64())})

    agg = (c.map_batches(vcount, batch_format="pyarrow", batch_size=None)
           .groupby("cents").aggregate(Sum("cnt", alias_name="cnt"))
           .to_pandas().sort_values("cents"))
    v = agg["cents"].to_numpy()
    cum = np.cumsum(agg["cnt"].to_numpy())
    n = int(cum[-1])
    cuts = np.array([
        v[np.searchsorted(cum, int(np.floor(d / 10 * (n - 1))), side="right")]
        for d in range(1, 10)], dtype=np.int64)

    def bucketize(t: pa.Table) -> pa.Table:
        cents = t["cents"].to_numpy()
        # decile = 1 + #cutpoints strictly below the value; a tie AT a
        # cutpoint stays in the lower bucket (matches the SQL's > test)
        dec = 1 + np.searchsorted(cuts, cents, side="left")
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "decile": pa.array(dec.astype(np.int64))})

    return c.map_batches(bucketize, batch_format="pyarrow")


_DECILE_SUM = " + ".join(
    f"CAST(cents > qs[{d}] AS INTEGER)" for d in range(1, 10))
Q_ORDERS_PRICE_DECILES_SQL = f"""
WITH c AS (
  SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
), q AS (
  SELECT quantile_disc(cents,
           [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) AS qs FROM c
)
SELECT o_orderkey, CAST(1 + {_DECILE_SUM} AS BIGINT) AS decile
FROM c, q
"""


# ---------------------------------------------------------- z-score anomalies

def q_events_value_outliers(sf_dir: str, z: int = 3, num_buckets: int = 32):
    """Per-user VALUE anomaly flags — the z-score outlier detector, in
    EXACT integer arithmetic so the DuckDB oracle hash-compares with no
    float crossing engines: with per-user S = sum(cents), Q = sum(cents²),
    n = count, event x is an outlier iff

        (n·x - S)² > z² · (n·Q - S²)

    which is |x - mean| > z·sigma (population sigma) multiplied through by
    n² — pure int64 at these magnitudes (cents ~1e4, n ~1e2).

    Scale shape: per-user moments are per-batch (user, n, S, Q) hash-agg
    partials -> one |users|-bounded groupby-sum; flags are one stateless
    pass with the moments looked up via the bucket co-location (same
    user-hash shuffle as sessionize)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64())
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "cents": cents})

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        x = g["cents"].to_numpy().astype(np.int64)
        grp = g.groupby("user_id")["cents"]
        n = grp.transform("size").to_numpy().astype(np.int64)
        s = grp.transform("sum").to_numpy().astype(np.int64)
        q = (g["cents"] ** 2).groupby(g["user_id"]).transform("sum") \
            .to_numpy().astype(np.int64)
        lhs = (n * x - s) ** 2
        rhs = z * z * (n * q - s * s)
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "is_outlier": lhs > rhs})

    return hash_grouped_reduce(
        ds.map_batches(to_cents, batch_format="pyarrow"), ["user_id"],
        flag_bucket, num_buckets, batch_format="pandas")


Q_EVENTS_VALUE_OUTLIERS_SQL = """
WITH c AS (
  SELECT event_id, user_id, CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
), m AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(cents) AS BIGINT) AS s,
         CAST(sum(cents * cents) AS BIGINT) AS q
  FROM c GROUP BY user_id
)
SELECT c.event_id,
       (m.n * c.cents - m.s) * (m.n * c.cents - m.s) > 9 * (m.n * m.q - m.s * m.s)
           AS is_outlier
FROM c JOIN m USING (user_id)
"""


# ----------------------------------------------------------- salted skew join

def q_events_orders_salted_join(sf_dir: str, salt: int = 8,
                                num_buckets: int = 32):
    """events x orders on user_id = o_custkey via an explicitly SALTED
    hash-partitioned join — the skew-defusal form for a large-large join
    whose key distribution is hot (here every user is hot: 150 users x
    ~67 events x ~100 orders each at sf0.01 -> ~96k joined rows from 10k+15k
    inputs; an unsalted hash join puts each user's entire cross product in
    one bucket).

    Plan: left rows get a deterministic salt = splitmix64(event_id) mod S;
    the right side is replicated S times (one copy per salt value); the join
    runs hash-co-partitioned on (key, salt), so one hot key's work spreads
    across S buckets instead of serializing in one. Right-side wire volume
    multiplies by S — the correct tradeoff when the LEFT side is huge and
    skewed and the right is the smaller big table (at true broadcast size
    ``lookup_join`` wins instead). Same discipline as the LSH hot-bucket
    salting (``stages/lsh.py``); result is provably identical to the
    unsalted join, which the DuckDB oracle checks."""
    from deduplication_ray.stages.join import shuffle_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def salt_left(t: pa.Table) -> pa.Table:
        s = H.splitmix64(t["event_id"].to_numpy().astype(np.int64)
                         .view(np.uint64)) % np.uint64(salt)
        return pa.table({"user_id": t["user_id"],
                         "event_type": t["event_type"],
                         "salt": pa.array(s.astype(np.int64))})

    def replicate_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cents = pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy()
        cust = t["o_custkey"].to_numpy()
        idx = np.repeat(np.arange(n), salt)
        return pa.table({
            "user_id": pa.array(cust[idx]),
            "salt": pa.array(np.tile(np.arange(salt, dtype=np.int64), n)),
            "cents": pa.array(cents[idx]),
        })

    joined = shuffle_join(
        ev.map_batches(salt_left, batch_format="pyarrow"),
        orders.map_batches(replicate_right, batch_format="pyarrow"),
        on=["user_id", "salt"], how="inner", num_buckets=num_buckets)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate(
            [("cents", "sum"), ("cents", "count")])
        return pa.table({"event_type": g["event_type"],
                         "cents": g["cents_sum"].cast(pa.int64()),
                         "n": g["cents_count"].cast(pa.int64())})

    return joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(Sum("n", alias_name="n_pairs"),
                                         Sum("cents", alias_name="sum_cents"))


Q_EVENTS_ORDERS_SALTED_JOIN_SQL = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM events JOIN orders ON user_id = o_custkey
GROUP BY event_type
"""


# ------------------------------------------------- KMV set-overlap verdict

def q_lineitem_flag_overlap_kmv(sf_dir: str, k: int = 1024):
    """KMV (bottom-k) sketch SET-INTERSECTION verdict: estimate
    |orderkeys(R) ∩ orderkeys(A)| from two mergeable bottom-k sketches
    (Bar-Yossef et al. 2002; Jaccard from the union sketch per Beyer et al.
    2007: J = |bottom-k(A∪B) present in both| / |bottom-k(A∪B)|, intersection
    = J * union estimate), then recompute the exact overlap DISTRIBUTED and
    emit (exact_r, exact_a, exact_inter, kmv_within_bound) — the same
    verdict form as the HLL checks, so the approximate answer value-hashes
    against a deterministic TRUE-constant oracle.

    Scale shape: sketch side = per-batch bottom-k partials (2 rows x k u64
    per block, merged k-bounded on the driver — no shuffle); exact side =
    per-batch unique (flag, key) pairs -> cardinality-bounded groupbys.
    Bound: 4.5 sigma with sigma_J = sqrt(J(1-J)/k) plus the union
    estimator's 4.5/sqrt(k) relative error — deterministic given the fixed
    hash, holds at every sf."""
    from deduplication_ray.functions import sketch as SK

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"],
               filter=(pc.field("l_returnflag") != "N"))

    def sk_partial(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        keys = t["l_orderkey"].to_numpy()
        out_f, out_s = [], []
        for f in ("R", "A"):
            sub = keys[flags == f]
            if len(sub):
                h = H.splitmix64(sub.astype(np.int64).view(np.uint64))
                sk = SK.kmv_update(np.empty(0, np.uint64), h, k)
                out_f.append(f)
                out_s.append(sk.view(np.int64))
        return pa.table({"flag": pa.array(out_f, pa.string()),
                         "sk": pa.array([s.tolist() for s in out_s],
                                        pa.list_(pa.int64()))})

    parts = ds.map_batches(sk_partial, batch_format="pyarrow").to_pandas()
    sks = {"R": np.empty(0, np.uint64), "A": np.empty(0, np.uint64)}
    for f, s in zip(parts["flag"], parts["sk"]):
        sks[f] = SK.kmv_merge(sks[f], np.asarray(s, np.int64).view(np.uint64), k)

    def uniq(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        keys = t["l_orderkey"].to_numpy()
        order = np.lexsort((keys, flags))
        f_s, k_s = flags[order], keys[order]
        keep = np.concatenate([[True], (f_s[1:] != f_s[:-1])
                               | (k_s[1:] != k_s[:-1])]) \
            if len(f_s) else np.zeros(0, bool)
        return pa.table({"flag": pa.array(f_s[keep]),
                         "k": pa.array(k_s[keep])})

    dedup = ds.map_batches(uniq, batch_format="pyarrow") \
        .groupby(["flag", "k"]).count().materialize()
    per_flag = dedup.groupby("flag").count().to_pandas() \
        .set_index("flag")["count()"]
    per_key = dedup.groupby("k").count().materialize()
    n_union = per_key.count()
    n_inter = per_key.map_batches(
        lambda t: t.filter(pc.equal(t["count()"], 2)),
        batch_format="pyarrow").count()

    j_est = SK.kmv_jaccard(sks["R"], sks["A"], k)
    union_est = SK.kmv_estimate(SK.kmv_merge(sks["R"], sks["A"], k), k)
    inter_est = j_est * union_est
    bound = 4.5 * (np.sqrt(max(j_est * (1 - j_est), 1e-9) / k)
                   + 1.0 / np.sqrt(k)) * n_union
    ok = abs(inter_est - n_inter) <= bound
    return pd.DataFrame({
        "exact_r": [int(per_flag.get("R", 0))],
        "exact_a": [int(per_flag.get("A", 0))],
        "exact_inter": [int(n_inter)],
        "kmv_within_bound": [bool(ok)],
    })


Q_LINEITEM_FLAG_OVERLAP_KMV_SQL = """
WITH a AS (SELECT DISTINCT l_orderkey FROM lineitem WHERE l_returnflag = 'R'),
     b AS (SELECT DISTINCT l_orderkey FROM lineitem WHERE l_returnflag = 'A')
SELECT CAST((SELECT count(*) FROM a) AS BIGINT) AS exact_r,
       CAST((SELECT count(*) FROM b) AS BIGINT) AS exact_a,
       CAST((SELECT count(*) FROM a JOIN b USING (l_orderkey)) AS BIGINT)
           AS exact_inter,
       TRUE AS kmv_within_bound
"""


# ------------------------------------------------------ positional window kit

def q_events_window_funcs(sf_dir: str, tiles: int = 4, num_buckets: int = 32):
    """Positional window functions in one pass — NTILE(4), FIRST_VALUE and
    LAST_VALUE over (PARTITION BY user_id ORDER BY cents, event_id) — the
    remaining members of the window kit (rank/lag/moving/running forms are
    separate queries). The (cents, event_id) order is a deterministic total
    order, so every engine agrees; NTILE uses the exact SQL split (first
    n mod t buckets get one extra row).

    Scale shape: the same user-hash bucket shuffle as sessionize; per bucket
    one lexsort + three vectorized transforms (integer position formula, a
    per-user head/tail gather) — no per-row Python."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64())
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "cents": cents})

    def window_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "cents", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        grp = g.groupby("user_id", sort=False)["cents"]
        n = grp.transform("size").to_numpy().astype(np.int64)
        pos = g.groupby("user_id", sort=False).cumcount() \
            .to_numpy().astype(np.int64)
        q, r = n // tiles, n % tiles
        big = r * (q + 1)
        small_q = np.maximum(q, 1)  # avoid div-by-zero when n < tiles
        tile = np.where(pos < big, pos // np.maximum(q + 1, 1),
                        r + (pos - big) // small_q) + 1
        first = grp.transform("first").to_numpy().astype(np.int64)
        last = grp.transform("last").to_numpy().astype(np.int64)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "tile4": tile.astype(np.int64),
            "first_cents": first,
            "last_cents": last,
        })

    return hash_grouped_reduce(
        ds.map_batches(to_cents, batch_format="pyarrow"), ["user_id"],
        window_bucket, num_buckets, batch_format="pandas")


Q_EVENTS_WINDOW_FUNCS_SQL = """
WITH c AS (
  SELECT event_id, user_id, CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT event_id,
       CAST(ntile(4) OVER w AS BIGINT) AS tile4,
       first_value(cents) OVER w AS first_cents,
       last_value(cents) OVER (PARTITION BY user_id ORDER BY cents, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           AS last_cents
FROM c WINDOW w AS (PARTITION BY user_id ORDER BY cents, event_id)
"""


# ----------------------------------------------------- ordered group collect

def q_user_type_string_agg(sf_dir: str, num_buckets: int = 32):
    """Per-user ordered DISTINCT collect: the set of event types a user
    generated, sorted and comma-joined — the collect_list/string_agg kernel
    (deterministic because the collect is ordered, unlike a bare
    collect_list).

    Scale shape: per-batch distinct (user, type) partials shrink the stream
    to <= |users| x |types| rows before the only shuffle (a two-key groupby
    dedupe), then a user-bucket group pass joins each user's sorted types —
    output rows are |users|-bounded."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def uniq(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]).aggregate([])
        return g

    dedup = ds.map_batches(uniq, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]).count()

    def join_types(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.sort_values("event_type").groupby("user_id", sort=True)
               ["event_type"].agg(",".join).reset_index())
        return out.rename(columns={"event_type": "types"})

    return hash_grouped_reduce(
        dedup.select_columns(["user_id", "event_type"]), ["user_id"],
        join_types, num_buckets, batch_format="pandas")


Q_USER_TYPE_STRING_AGG_SQL = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT user_id, string_agg(event_type, ',' ORDER BY event_type) AS types
FROM d GROUP BY user_id
"""


# ------------------------------------------------- TPC-H Q3 (shipping priority)

def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         k: int = 10, num_buckets: int = 32):
    """TPC-H Q3 shape: top-k unshipped-revenue orders for ONE market segment
    — a dimension semi-filter + big-big join + grouped top-k, composed from
    this engine's three join strategies in their proper roles.

    Scale plan: (1) the segment's custkeys are the small dimension side —
    broadcast once and probed per orders batch (``lookup_join`` semi; no
    shuffle; the R17 small-side gather,
    /root/reference/src/compressor.c:320-339); (2) lineitem revenue
    collapses to one row per orderkey BEFORE any wire hop (in-batch
    sum-by-key partial, then hash_grouped_reduce — group-per-row regime);
    (3) the one unavoidable big-big edge (per-order revenue x filtered
    orders) goes through the hash-co-partitioned shuffle_join, each row
    crossing the wire exactly once; (4) the global top-k is per-block
    partial top-k then one K*num_blocks-row final reduce — never a global
    sort. Date predicates are pushed to the parquet scan on BOTH fact
    reads, so dead rows never leave storage."""
    import datetime

    from deduplication_ray.stages.join import shuffle_join

    cut = datetime.datetime(1998, 6, 1)

    cust = _read(sf_dir, "customer", ["c_custkey"],
                 filter=(pc.field("c_mktsegment") == segment)) \
        .rename_columns({"c_custkey": "o_custkey"})

    def project(t: pa.Table) -> pa.Table:
        day = (t["o_orderdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        return pa.table({
            "l_orderkey": t["o_orderkey"],
            "o_orderdate_day": pa.array(day, pa.int64()),
            "o_orderpriority": t["o_orderpriority"],
        })

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pc.field("o_orderdate") < cut))
    orders = lookup_join(orders, cust, on=["o_custkey"], cfg=DedupConfig(),
                         how="semi").map_batches(project,
                                                 batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"],
               filter=(pc.field("l_shipdate") > cut))

    def rev_partial(t: pa.Table) -> pa.Table:
        r = pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0))).cast(pa.int64()).to_numpy()
        ks = t["l_orderkey"].to_numpy()
        order = np.argsort(ks, kind="stable")
        ks, r = ks[order], r[order]
        starts = np.flatnonzero(
            np.concatenate([[True], ks[1:] != ks[:-1]])) if len(ks) else \
            np.empty(0, np.int64)
        return pa.table({
            "l_orderkey": pa.array(ks[starts], pa.int64()),
            "revenue_e4": pa.array(
                np.add.reduceat(r, starts).astype(np.int64)
                if len(starts) else np.empty(0, np.int64)),
        })

    li_rev = hash_grouped_reduce(
        li.map_batches(rev_partial, batch_format="pyarrow"),
        key_hash=["l_orderkey"],
        reduce_fn=lambda t: rev_partial_merge(t),
        num_parts=num_buckets,
    )

    joined = shuffle_join(li_rev, orders, on=["l_orderkey"], how="inner",
                          num_buckets=num_buckets)

    def ptop(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=[("revenue_e4", "descending"),
                                            ("l_orderkey", "ascending")])
        return t.take(idx[:k])

    tbls = list(joined.map_batches(ptop, batch_format="pyarrow")
                .repartition(1)
                .map_batches(ptop, batch_format="pyarrow", batch_size=None)
                .iter_batches(batch_format="pyarrow", batch_size=None))
    if not tbls:
        return pa.table({"l_orderkey": pa.array([], pa.int64()),
                         "revenue_e4": pa.array([], pa.int64()),
                         "o_orderdate_day": pa.array([], pa.int64()),
                         "o_orderpriority": pa.array([], pa.string())})
    out = pa.concat_tables(tbls, promote_options="default")
    idx = pc.sort_indices(out, sort_keys=[("revenue_e4", "descending"),
                                          ("l_orderkey", "ascending")])
    return out.take(idx[:k]).select(
        ["l_orderkey", "revenue_e4", "o_orderdate_day", "o_orderpriority"])


def rev_partial_merge(t: pa.Table) -> pa.Table:
    """Merge per-batch (l_orderkey, revenue_e4) partials: one vectorized
    sort + segmented sum per hash partition (group-per-row regime)."""
    ks = t["l_orderkey"].to_numpy()
    vs = t["revenue_e4"].to_numpy()
    order = np.argsort(ks, kind="stable")
    ks, vs = ks[order], vs[order]
    if not len(ks):
        return pa.table({"l_orderkey": pa.array([], pa.int64()),
                         "revenue_e4": pa.array([], pa.int64())})
    starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
    return pa.table({
        "l_orderkey": pa.array(ks[starts], pa.int64()),
        "revenue_e4": pa.array(np.add.reduceat(vs, starts).astype(np.int64)),
    })


Q3_SHIPPING_PRIORITY_SQL = """
SELECT l_orderkey,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4,
       CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT) AS o_orderdate_day,
       o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate_day, o_orderpriority
ORDER BY revenue_e4 DESC, l_orderkey LIMIT 10
"""


# --------------------------------------------- TPC-H Q18 (big-order customers)

def q18_big_orders(sf_dir: str, qty_threshold: int = 270,
                   num_buckets: int = 32):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold, enriched with customer attributes — the groupby-HAVING
    semi-join every "find the whales" analysis needs.

    Scale plan: lineitem quantities collapse to one row per orderkey before
    the wire (in-batch sum-by-key, then hash_grouped_reduce); the HAVING
    filter keeps a selectivity-bounded keyset (~1% of orders at threshold
    270 — the operator's own contract: a whale query returns few whales),
    which broadcasts as a sorted array probed per orders batch; customer is
    the small dimension side, broadcast once. If the threshold were ever
    tuned to keep a non-broadcastable fraction, the orders edge drops into
    shuffle_join unchanged — the HAVING output is already keyed by
    orderkey."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty_partial(t: pa.Table) -> pa.Table:
        q = pc.round(t["l_quantity"]).cast(pa.int64()).to_numpy()
        ks = t["l_orderkey"].to_numpy()
        order = np.argsort(ks, kind="stable")
        ks, q = ks[order], q[order]
        starts = np.flatnonzero(
            np.concatenate([[True], ks[1:] != ks[:-1]])) if len(ks) else \
            np.empty(0, np.int64)
        return pa.table({
            "l_orderkey": pa.array(ks[starts], pa.int64()),
            "total_qty": pa.array(
                np.add.reduceat(q, starts).astype(np.int64)
                if len(starts) else np.empty(0, np.int64)),
        })

    def qty_merge(t: pa.Table) -> pa.Table:
        ks = t["l_orderkey"].to_numpy()
        vs = t["total_qty"].to_numpy()
        order = np.argsort(ks, kind="stable")
        ks, vs = ks[order], vs[order]
        if not len(ks):
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "total_qty": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
        tot = np.add.reduceat(vs, starts).astype(np.int64)
        keep = tot > qty_threshold
        return pa.table({
            "l_orderkey": pa.array(ks[starts][keep], pa.int64()),
            "total_qty": pa.array(tot[keep]),
        })

    big = hash_grouped_reduce(
        li.map_batches(qty_partial, batch_format="pyarrow"),
        key_hash=["l_orderkey"],
        reduce_fn=qty_merge,
        num_parts=num_buckets,
    ).to_pandas()  # selectivity-bounded by the HAVING threshold

    if "l_orderkey" not in big.columns:
        big = pd.DataFrame({"l_orderkey": np.empty(0, np.int64),
                            "total_qty": np.empty(0, np.int64)})
    order = np.argsort(big["l_orderkey"].to_numpy(), kind="stable")
    bkeys = big["l_orderkey"].to_numpy()[order]
    bqty = big["total_qty"].to_numpy()[order]

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    corder = np.argsort(cust["c_custkey"].to_numpy(), kind="stable")
    ckeys = cust["c_custkey"].to_numpy()[corder]
    cnames = cust["c_name"].to_numpy()[corder]

    ref = ray.put((bkeys, bqty, ckeys, cnames))

    class Enrich:
        def __init__(self):
            self.bkeys = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.bkeys is None:
                self.bkeys, self.bqty, self.ckeys, self.cnames = ray.get(ref)
            ok_ = t["o_orderkey"].to_numpy()
            if len(self.bkeys):
                pos = np.searchsorted(self.bkeys, ok_)
                pos[pos >= len(self.bkeys)] = 0
                hit = self.bkeys[pos] == ok_
            else:
                pos = np.zeros(len(ok_), np.int64)
                hit = np.zeros(len(ok_), bool)
            t = t.filter(pa.array(hit))
            pos = pos[hit]
            ck = t["o_custkey"].to_numpy()
            cpos = np.searchsorted(self.ckeys, ck)
            cpos = np.clip(cpos, 0, max(len(self.ckeys) - 1, 0))
            name = self.cnames[cpos] if len(self.ckeys) else \
                np.empty(0, object)
            day = (t["o_orderdate"].to_numpy().astype("datetime64[D]")
                   .astype(np.int64))
            cents = pc.round(pc.multiply(
                t["o_totalprice"], pa.scalar(100.0))).cast(pa.int64())
            return pa.table({
                "c_name": pa.array(name.tolist(), pa.string()),
                "c_custkey": t["o_custkey"],
                "o_orderkey": t["o_orderkey"],
                "o_orderdate_day": pa.array(day, pa.int64()),
                "price_cents": cents,
                "total_qty": pa.array(self.bqty[pos], pa.int64()),
            })

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    return orders.map_batches(Enrich(), batch_format="pyarrow")


Q18_BIG_ORDERS_SQL = """
WITH big AS (
  SELECT l_orderkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS total_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 270
)
SELECT c_name, c_custkey, o_orderkey,
       CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT) AS o_orderdate_day,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
       big.total_qty
FROM big
JOIN orders ON o_orderkey = big.l_orderkey
JOIN customer ON c_custkey = o_custkey
"""


# ------------------------------------------------ rolling 7-day distinct users

def q_events_rolling_dau(sf_dir: str, window_days: int = 7,
                         num_buckets: int = 32):
    """Rolling 7-day distinct active users per day (DAU-7) — the windowed
    COUNT(DISTINCT) kernel, which no plain groupby can express because a
    user must be counted once per WINDOW, not once per group.

    Scale shape: per-batch distinct (user, activity-day) partials collapse
    the event stream to <= |users| x |days| rows before the only shuffle
    (``hash_grouped_reduce`` on user_id — a user's whole history lands in
    one bucket,
    so per-day per-bucket distinct-user counts SUM exactly across buckets);
    inside each bucket one vectorized pass expands each activity day to the
    <= 7 window days it serves (np.repeat + tiled offsets), dedupes
    (window-day, user), and emits per-day count partials. The driver merge
    is num_buckets x (|days| + 7) rows — the same bounded k x #blocks
    pattern as the bottom-k samplers, never the event stream."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64))
        return (pa.table({"user_id": t["user_id"],
                          "day": pa.array(day, pa.int64())})
                .group_by(["user_id", "day"]).aggregate([]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        uid = g["user_id"].to_numpy()
        day = g["day"].to_numpy().astype(np.int64)
        if not len(uid):
            return pd.DataFrame({"day": np.empty(0, np.int64),
                                 "n": np.empty(0, np.int64),
                                 "mx": np.empty(0, np.int64)})
        mx = int(day.max())
        w = window_days
        wday = np.repeat(day, w) + np.tile(np.arange(w, dtype=np.int64),
                                           len(day))
        wuid = np.repeat(uid, w)
        pairs = pd.DataFrame({"day": wday, "user_id": wuid}) \
            .drop_duplicates(["day", "user_id"])
        cnt = pairs.groupby("day", sort=True).size().reset_index(name="n")
        cnt["n"] = cnt["n"].astype(np.int64)
        cnt["mx"] = np.int64(mx)
        return cnt

    parts = hash_grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), ["user_id"],
        per_bucket, num_buckets, batch_format="pandas",
    ).to_pandas()  # bounded: num_buckets x (|days| + window) rows
    if "day" not in parts.columns or not len(parts):
        return pd.DataFrame({"day": np.empty(0, np.int64),
                             "dau7": np.empty(0, np.int64)})
    mx = int(parts["mx"].max())
    parts = parts[parts["day"] <= mx]
    out = (parts.groupby("day", sort=True)["n"].sum().reset_index()
           .rename(columns={"n": "dau7"}))
    out["dau7"] = out["dau7"].astype(np.int64)
    return out


Q_EVENTS_ROLLING_DAU_SQL = """
WITH du AS (
  SELECT DISTINCT CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day, user_id
  FROM events
), bounds AS (SELECT min(day) AS mn, max(day) AS mx FROM du),
grid AS (SELECT unnest(generate_series(mn, mx)) AS day FROM bounds)
SELECT g.day, CAST(count(DISTINCT du.user_id) AS BIGINT) AS dau7
FROM grid g JOIN du ON du.day BETWEEN g.day - 6 AND g.day
GROUP BY g.day
"""


# ------------------------------------------------ TPC-H Q9 (profit by nation)

def _supp_nation(sf_dir: str) -> pd.DataFrame:
    """The supplier -> nation dimension chain collapsed in pandas into one
    (l_suppkey, n_name) lookup for lineitem probes."""
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    return supp.merge(nation, left_on="s_nationkey", right_on="n_nationkey") \
        [["s_suppkey", "n_name"]].rename(columns={"s_suppkey": "l_suppkey"})


def q9_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape: profit per (supplier nation, ship year) — a fact
    table against a star of dimensions, composed as a DOUBLE broadcast:
    the dimension chain supplier -> nation collapses driver-side into ONE
    (suppkey -> nation name) lookup broadcast once and probed per lineitem
    batch (``lookup_join``), so the fact stream never
    shuffles until the final |nations| x |years| groupby of per-batch
    partials (the q_revenue_by_nation dimension-collapse pattern on the
    supplier leg of the star)."""
    sn = _supp_nation(sf_dir)

    def star(t: pa.Table) -> pa.Table:
        year = (t["l_shipdate"].to_numpy().astype("datetime64[Y]")
                .astype(np.int64) + 1970)
        e4 = _rev_e4(t)
        g = (pa.table({"n_name": t["n_name"],
                       "ship_year": pa.array(year),
                       "profit_e4": pa.array(e4),
                       "n_items": pa.array(np.ones(len(e4), np.int64))})
             .group_by(["n_name", "ship_year"])
             .aggregate([("profit_e4", "sum"), ("n_items", "sum")]))
        return g.rename_columns(
            ["n_name", "ship_year", "profit_e4", "n_items"])

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
    return lookup_join(li, sn, on=["l_suppkey"], cfg=DedupConfig()) \
        .map_batches(star, batch_format="pyarrow") \
        .groupby(["n_name", "ship_year"]).aggregate(
            Sum("profit_e4", alias_name="profit_e4"),
            Sum("n_items", alias_name="n_items"))


Q9_PROFIT_BY_NATION_SQL = """
SELECT n_name, CAST(year(l_shipdate) AS BIGINT) AS ship_year,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS profit_e4,
       count(*) AS n_items
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
GROUP BY n_name, ship_year
"""


# --------------------------------------------- TPC-H Q14 (promo revenue share)

def q14_promo_share(sf_dir: str):
    """TPC-H Q14 shape: per ship year, the integer-permille share of
    revenue from PROMO-type parts — conditional aggregation over one
    broadcast dimension probe. The share is computed with INTEGER floor
    division on e4-unit sums (never a float ratio), so the DuckDB oracle
    hash-matches bit-for-bit."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]) \
        .rename_columns({"p_partkey": "l_partkey"})

    def promo(t: pa.Table) -> pa.Table:
        is_promo = pc.equal(t["p_type"], "PROMO").to_numpy(
            zero_copy_only=False)
        year = (t["l_shipdate"].to_numpy().astype("datetime64[Y]")
                .astype(np.int64) + 1970)
        e4 = _rev_e4(t)
        g = (pa.table({"ship_year": pa.array(year),
                       "promo_e4": pa.array(np.where(is_promo, e4, 0)),
                       "total_e4": pa.array(e4)})
             .group_by(["ship_year"])
             .aggregate([("promo_e4", "sum"), ("total_e4", "sum")]))
        return g.rename_columns(["ship_year", "promo_e4", "total_e4"])

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
    agg = lookup_join(li, part, on=["l_partkey"], cfg=DedupConfig()) \
        .map_batches(promo, batch_format="pyarrow") \
        .groupby("ship_year").aggregate(
            Sum("promo_e4", alias_name="promo_e4"),
            Sum("total_e4", alias_name="total_e4"))

    def share(t: pa.Table) -> pa.Table:
        p = t["promo_e4"].to_numpy()
        tot = t["total_e4"].to_numpy()
        permille = np.where(tot > 0, (p * 1000) // np.maximum(tot, 1), 0)
        return t.append_column("promo_permille",
                               pa.array(permille.astype(np.int64)))

    return agg.map_batches(share, batch_format="pyarrow")


Q14_PROMO_SHARE_SQL = """
WITH y AS (
  SELECT CAST(year(l_shipdate) AS BIGINT) AS ship_year,
         CAST(sum(CASE WHEN p_type = 'PROMO'
                  THEN CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)
                  ELSE 0 END) AS BIGINT) AS promo_e4,
         CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS total_e4
  FROM lineitem JOIN part ON p_partkey = l_partkey
  GROUP BY ship_year
)
SELECT ship_year, promo_e4, total_e4,
       CAST((promo_e4 * 1000) // greatest(total_e4, 1) AS BIGINT) AS promo_permille
FROM y
"""


# ----------------------------------- TPC-H Q19 (disjunctive predicate revenue)

def q19_brand_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue under an OR of three (brand, size range,
    quantity range) conjunctions — the disjunctive multi-attribute
    predicate that defeats naive pushdown. The part attributes broadcast
    once; each lineitem batch evaluates the whole disjunction as three
    vectorized masks. Output is ONE row (revenue_e4, n_items): a full-fact
    scan collapsing to a scalar, the cheapest possible shuffle."""
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_size"]).to_pandas()
    order = np.argsort(part["p_partkey"].to_numpy(), kind="stable")
    ref = ray.put((part["p_partkey"].to_numpy()[order],
                   part["p_brand"].to_numpy()[order],
                   part["p_size"].to_numpy()[order]))
    PREDS = (("Brand#12", 1, 15, 1, 15),
             ("Brand#23", 1, 25, 10, 30),
             ("Brand#34", 1, 35, 20, 45))

    class Q19:
        def __init__(self):
            self.pk = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.pk is None:
                self.pk, self.brand, self.size = ray.get(ref)
            ppos = np.searchsorted(self.pk, t["l_partkey"].to_numpy())
            ppos = np.clip(ppos, 0, len(self.pk) - 1)
            brand = self.brand[ppos]
            size = self.size[ppos]
            qty = pc.round(t["l_quantity"]).cast(pa.int64()).to_numpy()
            keep = np.zeros(t.num_rows, bool)
            for b, s_lo, s_hi, q_lo, q_hi in PREDS:
                keep |= ((brand == b) & (size >= s_lo) & (size <= s_hi)
                         & (qty >= q_lo) & (qty <= q_hi))
            e4 = pc.round(pc.multiply(
                pc.multiply(t["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), t["l_discount"])),
                pa.scalar(10000.0))).cast(pa.int64()).to_numpy()
            return pa.table({
                "revenue_e4": pa.array([int(e4[keep].sum())], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    parts = li.map_batches(Q19(), batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "revenue_e4": [int(parts["revenue_e4"].sum())],
        "n_items": [int(parts["n_items"].sum())],
    })


Q19_BRAND_REVENUE_SQL = """
SELECT CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4,
       count(*) AS n_items
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 15)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 25
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 30)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 35
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 45)
"""


# ------------------------------------------------------------- keyed reduce kit

def _segmented_reduce(t: pa.Table, key: str,
                      cols: dict[str, tuple[str, str]]) -> pa.Table:
    """Sort-segmented in-batch reduce over an int64 key: ``cols`` maps output
    name -> (input column, 'sum' | 'max' | 'count'). Used as BOTH the per-batch
    partial and the per-hash-partition combine of ``hash_grouped_reduce`` (a
    partial's counts re-enter as 'sum'), so every fact row collapses before the
    wire and each key crosses it once — the Q3 pre-aggregation discipline."""
    ks = t[key].to_numpy()
    if len(ks) == 0:
        return pa.table({key: pa.array([], pa.int64()),
                         **{o: pa.array([], pa.int64()) for o in cols}})
    order = np.argsort(ks, kind="stable")
    ks = ks[order]
    starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
    ends = np.concatenate([starts[1:], [len(ks)]])
    out = {key: pa.array(ks[starts], pa.int64())}
    for name, (src, op) in cols.items():
        if op == "count":
            out[name] = pa.array((ends - starts).astype(np.int64))
        else:
            vs = t[src].to_numpy()[order]
            red = (np.add.reduceat(vs, starts) if op == "sum"
                   else np.maximum.reduceat(vs, starts))
            out[name] = pa.array(red.astype(np.int64))
    return pa.table(out)


def _keyed_reduce(ds: ray.data.Dataset, key: str,
                  cols: dict[str, tuple[str, str]],
                  num_parts: int = 32) -> ray.data.Dataset:
    """In-batch partial + hash-partitioned combine by one int64 key."""
    partial = ds.map_batches(lambda t: _segmented_reduce(t, key, cols),
                             batch_format="pyarrow")
    # re-reduce: partial counts arrive as a column -> combine by summing it
    recols = {o: (o, "sum" if op == "count" else op)
              for o, (_, op) in cols.items()}
    return hash_grouped_reduce(
        partial,
        key_hash=[key],
        reduce_fn=lambda t: _segmented_reduce(t, key, recols),
        num_parts=num_parts,
    )


def _rev_e4(t: pa.Table) -> np.ndarray:
    """Vectorized revenue in exact 1e-4 units (the engine's float policy)."""
    return pc.round(pc.multiply(
        pc.multiply(t["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), t["l_discount"])),
        pa.scalar(10000.0))).cast(pa.int64()).to_numpy()


# --------------------------------------------- TPC-H Q4 (order priority / EXISTS)

def q4_late_ship_priority(sf_dir: str):
    """TPC-H Q4 shape: per-priority count of orders with EXISTS a late
    lineitem (shipdate after the order date; the schema has no
    commit/receipt dates). The correlated EXISTS becomes a per-orderkey MAX
    pre-aggregation — lineitem collapses to one (orderkey, max ship day)
    row BEFORE the wire — followed by the one unavoidable big-big edge
    through the hash-co-partitioned shuffle join, then a 5-group count."""
    from deduplication_ray.stages.join import shuffle_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def to_day(t: pa.Table) -> pa.Table:
        day = (t["l_shipdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "ship_day": pa.array(day, pa.int64())})

    max_ship = _keyed_reduce(li.map_batches(to_day, batch_format="pyarrow"),
                             "o_orderkey", {"max_ship_day": ("ship_day", "max")})

    def o_prep(t: pa.Table) -> pa.Table:
        day = (t["o_orderdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "order_day": pa.array(day, pa.int64()),
                         "o_orderpriority": t["o_orderpriority"]})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(o_prep, batch_format="pyarrow")

    j = shuffle_join(max_ship, orders, on=["o_orderkey"], how="inner")
    late = j.map_batches(
        lambda t: t.filter(pc.greater(t["max_ship_day"], t["order_day"]))
        .select(["o_orderpriority"]),
        batch_format="pyarrow")
    return late.groupby("o_orderpriority").aggregate(Count(alias_name="n_late"))


Q4_LATE_SHIP_PRIORITY_SQL = """
SELECT o_orderpriority, count(*) AS n_late
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND CAST(l_shipdate AS DATE) > CAST(o_orderdate AS DATE))
GROUP BY o_orderpriority
"""


# ------------------------------------------ TPC-H Q12 (shipmode service levels)

def q12_shipmode_priority(sf_dir: str, start: str = "1996-01-01",
                          end: str = "1997-01-01"):
    """TPC-H Q12 shape: service-level audit. For each lineitem status class
    (this schema's stand-in for ship mode; folded to 'O' vs 'F' so both
    engines bucket identically) count window-shipped lineitems on
    high-priority (1-URGENT/2-HIGH) vs lower-priority orders. The shipdate
    window is pushed to the parquet scan; lineitem pre-collapses IN BATCH to
    (orderkey, status, n) through a composite int64 key (orderkey*2 |
    status_bit) so the one unavoidable big-big edge against orders ships
    collapsed counts, not rows; the priority CASE is one vectorized
    membership probe after the join; the tail is a 2-class partial per batch
    merged on the driver (2 x #batches rows, never a global sort)."""
    import datetime

    from deduplication_ray.stages.join import shuffle_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus"],
               filter=((pc.field("l_shipdate")
                        >= datetime.datetime.fromisoformat(start))
                       & (pc.field("l_shipdate")
                          < datetime.datetime.fromisoformat(end))))

    def collapse(t: pa.Table) -> pa.Table:
        bit = pc.equal(t["l_linestatus"], pa.scalar("O")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        ck = t["l_orderkey"].to_numpy() * 2 + bit
        return pa.table({"ck": pa.array(ck, pa.int64()),
                         "n": pa.array(np.ones(len(ck), np.int64))})

    per = _keyed_reduce(li.map_batches(collapse, batch_format="pyarrow"),
                        "ck", {"n": ("n", "sum")})

    def split(t: pa.Table) -> pa.Table:
        ck = t["ck"].to_numpy()
        return pa.table({"o_orderkey": pa.array(ck >> 1, pa.int64()),
                         "status_bit": pa.array(ck & 1, pa.int64()),
                         "n": t["n"]})

    def o_prep(t: pa.Table) -> pa.Table:
        hi = pc.is_in(t["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"])) \
            .cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"], "is_high": hi})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]) \
        .map_batches(o_prep, batch_format="pyarrow")

    # explicit schemas: an empty shipdate window yields a zero-block left
    # side whose schema Ray cannot derive without executing the batch fns
    i64 = pa.int64()
    j = shuffle_join(per.map_batches(split, batch_format="pyarrow"),
                     orders, on=["o_orderkey"], how="inner",
                     left_schema=pa.schema([("o_orderkey", i64),
                                            ("status_bit", i64),
                                            ("n", i64)]),
                     right_schema=pa.schema([("o_orderkey", i64),
                                             ("is_high", i64)]))

    def partial(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy()
        hi = t["is_high"].to_numpy().astype(bool)
        s = t["status_bit"].to_numpy().astype(bool)
        bits, highs, lows = [], [], []
        for bit in (False, True):  # 2 classes, not per-row
            m = s == bit
            if m.any():
                bits.append(int(bit))
                highs.append(int(n[m & hi].sum()))
                lows.append(int(n[m & ~hi].sum()))
        return pa.table({"status_bit": pa.array(bits, pa.int64()),
                         "high_line_count": pa.array(highs, pa.int64()),
                         "low_line_count": pa.array(lows, pa.int64())})

    mom = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    if mom.empty:  # empty window: to_pandas() loses the schema entirely
        return pd.DataFrame({"linestatus_class": pd.Series([], dtype=str),
                             "high_line_count": pd.Series([], dtype=np.int64),
                             "low_line_count": pd.Series([], dtype=np.int64)})
    g = mom.groupby("status_bit", sort=True)[
        ["high_line_count", "low_line_count"]].sum().reset_index()
    g["linestatus_class"] = np.where(g["status_bit"] == 1, "O", "F")
    return g[["linestatus_class", "high_line_count", "low_line_count"]]


Q12_SHIPMODE_PRIORITY_SQL = """
SELECT CASE WHEN l_linestatus = 'O' THEN 'O' ELSE 'F' END AS linestatus_class,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY 1
"""


# ------------------------------------------ TPC-H Q10 (returned-item customers)

def q10_returned_revenue(sf_dir: str, k: int = 20):
    """TPC-H Q10 shape: top-k customers by revenue lost to returned
    ('R'-flag) lineitems, decorated with customer + nation attributes.
    Returnflag pushed to the parquet scan; revenue collapses per orderkey
    in-batch, crosses the wire once into orders (shuffle join), re-collapses
    per custkey, then the small surviving table joins customer/nation and
    the global top-k is per-block partial top-k + one bounded final merge —
    never a global sort."""
    from deduplication_ray.stages.join import shuffle_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"],
               filter=(pc.field("l_returnflag") == "R"))

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "revenue_e4": pa.array(_rev_e4(t))})

    per_order = _keyed_reduce(li.map_batches(rev, batch_format="pyarrow"),
                              "o_orderkey", {"revenue_e4": ("revenue_e4", "sum")})
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = shuffle_join(per_order, orders, on=["o_orderkey"], how="inner")
    per_cust = _keyed_reduce(
        j.map_batches(lambda t: pa.table({"c_custkey": t["o_custkey"],
                                          "revenue_e4": t["revenue_e4"]}),
                      batch_format="pyarrow"),
        "c_custkey", {"revenue_e4": ("revenue_e4", "sum")})

    kcand = max(k * 5, 50)

    def ptop(t: pa.Table) -> pa.Table:
        if t.num_rows <= kcand:
            return t
        idx = pc.sort_indices(t, sort_keys=[("revenue_e4", "descending"),
                                            ("c_custkey", "ascending")])
        return t.take(idx[:kcand])

    cand_tbls = list(per_cust.map_batches(ptop, batch_format="pyarrow")
                     .repartition(1)
                     .map_batches(ptop, batch_format="pyarrow", batch_size=None)
                     .iter_batches(batch_format="pyarrow", batch_size=None))
    cand = pa.concat_tables(cand_tbls) if cand_tbls else pa.table(
        {"c_custkey": pa.array([], pa.int64()),
         "revenue_e4": pa.array([], pa.int64())})
    idx = pc.sort_indices(cand, sort_keys=[("revenue_e4", "descending"),
                                           ("c_custkey", "ascending")])
    cand = cand.take(idx[:k])

    # k rows left: decorate from the dimension tables (driver-side, bounded)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
                 filter=pc.field("c_custkey").isin(cand["c_custkey"].to_pylist())
                 ).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    out = cand.to_pandas().merge(cust, on="c_custkey", how="inner")
    out["acctbal_cents"] = np.round(out["c_acctbal"] * 100).astype(np.int64)
    out = out.sort_values(["revenue_e4", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
    return out[["c_custkey", "c_name", "revenue_e4", "acctbal_cents", "n_name"]]


Q10_RETURNED_REVENUE_SQL = """
SELECT c_custkey, c_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4,
       CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_cents, n_name
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue_e4 DESC, c_custkey LIMIT 20
"""


# --------------------------------------- TPC-H Q13 (customer order-count distro)

def q13_order_count_distribution(sf_dir: str):
    """TPC-H Q13 shape: histogram of per-customer order counts INCLUDING
    zero-order customers — the left-join-then-regroup shape. Orders collapse
    to (custkey, n) partials in-batch; the left shuffle join against the
    customer id column fills in the zeros; the final histogram groupby is
    |distinct counts| rows."""
    from deduplication_ray.stages.join import shuffle_join

    counts = _keyed_reduce(
        _read(sf_dir, "orders", ["o_custkey"]).map_batches(
            lambda t: pa.table({"c_custkey": t["o_custkey"]}),
            batch_format="pyarrow"),
        "c_custkey", {"c_count": ("c_custkey", "count")})
    cust = _read(sf_dir, "customer", ["c_custkey"])
    j = shuffle_join(cust, counts, on=["c_custkey"], how="left")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({"c_count": t["c_count"].cast(pa.int64()).fill_null(0)})

    return (j.map_batches(fill, batch_format="pyarrow")
            .groupby("c_count").aggregate(Count(alias_name="custdist")))


Q13_ORDER_COUNT_DISTRIBUTION_SQL = """
WITH per_cust AS (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey
)
SELECT c_count, count(*) AS custdist FROM per_cust GROUP BY c_count
"""


# ------------------------------------- TPC-H Q17 (small-quantity part revenue)

def q17_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue from lineitems whose quantity is below 20%
    of their part's average quantity — the per-group-average self-join. The
    per-part (quantity sum, count) moments collapse in-batch and cross the
    wire once; the comparison is exact integer cross-multiplication
    (5 * qty * cnt < qsum), never a float average, so the DuckDB oracle
    hash-matches bit-for-bit. Output is one row."""
    from deduplication_ray.stages.join import shuffle_join

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        q = pc.round(t["l_quantity"]).cast(pa.int64())
        cents = pc.round(pc.multiply(t["l_extendedprice"],
                                     pa.scalar(100.0))).cast(pa.int64())
        return pa.table({"l_partkey": t["l_partkey"], "qty": q,
                         "price_cents": cents})

    prepped = li.map_batches(prep, batch_format="pyarrow")
    per_part = _keyed_reduce(
        prepped.map_batches(
            lambda t: t.select(["l_partkey", "qty"]), batch_format="pyarrow"),
        "l_partkey", {"qsum": ("qty", "sum"), "qcnt": ("qty", "count")})
    j = shuffle_join(prepped, per_part, on=["l_partkey"], how="inner")

    def small(t: pa.Table) -> pa.Table:
        qty = t["qty"].to_numpy()
        keep = 5 * qty * t["qcnt"].to_numpy() < t["qsum"].to_numpy()
        cents = t["price_cents"].to_numpy()[keep]
        return pa.table({"revenue_cents": pa.array([int(cents.sum())], pa.int64()),
                         "n_items": pa.array([int(keep.sum())], pa.int64())})

    parts = j.map_batches(small, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "revenue_cents": [int(parts["revenue_cents"].sum())],
        "n_items": [int(parts["n_items"].sum())],
    })


Q17_SMALL_QTY_REVENUE_SQL = """
WITH p AS (
  SELECT l_partkey,
         sum(CAST(round(l_quantity) AS BIGINT)) AS qsum,
         count(*) AS qcnt
  FROM lineitem GROUP BY l_partkey
)
SELECT COALESCE(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT), 0) AS revenue_cents,
       count(*) AS n_items
FROM lineitem JOIN p USING (l_partkey)
WHERE 5 * CAST(round(l_quantity) AS BIGINT) * qcnt < qsum
"""


# ----------------------------------- TPC-H Q22 (idle high-balance customers)

def q22_idle_balance(sf_dir: str, cutoff: str = "1999-01-01"):
    """TPC-H Q22 shape: per-nation count + balance of customers richer than
    the global positive-balance average with NO RECENT orders (none on or
    after ``cutoff`` — every customer in this corpus has SOME order, so the
    recency predicate is what keeps the anti-join non-vacuous) — scalar
    subquery + anti-join + group. The global average is two driver scalars
    (sum, count) from one tiny aggregate; 'richer than average' is the
    exact integer cross-multiplication cents * count > sum; the anti-join
    is the left shuffle join's null side, with the recency predicate pushed
    to the orders parquet scan."""
    import datetime

    from deduplication_ray.stages.join import shuffle_join

    cut = datetime.datetime.fromisoformat(cutoff)

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_acctbal", "c_nationkey"])

    def pos_moments(t: pa.Table) -> pa.Table:
        bal = t["c_acctbal"].to_numpy()
        pos = bal > 0.0
        cents = np.round(bal[pos] * 100).astype(np.int64)
        return pa.table({"psum": pa.array([int(cents.sum())], pa.int64()),
                         "pcnt": pa.array([int(pos.sum())], pa.int64())})

    mom = cust.map_batches(pos_moments, batch_format="pyarrow").to_pandas()
    psum, pcnt = int(mom["psum"].sum()), int(mom["pcnt"].sum())

    counts = _keyed_reduce(
        _read(sf_dir, "orders", ["o_custkey"],
              filter=(pc.field("o_orderdate") >= cut)).map_batches(
            lambda t: pa.table({"c_custkey": t["o_custkey"]}),
            batch_format="pyarrow"),
        "c_custkey", {"n_orders": ("c_custkey", "count")})
    j = shuffle_join(cust, counts, on=["c_custkey"], how="left")

    def idle_rich(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["c_acctbal"], pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy()
        no_orders = t["n_orders"].is_null().to_numpy(zero_copy_only=False)
        keep = no_orders & (cents * pcnt > psum)
        return pa.table({
            "c_nationkey": t["c_nationkey"].cast(pa.int64()).filter(pa.array(keep)),
            "acctbal_cents": pa.array(cents[keep]),
        })

    out = (j.map_batches(idle_rich, batch_format="pyarrow")
           .groupby("c_nationkey")
           .aggregate(Count(alias_name="n_custs"),
                      Sum("acctbal_cents", alias_name="acctbal_cents"))
           .to_pandas())
    # an EMPTY result (tiny SF: every rich customer has orders) must still
    # carry the schema — a column-less frame fails the driver's compare
    if out.empty:
        out = pd.DataFrame({"c_nationkey": pd.Series(dtype=np.int64),
                            "n_custs": pd.Series(dtype=np.int64),
                            "acctbal_cents": pd.Series(dtype=np.int64)})
    return out


Q22_IDLE_BALANCE_SQL = """
WITH s AS (
  SELECT CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS psum,
         count(*) AS pcnt
  FROM customer WHERE c_acctbal > 0
)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       count(*) AS n_custs,
       CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS acctbal_cents
FROM customer, s
WHERE CAST(round(c_acctbal * 100) AS BIGINT) * pcnt > psum
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= DATE '1999-01-01')
GROUP BY c_nationkey
"""


# ------------------------------------------ TPC-H Q7 (nation-pair volume)

def q7_nation_volume(sf_dir: str):
    """TPC-H Q7 shape: shipping volume between supplier-nation and
    customer-nation pairs by ship year. The supplier→nation leg is a
    broadcast probe decorating each lineitem batch; revenue then collapses
    to one row per (orderkey, supp nation, year) BEFORE the wire; the one
    big-big edge (per-order partials × orders) goes through the
    co-partitioned shuffle join; the customer→nation leg rides the
    size-dispatched lookup join (broadcast here, shuffle above
    ``cfg.broadcast_limit``); the final groupby is
    |nations|² × |years| rows."""
    from deduplication_ray.stages.join import shuffle_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()

    def supp_nation(t: pa.Table) -> pa.Table:
        year = (t["l_shipdate"].to_numpy().astype("datetime64[Y]")
                .astype(np.int64) + 1970)
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "supp_nation": t["n_name"],
            "ship_year": pa.array(year),
            "revenue_e4": pa.array(_rev_e4(t)),
        })

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])
    li = lookup_join(li, _supp_nation(sf_dir), on=["l_suppkey"],
                     cfg=DedupConfig()) \
        .map_batches(supp_nation, batch_format="pyarrow")

    # collapse per (orderkey, nation, year) pre-wire: composite group key =
    # orderkey is the join key, so reduce on it and keep per-(nation, year)
    # sums inside each orderkey group via a pandas combine (nations/years
    # per order are tiny)
    def combine(t: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()),
                            ("supp_nation", pa.string()),
                            ("ship_year", pa.int64()),
                            ("revenue_e4", pa.int64())])
        df = t.to_pandas()
        g = (df.groupby(["o_orderkey", "supp_nation", "ship_year"], sort=False)
             ["revenue_e4"].sum().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    per_order = hash_grouped_reduce(
        li.map_batches(combine, batch_format="pyarrow"),
        key_hash=["o_orderkey"],
        reduce_fn=combine,
        num_parts=32,
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = shuffle_join(per_order, orders, on=["o_orderkey"], how="inner")

    cn = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas() \
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey") \
        [["c_custkey", "n_name"]].rename(columns={"n_name": "cust_nation",
                                                  "c_custkey": "o_custkey"})
    j2 = lookup_join(j, cn, on=["o_custkey"], cfg=DedupConfig())

    def project(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["supp_nation"], t["cust_nation"])
        t = t.filter(keep)
        return t.select(["supp_nation", "cust_nation", "ship_year",
                         "revenue_e4"])

    return (j2.map_batches(project, batch_format="pyarrow")
            .groupby(["supp_nation", "cust_nation", "ship_year"])
            .aggregate(Sum("revenue_e4", alias_name="revenue_e4")))


Q7_NATION_VOLUME_SQL = """
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS ship_year,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
WHERE sn.n_name <> cn.n_name
GROUP BY supp_nation, cust_nation, ship_year
"""


# ------------------------------------------------ grouped argmax (top type)

def q_top_event_type_per_user(sf_dir: str):
    """Grouped ARGMAX: each user's most frequent event type, deterministic
    tie-break (higher count wins, then lexicographically smaller type).
    Counts collapse per (user, type) with Ray's built-in partial
    aggregation; the argmax is one hash-partitioned per-user reduce over
    the |users|×|types|-bounded count table — the fact stream itself never
    carries strings twice."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = ev.groupby(["user_id", "event_type"]) \
        .aggregate(Count(alias_name="n_events"))

    def argmax(t: pa.Table) -> pa.Table:
        schema = pa.schema([("user_id", pa.int64()),
                            ("top_type", pa.string()),
                            ("n_events", pa.int64())])
        df = t.to_pandas()
        df = df.sort_values(["user_id", "n_events", "event_type"],
                            ascending=[True, False, True], kind="stable")
        df = df.drop_duplicates("user_id", keep="first")
        out = df.rename(columns={"event_type": "top_type"})
        return pa.Table.from_pandas(
            out[["user_id", "top_type", "n_events"]],
            preserve_index=False).cast(schema)

    return hash_grouped_reduce(
        counts,
        key_hash=["user_id"],
        reduce_fn=argmax,
        num_parts=16,
    )


Q_TOP_EVENT_TYPE_PER_USER_SQL = """
SELECT user_id, event_type AS top_type, n_events FROM (
  SELECT user_id, event_type, count(*) AS n_events,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type) AS rn
  FROM events GROUP BY user_id, event_type
) WHERE rn = 1
"""


# ----------------------------------------- grouped moments (correlation kit)

def q_events_value_moments(sf_dir: str):
    """Grouped second-order MOMENTS of (value, hour-of-day) per event type —
    the exact-integer inputs to covariance / Pearson correlation (n, Σx,
    Σy, Σx², Σy², Σxy in milli units). Emitting the moments instead of the
    float statistic keeps the result bit-exact across engines AND mergeable:
    the six sums are associative, so per-batch partials combine under Ray's
    built-in partial aggregation — a correlation matrix at 10^12 rows is
    |groups| × 6 integers on the wire."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.round(t["value"].to_numpy() * 1000.0).astype(np.int64)
        ts = t["ts"].to_numpy()
        hour = ((ts.astype("datetime64[h]").astype(np.int64)) % 24).astype(np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x), "sy": pa.array(hour),
            "sxx": pa.array(x * x), "syy": pa.array(hour * hour),
            "sxy": pa.array(x * hour),
        })

    return (ev.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sx", alias_name="sx"),
                       Sum("sy", alias_name="sy"),
                       Sum("sxx", alias_name="sxx"),
                       Sum("syy", alias_name="syy"),
                       Sum("sxy", alias_name="sxy")))


Q_EVENTS_VALUE_MOMENTS_SQL = """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sx,
       CAST(sum(CAST(hour(ts) AS BIGINT)) AS BIGINT) AS sy,
       CAST(sum(CAST(round(value * 1000) AS BIGINT) * CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sxx,
       CAST(sum(CAST(hour(ts) AS BIGINT) * CAST(hour(ts) AS BIGINT)) AS BIGINT) AS syy,
       CAST(sum(CAST(round(value * 1000) AS BIGINT) * CAST(hour(ts) AS BIGINT)) AS BIGINT) AS sxy
FROM events GROUP BY event_type
"""


# ------------------------------------------------------------ UNPIVOT (melt)

def q_events_unpivot(sf_dir: str):
    """UNPIVOT / melt: the wide per-user event-type count matrix back to
    long (user_id, event_type, n_events) rows — the inverse of
    ``q_events_type_pivot``, kept as its exact round-trip (zero cells
    included on both sides). The melt is one vectorized repeat/tile pass
    per batch over the ALREADY-aggregated |users| × |types| matrix — the
    raw event stream is never re-shuffled."""
    wide = q_events_type_pivot(sf_dir)
    s = wide.schema()
    types = [c for c in s.names if c != "user_id"]

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = len(types)
        uid = np.repeat(t["user_id"].to_numpy(), k)
        etype = np.tile(np.asarray(types, dtype=object), n)
        vals = np.column_stack([t[ty].to_numpy() for ty in types]).ravel() \
            if n else np.empty(0, np.int64)
        return pa.table({"user_id": pa.array(uid, pa.int64()),
                         "event_type": pa.array(etype.tolist(), pa.string()),
                         "n_events": pa.array(vals.astype(np.int64))})

    return wide.map_batches(melt, batch_format="pyarrow")


Q_EVENTS_UNPIVOT_SQL = """
WITH w AS (PIVOT events ON event_type USING count(*) GROUP BY user_id)
UNPIVOT w ON COLUMNS(* EXCLUDE (user_id))
INTO NAME event_type VALUE n_events
"""


# ----------------------------------------- TPC-H Q8 (national market share)

def q8_market_share(sf_dir: str, part_type: str = "STANDARD",
                    nation_name: str = "NATION_2", region_name: str = "ASIA"):
    """TPC-H Q8 shape: one nation's permille share of a region's revenue
    for one part type, by ship year. Composes the engine's join roles: the
    part-type keyset and the supplier→nation chain broadcast once; revenue
    collapses per (orderkey, year) pre-wire carrying BOTH the nation
    numerator and the total denominator; the big-big edge into orders goes
    through the co-partitioned shuffle join; the customer→region leg rides
    the size-dispatched lookup join; the share is integer floor-division
    permille so the DuckDB oracle hash-matches bit-for-bit."""
    from deduplication_ray.stages.join import shuffle_join

    part = _read(sf_dir, "part", ["p_partkey"],
                 filter=(pc.field("p_type") == part_type)) \
        .rename_columns({"p_partkey": "l_partkey"})
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()

    def prep(t: pa.Table) -> pa.Table:
        is_nat = pc.equal(t["n_name"], nation_name).to_numpy(
            zero_copy_only=False)
        year = (t["l_shipdate"].to_numpy().astype("datetime64[Y]")
                .astype(np.int64) + 1970)
        e4 = _rev_e4(t)
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "ship_year": pa.array(year),
            "nation_e4": pa.array(np.where(is_nat, e4, 0)),
            "total_e4": pa.array(e4),
        })

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])
    li = lookup_join(li, part, on=["l_partkey"], cfg=DedupConfig(), how="semi")
    li = lookup_join(li, _supp_nation(sf_dir), on=["l_suppkey"],
                     cfg=DedupConfig()) \
        .map_batches(prep, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()),
                            ("ship_year", pa.int64()),
                            ("nation_e4", pa.int64()),
                            ("total_e4", pa.int64())])
        df = t.to_pandas()
        g = (df.groupby(["o_orderkey", "ship_year"], sort=False)
             [["nation_e4", "total_e4"]].sum().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    per_order = hash_grouped_reduce(
        li.map_batches(combine, batch_format="pyarrow"),
        key_hash=["o_orderkey"],
        reduce_fn=combine,
        num_parts=32,
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = shuffle_join(per_order, orders, on=["o_orderkey"], how="inner")

    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    rkey = int(region.loc[region["r_name"] == region_name,
                          "r_regionkey"].iloc[0])
    cn = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas() \
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    cn = cn[cn["n_regionkey"] == rkey][["c_custkey"]] \
        .rename(columns={"c_custkey": "o_custkey"})
    # inner: region customers only
    j2 = lookup_join(j, cn, on=["o_custkey"], cfg=DedupConfig())

    agg = (j2.map_batches(
        lambda t: t.select(["ship_year", "nation_e4", "total_e4"]),
        batch_format="pyarrow")
        .groupby("ship_year")
        .aggregate(Sum("nation_e4", alias_name="nation_e4"),
                   Sum("total_e4", alias_name="total_e4")))

    def share(t: pa.Table) -> pa.Table:
        nat = t["nation_e4"].to_numpy()
        tot = t["total_e4"].to_numpy()
        p = np.where(tot > 0, (nat * 1000) // np.maximum(tot, 1), 0)
        return t.append_column("share_permille",
                               pa.array(p.astype(np.int64)))

    return agg.map_batches(share, batch_format="pyarrow")


Q8_MARKET_SHARE_SQL = """
WITH f AS (
  SELECT CAST(year(l_shipdate) AS BIGINT) AS ship_year,
         CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT) AS e4,
         CASE WHEN sn.n_name = 'NATION_2'
              THEN CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)
              ELSE 0 END AS nat_e4
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = 'STANDARD'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation sn ON sn.n_nationkey = s_nationkey
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation cn ON cn.n_nationkey = c_nationkey
  JOIN region ON r_regionkey = cn.n_regionkey AND r_name = 'ASIA'
)
SELECT ship_year,
       CAST(sum(nat_e4) AS BIGINT) AS nation_e4,
       CAST(sum(e4) AS BIGINT) AS total_e4,
       CAST((sum(nat_e4) * 1000) // greatest(sum(e4), 1) AS BIGINT) AS share_permille
FROM f GROUP BY ship_year
"""


# ------------------------------------------ TPC-H Q15 (top supplier by revenue)

def q15_top_supplier(sf_dir: str, start: str = "1996-01-01",
                     end: str = "1996-04-01"):
    """TPC-H Q15 shape: the supplier(s) with MAXIMUM revenue in a quarter —
    aggregate, then filter against the aggregate's own global max (the
    scalar-subquery-on-aggregate shape). Date window pushed to the scan;
    revenue collapses per supplier in-batch + one hash-partitioned combine;
    the global max is an associative all-reduce over |suppliers| partials
    (never a sort); the winners (ties included, like the spec) decorate
    from the supplier dimension driver-side — a handful of rows."""
    import datetime

    lo = datetime.datetime.fromisoformat(start)
    hi = datetime.datetime.fromisoformat(end)
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"],
               filter=((pc.field("l_shipdate") >= lo)
                       & (pc.field("l_shipdate") < hi)))

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": t["l_suppkey"],
                         "total_revenue_e4": pa.array(_rev_e4(t))})

    per_supp = _keyed_reduce(
        li.map_batches(rev, batch_format="pyarrow"),
        "s_suppkey", {"total_revenue_e4": ("total_revenue_e4", "sum")}
    ).materialize()  # consumed twice: the max all-reduce + the winner filter

    best = per_supp.max("total_revenue_e4")

    winners = per_supp.map_batches(
        lambda t: t.filter(pc.equal(t["total_revenue_e4"],
                                    pa.scalar(best, pa.int64()))),
        batch_format="pyarrow").to_pandas()
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = winners.merge(supp, on="s_suppkey", how="inner")
    return out[["s_suppkey", "s_name", "total_revenue_e4"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


Q15_TOP_SUPPLIER_SQL = """
WITH r AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS total_revenue_e4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT r.s_suppkey, s_name, total_revenue_e4
FROM r JOIN supplier ON supplier.s_suppkey = r.s_suppkey
WHERE total_revenue_e4 = (SELECT max(total_revenue_e4) FROM r)
ORDER BY r.s_suppkey
"""


# --------------------------------------------------------------------------
# TPC-H completion set: the remaining query shapes expressible over this
# schema (no partsupp table, no l_shipmode / commit / receipt dates in the
# driver testdata, p_size is constant) — each adapted to the columns that
# exist, keeping the SHAPE that makes the original query interesting:
#   Q2  correlated per-group min + equality re-join
#   Q5  cyclic join (customer nation == supplier nation)
#   Q6  pushed-down filter + scalar aggregate
#   Q11 HAVING against a global scalar from the same aggregation
#   Q16 count-distinct groupby behind a broadcast anti-filter
#   Q20 two-level aggregate share threshold (semi-join by construction)
#   Q21 group-wise exists/not-exists (the only-late-supplier election)
# Integer money/date policy as everywhere in this file: cents / 1e-4 units
# and epoch days so partial sums are associative and the DuckDB oracle
# hash-compares bit-identically at any parallelism.


def _region_nations(sf_dir: str, region: str) -> pd.DataFrame:
    """Nation rows (n_nationkey, n_name) belonging to one region — the
    shared region->nation resolution of the Q2/Q5 dimension legs."""
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"]
    return nation[nation["n_regionkey"].isin(rkey)] \
        [["n_nationkey", "n_name"]]


def q6_forecast_revenue(sf_dir: str, start: str = "1996-01-01",
                        end: str = "1997-01-01"):
    """TPC-H Q6 shape: tight pushed-down filter + single scalar aggregate.
    The shipdate range is pushed to the parquet scan (whole row groups
    skipped); the discount band compares ROUNDED integer percent so the
    engine and the oracle agree bit-for-bit; output is one row of driver
    scalars summed from per-batch partials (#batches rows cross the wire)."""
    import datetime

    ds = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_quantity"],
               filter=((pc.field("l_shipdate") >= datetime.datetime.fromisoformat(start))
                       & (pc.field("l_shipdate") < datetime.datetime.fromisoformat(end))))

    def partial(t: pa.Table) -> pa.Table:
        disc_pct = pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy()
        qty = t["l_quantity"].to_numpy()
        keep = (disc_pct >= 5) & (disc_pct <= 7) & (qty < 24)
        rev = pc.round(pc.multiply(pc.multiply(t["l_extendedprice"], t["l_discount"]),
                                   pa.scalar(10000.0))).cast(pa.int64()).to_numpy()
        return pa.table({"rev": pa.array([int(rev[keep].sum())], pa.int64()),
                         "n": pa.array([int(keep.sum())], pa.int64())})

    mom = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"revenue_e4": [int(mom["rev"].sum())],
                         "n_items": [int(mom["n"].sum())]})


Q6_FORECAST_REVENUE_SQL = """
SELECT CAST(coalesce(sum(CAST(round(l_extendedprice * l_discount * 10000) AS BIGINT)), 0) AS BIGINT) AS revenue_e4,
       count(*) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                             start: str = "1996-01-01",
                             end: str = "1997-01-01"):
    """TPC-H Q5 shape: the CYCLIC join — revenue only counts when the
    customer and the supplier share a nation inside one region, so the two
    dimension legs must agree, not just exist. Both legs ride broadcasts
    (supplier->nation decorates lineitem batches, customer->nation decorates
    the joined stream); revenue collapses to one row per (orderkey, supplier
    nation) BEFORE the one big-big shuffle join against orders; the cycle
    predicate (c_nat == s_nat) is a vectorized filter AFTER that join, and
    the final groupby is <= |nations| rows."""
    import datetime

    from deduplication_ray.stages.join import shuffle_join

    nat = _region_nations(sf_dir, region)
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    supp = supp[supp["s_nationkey"].isin(nat["n_nationkey"])] \
        .rename(columns={"s_suppkey": "l_suppkey"})
    # the cycle predicate c_nationkey = s_nationkey is part of the
    # customer leg's join key
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas() \
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey") \
        .rename(columns={"c_custkey": "o_custkey",
                         "c_nationkey": "s_nationkey"}) \
        [["o_custkey", "s_nationkey", "n_name"]]

    def combine(t: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()),
                            ("s_nationkey", pa.int64()),
                            ("revenue_e4", pa.int64())])
        df = t.to_pandas()
        g = (df.groupby(["o_orderkey", "s_nationkey"], sort=False)
             ["revenue_e4"].sum().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    def supp_leg(t: pa.Table) -> pa.Table:
        return combine(pa.table({
            "o_orderkey": t["l_orderkey"],
            "s_nationkey": t["s_nationkey"],
            "revenue_e4": pa.array(_rev_e4(t)),
        }))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    per_order = hash_grouped_reduce(
        lookup_join(li, supp, on=["l_suppkey"], cfg=DedupConfig())
        .map_batches(supp_leg, batch_format="pyarrow"),
        key_hash=["o_orderkey"],
        reduce_fn=combine,
        num_parts=32,
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   filter=((pc.field("o_orderdate") >= datetime.datetime.fromisoformat(start))
                           & (pc.field("o_orderdate") < datetime.datetime.fromisoformat(end))))
    j = shuffle_join(per_order, orders, on=["o_orderkey"], how="inner")

    return (lookup_join(j, cust, on=["o_custkey", "s_nationkey"],
                        cfg=DedupConfig())
            .select_columns(["n_name", "revenue_e4"])
            .groupby("n_name")
            .aggregate(Sum("revenue_e4", alias_name="revenue_e4")))


Q5_LOCAL_SUPPLIER_VOLUME_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01' AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
"""


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape: HAVING against a global scalar computed from the
    SAME aggregation — parts whose shipped value exceeds 1.25x the mean
    per-part value (the original's fixed fraction is scale-dependent; the
    mean multiple is scale-free, so one oracle string holds at every SF).
    Two passes over the small per-part aggregate: the keyed reduce shrinks
    lineitem to |parts| rows, the global (sum, count) is a driver scalar
    from per-batch partials of THAT, and the filter is an exact integer
    cross-multiplication — no floats, no re-shuffle of the fact table."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))) \
            .cast(pa.int64())
        return pa.table({"p_partkey": t["l_partkey"], "value_cents": cents})

    per_part = _keyed_reduce(li.map_batches(prep, batch_format="pyarrow"),
                             "p_partkey", {"value_cents": ("value_cents", "sum")})

    def moments(t: pa.Table) -> pa.Table:
        v = t["value_cents"].to_numpy()
        return pa.table({"s": pa.array([int(v.sum())], pa.int64()),
                         "c": pa.array([len(v)], pa.int64())})

    mom = per_part.map_batches(moments, batch_format="pyarrow").to_pandas()
    total, nparts = int(mom["s"].sum()), int(mom["c"].sum())

    def keep(t: pa.Table) -> pa.Table:
        # python-int threshold once; int64 per-row compare (4*nparts*cents
        # fits int64 through sf0.1; the 100 TB path would pre-divide)
        v = t["value_cents"].to_numpy()
        return t.filter(pa.array(v * (4 * nparts) > 5 * total))

    return per_part.map_batches(keep, batch_format="pyarrow")


Q11_IMPORTANT_PARTS_SQL = """
WITH v AS (SELECT l_partkey AS p_partkey,
                  CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS value_cents
           FROM lineitem GROUP BY 1)
SELECT p_partkey, value_cents FROM v
WHERE value_cents * 4 * (SELECT count(*) FROM v) > 5 * (SELECT CAST(sum(value_cents) AS BIGINT) FROM v)
"""


def q16_supplier_count_by_type(sf_dir: str, excl_brand: str = "Brand#1",
                               bal_floor: float = 1000.0):
    """TPC-H Q16 shape: count-DISTINCT-suppliers per part attribute behind
    a broadcast anti-filter (the original's complaint-supplier NOT IN; this
    schema's analog is a balance floor). Part attributes decorate lineitem
    batches via broadcast probe; (brand, type, suppkey) triples dedup
    in-batch, then exactly once globally in a supplier-keyed hash partition
    (all rows of a triple share the suppkey, so one partition sees them
    all); the final groupby counts pre-deduped rows — COUNT(DISTINCT)
    without ever shuffling the fact table by the group key."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"],
                 filter=(pc.field("p_brand") != excl_brand)) \
        .rename_columns({"p_partkey": "l_partkey"})
    bad = _read(sf_dir, "supplier", ["s_suppkey"],
                filter=(pc.field("s_acctbal") < bal_floor)) \
        .rename_columns({"s_suppkey": "l_suppkey"})

    def dedup_triples(t: pa.Table) -> pa.Table:
        schema = pa.schema([("p_brand", pa.string()), ("p_type", pa.string()),
                            ("l_suppkey", pa.int64())])
        df = t.select(["p_brand", "p_type", "l_suppkey"]).to_pandas() \
            .drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).cast(schema)

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    li = lookup_join(li, bad, on=["l_suppkey"], cfg=DedupConfig(), how="anti")
    li = lookup_join(li, part, on=["l_partkey"], cfg=DedupConfig())
    triples = hash_grouped_reduce(
        li.map_batches(dedup_triples, batch_format="pyarrow"),
        key_hash=["l_suppkey"],
        reduce_fn=dedup_triples,
        num_parts=32,
    )
    return (triples.groupby(["p_brand", "p_type"])
            .aggregate(Count(alias_name="supplier_cnt")))


Q16_SUPPLIER_COUNT_SQL = """
SELECT p_brand, p_type, count(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#1'
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 1000)
GROUP BY p_brand, p_type
"""


def q20_heavy_share_suppliers(sf_dir: str, name_like: str = "widget",
                              share_den: int = 5):
    """TPC-H Q20 shape: semi-join on a TWO-LEVEL aggregate threshold —
    suppliers who shipped more than 1/``share_den`` of some matching part's
    total quantity (the original's availqty-vs-half-of-shipped over
    partsupp, re-expressed over the columns that exist). The part-name
    filter is a broadcast key set probed at the scan; pair quantities
    partial-combine in-batch; ONE partkey-keyed hash partition then holds
    every pair of each part, so the per-part total and the share filter run
    vectorized inside the partition — the nested aggregate never re-shuffles."""
    part = _read(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
    sel = pd.DataFrame({"l_partkey": part.loc[
        part["p_name"].str.contains(name_like), "p_partkey"].to_numpy()})

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["l_partkey", "l_suppkey"], sort=False)["qty"]
                .sum().reset_index())

    def pair_qty(t: pa.Table) -> pa.Table:
        g = pair_partial(pd.DataFrame({
            "l_partkey": t["l_partkey"].to_numpy(),
            "l_suppkey": t["l_suppkey"].to_numpy(),
            "qty": pc.round(t["l_quantity"]).cast(pa.int64()).to_numpy()}))
        return pa.table({"l_partkey": pa.array(g["l_partkey"], type=pa.int64()),
                         "l_suppkey": pa.array(g["l_suppkey"], type=pa.int64()),
                         "qty": pa.array(g["qty"], type=pa.int64())})

    def heavy(t: pa.Table) -> pa.Table:
        df = pair_partial(t.to_pandas())
        tot = df.groupby("l_partkey")["qty"].transform("sum")
        win = df.loc[share_den * df["qty"] > tot, "l_suppkey"].unique()
        return pa.table({"s_suppkey": pa.array(np.sort(win), type=pa.int64())})

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])
    winners = hash_grouped_reduce(
        lookup_join(li, sel, on=["l_partkey"], cfg=DedupConfig(),
                    how="semi")
        .map_batches(pair_qty, batch_format="pyarrow"),
        key_hash=["l_partkey"],
        reduce_fn=heavy,
        num_parts=32,
    ).to_pandas()
    # bounded: <= |suppliers| rows reach the driver
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = winners.drop_duplicates().merge(supp, on="s_suppkey", how="inner")
    if out.empty:
        return pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                             "s_name": pd.Series(dtype=object)})
    return out[["s_suppkey", "s_name"]].sort_values("s_suppkey") \
        .reset_index(drop=True)


Q20_HEAVY_SHARE_SQL = """
WITH pairq AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE '%widget%'
  GROUP BY 1, 2
), tot AS (SELECT l_partkey, CAST(sum(qty) AS BIGINT) AS tqty FROM pairq GROUP BY 1)
SELECT DISTINCT s_suppkey, s_name
FROM pairq JOIN tot USING (l_partkey) JOIN supplier ON s_suppkey = l_suppkey
WHERE 5 * qty > tqty
"""


def q21_waiting_suppliers(sf_dir: str, late_days: int = 60):
    """TPC-H Q21 shape: the group-wise exists/not-exists election — count,
    per supplier, the multi-supplier orders where that supplier was the
    ONLY late one (late = last ship more than ``late_days`` after the order
    date; the schema has no commit/receipt dates). lineitem collapses to
    one row per (order, supplier) pair BEFORE the wire; the pair stream
    meets orders in the hash-co-partitioned shuffle join; a second
    orderkey-keyed partition then holds every pair of an order, so the
    exists (some other supplier) / not-exists (no other late supplier)
    predicates are one vectorized groupby inside the partition."""
    from deduplication_ray.stages.join import shuffle_join

    def pair_reduce(t: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()),
                            ("l_suppkey", pa.int64()),
                            ("ship_day", pa.int64())])
        df = t.to_pandas()
        g = (df.groupby(["o_orderkey", "l_suppkey"], sort=False)["ship_day"]
             .max().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    def li_prep(t: pa.Table) -> pa.Table:
        days = (t["l_shipdate"].to_numpy().astype("datetime64[D]")
                .astype(np.int64))
        return pair_reduce(pa.table({"o_orderkey": t["l_orderkey"],
                                     "l_suppkey": t["l_suppkey"],
                                     "ship_day": pa.array(days)}))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    pairs = hash_grouped_reduce(
        li.map_batches(li_prep, batch_format="pyarrow"),
        key_hash=["o_orderkey"],
        reduce_fn=pair_reduce,
        num_parts=32,
    )

    def o_prep(t: pa.Table) -> pa.Table:
        days = (t["o_orderdate"].to_numpy().astype("datetime64[D]")
                .astype(np.int64))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_day": pa.array(days)})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(o_prep, batch_format="pyarrow")
    j = shuffle_join(pairs, orders, on=["o_orderkey"], how="inner")

    def lateness(t: pa.Table) -> pa.Table:
        late = (t["ship_day"].to_numpy()
                > t["o_day"].to_numpy() + late_days).astype(np.int64)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "late": pa.array(late)})

    def elect(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("o_orderkey", sort=False).agg(
            n_supp=("l_suppkey", "size"), n_late=("late", "sum"))
        ok_orders = g.index[(g["n_supp"] >= 2) & (g["n_late"] == 1)]
        win = df[(df["late"] == 1) & df["o_orderkey"].isin(ok_orders)]
        return pa.table({"s_suppkey": pa.array(win["l_suppkey"].to_numpy(),
                                               type=pa.int64())})

    waits = hash_grouped_reduce(
        j.map_batches(lateness, batch_format="pyarrow"),
        key_hash=["o_orderkey"],
        reduce_fn=elect,
        num_parts=32,
    )
    counts = _keyed_reduce(waits, "s_suppkey",
                           {"numwait": ("s_suppkey", "count")}).to_pandas()
    # bounded: <= |suppliers| rows reach the driver
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = counts.merge(supp, on="s_suppkey", how="inner") \
        .groupby("s_name", sort=False)["numwait"].sum().reset_index()
    if out.empty:
        return pd.DataFrame({"s_name": pd.Series(dtype=object),
                             "numwait": pd.Series(dtype=np.int64)})
    return out[["s_name", "numwait"]]


Q21_WAITING_SUPPLIERS_SQL = """
WITH pair AS (
  SELECT l_orderkey, l_suppkey, max(l_shipdate) AS maxship
  FROM lineitem GROUP BY 1, 2
), j AS (
  SELECT p.l_orderkey, p.l_suppkey,
         CASE WHEN p.maxship > o_orderdate + INTERVAL 60 DAY THEN 1 ELSE 0 END AS late
  FROM pair p JOIN orders ON o_orderkey = p.l_orderkey
), agg AS (
  SELECT l_orderkey, count(*) AS n_supp, CAST(sum(late) AS BIGINT) AS n_late,
         max(CASE WHEN late = 1 THEN l_suppkey END) AS late_supp
  FROM j GROUP BY 1
)
SELECT s_name, count(*) AS numwait
FROM agg JOIN supplier ON s_suppkey = late_supp
WHERE n_supp >= 2 AND n_late = 1
GROUP BY s_name
"""


def q2_min_cost_supplier(sf_dir: str, ptype: str = "ECONOMY",
                         region: str = "EUROPE"):
    """TPC-H Q2 shape: correlated per-group MIN + equality re-join — for
    each part of one type, every region supplier whose best (minimum)
    observed price ties the part's global minimum (partsupp's supplycost
    re-expressed as the min lineitem price). Part and region-supplier key
    sets ride broadcasts into the scan filter; pair minima partial-combine
    in-batch; ONE partkey-keyed hash partition then computes the per-part
    min AND the tie filter vectorized — the correlated subquery costs no
    second shuffle. Dimension attributes attach by broadcast probe at the
    end, on the (tiny) winner set only."""
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_name", "p_type"]).to_pandas()
    part = part[part["p_type"] == ptype][["p_partkey", "p_name"]]
    nat = _region_nations(sf_dir, region)
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_nationkey"]).to_pandas() \
        .merge(nat, left_on="s_nationkey", right_on="n_nationkey") \
        [["s_suppkey", "s_name", "n_name"]]

    def pair_min(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["p_partkey", "s_suppkey"], sort=False)["cost_cents"]
                .min().reset_index())

    def pair_cost(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["l_extendedprice"],
                                     pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy()
        g = pair_min(pd.DataFrame({"p_partkey": t["l_partkey"].to_numpy(),
                                   "s_suppkey": t["l_suppkey"].to_numpy(),
                                   "cost_cents": cents}))
        return pa.table({"p_partkey": pa.array(g["p_partkey"], type=pa.int64()),
                         "s_suppkey": pa.array(g["s_suppkey"], type=pa.int64()),
                         "cost_cents": pa.array(g["cost_cents"], type=pa.int64())})

    def tie_winners(t: pa.Table) -> pa.Table:
        df = pair_min(t.to_pandas())
        pmin = df.groupby("p_partkey")["cost_cents"].transform("min")
        win = df[df["cost_cents"] == pmin]
        return pa.table({"p_partkey": pa.array(win["p_partkey"], type=pa.int64()),
                         "s_suppkey": pa.array(win["s_suppkey"], type=pa.int64()),
                         "cost_cents": pa.array(win["cost_cents"], type=pa.int64())})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"])
    li = lookup_join(li, part.rename(columns={"p_partkey": "l_partkey"}),
                     on=["l_partkey"], cfg=DedupConfig(), how="semi")
    li = lookup_join(li, supp.rename(columns={"s_suppkey": "l_suppkey"}),
                     on=["l_suppkey"], cfg=DedupConfig(), how="semi")
    winners = hash_grouped_reduce(
        li.map_batches(pair_cost, batch_format="pyarrow"),
        key_hash=["p_partkey"],
        reduce_fn=tie_winners,
        num_parts=32,
    )

    named = lookup_join(winners, part, on=["p_partkey"], cfg=DedupConfig())
    return lookup_join(named, supp, on=["s_suppkey"], cfg=DedupConfig()) \
        .select_columns(["p_partkey", "p_name", "s_suppkey", "s_name",
                         "n_name", "cost_cents"])


Q2_MIN_COST_SUPPLIER_SQL = """
WITH cost AS (
  SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
         CAST(min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS cost_cents
  FROM lineitem JOIN part ON p_partkey = l_partkey
       JOIN supplier ON supplier.s_suppkey = l_suppkey
       JOIN nation ON n_nationkey = s_nationkey
       JOIN region ON r_regionkey = n_regionkey
  WHERE p_type = 'ECONOMY' AND r_name = 'EUROPE'
  GROUP BY 1, 2
)
SELECT c.p_partkey, p_name, c.s_suppkey, s_name, n_name, cost_cents
FROM cost c
JOIN part ON part.p_partkey = c.p_partkey
JOIN supplier ON supplier.s_suppkey = c.s_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE cost_cents = (SELECT min(cost_cents) FROM cost c2
                    WHERE c2.p_partkey = c.p_partkey)
"""


# ---------------------------------------------------------------- LOCF fill-forward

def q_events_fill_forward(sf_dir: str, num_buckets: int = 32):
    """Per-user LOCF (last observation carried forward): for every event,
    the cents value of the user's most recent *purchase* at or before it
    (-1 until the first purchase) — the gap-filling window that turns a
    sparse measurement stream into a dense per-event state column
    (sensor imputation, last-known-price joins, slowly-changing state).

    Scale shape (same as q_events_lag / sessionize): users hash into
    buckets so each user's rows co-locate, ONE vectorized pass per bucket:
    lexsort by (user, ts, id); observation positions LOCF via
    ``np.maximum.accumulate``; a second running max over per-user segment
    starts invalidates carries that would cross a user boundary. No
    per-user Python, no per-row loop.

    Generalizes the reference's decode gather (compressor.c:320-339):
    there every position fetches a *dictionary* row by id; here every
    event fetches the latest *prior observation* by time — a positional
    gather whose index column is computed by a running max instead of
    read from the container."""
    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type", "value"])

    def locf_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        pos = np.arange(n, dtype=np.int64)
        is_obs = (g["event_type"].to_numpy() == "purchase")
        cents = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        # LOCF: index of the latest observation at or before each row ...
        carried = np.maximum.accumulate(np.where(is_obs, pos, -1))
        # ... invalidated where it crosses a user boundary (first row of
        # the frame is always a segment start, so the accumulate is total)
        new_user = g["user_id"].ne(g["user_id"].shift()).to_numpy()
        seg_start = np.maximum.accumulate(np.where(new_user, pos, -1))
        valid = carried >= seg_start
        out = np.full(n, -1, dtype=np.int64)
        out[valid] = cents[carried[valid]]
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "last_purchase_cents": out})

    return hash_grouped_reduce(ds, ["user_id"], locf_bucket, num_buckets,
                               batch_format="pandas")


Q_EVENTS_FILL_FORWARD_SQL = """
SELECT event_id,
       COALESCE(last_value(CASE WHEN event_type = 'purchase'
                                THEN CAST(round(value * 100) AS BIGINT)
                           END IGNORE NULLS)
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                -1) AS last_purchase_cents
FROM events
"""


# -------------------------------------------------- behavior-sequence model

def q_events_type_transitions(sf_dir: str, num_buckets: int = 32):
    """Event-type TRANSITION matrix: for every consecutive same-user event
    pair (ordered by ts, event_id), count (prev_type -> next_type) — the
    first-order Markov model input behind behavior modeling, funnel
    discovery and bot detection (a user whose transition row is one giant
    self-loop is a scraper).

    Scale shape: the lag kernel's bucketed plan (one user-hash shuffle,
    one vectorized sort + shift per bucket) with the transition counts
    PRE-AGGREGATED inside each bucket, so the final exchange is
    |types|^2 x #buckets rows, independent of event volume."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def trans_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        same_user = g["user_id"].eq(g["user_id"].shift())
        out = pd.DataFrame({
            "prev_type": g["event_type"].shift()[same_user],
            "next_type": g["event_type"][same_user],
        })
        return (out.groupby(["prev_type", "next_type"], as_index=False)
                .size().rename(columns={"size": "n"}))

    return (hash_grouped_reduce(ds, ["user_id"], trans_bucket, num_buckets,
                                batch_format="pandas")
            .groupby(["prev_type", "next_type"])
            .aggregate(Sum("n", alias_name="n")))


Q_EVENTS_TYPE_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events)
SELECT prev_type, event_type AS next_type, COUNT(*) AS n
FROM seq WHERE prev_type IS NOT NULL
GROUP BY 1, 2
"""


# -------------------------------------------------- revenue concentration

def q_customer_revenue_deciles(sf_dir: str):
    """Revenue CONCENTRATION report (the Pareto/Lorenz table): customers
    ranked by lifetime order revenue, split into ten equal-count deciles
    (decile 0 = top spenders; ties broken by custkey like the SQL
    ROW_NUMBER), each with its customer count and exact revenue cents —
    "what share of revenue comes from the top 10%?".

    Scale shape: the per-customer aggregate is the only full-volume
    exchange (pre-summed per batch); the global equal-count split over the
    |customers|-bounded result uses the engine's distributed zipWithIndex
    (range sort -> #blocks-row metadata pass -> driver prefix sums ->
    stateless rank pass) — no per-row driver work."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["o_totalprice"],
                                     pa.scalar(100.0))).cast(pa.int64())
        return pa.table({"o_custkey": t["o_custkey"], "cents": cents})

    per_cust = (orders.map_batches(partial, batch_format="pyarrow")
                .groupby("o_custkey").aggregate(Sum("cents",
                                                    alias_name="cents")))

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "neg_cents", pc.negate(t["cents"].cast(pa.int64())))

    sorted_ds = (per_cust.map_batches(keyed, batch_format="pyarrow")
                 .sort(["neg_cents", "o_custkey"]).materialize())

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"k0": pa.array([], pa.int64()),
                             "c0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"k0": t["neg_cents"].slice(0, 1).cast(pa.int64()),
                         "c0": t["o_custkey"].slice(0, 1).cast(pa.int64()),
                         "cnt": pa.array([t.num_rows], pa.int64())})

    meta = pa.concat_tables(
        list(sorted_ds.map_batches(block_meta, batch_format="pyarrow",
                                   batch_size=None)
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default").to_pandas()
    meta = meta.sort_values(["k0", "c0"]).reset_index(drop=True)
    total = int(meta["cnt"].sum())
    offsets = {(int(r.k0), int(r.c0)): int(o) for r, o in zip(
        meta.itertuples(), np.concatenate([[0], np.cumsum(meta["cnt"])[:-1]]))}
    ref = ray.put((offsets, total))

    def decile(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"decile": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        offs, n = ray.get(ref)
        base = offs[(int(t["neg_cents"][0].as_py()),
                     int(t["o_custkey"][0].as_py()))]
        rank = base + np.arange(t.num_rows, dtype=np.int64)
        return pa.table({"decile": pa.array(rank * 10 // n),
                         "cents": t["cents"].cast(pa.int64())})

    return (sorted_ds.map_batches(decile, batch_format="pyarrow",
                                  batch_size=None, zero_copy_batch=True)
            .groupby("decile")
            .aggregate(Count(alias_name="n_customers"),
                       Sum("cents", alias_name="revenue_cents")))


Q_CUSTOMER_REVENUE_DECILES_SQL = """
WITH cust AS (
  SELECT o_custkey,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS cents
  FROM orders GROUP BY o_custkey),
ranked AS (
  SELECT cents,
         ROW_NUMBER() OVER (ORDER BY cents DESC, o_custkey) - 1 AS rnk,
         COUNT(*) OVER () AS n
  FROM cust)
SELECT CAST((rnk * 10) // n AS BIGINT) AS decile,
       COUNT(*) AS n_customers,
       CAST(SUM(cents) AS BIGINT) AS revenue_cents
FROM ranked GROUP BY 1
"""


def q_orders_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((priority), (status), ()) — the third member
    of the OLAP trio next to ROLLUP and CUBE: the caller picks the exact
    grouping levels, here the two one-dimension marginals plus the grand
    total WITHOUT the fine (priority, status) cells.

    Scale plan: identical to the rollup's — aggregate ONCE at the finest
    level any requested set needs (here (priority, status), bounded by
    group cardinality), then derive every requested set from that bounded
    aggregate on the driver; the raw table is scanned exactly once."""
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["o_totalprice"],
                                     pa.scalar(100.0))).cast(pa.int64())
        g = (t.set_column(2, "cents", cents)
             .group_by(["o_orderpriority", "o_orderstatus"])
             .aggregate([("cents", "sum"), ("cents", "count")]))
        return pa.table({
            "o_orderpriority": g["o_orderpriority"],
            "o_orderstatus": g["o_orderstatus"],
            "total_cents": g["cents_sum"].cast(pa.int64()),
            "n_orders": g["cents_count"].cast(pa.int64()),
        })

    fine = (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(["o_orderpriority", "o_orderstatus"])
            .aggregate(Sum("total_cents", alias_name="total_cents"),
                       Sum("n_orders", alias_name="n_orders"))
            .to_pandas())  # bounded: |priorities| x |statuses| rows

    by_prio = (fine.groupby("o_orderpriority", as_index=False)
               [["total_cents", "n_orders"]].sum())
    by_prio["o_orderstatus"] = "ALL"
    by_status = (fine.groupby("o_orderstatus", as_index=False)
                 [["total_cents", "n_orders"]].sum())
    by_status["o_orderpriority"] = "ALL"
    grand = pd.DataFrame({
        "o_orderpriority": ["ALL"], "o_orderstatus": ["ALL"],
        "total_cents": [fine["total_cents"].sum()],
        "n_orders": [fine["n_orders"].sum()],
    })
    cols = ["o_orderpriority", "o_orderstatus", "n_orders", "total_cents"]
    out = pd.concat([by_prio[cols], by_status[cols], grand[cols]],
                    ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_cents"] = out["total_cents"].astype("int64")
    return out


Q_ORDERS_GROUPING_SETS_SQL = """
SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders
GROUP BY GROUPING SETS ((o_orderpriority), (o_orderstatus), ())
"""


def q_peak_concurrent_sessions(sf_dir: str, gap_minutes: int = 30,
                               num_buckets: int = 32):
    """PEAK CONCURRENCY over session intervals — the classic sweep-line
    ("maximum overlapping intervals") operator, distributed: sessions are
    derived exactly like ``q_sessionize`` but reduced to (start, end)
    intervals; every interval emits a +1/-1 boundary event; the answer is
    the maximum of the boundary stream's running sum. Convention: at an
    identical instant, ends sort before starts (touching sessions do not
    overlap) — encoded identically in the SQL's ORDER BY ts, d.

    Scale shape: the running max NEVER materializes a global prefix on one
    machine — after ONE range sort of the (2 x #sessions)-row boundary
    stream, each block reduces to (block sum S_i, block max-prefix M_i)
    plus its first-key ordering triple; the driver prefix-sums the
    #blocks-row metadata and takes max_i(offset_i + M_i). Same two-pass
    discipline as the distributed zipWithIndex."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def session_intervals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        sid = (new_user | gap).cumsum()
        agg = g.assign(sid=sid).groupby("sid", sort=False)["ts"] \
            .agg(["min", "max"]).reset_index(drop=True)
        return pd.DataFrame({
            "t0": agg["min"].astype("int64"),  # us since epoch
            "t1": agg["max"].astype("int64"),
        })

    sessions = hash_grouped_reduce(ds, ["user_id"], session_intervals,
                                   num_buckets, batch_format="pandas"
                                   ).materialize()
    n_sessions = sessions.count()

    def boundaries(t: pa.Table) -> pa.Table:
        t0 = t["t0"].to_numpy()
        t1 = t["t1"].to_numpy()
        return pa.table({
            "ts": pa.array(np.concatenate([t0, t1])),
            "d": pa.array(np.concatenate([np.ones(len(t0), np.int64),
                                          -np.ones(len(t1), np.int64)])),
        })

    # Collapse the boundary stream to its UNIQUE (ts, d) keys with a
    # weighted delta (sum of d == d * multiplicity). The running-sum max is
    # invariant under the collapse (every peak occurs right after a run of
    # +1 events, and the weighted cumsum evaluates exactly those
    # run-boundary prefixes), and it makes the downstream block ordering
    # DETERMINISTIC: sorted blocks now have globally distinct first keys,
    # so the driver's metadata sort cannot misorder equal-first-key blocks
    # (the previous hashed tiebreak was unique only with high probability).
    from ray.data.aggregate import Sum

    weighted = (sessions.map_batches(boundaries, batch_format="pyarrow")
                .groupby(["ts", "d"]).aggregate(Sum("d", alias_name="w")))
    sorted_b = weighted.sort(["ts", "d"]).materialize()

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("ts0", "d0", "s", "m")})
        pref = np.cumsum(t["w"].to_numpy())
        return pa.table({
            "ts0": t["ts"].slice(0, 1).cast(pa.int64()),
            "d0": t["d"].slice(0, 1),
            "s": pa.array([int(pref[-1])], pa.int64()),
            "m": pa.array([int(pref.max())], pa.int64()),
        })

    meta = pa.concat_tables(
        list(sorted_b.map_batches(block_meta, batch_format="pyarrow",
                                  batch_size=None, zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default").to_pandas()
    meta = meta.sort_values(["ts0", "d0"]).reset_index(drop=True)
    offsets = np.concatenate([[0], np.cumsum(meta["s"].to_numpy())[:-1]])
    peak = int((offsets + meta["m"].to_numpy()).max()) if len(meta) else 0
    return pd.DataFrame([{"peak_concurrency": peak,
                          "n_sessions": int(n_sessions)}])


Q_PEAK_CONCURRENT_SESSIONS_SQL = """
WITH s AS (
  SELECT user_id, ts,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS session_id
  FROM (
    SELECT user_id, ts,
           CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
    FROM events)),
sess AS (
  SELECT user_id, session_id, min(ts) AS t0, max(ts) AS t1
  FROM s GROUP BY 1, 2),
b AS (
  SELECT t0 AS ts, 1 AS d FROM sess
  UNION ALL
  SELECT t1 AS ts, -1 AS d FROM sess),
c AS (
  SELECT SUM(d) OVER (ORDER BY ts, d ROWS UNBOUNDED PRECEDING) AS conc
  FROM b)
SELECT CAST((SELECT MAX(conc) FROM c) AS BIGINT) AS peak_concurrency,
       CAST((SELECT COUNT(*) FROM sess) AS BIGINT) AS n_sessions
"""


def q_session_type_cooccurrence(sf_dir: str, gap_minutes: int = 30,
                                num_buckets: int = 32):
    """Event-type CO-OCCURRENCE within sessions — the market-basket
    primitive (baskets = sessions, items = distinct event types): for every
    unordered type pair, the number of sessions containing BOTH. The
    input to association rules, "users who X also Y" surfaces and bundle
    detection.

    Scale shape: sessions are bucket-local by construction (users are
    hash-co-located, a session belongs to one user), so pair generation
    never shuffles raw events twice — one user-hash exchange, one
    vectorized per-bucket pass (sessionize diff/cumsum, distinct
    (session, type) dedup, per-session all-pairs over the DISTINCT types
    — bounded by |event types|, not session length), then a
    |types|²-bounded count exchange."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def cooccur_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        g = g.assign(sid=(new_user | gap).cumsum())
        st = g[["sid", "event_type"]].drop_duplicates()
        m = st.merge(st, on="sid")
        m = m[m["event_type_x"] < m["event_type_y"]]
        return (m.groupby(["event_type_x", "event_type_y"], as_index=False)
                .size()
                .rename(columns={"event_type_x": "type_a",
                                 "event_type_y": "type_b", "size": "n"}))

    return (hash_grouped_reduce(ds, ["user_id"], cooccur_bucket, num_buckets,
                                          batch_format="pandas")
            .groupby(["type_a", "type_b"])
            .aggregate(Sum("n", alias_name="n_sessions")))


Q_SESSION_TYPE_COOCCURRENCE_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS session_id
  FROM (
    SELECT user_id, ts, event_type,
           CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
    FROM events)),
st AS (SELECT DISTINCT user_id, session_id, event_type FROM s)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       COUNT(*) AS n_sessions
FROM st a
JOIN st b ON a.user_id = b.user_id AND a.session_id = b.session_id
         AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def q_monthly_revenue_yoy(sf_dir: str):
    """Monthly revenue with YEAR-OVER-YEAR growth — the reporting staple:
    per calendar month, exact revenue cents and the YoY ratio in integer
    milli (cur * 1000 // same-month-last-year; -1 when no prior-year
    month exists). Division stays integer on both engines so the
    value-hash crosses cleanly.

    Scale shape: per-batch (month, cents) partials -> one
    |months|-bounded groupby -> driver join against itself shifted one
    year (#months rows — years x 12, never row count)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(t["o_totalprice"],
                                     pa.scalar(100.0))).cast(pa.int64())
        yk = pc.add(pc.multiply(pc.year(t["o_orderdate"]), pa.scalar(100)),
                    pc.month(t["o_orderdate"])).cast(pa.int64())
        return pa.table({"month_key": yk, "cents": cents})

    per_month = (ds.map_batches(partial, batch_format="pyarrow")
                 .groupby("month_key")
                 .aggregate(Sum("cents", alias_name="revenue_cents"))
                 .to_pandas())  # bounded: years x 12 rows

    prev = per_month.copy()
    prev["month_key"] = prev["month_key"] + 100  # shift forward one year
    j = per_month.merge(prev.rename(columns={"revenue_cents": "prev_cents"}),
                        on="month_key", how="left")
    pc_ = j["prev_cents"]
    j["yoy_milli"] = np.where(
        pc_.notna() & (pc_ != 0),
        j["revenue_cents"] * 1000 // pc_.fillna(1).astype("int64"),
        -1).astype("int64")
    return j[["month_key", "revenue_cents", "yoy_milli"]]


Q_MONTHLY_REVENUE_YOY_SQL = """
WITH m AS (
  SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
             AS month_key,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS revenue_cents
  FROM orders GROUP BY 1)
SELECT a.month_key, a.revenue_cents,
       CAST(COALESCE((a.revenue_cents * 1000) // NULLIF(b.revenue_cents, 0),
                     -1) AS BIGINT) AS yoy_milli
FROM m a LEFT JOIN m b ON b.month_key = a.month_key - 100
"""


def q_events_hourly_profile(sf_dir: str):
    """Activity heatmap, long form: event counts per (event_type,
    hour-of-day) — the diurnal-profile report behind bot detection (a
    flat 24-hour profile is automation), capacity planning and timezone
    inference. Stateless per-batch (type, hour) partials; the exchange is
    |types| x 24-bounded."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        g = (t.set_column(1, "hour", pc.hour(t["ts"]).cast(pa.int64()))
             .group_by(["event_type", "hour"]).aggregate([("hour", "count")]))
        return pa.table({"event_type": g["event_type"],
                         "hour": g["hour"],
                         "n": g["hour_count"].cast(pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(["event_type", "hour"])
            .aggregate(Sum("n", alias_name="n_events")))


Q_EVENTS_HOURLY_PROFILE_SQL = """
SELECT event_type, CAST(hour(ts) AS BIGINT) AS hour,
       COUNT(*) AS n_events
FROM events GROUP BY 1, 2
"""
