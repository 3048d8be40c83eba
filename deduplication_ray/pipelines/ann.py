"""Similarity search over embedding columns (list<float>).

Two paths:

* ``brute_force_topk`` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``), every batch does one numpy matmul against it. This is
  the correctness baseline and is DuckDB-mirrorable
  (``list_cosine_similarity`` + QUALIFY row_number).
* ``lsh_topk`` — the scale path: sign-random-projection (SimHash) bucketing
  of both corpus and queries; only same-bucket (plus Hamming<=r neighbor
  bucket) candidates are scored. Sub-linear candidate volume at the cost of
  recall; recall vs brute force is measured in tests.

Also ``embedding_dup_pairs``: near-duplicate detection by embedding cosine,
via the same bucket machinery (a 'semantic dedup' detector).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.sources import storage
from deduplication_ray.stages.groupred import hash_grouped_reduce


def _emb_matrix(t: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = t[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-30)


def _bounded_head(ds: "ray.data.Dataset", id_col: str, n: int) -> pd.DataFrame:
    """The n smallest-id rows WITHOUT a global sort: each block keeps its own
    n smallest (vectorized partial), the driver merges the <= n x num_blocks
    survivors. A ``sort().limit()`` here would all-to-all shuffle the whole
    corpus to pick a bounded deterministic sample."""
    import pyarrow.compute as pc

    def part(t: pa.Table) -> pa.Table:
        if t.num_rows <= n:
            return t
        return t.take(pc.sort_indices(t, sort_keys=[(id_col, "ascending")])[:n])

    tbls = list(ds.map_batches(part, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None))
    cand = pa.concat_tables(tbls, promote_options="default") if tbls else None
    if cand is None or cand.num_rows == 0:
        return pd.DataFrame()
    cand = cand.take(
        pc.sort_indices(cand, sort_keys=[(id_col, "ascending")])[:n])
    return cand.to_pandas()


def brute_force_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    table: str = "embeddings",
    id_col: str = "vec_id",
    ds=None,
) -> "pa.Table":
    """For the n_queries lowest ids: exact cosine top-k over the corpus
    (self excluded). Returns (q_id, n_id, rank) — integer columns only so
    the oracle hash compare is float-free.

    Broadcast-small-side pattern: queries via ray.put once; per batch ONE
    (B x d) @ (d x Q) matmul; per-batch top-k partials reduced by a
    keyed exchange on q_id — no driver-side materialization.
    """
    if ds is None:
        ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                                columns=[id_col, "embedding"])

    # queries: the n_queries smallest ids (deterministic, SQL-expressible)
    qt = _bounded_head(ds, id_col, n_queries)
    q_ids = qt[id_col].to_numpy()
    qm = _normalize(np.stack([np.asarray(v, dtype=np.float32) for v in qt["embedding"]]))
    ref = ray.put((q_ids, qm))

    class PartialTopK:
        def __init__(self):
            self.q_ids = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.q_ids is None:
                self.q_ids, self.qm = ray.get(ref)
            m = _normalize(_emb_matrix(t))
            ids = t[id_col].to_numpy()
            sims = m @ self.qm.T  # (B, Q)
            out_q, out_n, out_s = [], [], []
            kk = min(k + 1, len(ids))
            for qi in range(sims.shape[1]):
                s = sims[:, qi]
                part = np.argpartition(-s, kk - 1)[:kk] if kk < len(s) else np.arange(len(s))
                out_q.append(np.full(len(part), self.q_ids[qi], dtype=np.int64))
                out_n.append(ids[part])
                out_s.append(s[part])
            return pa.table({
                "q_id": np.concatenate(out_q),
                "n_id": np.concatenate(out_n),
                "sim": np.concatenate(out_s).astype(np.float64),
            })

    partials = ds.map_batches(PartialTopK(), batch_format="pyarrow",
                              batch_size=4096)
    return _distributed_topk(partials, k)


def _cell_id(t: pa.Table) -> np.ndarray:
    """Key of the per-cell exchanges: the dense cell id itself, so with one
    partition per cell each cell gets its own partition."""
    return t["cell"].to_numpy()


def _per_cell(fn):
    """A partition reducer running the per-cell kernel ``fn`` on each cell
    of a pandas partition (keyed by ``_cell_id``, a partition holds one
    cell)."""
    def red(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([fn(g) for _, g in df.groupby("cell", sort=False)],
                         ignore_index=True)
    return red


def _distributed_topk(partials: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """Final top-k reduce IN the cluster: a keyed exchange on q_id (bounded
    at Q*k*num_blocks rows — tiny vs the corpus) and one lexsort per
    partition on (q_id, -sim, n_id); the rank is the position within the
    query's rows. No driver-side pandas materialization."""

    def final_topk(t: pa.Table) -> pa.Table:
        q, n, s = (t[c].to_numpy() for c in ("q_id", "n_id", "sim"))
        o = np.flatnonzero(q != n)
        o = o[np.lexsort((n[o], -s[o], q[o]))]
        q, n = q[o], n[o]
        rank = H.run_ranks(q) + 1
        m = rank <= k
        return pa.table({"q_id": pa.array(q[m], pa.int64()),
                         "n_id": pa.array(n[m], pa.int64()),
                         "rank": pa.array(rank[m], pa.int64())})

    return hash_grouped_reduce(partials, ["q_id"], final_topk, 8)


def ann_topk_sql(n_queries: int = 5, k: int = 5) -> str:
    return f"""
WITH q AS (
  SELECT vec_id AS q_id, embedding AS q_emb FROM embeddings
  ORDER BY vec_id LIMIT {n_queries}
), scored AS (
  SELECT q.q_id, e.vec_id AS n_id,
         list_cosine_similarity(q.q_emb, e.embedding) AS sim
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.q_id
)
SELECT q_id, n_id,
       row_number() OVER (PARTITION BY q_id ORDER BY sim DESC, n_id) AS rank
FROM scored
QUALIFY rank <= {k}
"""


def lsh_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    table: str = "embeddings",
    id_col: str = "vec_id",
    seed: int = 42,
    with_recall: bool = True,
    multiprobe: int = 1,
) -> "pa.Table":
    """LSH-bucketed approximate top-k — the scale path (SURVEY T-inventory
    'IVF/LSH-bucketed variant'): score ONLY corpus rows that share a SimHash
    multi-index band with the query, instead of the full matmul. Recall vs
    ``brute_force_topk`` is measured in tests; sub-linear candidate volume.

    ``multiprobe=1`` additionally probes every Hamming-1 neighbor of each
    query band (multi-probe LSH, Lv et al., VLDB 2007 — public): 4+64
    buckets per query instead of 4, on the QUERY side only — corpus-side
    bucket emission is unchanged, so recall rises at zero extra shuffle
    cost (the candidate set of multiprobe=0 is always a subset).
    """
    from deduplication_ray.stages.lsh import _hash16_bands

    ds = storage.read_table(f"{sf_dir}/{table}.parquet", columns=[id_col, "embedding"])
    qt = _bounded_head(ds, id_col, n_queries)
    q_ids = qt[id_col].to_numpy()
    qm = _normalize(np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"]]))
    planes = H.make_simhash_planes(64, qm.shape[1], seed)
    q_sh = H.simhash_from_features(qm.astype(np.float32), planes)
    _, q_buckets = _hash16_bands(q_sh, 2000)
    probes = [q_buckets]
    if multiprobe:
        # Hamming-1 probes: flip each of the 16 bits of each band chunk and
        # re-hash with EXACTLY _hash16_bands' band-mixing formula
        shifts = (np.arange(4, dtype=np.uint64) * np.uint64(16))[None, :]
        chunks = (q_sh[:, None] >> shifts) & np.uint64(0xFFFF)  # (Q, 4)
        mixer = ((np.arange(4, dtype=np.uint64) + np.uint64(2000))
                 * np.uint64(0x9E3779B97F4A7C15))[None, :]
        for b in range(16):
            with np.errstate(over="ignore"):
                probes.append(H.bitcast_u64_to_i64(
                    H.splitmix64((chunks ^ np.uint64(1 << b)) + mixer)).ravel())
    q_bucket_set = np.unique(np.concatenate(probes))
    ref = ray.put((q_ids, qm, planes, np.sort(q_bucket_set)))

    class BucketTopK:
        def __init__(self):
            self.state = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.state is None:
                self.state = ray.get(ref)
            q_ids, qm, planes, qb = self.state
            m64 = _normalize(_emb_matrix(t).astype(np.float64))
            sh = H.simhash_from_features(m64.astype(np.float32), planes)
            _, buckets = _hash16_bands(sh, 2000)
            hit = np.isin(buckets.reshape(-1, 4), qb).any(axis=1)
            if not hit.any():
                return pa.table({"q_id": pa.array([], pa.int64()),
                                 "n_id": pa.array([], pa.int64()),
                                 "sim": pa.array([], pa.float64())})
            cand = m64[hit]
            ids = t[id_col].to_numpy()[hit]
            sims = cand @ qm.T  # (C, Q)
            # per-batch PARTIAL top-k: never ship more than (k+1) candidates
            # per query out of a batch — bounds the shuffle at Q*(k+1) rows
            # per block even when a bucket is adversarially hot
            out_q, out_n, out_s = [], [], []
            kk = min(k + 1, len(ids))
            for qi in range(sims.shape[1]):
                s = sims[:, qi]
                part = np.argpartition(-s, kk - 1)[:kk] if kk < len(s) else np.arange(len(s))
                out_q.append(np.full(len(part), q_ids[qi], dtype=np.int64))
                out_n.append(ids[part])
                out_s.append(s[part])
            return pa.table({
                "q_id": np.concatenate(out_q),
                "n_id": np.concatenate(out_n),
                "sim": np.concatenate(out_s).astype(np.float64),
            })

    partials = ds.map_batches(BucketTopK(), batch_format="pyarrow",
                              batch_size=4096)
    out = _distributed_topk(partials, k)
    if not with_recall:
        return out
    # recall vs the exact path, emitted as a column (constant per run): the
    # approximate operator reports its own quality alongside its results
    mine = out.to_pandas()  # Q*k rows — tiny final result
    brute = brute_force_topk(sf_dir, n_queries, k, table, id_col).to_pandas()
    bset = set(zip(brute["q_id"], brute["n_id"]))
    hits = len(set(zip(mine["q_id"], mine["n_id"])) & bset)
    mine["recall_vs_brute"] = round(hits / max(len(bset), 1), 4)
    return pa.Table.from_pandas(mine.reset_index(drop=True), preserve_index=False)


def _kmeans_cosine(x: np.ndarray, k: int, iters: int = 10) -> np.ndarray:
    """Deterministic spherical k-means (Lloyd) on a normalized sample:
    evenly-strided init, argmax-cosine assignment, renormalized means.
    Pure numpy on a bounded sample — the centroid model is tiny and
    broadcast; the full corpus is never collected."""
    k = min(k, len(x))
    c = x[:: max(len(x) // k, 1)][:k].copy()
    for _ in range(iters):
        assign = (x @ c.T).argmax(axis=1)
        for j in range(k):
            sel = x[assign == j]
            if len(sel):
                m = sel.sum(axis=0)
                n = np.linalg.norm(m)
                if n > 1e-12:
                    c[j] = m / n
    return c


def ivf_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    n_centroids: int = 64,
    nprobe: int = 8,
    table: str = "embeddings",
    id_col: str = "vec_id",
    with_recall: bool = True,
    refine_iters: int = 0,
) -> "pa.Table":
    """IVF approximate top-k — the inverted-file scale path alongside
    ``lsh_topk``: a spherical k-means centroid model (trained on a bounded
    sample, broadcast once) partitions the corpus into cells; each query
    probes only its ``nprobe`` nearest cells, so a batch scores only rows
    whose cell is probed by some query. Candidate volume ~ nprobe/n_centroids
    of the corpus. Recall vs ``brute_force_topk`` emitted as a column.
    ``refine_iters > 0`` refines the sample-trained centroids with that many
    distributed Lloyd rounds over the FULL corpus
    (``kmeans_refine_centroids``) before partitioning — the quality path
    when the bounded sample misrepresents the distribution.
    """
    ds = storage.read_table(f"{sf_dir}/{table}.parquet", columns=[id_col, "embedding"])

    # centroid model from a bounded, deterministic sample (first 4096 rows
    # in id order — no corpus-wide collect)
    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    cents = _kmeans_cosine(sample, n_centroids)
    if refine_iters > 0:
        cents, _ = kmeans_refine_centroids(ds, cents, iters=refine_iters)

    qt = st.head(n_queries)
    q_ids = qt[id_col].to_numpy()
    qm = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in qt["embedding"]]))
    npb = min(nprobe, len(cents))
    q_cells = np.argsort(-(qm @ cents.T), axis=1)[:, :npb]
    probed = np.unique(q_cells)
    ref = ray.put((q_ids, qm, cents, np.sort(probed)))

    class CellTopK:
        def __init__(self):
            self.state = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.state is None:
                self.state = ray.get(ref)
            q_ids, qm, cents, probed = self.state
            m = _normalize(_emb_matrix(t).astype(np.float64))
            cell = (m @ cents.T).argmax(axis=1)
            hit = np.isin(cell, probed)
            if not hit.any():
                return pa.table({"q_id": pa.array([], pa.int64()),
                                 "n_id": pa.array([], pa.int64()),
                                 "sim": pa.array([], pa.float64())})
            cand, ids = m[hit], t[id_col].to_numpy()[hit]
            sims = cand @ qm.T
            out_q, out_n, out_s = [], [], []
            kk = min(k + 1, len(ids))
            for qi in range(sims.shape[1]):
                s = sims[:, qi]
                part = np.argpartition(-s, kk - 1)[:kk] if kk < len(s) else np.arange(len(s))
                out_q.append(np.full(len(part), q_ids[qi], dtype=np.int64))
                out_n.append(ids[part])
                out_s.append(s[part])
            return pa.table({
                "q_id": np.concatenate(out_q),
                "n_id": np.concatenate(out_n),
                "sim": np.concatenate(out_s).astype(np.float64),
            })

    partials = ds.map_batches(CellTopK(), batch_format="pyarrow",
                              batch_size=4096)
    out = _distributed_topk(partials, k)
    if not with_recall:
        return out
    mine = out.to_pandas()  # Q*k rows — tiny final result
    brute = brute_force_topk(sf_dir, n_queries, k, table, id_col).to_pandas()
    bset = set(zip(brute["q_id"], brute["n_id"]))
    hits = len(set(zip(mine["q_id"], mine["n_id"])) & bset)
    mine["recall_vs_brute"] = round(hits / max(len(bset), 1), 4)
    return pa.Table.from_pandas(mine.reset_index(drop=True), preserve_index=False)


def _embedding_dup_pairs_exact(
    ds: ray.data.Dataset, id_col: str, cos_min: float
) -> ray.data.Dataset:
    """EXACT all-pairs cosine for corpora whose embedding matrix fits a
    worker heap: broadcast the normalized matrix once (ray.put), each batch
    does one f64 matmul against it and emits (src < dst) pairs above the
    threshold. Oracle-identical at any cos_min (same double arithmetic as
    DuckDB's list_cosine_similarity), fully distributed over batches."""
    tbls = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    t = pa.concat_tables(tbls, promote_options="default")
    ids_all = t[id_col].to_numpy().astype(np.int64)
    M = _normalize(_emb_matrix(t).astype(np.float64))
    ref = ray.put((ids_all, M))

    class PairFinder:
        def __init__(self):
            self.ids = None

        def __call__(self, b: pa.Table) -> pa.Table:
            if self.ids is None:
                self.ids, self.M = ray.get(ref)
            ids_b = b[id_col].to_numpy().astype(np.int64)
            Mb = _normalize(_emb_matrix(b).astype(np.float64))
            sims = Mb @ self.M.T
            keep = (sims >= cos_min) & (ids_b[:, None] < self.ids[None, :])
            r, c = np.nonzero(keep)
            return pa.table({"src": ids_b[r], "dst": self.ids[c]})

    return ds.map_batches(PairFinder(), batch_format="pyarrow",
                          batch_size=2048)


class EmbSig:
    """(id, embedding) rows -> the embedding signature table
    (image_id, simhash, vec): 64-bit sign-random-projection SimHash over the
    NORMALIZED vector (bucketing key) plus the normalized vector itself as a
    packed f64 blob (exact-cosine verification payload). Ids are zero-padded
    to 12 digits so lexicographic min == numeric min through the
    string-keyed union-find."""

    def __init__(self, cfg: DedupConfig, id_col: str = "vec_id"):
        self.cfg = cfg
        self.id_col = id_col
        self.planes = None  # built lazily at first batch (needs dim)

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = _normalize(_emb_matrix(t))
        if self.planes is None:
            self.planes = H.make_simhash_planes(64, m.shape[1], self.cfg.seed)
        sh = H.simhash_from_features(m, self.planes)
        ids = t[self.id_col].cast(pa.string())
        # the padded key must preserve numeric order lexicographically:
        # an id wider than the pad (or negative) would silently elect a
        # wrong (non-numeric-min) representative — refuse loudly
        width = pc.max(pc.utf8_length(ids)).as_py() or 0
        if width > 12 or bool(pc.any(pc.starts_with(ids, "-")).as_py()):
            raise ValueError(
                f"{self.id_col} values must be non-negative and at most "
                "12 digits for the zero-padded union-find key "
                f"(saw width {width}); renumber ids or widen the pad")
        return pa.table({
            "image_id": pc.utf8_lpad(ids, 12, "0"),
            "simhash": pa.array(H.bitcast_u64_to_i64(sh), pa.int64()),
            "vec": H.pack_u64_rows(m.astype(np.float64).view(np.uint64)),
        })


def embedding_accept(cos_min: float):
    """The embedding ``accept`` (``verify.resolve_and_verify_pairs``): keep
    a candidate pair iff its EXACT cosine >= cos_min (normalized vectors
    resolved from the signature table; one batched dot product)."""
    def accept(t: pa.Table, col) -> np.ndarray:
        va = _unpack_f32(col("vec", "src", None))
        vb = _unpack_f32(col("vec", "dst", None))
        return (va * vb).sum(axis=1) >= cos_min

    return accept


EXACT_PAIRS_LIMIT = 200_000  # vectors; above this the LSH path takes over


def embedding_dup_pairs(
    sf_dir: str,
    cos_min: float = 0.98,
    table: str = "embeddings",
    id_col: str = "vec_id",
    cfg: DedupConfig | None = None,
    exact_limit: int = EXACT_PAIRS_LIMIT,
) -> ray.data.Dataset:
    """Near-duplicate pairs by embedding cosine >= cos_min.

    Size-dispatched like every lookup in this engine: corpora up to
    ``exact_limit`` vectors run the exact broadcast-matmul all-pairs path
    (oracle-identical at any threshold); above it, the embedding engine's
    edge plan (``incremental.engine_kit('embedding')``): SimHash
    (sign-random-projection) multi-index bucketing over the normalized
    embeddings within the generous ``cfg.emb_hamming_t`` radius, the shared
    bucket->edge machinery (cold all-pairs, hot salting), and candidates
    verified by exact cosine >= ``cos_min`` via a signature join carrying
    the normalized vector as a binary blob.
    """
    from deduplication_ray.pipelines.incremental import engine_kit

    cfg = cfg or DedupConfig(num_partitions=8)
    ds = storage.read_table(f"{sf_dir}/{table}.parquet", columns=[id_col, "embedding"])
    if ds.count() <= exact_limit:
        return _embedding_dup_pairs_exact(ds, id_col, cos_min)

    kit = engine_kit("embedding", dataclasses.replace(cfg, emb_cos_min=cos_min),
                     id_col)
    sigs = kit["sig"](ds).materialize()

    def to_int_pairs(t: pa.Table) -> pa.Table:
        # integer (src,dst) with src < dst NUMERICALLY — the resolve emits
        # the pair in id-hash order, and the SQL oracle compares on ints
        a = t["src"].cast(pa.int64()).to_numpy()
        b = t["dst"].cast(pa.int64()).to_numpy()
        return pa.table({"src": np.minimum(a, b), "dst": np.maximum(a, b)})

    return kit["edges"](sigs).map_batches(to_int_pairs, batch_format="pyarrow")


def embedding_dup_pairs_sql(cos_min: float = 0.98) -> str:
    return f"""
SELECT a.vec_id AS src, b.vec_id AS dst
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {cos_min}
"""


EMBEDDING_DUP_PAIRS_SQL = embedding_dup_pairs_sql()


def _unpack_f32(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    buf, offs = H._arrow_flat_buffer(col)
    n = len(offs) - 1
    if n == 0:
        return np.empty((0, 0), dtype=np.float32)
    return buf[offs[0]: offs[-1]].view(np.float64).astype(np.float32).reshape(n, -1)


def embedding_kmeans_cells(
    sf_dir: str,
    n_centroids: int = 16,
    table: str = "embeddings",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """Semantic clustering of the embedding corpus: assign every vector to
    its nearest spherical k-means centroid — the partitioning step behind
    semantic dedup pruning, diversity-balanced sampling, and IVF indexing.

    Scale plan: the centroid model trains on a bounded deterministic sample
    (first 4096 ids) and broadcasts via ``ray.put`` (tiny); assignment is
    one stateless map_batches matmul per batch — no shuffle, linear in
    corpus size, deterministic at any parallelism. Rows-only check
    (iterative k-means is not SQL-expressible); determinism and
    argmax-consistency are asserted in tests/test_ann.py."""
    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    cents = _kmeans_cosine(sample, n_centroids)
    ref = ray.put(cents)

    class Assign:
        def __init__(self):
            self.cents = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.cents is None:
                self.cents = ray.get(ref)
            m = _normalize(_emb_matrix(t).astype(np.float64))
            sims = m @ self.cents.T
            cell = sims.argmax(axis=1)
            return pa.table({
                id_col: t[id_col],
                "cell": pa.array(cell.astype(np.int64)),
                "sim_milli": pa.array(
                    np.floor(sims.max(axis=1) * 1000.0).astype(np.int64)),
            })

    return ds.map_batches(Assign(), batch_format="pyarrow")


def embedding_dup_clusters(sf_dir: str, cos_min: float = 0.45,
                           table: str = "embeddings",
                           id_col: str = "vec_id") -> "ray.data.Dataset":
    """Connected components over the semantic dup-pair graph: every vector
    labeled with the NUMERIC-min member id of its component (singletons =
    self) — the engine's union-find primitive exposed as a SQL-CHECKED
    query. The DuckDB oracle computes the same transitive closure with a
    recursive CTE (min-label propagation to fixpoint), so the iterative
    distributed algorithm is value-hash-verified end-to-end, not just
    tested against the repo's own serial oracle.

    Node ids travel zero-padded (12 digits) through the string-keyed
    union-find so lexicographic min == numeric min, and are cast back to
    int64 at the end."""
    import pyarrow.compute as pc

    from deduplication_ray.pipelines.image_dedup import finalize_clusters
    from deduplication_ray.state import unionfind

    cfg = DedupConfig(num_partitions=8)
    pairs = embedding_dup_pairs(sf_dir, cos_min=cos_min)

    def to_edges(t: pa.Table) -> pa.Table:
        pad = lambda c: pc.utf8_lpad(t[c].cast(pa.string()), 12, "0")
        return pa.table({"src": pad("src"), "dst": pad("dst"),
                         "kind": pa.array(["exact"] * t.num_rows)})

    labels = unionfind.connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"), cfg)
    ds = storage.read_table(f"{sf_dir}/{table}.parquet", columns=[id_col])
    ids = ds.map_batches(
        lambda t: pa.table({"image_id": pc.utf8_lpad(
            t[id_col].cast(pa.string()), 12, "0")}),
        batch_format="pyarrow")
    return finalize_clusters(ids, labels, cfg, id_col).map_batches(
        lambda t: pa.table({id_col: t[id_col].cast(pa.int64()),
                            "cluster_id": t["cluster_id"].cast(pa.int64())}),
        batch_format="pyarrow")


def embedding_dup_clusters_sql(cos_min: float = 0.45) -> str:
    return f"""
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS src, b.vec_id AS dst
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= {cos_min}
), edges AS (
  SELECT src AS a, dst AS b FROM pairs
  UNION ALL SELECT dst, src FROM pairs
), comp(node, lbl) AS (
  SELECT vec_id, vec_id FROM embeddings
  UNION
  SELECT e.b, c.lbl FROM comp c JOIN edges e ON e.a = c.node
)
SELECT node AS vec_id, CAST(min(lbl) AS BIGINT) AS cluster_id
FROM comp GROUP BY node
"""


# ---------------------------------------------------------- distributed Lloyd

def kmeans_refine_centroids(ds: "ray.data.Dataset", init: np.ndarray,
                            iters: int = 5) -> tuple[np.ndarray, list[float]]:
    """Distributed Lloyd refinement over the FULL corpus — the iterative
    primitive the sample-trained ``_kmeans_cosine`` model feeds into when
    the bounded sample can't represent the whole distribution.

    Per round: one stateless map_batches pass assigns every vector to its
    argmax-cosine centroid and emits per-batch PARTIAL (cell, count,
    vector-sum, sim-sum) moments — k rows per block, reduced on the driver
    (k x d doubles total, never the corpus). New centroid = renormalized
    mean (``_kmeans_cosine``'s exact update rule); empty cells keep their
    old centroid. Wire cost per round: k x (d+2) doubles per block — the
    same mergeable-partial shape as the sketch kit, so 100 TB costs
    #blocks x k rows per round, not a shuffle of the data.

    ``ds`` must yield columns (id, embedding); it should be the narrow
    projection, materialized once by the caller if re-scanning the source
    per round is more expensive than object-store residency.

    Returns (centroids, per-round mean-cosine "inertia" trace — the
    monotone convergence signal tests assert on).
    """
    cents = init.astype(np.float64).copy()
    k, d = cents.shape
    trace: list[float] = []
    for _ in range(iters):
        ref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _normalize(_emb_matrix(t).astype(np.float64))
            sims = m @ c.T
            cell = sims.argmax(axis=1)
            best = sims[np.arange(len(cell)), cell]
            order = np.argsort(cell, kind="stable")
            sc = cell[order]
            uniq, starts = np.unique(sc, return_index=True)
            seg = np.add.reduceat(m[order], starts, axis=0)
            sums = np.zeros((k, d))
            sums[uniq] = seg
            cnt = np.bincount(cell, minlength=k).astype(np.int64)
            sim_sum = np.zeros(k)
            np.add.at(sim_sum, cell, best)
            from deduplication_ray.functions import hashing as H
            return pa.table({
                "cell": pa.array(np.arange(k, dtype=np.int64)),
                "cnt": pa.array(cnt),
                "sim_sum": pa.array(sim_sum),
                "vec": H.pack_u64_rows(sums.view(np.uint64)),
            })

        parts = pa.concat_tables(
            list(ds.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)),
            promote_options="default")
        cell = parts["cell"].to_numpy()
        cnt = np.zeros(k, dtype=np.int64)
        np.add.at(cnt, cell, parts["cnt"].to_numpy())
        sim_tot = np.zeros(k)
        np.add.at(sim_tot, cell, parts["sim_sum"].to_numpy())
        from deduplication_ray.functions import hashing as H
        vecs = H.unpack_u64_rows(parts["vec"], d).view(np.float64)
        sums = np.zeros((k, d))
        np.add.at(sums, cell, vecs)
        trace.append(float(sim_tot.sum() / max(cnt.sum(), 1)))
        nonempty = cnt > 0
        norms = np.linalg.norm(sums, axis=1)
        upd = nonempty & (norms > 1e-12)
        cents[upd] = sums[upd] / norms[upd, None]
    return cents, trace


def embedding_kmeans_refine(
    sf_dir: str,
    n_centroids: int = 16,
    iters: int = 5,
    table: str = "embeddings",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """``embedding_kmeans_cells`` with the centroid model REFINED by
    distributed Lloyd rounds over the full corpus (``kmeans_refine_centroids``)
    instead of trusting the bounded-sample fit — the assignment pass is the
    same stateless broadcast matmul. Rows-only check; serial-parity,
    partition-invariance and monotone-inertia are asserted in
    tests/test_ann.py."""
    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    init = _kmeans_cosine(sample, n_centroids)
    cents, _trace = kmeans_refine_centroids(ds, init, iters=iters)
    ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(_emb_matrix(t).astype(np.float64))
        sims = m @ c.T
        cell = sims.argmax(axis=1)
        return pa.table({
            id_col: t[id_col],
            "cell": pa.array(cell.astype(np.int64)),
            "sim_milli": pa.array(
                np.floor(sims.max(axis=1) * 1000.0).astype(np.int64)),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


# ------------------------------------------------------ product quantization

def _kmeans_l2(x: np.ndarray, k: int, iters: int = 10) -> np.ndarray:
    """Deterministic L2 Lloyd on a bounded sample (evenly-strided init,
    empty cells keep their centroid) — the per-subspace codebook trainer."""
    k = min(k, len(x))
    c = x[:: max(len(x) // k, 1)][:k].copy()
    for _ in range(iters):
        d2 = ((x * x).sum(1)[:, None] - 2.0 * (x @ c.T)
              + (c * c).sum(1)[None, :])
        a = d2.argmin(axis=1)
        for j in range(len(c)):
            sel = x[a == j]
            if len(sel):
                c[j] = sel.mean(axis=0)
    return c


def pq_train(sample: np.ndarray, m_subs: int, n_cents: int) -> np.ndarray:
    """PQ codebooks (Jégou, Douze & Schmid, "Product Quantization for
    Nearest Neighbor Search", TPAMI 2011 — public): split the (normalized)
    vector into ``m_subs`` subspaces, one L2 k-means codebook per subspace.
    Returns (m_subs, n_cents, d_sub)."""
    d = sample.shape[1]
    if d % m_subs:
        raise ValueError(f"dim {d} not divisible by m_subs {m_subs}")
    ds_ = d // m_subs
    return np.stack([_kmeans_l2(sample[:, j * ds_:(j + 1) * ds_], n_cents)
                     for j in range(m_subs)])


def pq_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    m_subs: int = 8,
    n_cents: int = 256,
    table: str = "embeddings",
    id_col: str = "vec_id",
    with_recall: bool = True,
) -> "pa.Table":
    """Product-quantization approximate top-k — the MEMORY-compression
    scale path alongside ``lsh_topk``/``ivf_topk``: each vector is encoded
    to ``m_subs`` uint8 codes (8 bytes here vs 256 bytes of float32 at
    d=64, a 32x shrink), and queries scan the CODES with one
    asymmetric-distance lookup-table gather per subspace — at 100 TB the
    float vectors stay in cold storage and the whole searchable index is
    codes small enough for RAM.

    Two stages prove the path: the ENCODE pass drops the embedding column
    (codes only cross to the scan), and the SCAN pass reconstructs nothing
    — sims come from LUT gathers alone. Codebooks train on the bounded
    deterministic sample (``_bounded_head``), broadcast once."""
    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    books = pq_train(sample, m_subs, n_cents)

    qt = _bounded_head(ds, id_col, n_queries)
    q = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in qt["embedding"]]))
    q_ids = qt[id_col].to_numpy().astype(np.int64)
    ds_ = books.shape[2]
    # inner-product LUT per subspace: sim(q, x) ~= sum_j lut[j, q, code_j(x)]
    luts = np.stack([q[:, j * ds_:(j + 1) * ds_] @ books[j].T
                     for j in range(m_subs)])          # (m, nq, n_cents)
    bref = ray.put(books)
    lref = ray.put((luts, q_ids))

    def encode(t: pa.Table) -> pa.Table:
        cb = ray.get(bref)
        m = _normalize(_emb_matrix(t).astype(np.float64))
        codes = np.empty((t.num_rows, m_subs), dtype=np.uint8)
        for j in range(m_subs):
            sub = m[:, j * ds_:(j + 1) * ds_]
            d2 = (-2.0 * (sub @ cb[j].T)
                  + (cb[j] * cb[j]).sum(1)[None, :])   # ||sub||2 const per row
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        offsets = pa.array(
            np.arange(t.num_rows + 1, dtype=np.int32) * m_subs)
        blob = pa.BinaryArray.from_buffers(
            pa.binary(), t.num_rows,
            [None, offsets.buffers()[1],
             pa.py_buffer(np.ascontiguousarray(codes).tobytes())])
        return pa.table({id_col: t[id_col], "codes": blob})

    class PQScan:
        def __init__(self):
            self.state = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.state is None:
                self.state = ray.get(lref)
            luts_, qids_ = self.state
            ids = t[id_col].to_numpy().astype(np.int64)
            buf, offs = H._arrow_flat_buffer(t["codes"].combine_chunks())
            codes = np.frombuffer(
                buf[offs[0]:offs[0] + t.num_rows * m_subs],
                dtype=np.uint8).reshape(t.num_rows, m_subs)
            sims = np.zeros((len(qids_), t.num_rows))
            for j in range(m_subs):
                sims += luts_[j][:, codes[:, j]]       # (nq, n) LUT gather
            kk = min(k + 1, t.num_rows)
            out_q, out_n, out_s = [], [], []
            for qi in range(len(qids_)):
                s = sims[qi]
                part = (np.argpartition(-s, kk - 1)[:kk]
                        if kk < len(s) else np.arange(len(s)))
                out_q.append(np.full(len(part), qids_[qi], dtype=np.int64))
                out_n.append(ids[part])
                out_s.append(s[part])
            return pa.table({
                "q_id": np.concatenate(out_q),
                "n_id": np.concatenate(out_n),
                "sim": np.concatenate(out_s).astype(np.float64),
            })

    codes = ds.map_batches(encode, batch_format="pyarrow", batch_size=4096)
    partials = codes.map_batches(PQScan(), batch_format="pyarrow",
                                 batch_size=4096)
    out = _distributed_topk(partials, k)
    if not with_recall:
        return out
    mine = out.to_pandas()  # Q*k rows — tiny final result
    brute = brute_force_topk(sf_dir, n_queries, k, table, id_col).to_pandas()
    bset = set(zip(brute["q_id"], brute["n_id"]))
    hits = len(set(zip(mine["q_id"], mine["n_id"])) & bset)
    mine["recall_vs_brute"] = round(hits / max(len(bset), 1), 4)
    return pa.Table.from_pandas(mine.reset_index(drop=True),
                                preserve_index=False)


# ------------------------------------------------------------- SemDeDup

def embedding_semdedup(
    sf_dir: str,
    tau: float = 0.9,
    n_centroids: int = 16,
    refine_iters: int = 2,
    table: str = "embeddings",
    id_col: str = "vec_id",
    ds=None,
) -> "ray.data.Dataset":
    """SemDeDup-style semantic dedup (Abbas et al., "SemDeDup: Data-efficient
    learning at web-scale through semantic deduplication", 2023 — public):
    cluster the corpus into k-means cells, then WITHIN each cell drop all
    but one member of every cosine-``tau`` duplicate group. Cell-bounding
    makes the quadratic step tractable: pairwise similarity runs per cell,
    never across the corpus (the paper's core trick — and its known
    limitation: a dup pair straddling a cell boundary is missed).

    Scale plan: centroids = bounded-sample fit + ``refine_iters``
    distributed Lloyd rounds; ONE keyed exchange on cell co-locates each
    cell's vectors (d floats per row; at 100 TB you'd ship PQ codes
    instead, ``pq_topk``'s encode pass); per cell one (n_c x n_c) matmul +
    vectorized min-label propagation (converges in O(log n_c) rounds).
    Representative = min id per duplicate component (deterministic at any
    parallelism). Output: (vec_id, cell, dup_group, keep). ``ds`` overrides
    the table read (the image_semdedup composition feeds embeddings
    straight from the ImageEmbed stage)."""
    if ds is None:
        ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                                columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    if len(st) == 0:
        return ds.map_batches(
            lambda t: pa.table({id_col: pa.array([], pa.int64()),
                                "cell": pa.array([], pa.int64()),
                                "dup_group": pa.array([], pa.int64()),
                                "keep": pa.array([], pa.bool_())}),
            batch_format="pyarrow")
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    cents = _kmeans_cosine(sample, n_centroids)
    if refine_iters > 0:
        cents, _ = kmeans_refine_centroids(ds, cents, iters=refine_iters)
    ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(_emb_matrix(t).astype(np.float64))
        cell = (m @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table({id_col: t[id_col], "embedding": t["embedding"],
                         "cell": pa.array(cell)})

    def cell_dedup(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy().astype(np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        m = _normalize(np.stack([np.asarray(v, dtype=np.float64)
                                 for v in g["embedding"].to_numpy()[order]]))
        n = len(ids)
        adj = (m @ m.T) >= tau          # reflexive: self-sim == 1 >= tau
        # vectorized min-label propagation over the cell's dup graph
        labels = np.arange(n)
        while True:
            nxt = np.where(adj, labels[None, :], n).min(axis=1)
            if (nxt == labels).all():
                break
            labels = nxt
        group_min_id = ids[labels]      # label is an index of a min element?
        # labels converge to the component's min INDEX; ids sorted ascending
        # so min index == min id of the component
        return pd.DataFrame({
            id_col: ids,
            "cell": g["cell"].to_numpy()[order],
            "dup_group": group_min_id,
            "keep": ids == group_min_id,
        })

    return hash_grouped_reduce(
        ds.map_batches(assign, batch_format="pyarrow", batch_size=4096),
        _cell_id, _per_cell(cell_dedup), n_centroids, batch_format="pandas")


# --------------------------------------------------------- outlier detection

def embedding_outliers(
    sf_dir: str,
    n_centroids: int = 16,
    frac_milli: int = 50,
    refine_iters: int = 2,
    sketch_k: int = 2048,
    table: str = "embeddings",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """Embedding OUTLIER report — the "drop the weird tail" curation step
    (mislabeled, corrupted, or off-distribution vectors): every vector's
    cosine distance to its (Lloyd-refined) k-means centroid in exact
    integer micro units, with the global top ``frac_milli``/1000 flagged.

    Scale plan: the centroid model is the bounded-sample + distributed-
    Lloyd fit (one broadcast, no shuffle); distances are one stateless
    matmul pass; the flag threshold is the (1 - frac) quantile taken from
    a MERGEABLE bottom-k uniform row sample (k smallest seeded id-hashes —
    k x #blocks rows merge on the driver, never the corpus), so the
    cut-off is deterministic at any partitioning and within the
    O(1/sqrt(k)) rank band of exact. Rows-only (iterative k-means is not
    SQL-expressible); planted-outlier recovery, partition invariance and
    the flagged-fraction band are asserted in tests/test_ann.py."""
    from deduplication_ray.functions import hashing as H

    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    cents = _kmeans_cosine(sample, n_centroids)
    if refine_iters:
        cents, _ = kmeans_refine_centroids(ds, cents, iters=refine_iters)
    ref = ray.put(cents)

    def dists(t: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(t).astype(np.float64))
        sims = m @ ray.get(ref).T
        cell = sims.argmax(axis=1)
        d = np.floor((1.0 - sims.max(axis=1)) * 1e6).astype(np.int64)
        return pa.table({
            id_col: t[id_col],
            "cell": pa.array(cell.astype(np.int64)),
            "dist_micro": pa.array(d),
        })

    scored = ds.map_batches(dists, batch_format="pyarrow").materialize()

    # threshold from a bottom-k uniform sample (seeded id-hash order):
    # mergeable partials, k x #blocks driver merge
    def sample_partial(t: pa.Table) -> pa.Table:
        u = H.splitmix64(t[id_col].to_numpy().astype(np.uint64)
                         + np.uint64(0xA5A5))
        k = min(sketch_k, t.num_rows)
        idx = np.argpartition(u, k - 1)[:k] if t.num_rows > k else \
            np.arange(t.num_rows)
        return pa.table({
            "u": pa.array(H.bitcast_u64_to_i64(u[idx]), pa.int64()),
            "d": pa.array(t["dist_micro"].to_numpy()[idx], pa.int64()),
        })

    parts = scored.map_batches(sample_partial, batch_format="pyarrow",
                               batch_size=None).to_pandas()
    order = np.argsort(parts["u"].to_numpy(), kind="stable")[:sketch_k]
    samp = np.sort(parts["d"].to_numpy()[order])
    if len(samp) == 0:
        thr = np.int64(np.iinfo(np.int64).max)
    else:
        # rank of the (1 - frac) quantile within the uniform sample
        r = min(len(samp) - 1,
                max(0, int(np.ceil(len(samp) * (1000 - frac_milli) / 1000))))
        thr = samp[r]

    def flag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_outlier",
            pa.array(t["dist_micro"].to_numpy() >= thr, pa.bool_()))

    return scored.map_batches(flag, batch_format="pyarrow")


# --------------------------------------------------- SimHash estimator verdict

def q_simhash_angular_check(sf_dir: str, cos_min: float = 0.45,
                            bits: int = 64):
    """SimHash-estimator VERDICT — the angular twin of
    ``docops.q_minhash_jaccard_check``: for every exact embedding
    near-dup pair (the ``embedding_dup_pairs`` ground truth), estimate
    the pair's angle from 64-bit sign-random-projection hashes (bit
    agreement 1 - ham/bits estimates 1 - theta/pi, Charikar 2002 —
    public) and emit ``(src, dst, sh_within_bound)`` — TRUE iff the
    estimate sits inside the 4.5-sigma binomial band around the exact
    angle. The oracle recomputes the exact pairs and emits constant TRUE,
    so a drifting SimHash implementation fails the driver's value-hash.
    No float crosses engines: the exact cosine is computed Ray-side only
    to center the band; the compared columns are integers/booleans.

    Scale plan: inherits ``embedding_dup_pairs``'s size dispatch; the
    extra work is one hash pass over the vectors plus two broadcast
    lookups on the (bounded) pair list."""
    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    pairs = embedding_dup_pairs(sf_dir, cos_min=cos_min)
    ds = storage.read_table(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    planes = H.make_simhash_planes(bits, _dim_of(ds), cfg.seed)
    ref = ray.put(planes)

    def sig(t: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(t).astype(np.float64))
        sh = H.simhash_from_features(m, ray.get(ref))
        return pa.table({
            "vec_id": t["vec_id"],
            "sh": pa.array(H.bitcast_u64_to_i64(sh), pa.int64()),
            "vec": H.pack_u64_rows(m.view(np.uint64)),
        })

    sigs = ds.map_batches(sig, batch_format="pyarrow").materialize()
    e = lookup_join(pairs,
                    sigs.rename_columns(
                        {"vec_id": "src", "sh": "sh_a", "vec": "v_a"}),
                    on=["src"], cfg=cfg)
    e = lookup_join(e,
                    sigs.rename_columns(
                        {"vec_id": "dst", "sh": "sh_b", "vec": "v_b"}),
                    on=["dst"], cfg=cfg)
    d = _dim_of(ds)

    def verdict(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "sh_within_bound": pa.array([], pa.bool_())})
        va = H.unpack_u64_rows(t["v_a"], d).view(np.float64)
        vb = H.unpack_u64_rows(t["v_b"], d).view(np.float64)
        cos = np.clip((va * vb).sum(axis=1), -1.0, 1.0)
        p = 1.0 - np.arccos(cos) / np.pi  # expected bit agreement
        ham = H.hamming_distance_u64(
            H.bitcast_i64_to_u64(t["sh_a"].to_numpy()),
            H.bitcast_i64_to_u64(t["sh_b"].to_numpy()))
        est = 1.0 - ham.astype(np.float64) / bits
        sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / bits)
        ok = np.abs(est - p) <= 4.5 * sigma + 1.0 / bits
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "sh_within_bound": pa.array(ok, pa.bool_())})

    return e.map_batches(verdict, batch_format="pyarrow")


def _dim_of(ds: "ray.data.Dataset") -> int:
    t = ds.limit(1).take_batch(batch_format="pyarrow")
    return len(t["embedding"][0])


def simhash_angular_check_sql(cos_min: float = 0.45) -> str:
    return (f"SELECT src, dst, TRUE AS sh_within_bound "
            f"FROM ({embedding_dup_pairs_sql(cos_min)})")


# ------------------------------------------------------------- IVF-PQ

def ivfpq_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    n_centroids: int = 64,
    nprobe: int = 16,
    m_subs: int = 8,
    n_cents: int = 256,
    table: str = "embeddings",
    id_col: str = "vec_id",
    with_recall: bool = True,
) -> "pa.Table":
    """IVF-PQ approximate top-k — the canonical web-scale ANN layout
    (Jégou et al. 2011's IVFADC): the IVF coarse quantizer bounds WHICH
    rows are scanned (nprobe/n_centroids of the corpus) and PQ bounds
    WHAT is scanned (8 residual bytes per vector instead of 256 float
    bytes at d=64). sim(q, x) decomposes as q·c(x) + q·r(x): the first
    term is one centroid-table gather, the second an asymmetric-distance
    LUT sum over the RESIDUAL codebooks (trained on sample residuals, so
    codes spend their 8 bits on within-cell variation, not on what the
    coarse quantizer already encodes).

    Two stages, like ``pq_topk``: ENCODE drops the embedding column —
    only (id, cell, codes) cross to the scan; SCAN reconstructs nothing.
    All models train on the bounded deterministic sample and broadcast
    once via ``ray.put``."""
    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=[id_col, "embedding"])

    st = _bounded_head(ds, id_col, 4096)
    sample = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]]))
    cents = _kmeans_cosine(sample, n_centroids)
    s_cell = (sample @ cents.T).argmax(axis=1)
    books = pq_train(sample - cents[s_cell], m_subs, n_cents)
    ds_ = books.shape[2]

    qt = st.head(n_queries)
    q_ids = qt[id_col].to_numpy().astype(np.int64)
    qm = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in qt["embedding"]]))
    npb = min(nprobe, len(cents))
    probed = np.sort(np.unique(np.argsort(-(qm @ cents.T),
                                          axis=1)[:, :npb]))
    # per-subspace residual LUTs: lut[j][qi, code] = q_sub . book_j[code]
    luts = np.stack([qm[:, j * ds_:(j + 1) * ds_] @ books[j].T
                     for j in range(m_subs)])
    qc = qm @ cents.T  # (nq, n_centroids): the q.c(x) term per cell
    eref = ray.put((cents, books))
    sref = ray.put((q_ids, luts, qc, probed))

    def encode(t: pa.Table) -> pa.Table:
        cents_, books_ = ray.get(eref)
        m = _normalize(_emb_matrix(t).astype(np.float64))
        cell = (m @ cents_.T).argmax(axis=1)
        res = m - cents_[cell]
        codes = np.empty((t.num_rows, m_subs), dtype=np.uint8)
        for j in range(m_subs):
            sub = res[:, j * ds_:(j + 1) * ds_]
            d2 = (-2.0 * (sub @ books_[j].T)
                  + (books_[j] ** 2).sum(axis=1)[None, :])
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        offsets = pa.array(
            np.arange(t.num_rows + 1, dtype=np.int32) * m_subs)
        blob = pa.BinaryArray.from_buffers(
            pa.binary(), t.num_rows,
            [None, offsets.buffers()[1],
             pa.py_buffer(np.ascontiguousarray(codes).tobytes())])
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "cell": pa.array(cell.astype(np.int64)),
            "codes": blob,
        })

    class Scan:
        def __init__(self):
            self.state = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.state is None:
                self.state = ray.get(sref)
            qids_, luts_, qc_, probed_ = self.state
            cell = t["cell"].to_numpy()
            hit = np.isin(cell, probed_)
            empty = pa.table({"q_id": pa.array([], pa.int64()),
                              "n_id": pa.array([], pa.int64()),
                              "sim": pa.array([], pa.float64())})
            if not hit.any():
                return empty
            ids = t[id_col].to_numpy()[hit].astype(np.int64)
            cell = cell[hit]
            buf, offs = H._arrow_flat_buffer(t["codes"].combine_chunks())
            codes = np.frombuffer(
                buf[offs[0]:offs[0] + t.num_rows * m_subs],
                dtype=np.uint8).reshape(t.num_rows, m_subs)[hit]
            sims = qc_[:, cell].copy()               # (nq, n_hit)
            for j in range(m_subs):
                sims += luts_[j][:, codes[:, j]]
            kk = min(k + 1, len(ids))
            out_q, out_n, out_s = [], [], []
            for qi in range(len(qids_)):
                s = sims[qi]
                part = (np.argpartition(-s, kk - 1)[:kk]
                        if kk < len(s) else np.arange(len(s)))
                out_q.append(np.full(len(part), qids_[qi], dtype=np.int64))
                out_n.append(ids[part])
                out_s.append(s[part])
            return pa.table({
                "q_id": np.concatenate(out_q),
                "n_id": np.concatenate(out_n),
                "sim": np.concatenate(out_s).astype(np.float64),
            })

    codes = ds.map_batches(encode, batch_format="pyarrow", batch_size=4096)
    partials = codes.map_batches(Scan(), batch_format="pyarrow",
                                 batch_size=4096)
    out = _distributed_topk(partials, k)
    if not with_recall:
        return out
    mine = out.to_pandas()
    brute = brute_force_topk(sf_dir, n_queries, k, table, id_col).to_pandas()
    bset = set(zip(brute["q_id"], brute["n_id"]))
    hits = len(set(zip(mine["q_id"], mine["n_id"])) & bset)
    mine["recall_vs_brute"] = round(hits / max(len(bset), 1), 4)
    return pa.Table.from_pandas(mine.reset_index(drop=True),
                                preserve_index=False)


# --------------------------------------------------- dup-graph PageRank

def dup_graph_pagerank(sf_dir: str, iters: int = 8, cos_min: float = 0.45,
                       table: str = "embeddings", id_col: str = "vec_id",
                       total_mass: int = 10 ** 12) -> "ray.data.Dataset":
    """PageRank centrality over the semantic near-duplicate graph — ranks
    the "template hubs" of a dup cluster (pages many near-copies point at
    through similarity edges), the signal behind boilerplate-hub discovery
    and representative election by centrality instead of min-id.

    FIXED-POINT integer PageRank (Page et al. 1999; damping 85/100,
    uniform teleport): ranks live in integer mass units (initial mass
    ``total_mass // n`` per node), each edge carries
    ``(85 * rank_u) // (100 * deg_u)``, floors included — every quantity is
    an int64, so per-iteration sums are associative and the result is
    bit-identical at ANY partitioning (the repo's no-floats-cross-engines
    discipline applied to an iterative numeric algorithm). Mass lost to
    floors/isolated nodes is not renormalized — documented semantics, not
    drift.

    Scale shape per iteration: attach ranks to the static (u, v, deg) edge
    table (size-dispatched ``lookup_join`` — broadcast at test scale, the
    hash-co-partitioned join at 10^12 edges), one vectorized contribution
    map, one groupby(dst)-sum bounded by |nodes|, one left-join back onto
    the node set. No driver materialization of ranks.

    Rows-only query (iterative; not ANSI-SQL-expressible): exact serial
    parity and partition invariance are asserted in
    tests/test_ann.py::test_dup_graph_pagerank_serial_parity."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    pairs = embedding_dup_pairs(sf_dir, cos_min=cos_min, table=table,
                                id_col=id_col)

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["src"].cast(pa.int64()).to_numpy()
        b = t["dst"].cast(pa.int64()).to_numpy()
        return pa.table({"u": pa.array(np.concatenate([a, b])),
                         "v": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()
    degrees = edges.groupby("u").count()

    def deg_col(t: pa.Table) -> pa.Table:
        return pa.table({"u": t["u"], "deg": t["count()"].cast(pa.int64())})

    edges_deg = lookup_join(
        edges, degrees.map_batches(deg_col, batch_format="pyarrow"),
        on=["u"], cfg=cfg).materialize()

    nodes = storage.read_table(f"{sf_dir}/{table}.parquet", columns=[id_col]) \
        .map_batches(lambda t: pa.table({"v": t[id_col].cast(pa.int64())}),
                     batch_format="pyarrow").materialize()
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda t: pa.table({id_col: t["v"],
                                "rank_mass": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    r0 = total_mass // n
    base = (15 * r0) // 100

    ranks = nodes.map_batches(
        lambda t: pa.table({"u": t["v"],
                            "rank_mass": pa.array(
                                np.full(t.num_rows, r0, np.int64))}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        with_rank = lookup_join(edges_deg, ranks, on=["u"], cfg=cfg)

        def contrib(t: pa.Table) -> pa.Table:
            r = t["rank_mass"].to_numpy()
            d = t["deg"].to_numpy()
            return pa.table({"v": t["v"],
                             "c": pa.array((85 * r) // (100 * d))})

        inc = with_rank.map_batches(contrib, batch_format="pyarrow") \
            .groupby("v").aggregate(Sum("c", alias_name="c"))
        joined = lookup_join(nodes, inc, on=["v"], cfg=cfg, how="left")

        def apply(t: pa.Table) -> pa.Table:
            c = pc.fill_null(t["c"], 0).cast(pa.int64())
            return pa.table({"u": t["v"],
                             "rank_mass": pc.add(c, pa.scalar(base,
                                                              pa.int64()))})

        ranks = joined.map_batches(apply, batch_format="pyarrow").materialize()

    return ranks.map_batches(
        lambda t: pa.table({id_col: t["u"], "rank_mass": t["rank_mass"]}),
        batch_format="pyarrow")


# ------------------------------------------- label-aware embedding audits

def _quantize_milli(m: np.ndarray) -> np.ndarray:
    """floor(x*1000 + 0.5) over float64 — the cross-engine-deterministic
    milli quantizer (DuckDB's ``round()`` is half-away-from-zero while
    numpy's is half-to-even, so both sides use the identical floor(+0.5)
    expression; every intermediate is an IEEE double op with one rounding).
    Values stay integral and |q| <= ~1e4, so all downstream integer sums
    and 64-dim dot products are EXACT in float64 (< 2^53)."""
    return np.floor(m.astype(np.float64) * 1000.0 + 0.5)


def q_embedding_label_centroids(sf_dir: str, table: str = "embeddings"):
    """Per-label centroid report in EXACT integer milli units: for every
    (label, dim), the member count and the sum of the milli-quantized
    coordinate — the class-prototype table behind label-purity audits,
    SemDeDup cell seeding and nearest-class-mean classification, emitted
    as exact integers so the DuckDB oracle value-hash-compares with no
    float summation order crossing engines (divide for the mean downstream).

    Scale plan: one stateless map_batches pass computes per-batch
    (label, dim) partial sums (np.add.at over the batch's label index —
    no shuffle of vectors), then a |labels| x dim bounded groupby-sum
    merges partials. The wide shuffle moves |labels| x dim x #blocks
    32-byte rows, independent of corpus size."""
    from ray.data.aggregate import Sum

    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        q = _quantize_milli(_emb_matrix(t))          # (n, dim) integral f64
        labels = t["label"].to_numpy().astype(np.int64)
        uniq, inv, cnt = np.unique(labels, return_inverse=True,
                                   return_counts=True)
        sums = np.zeros((len(uniq), q.shape[1]), np.float64)
        np.add.at(sums, inv, q)
        n_lab, dim = len(uniq), q.shape[1]
        return pa.table({
            "label": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), n_lab),
            "n_vecs": np.repeat(cnt.astype(np.int64), dim),
            "sum_milli": sums.reshape(-1).astype(np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["label", "dim"])
            .aggregate(Sum("n_vecs", alias_name="n_vecs"),
                       Sum("sum_milli", alias_name="sum_milli")))


def embedding_label_centroids_sql(dim: int = 64) -> str:
    return f"""
SELECT CAST(label AS BIGINT) AS label, CAST(t.dim AS BIGINT) AS dim,
       COUNT(*) AS n_vecs,
       CAST(SUM(CAST(FLOOR(CAST(embedding[CAST(t.dim AS INT) + 1] AS DOUBLE)
                           * 1000 + 0.5)
                     AS BIGINT)) AS BIGINT) AS sum_milli
FROM embeddings, range(0, {dim}) t(dim)
GROUP BY label, t.dim
"""


def q_knn_label_check(sf_dir: str, table: str = "embeddings",
                      exact_limit: int | None = None,
                      n_cells: int = 16, nprobe: int = 2):
    """1-NN label-consistency audit (the Confident-Learning-style "are the
    labels where their neighbors are?" report): every vector finds its
    nearest OTHER vector by maximum inner product over the milli-quantized
    embeddings (exact integer dots — deterministic across engines and
    partitionings; ties broken toward the smaller vec_id), and the report
    counts per label how many members' nearest neighbor carries the same
    label. Output (label, n_vecs, nn_match).

    Size-dispatched like every lookup in this engine: corpora up to
    ``exact_limit`` vectors broadcast the quantized matrix once (ray.put)
    and each batch does one exact f64 matmul against it — oracle-identical
    to the DuckDB all-pairs join. Above the limit, the IVF path: every
    vector is indexed (BASE) in its top-1 spherical-k-means cell and
    probes (QUERY) its top-``nprobe`` cells; per cell each query's best
    base neighbor is computed exactly, and a per-vector hash-grouped
    reduce keeps the globally best probed candidate (exact integer sims,
    ties to the smaller neighbor id — the same order as the exact tier).
    One keyed exchange on cell + one bounded per-vector reduce; candidate
    volume is nprobe x cell size per vector, linear in corpus size.

    ORACLE-PARITY SCOPE: the registered ``knn_label_check_sql()`` is the
    exact all-pairs join, so value-hash parity is guaranteed only on the
    exact tier (corpus <= ``exact_limit``, default 200k — every sweep/test
    corpus in this repo). Above the limit the IVF path is approximate
    (recall < 1 when a true neighbor lives outside the probed cells); do
    NOT hash-compare it against the SQL there — use the recall gates in
    ``tests/test_ann.py`` instead.

    ENFORCED: the default call (``exact_limit=None``) is the oracle-backed
    registry entry, so it RAISES rather than silently switching to the
    approximate IVF tier when the corpus outgrows ``EXACT_PAIRS_LIMIT`` —
    a future sf bump turns the CORRECTNESS row into a loud error, never a
    nondeterministic hash mismatch. Pass ``exact_limit`` explicitly (e.g.
    0) to opt into the size-dispatched production behavior."""
    from ray.data.aggregate import Sum

    oracle_enforced = exact_limit is None
    if exact_limit is None:
        exact_limit = EXACT_PAIRS_LIMIT
    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=["vec_id", "label", "embedding"])
    n_corpus = ds.count()
    if oracle_enforced and n_corpus > exact_limit:
        raise RuntimeError(
            f"knn_label_check: corpus exceeds exact_limit={exact_limit}; "
            "the registered oracle SQL is the exact all-pairs join and the "
            "IVF tier is approximate — pass exact_limit explicitly to opt "
            "into size dispatch (and drop the oracle hash comparison)")

    def partial_counts(labels: np.ndarray, nlabels: np.ndarray) -> pa.Table:
        uniq, inv, cnt = np.unique(labels, return_inverse=True,
                                   return_counts=True)
        match = np.bincount(inv, weights=(nlabels == labels),
                            minlength=len(uniq))
        return pa.table({"label": uniq.astype(np.int64),
                         "n_vecs": cnt.astype(np.int64),
                         "nn_match": match.astype(np.int64)})

    if n_corpus <= exact_limit:
        tbls = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        t_all = pa.concat_tables(tbls, promote_options="default")
        order = np.argsort(t_all["vec_id"].to_numpy(), kind="stable")
        ids_all = t_all["vec_id"].to_numpy().astype(np.int64)[order]
        labels_all = t_all["label"].to_numpy().astype(np.int64)[order]
        Q = _quantize_milli(_emb_matrix(t_all))[order]
        ref = ray.put((ids_all, labels_all, Q))

        class NN:
            def __init__(self):
                self.ids = None

            def __call__(self, b: pa.Table) -> pa.Table:
                if self.ids is None:
                    self.ids, self.labels, self.Q = ray.get(ref)
                ids_b = b["vec_id"].to_numpy().astype(np.int64)
                lab_b = b["label"].to_numpy().astype(np.int64)
                sims = _quantize_milli(_emb_matrix(b)) @ self.Q.T
                # exclude self; argmax over id-ascending columns == the
                # smallest-id neighbor on ties (np.argmax picks first max)
                sims[ids_b[:, None] == self.ids[None, :]] = -np.inf
                nn = sims.argmax(axis=1)
                return partial_counts(lab_b, self.labels[nn])

        partials = ds.map_batches(NN(), batch_format="pyarrow",
                                  batch_size=2048)
        return (partials.groupby("label")
                .aggregate(Sum("n_vecs", alias_name="n_vecs"),
                           Sum("nn_match", alias_name="nn_match")))

    # ---- IVF scale path -------------------------------------------------
    import pyarrow.compute as pc

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    st = _bounded_head(ds, "vec_id", 4096)
    cents = _kmeans_cosine(_normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in st["embedding"]])),
        n_cells)
    cref = ray.put(cents)
    p = min(max(nprobe, 1), cents.shape[0])

    def assign(t: pa.Table) -> pa.Table:
        m = _emb_matrix(t)
        csims = _normalize(m.astype(np.float64)) @ ray.get(cref).T
        top = np.argsort(-csims, kind="stable", axis=1)[:, :p]  # col 0 = base
        q = _quantize_milli(m)
        n = t.num_rows
        rep = np.repeat(np.arange(n), p)
        return pa.table({
            "vec_id": t["vec_id"].cast(pa.int64()).to_numpy()[rep],
            "label": t["label"].cast(pa.int64()).to_numpy()[rep],
            "cell": pa.array(top.reshape(-1).astype(np.int64)),
            "is_base": pa.array(np.tile(np.arange(p) == 0, n)),
            "qvec": H.pack_u64_rows(q.view(np.uint64)).take(
                pa.array(rep)),
        })

    def cell_nn(g: "pd.DataFrame") -> "pd.DataFrame":
        ids = g["vec_id"].to_numpy()
        labs = g["label"].to_numpy()
        Q = np.stack([np.frombuffer(v, np.uint64).view(np.float64)
                      for v in g["qvec"].to_numpy()])
        bm = g["is_base"].to_numpy()
        bo = np.argsort(ids[bm], kind="stable")  # id-asc base columns
        bids, blabs, BQ = ids[bm][bo], labs[bm][bo], Q[bm][bo]
        if len(bids) == 0:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "label": pd.Series([], dtype="int64"),
                                 "nid": pd.Series([], dtype="int64"),
                                 "nlabel": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="int64")})
        sims = Q @ BQ.T
        sims[ids[:, None] == bids[None, :]] = -np.inf
        j = sims.argmax(axis=1)
        best = sims[np.arange(len(ids)), j]
        keep = best > -np.inf
        return pd.DataFrame({
            "vec_id": ids[keep], "label": labs[keep],
            "nid": bids[j][keep], "nlabel": blabs[j][keep],
            "sim": best[keep].astype(np.int64),
        })

    def best_per_vec(t: pa.Table) -> pa.Table:
        vec = t["vec_id"].to_numpy()
        sim = t["sim"].to_numpy()
        nid = t["nid"].to_numpy()
        order = np.lexsort((nid, -sim, vec))  # per vec: sim desc, nid asc
        v_s = vec[order]
        first = np.concatenate([[True], v_s[1:] != v_s[:-1]]) \
            if len(v_s) else np.zeros(0, bool)
        return t.take(pa.array(order[first]))

    cand = hash_grouped_reduce(ds.map_batches(assign, batch_format="pyarrow"),
                               _cell_id, _per_cell(cell_nn), n_cells,
                               batch_format="pandas")
    best = hash_grouped_reduce(cand, ["vec_id"], best_per_vec,
                               cfg.num_partitions)

    def match_partial(t: pa.Table) -> pa.Table:
        labs = t["label"].to_numpy()
        nl = t["nlabel"].to_numpy()
        uniq, inv = np.unique(labs, return_inverse=True)
        match = np.bincount(inv, weights=(nl == labs), minlength=len(uniq))
        return pa.table({"label": uniq.astype(np.int64),
                         "nn_match": match.astype(np.int64)})

    matches = (best.map_batches(match_partial, batch_format="pyarrow")
               .groupby("label").aggregate(Sum("nn_match",
                                               alias_name="nn_match")))

    def total_partial(t: pa.Table) -> pa.Table:
        labs = t["label"].to_numpy().astype(np.int64)
        uniq, cnt = np.unique(labs, return_counts=True)
        return pa.table({"label": uniq, "n_vecs": cnt.astype(np.int64)})

    totals = (ds.select_columns(["label"])
              .map_batches(total_partial, batch_format="pyarrow")
              .groupby("label").aggregate(Sum("n_vecs",
                                              alias_name="n_vecs")))
    joined = lookup_join(totals, matches, on=["label"], cfg=cfg, how="left")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "label": t["label"],
            "n_vecs": t["n_vecs"],
            "nn_match": pc.fill_null(t["nn_match"], 0).cast(pa.int64()),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


def knn_label_check_sql() -> str:
    return """
WITH q AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         list_transform(embedding,
                        x -> FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5)) AS qe
  FROM embeddings
), nn AS (
  SELECT a.vec_id, a.label,
         ROW_NUMBER() OVER (
           PARTITION BY a.vec_id
           ORDER BY list_inner_product(a.qe, b.qe) DESC, b.vec_id ASC
         ) AS rn,
         b.label AS nlabel
  FROM q a JOIN q b ON a.vec_id <> b.vec_id
)
SELECT label, COUNT(*) AS n_vecs,
       CAST(SUM(CASE WHEN nlabel = label THEN 1 ELSE 0 END) AS BIGINT)
           AS nn_match
FROM nn WHERE rn = 1 GROUP BY label
"""


def q_embedding_drift_check(sf_dir: str, table: str = "embeddings"):
    """Embedding-SPACE drift monitor — the representation-level complement
    of ``docops.q_source_drift_tvd`` (which watches the categorical source
    mix): per dimension, exact-integer member counts and milli-quantized
    coordinate sums for two corpus snapshots, from which a consumer reads
    the per-dim mean shift (did the new crawl's embedding distribution
    move?). Snapshots are derived deterministically from the single
    testdata table (vec_id parity), the same derived-snapshot pattern the
    TVD monitor uses.

    Scale plan: one stateless pass computes per-batch per-dim partial sums
    for both sides (vectors never shuffle); the merge exchanges
    dim x #blocks x 40 B rows."""
    from ray.data.aggregate import Sum

    ds = storage.read_table(f"{sf_dir}/{table}.parquet",
                            columns=["vec_id", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        q = _quantize_milli(_emb_matrix(t))
        a = (t["vec_id"].to_numpy() % 2) == 0
        dim = q.shape[1]
        return pa.table({
            "dim": np.arange(dim, dtype=np.int64),
            "n_a": np.full(dim, int(a.sum()), np.int64),
            "n_b": np.full(dim, int((~a).sum()), np.int64),
            "sum_milli_a": q[a].sum(axis=0).astype(np.int64)
            if a.any() else np.zeros(dim, np.int64),
            "sum_milli_b": q[~a].sum(axis=0).astype(np.int64)
            if (~a).any() else np.zeros(dim, np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("dim")
            .aggregate(Sum("n_a", alias_name="n_a"),
                       Sum("n_b", alias_name="n_b"),
                       Sum("sum_milli_a", alias_name="sum_milli_a"),
                       Sum("sum_milli_b", alias_name="sum_milli_b")))


def embedding_drift_check_sql(dim: int = 64) -> str:
    q = ("CAST(FLOOR(CAST(embedding[CAST(t.dim AS INT) + 1] AS DOUBLE)"
         " * 1000 + 0.5) AS BIGINT)")
    return f"""
SELECT CAST(t.dim AS BIGINT) AS dim,
       CAST(COUNT(*) FILTER (WHERE vec_id % 2 = 0) AS BIGINT) AS n_a,
       CAST(COUNT(*) FILTER (WHERE vec_id % 2 <> 0) AS BIGINT) AS n_b,
       CAST(COALESCE(SUM(CASE WHEN vec_id % 2 = 0 THEN {q} END), 0)
            AS BIGINT) AS sum_milli_a,
       CAST(COALESCE(SUM(CASE WHEN vec_id % 2 <> 0 THEN {q} END), 0)
            AS BIGINT) AS sum_milli_b
FROM embeddings, range(0, {dim}) t(dim)
GROUP BY t.dim
"""
