"""Exact shared-substring detection: L-gram rendezvous + optional
per-partition suffix array (T11).

Catches pairs whose normalized captions share a verbatim substring of at
least ``cfg.substring_min_len`` chars (the FIXTURES 'caption A embedded in
caption B' population) — pairs MinHash can miss because a short shared
substring of a long caption yields low Jaccard.

Two passes:

1. **L-gram rendezvous** (``GramFingerprints``, complete on its own): every
   distinct L-gram rolling hash of a caption is a bucket key (band
   namespace 4000). Sharing a substring of >= L chars is equivalent to
   sharing an L-gram, so bucket co-membership proves the link within AND
   across partitions. The keys feed the SAME bucket->edge machinery as LSH
   bands, so hot-substring skew is salted identically, and the edges are
   trusted 'substr' with no verification join.

2. **Per-partition suffix array** (``SuffixArrayEdges``; opt-in via
   ``cfg.use_suffix_array`` — redundant given pass 1's guarantee):
   concatenate the partition's normalized captions with NUL separators,
   build the suffix array by prefix doubling (numpy lexsort, O(n log^2 n),
   no Python char loops), mark adjacent suffixes whose LCP >= Lmin
   (vectorized Lmin-step comparison that treats NUL as never-equal so
   matches cannot span documents), and link the distinct documents of each
   >=Lmin-prefix run. Exact within the partition, blind across partitions.

A u64 fingerprint equality stands in for substring equality (collision odds
~n^2/2^64; at true 10^12 scale swap to 128-bit fingerprints). The reference
analog is block-identity via memcmp (``/root/reference/src/dictionary.c:53``)
— here the 'block' is a variable-position caption window.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.stages import lsh
from deduplication_ray.stages.signatures import normalize_captions


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of a uint8 sequence by prefix doubling.

    Initial ranks come from the first EIGHT bytes of each suffix packed into
    one u64 (the buffer always ends with a NUL separator, so zero-padding
    past the end orders end-of-buffer suffixes correctly), skipping the
    k=1/2/4 doubling rounds; each remaining round sorts ONE composite int64
    key ``rank*(n+1) + rank[i+k]+1`` instead of a two-key lexsort (~2x per
    round). O(n log n) numpy, no Python char loops."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    assert n < (1 << 31), "per-batch suffix buffer limited to 2^31 bytes"
    pad = np.zeros(n + 8, dtype=np.uint8)
    pad[:n] = s
    key0 = np.zeros(n, dtype=np.uint64)
    for j in range(8):
        key0 = (key0 << np.uint64(8)) | pad[j:j + n].astype(np.uint64)
    order = np.argsort(key0)
    ko = key0[order]
    newgrp = np.empty(n, dtype=bool)
    newgrp[0] = True
    newgrp[1:] = ko[1:] != ko[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(newgrp) - 1
    if rank[order[-1]] == n - 1:
        return order
    k = 8
    stride = np.int64(n + 1)
    while True:
        comb = rank * stride
        if k < n:
            comb[:-k] += rank[k:] + 1
        order = np.argsort(comb)
        co = comb[order]
        newgrp[0] = True
        newgrp[1:] = co[1:] != co[:-1]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(newgrp) - 1
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


def _lcp_at_least(buf: np.ndarray, a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """For suffix starts a[i], b[i]: does LCP(buf[a:], buf[b:]) >= L, with the
    NUL separator treated as never matching (no cross-document spans)?
    Vectorized: L passes over the (shrinking) candidate set."""
    n = len(buf)
    ok = np.ones(len(a), dtype=bool)
    idx = np.arange(len(a))
    for d in range(L):
        ai, bi = a[idx] + d, b[idx] + d
        valid = (ai < n) & (bi < n)
        eq = np.zeros(len(idx), dtype=bool)
        vv = np.nonzero(valid)[0]
        if len(vv):
            ca, cb = buf[ai[vv]], buf[bi[vv]]
            eq[vv] = (ca == cb) & (ca != 0)
        ok[idx[~eq]] = False
        idx = idx[eq]
        if not len(idx):
            break
    return ok


class SuffixArrayEdges:
    """map_batches stage: one partition's captions -> substr edges.

    Batch size should be large (whole-block) — the pass is exact *within* the
    batch; cross-batch pairs are covered by the L-gram rendezvous.
    """

    def __init__(self, cfg: DedupConfig, id_col: str = "image_id", text_col: str = "caption"):
        self.cfg = cfg
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        L = self.cfg.substring_min_len
        cap = normalize_captions(batch[self.text_col])
        ids = batch[self.id_col].cast(pa.string()).to_pandas().to_numpy()
        bufs, offs = H._arrow_flat_buffer(cap)
        bufs = bufs[offs[0]: offs[-1]]
        offs = offs - offs[0]
        n_docs = len(offs) - 1
        # interleave NUL separators: doc i occupies [offs[i]+i, offs[i+1]+i)
        total = int(offs[-1]) + n_docs
        buf = np.zeros(total, dtype=np.uint8)
        pos = np.arange(int(offs[-1]), dtype=np.int64)
        doc_of_byte = np.searchsorted(offs, pos, side="right") - 1
        buf[pos + doc_of_byte] = bufs
        doc_starts = offs + np.arange(n_docs + 1)

        sa = suffix_array(buf)
        if len(sa) < 2:
            return _empty_edges()
        ok = _lcp_at_least(buf, sa[:-1], sa[1:], L)
        if not ok.any():
            return _empty_edges()

        # runs of adjacent suffixes sharing an >=L prefix
        run_id = np.concatenate([[0], np.cumsum(~ok)])  # len == len(sa)
        keep = np.zeros(len(sa), dtype=bool)
        keep[:-1] |= ok
        keep[1:] |= ok
        sa_k, run_k = sa[keep], run_id[keep]
        doc_k = np.searchsorted(doc_starts, sa_k, side="right") - 1
        # star edges per run over distinct docs, src = lexicographically
        # smallest doc_id — all vectorized on integer doc indices (a pandas
        # string-groupby here was 2/3 of the whole stage's CPU)
        stride = np.int64(n_docs + 1)
        uk = np.unique(run_k.astype(np.int64) * stride + doc_k)
        run_u, doc_u = uk // stride, uk % stride
        str_rank = np.empty(n_docs, dtype=np.int64)
        str_rank[np.argsort(ids)] = np.arange(n_docs)
        order2 = np.lexsort((str_rank[doc_u], run_u))
        ru, du = run_u[order2], doc_u[order2]
        new = np.concatenate([[True], ru[1:] != ru[:-1]])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(ru)))
        run_slot = np.cumsum(new) - 1
        src_doc = du[starts][run_slot]          # min-id doc of each row's run
        keep2 = (counts >= 2)[run_slot] & (du != src_doc)
        if not keep2.any():
            return _empty_edges()
        upk = np.unique(src_doc[keep2].astype(np.int64) * stride + du[keep2])
        return pa.table(
            {
                "src": pa.array(ids[upk // stride], pa.string()),
                "dst": pa.array(ids[upk % stride], pa.string()),
                "kind": pa.array(["substr"] * len(upk), pa.string()),
            }
        )


def _empty_edges() -> pa.Table:
    return pa.table(
        {"src": pa.array([], pa.string()), "dst": pa.array([], pa.string()),
         "kind": pa.array([], pa.string())}
    )


def suffix_array_edges(
    input_ds: ray.data.Dataset,
    cfg: DedupConfig,
    id_col: str = "image_id",
    text_col: str = "caption",
) -> ray.data.Dataset:
    """Per-partition suffix-array pass -> (src, dst, kind='substr') edges.

    Repartitioned to one ``sa_batch_size`` block per task: map_batches
    parallelism is per-BLOCK, and parquet reads of a small caption column
    can arrive in a handful of blocks, serializing the most expensive
    kernel in the edges stage (measured: effective parallelism ~4 of 32
    at 60k rows before; every CPU busy after). The moved bytes are only
    (id, caption) — the payload column never enters this exchange."""
    lean = input_ds.select_columns([id_col, text_col]) \
        .repartition(target_num_rows_per_block=cfg.sa_batch_size)
    return lean.map_batches(
        SuffixArrayEdges(cfg, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.sa_batch_size,
    )


class GramFingerprints:
    """Every distinct L-gram rolling hash of each normalized caption as a
    bucket key (band 4000, ``BAND_SUBSTR_EXACT``).

    Sharing a substring of >= L chars is EQUIVALENT to sharing an L-gram, so
    bucket co-membership PROVES the link: edges from these buckets are
    trusted 'substr' with no verification join, and hot-bucket star/
    ambassador links are true by construction (every member shares the
    bucket's gram — transitive). Unlike a sparser minimizer key set, no
    pair sharing exactly ~L chars can be salted apart from its direct edge.
    Cost: ~(len-L+1) keys/doc — linear in text size, and the keys are u64s
    feeding the same partial-agg stats shuffle. u64 collision odds are the
    engine's standard (~n_grams^2/2^64).
    """

    def __init__(self, cfg: DedupConfig, id_col: str = "image_id", text_col: str = "caption"):
        self.cfg = cfg
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        L = self.cfg.substring_min_len
        cap = normalize_captions(batch[self.text_col])
        ids = batch[self.id_col].cast(pa.string()).to_pandas().to_numpy()
        grams, offs = H.shingle_window_hashes(cap, L)
        counts = (offs[1:] - offs[:-1]).astype(np.int64)
        doc = np.repeat(np.arange(len(counts)), counts)
        # dedupe (doc, gram): in-doc repeats would emit self-pairs
        key = H.hash_u64_pair(grams, doc.astype(np.uint64))
        _, first = np.unique(key, return_index=True)
        fp, doc = grams[first], doc[first]
        return pa.table(
            {
                "band": pa.array(np.full(len(fp), lsh.BAND_SUBSTR_EXACT, np.int64)),
                "bucket": pa.array(H.bitcast_u64_to_i64(fp), pa.int64()),
                "image_id": pa.array(ids[doc], pa.string()),
                "ph": pa.array(np.zeros(len(fp), np.int64)),
                "sh": pa.array(np.zeros(len(fp), np.int64)),
            }
        )


def substring_buckets(
    input_ds: ray.data.Dataset,
    cfg: DedupConfig,
    id_col: str = "image_id",
    text_col: str = "caption",
) -> ray.data.Dataset:
    """Substring-rendezvous bucket rows (``GramFingerprints``) for the main
    LSH bucket stream — UNIONED in so stats/salting/edge emission run ONCE
    for every candidate family; the edges are trusted 'substr'."""
    lean = input_ds.select_columns([id_col, text_col])
    return lean.map_batches(
        GramFingerprints(cfg, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.text_batch_size,
    )

