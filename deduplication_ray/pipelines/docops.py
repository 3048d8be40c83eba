"""Document-table operators: text analysis + dedup detectors over the
``documents`` testdata table. SQL-mirrored where DuckDB can express the
semantics; rows-only otherwise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.functions import text as T
from deduplication_ray.sources import storage
from deduplication_ray.stages.groupred import hash_grouped_reduce


def _docs(sf_dir: str, columns: list[str]) -> ray.data.Dataset:
    return storage.read_table(f"{sf_dir}/documents.parquet", columns=columns)


# ---------------------------------------------------------------- stats (SQL-mirrored)

def q_doc_stats(sf_dir: str):
    """Per-doc integer text features, exactly mirroring the DuckDB SQL."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        f = T.quality_features(t["text"])
        return pa.table({"doc_id": t["doc_id"], **f})

    return ds.map_batches(stats, batch_format="pyarrow")


Q_DOC_STATS_SQL = r"""
SELECT doc_id,
       length(text) AS n_chars,
       length(string_split_regex(trim(text), '\s+')) AS n_tokens,
       length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS n_alpha,
       length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digit,
       length(regexp_replace(text, '[^ ]', '', 'g')) AS n_space
FROM documents
"""


# ---------------------------------------------------------------- char-set jaccard (SQL-mirrored)

def q_charset_jaccard_pairs(sf_dir: str, threshold: float = 0.95):
    """Same-source doc pairs with char-set Jaccard >= threshold, mirroring
    DuckDB's ``jaccard`` (distinct-character sets, case-sensitive).

    Ray plan: per-doc 256-bit char membership packed into a 32-byte blob ->
    hash-partitioned self-join on source -> vectorized popcount Jaccard.
    """
    ds = _docs(sf_dir, ["doc_id", "text", "source"])

    def sig(t: pa.Table) -> pa.Table:
        arr = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        buf, offs = H._arrow_flat_buffer(arr)
        buf = buf[offs[0]: offs[-1]]
        offs = offs - offs[0]
        n = t.num_rows
        memb = np.zeros((n, 256), dtype=bool)
        row = np.repeat(np.arange(n), offs[1:] - offs[:-1])
        memb[row, buf] = True
        limbs = np.packbits(memb, axis=1, bitorder="little").view(np.uint64)  # (n, 4)
        return pa.table({
            "doc_id": t["doc_id"],
            "source": t["source"],
            "cs": H.pack_u64_rows(limbs),
        })

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    sigs = ds.map_batches(sig, batch_format="pyarrow").materialize()
    right = sigs.rename_columns({"doc_id": "b_id", "cs": "cs_b"})
    j = lookup_join(sigs, right, on=["source"], cfg=cfg)

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"a_id": pa.array([], pa.int64()),
                             "b_id": pa.array([], pa.int64())})
        a = t["doc_id"].to_numpy()
        b = t["b_id"].to_numpy()
        la = H.unpack_u64_rows(t["cs"], 4)
        lb = H.unpack_u64_rows(t["cs_b"], 4)
        inter = H.popcount64(la & lb).sum(axis=1)
        union = H.popcount64(la | lb).sum(axis=1)
        jac = inter / np.maximum(union, 1)
        keep = (a < b) & (jac >= threshold)
        return pa.table({"a_id": pa.array(a[keep], pa.int64()),
                         "b_id": pa.array(b[keep], pa.int64())})

    return j.map_batches(pairs, batch_format="pyarrow")


Q_CHARSET_JACCARD_SQL = """
SELECT a.doc_id AS a_id, b.doc_id AS b_id
FROM documents a JOIN documents b
  ON a.source = b.source AND a.doc_id < b.doc_id
WHERE jaccard(a.text, b.text) >= 0.95
"""


# ---------------------------------------------------------------- rows-only detectors

def q_doc_langid(sf_dir: str):
    """Heuristic stopword language ID per doc, mirrored in SQL (same RE2
    word-boundary counts, same first-max-wins tie-break)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def lid(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "lang_pred": T.language_id(t["text"])})

    return ds.map_batches(lid, batch_format="pyarrow")


def doc_langid_sql() -> str:
    """DuckDB oracle generated from the SAME LANG_PROFILES dict: per-profile
    regexp match counts (RE2 on both sides), argmax with numpy's
    first-max-wins tie order reproduced as an ordered CASE chain."""
    langs = list(T.LANG_PROFILES.items())
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '\\b({'|'.join(ws)})\\b')) AS {lang}"
        for lang, ws in langs)
    names = [lang for lang, _ in langs]
    cases = []
    for i, lang in enumerate(names[:-1]):
        conds = " AND ".join(f"{lang} >= {o}" for o in names[i + 1:])
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_chain = "\n         ".join(cases)
    return f"""
WITH c AS (
  SELECT doc_id,
    {counts}
  FROM documents)
SELECT doc_id,
  CASE WHEN greatest({', '.join(names)}) = 0 THEN 'und'
         {case_chain}
       ELSE '{names[-1]}' END AS lang_pred
FROM c
"""


def q_doc_quality(sf_dir: str):
    """Composite quality score, milli-scaled to BIGINT so the DuckDB oracle
    hash-compares exactly (same IEEE double chain on both sides, floored at
    1e-3 granularity)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def q(t: pa.Table) -> pa.Table:
        score = T.quality_score(t["text"])
        return pa.table({
            "doc_id": t["doc_id"],
            "quality_milli": pa.array(
                np.floor(score * 1000.0).astype(np.int64)),
        })

    return ds.map_batches(q, batch_format="pyarrow")


Q_DOC_QUALITY_SQL = r"""
SELECT doc_id,
       CAST(floor((
         0.4 * (CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                / greatest(length(text), 1))
       + 0.3 * least(CAST(length(text) AS DOUBLE) / 200.0, 1.0)
       + 0.3 * exp(-0.5 * (((CAST(length(text) AS DOUBLE)
                             / greatest(length(string_split_regex(trim(text), '\s+')), 1)
                            ) - 5.5) / 3.0)
                         * (((CAST(length(text) AS DOUBLE)
                             / greatest(length(string_split_regex(trim(text), '\s+')), 1)
                            ) - 5.5) / 3.0))
       ) * 1000.0) AS BIGINT) AS quality_milli
FROM documents
"""


def q_doc_simhash_pairs(sf_dir: str, hamming_t: int = 8):
    """Text SimHash near-dup pairs via the shared bucket machinery."""
    from deduplication_ray.stages import lsh
    from deduplication_ray.stages import verify as V

    cfg = DedupConfig(num_partitions=8, simhash_hamming_t=hamming_t)
    ds = _docs(sf_dir, ["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        sh = T.simhash_text(t["text"])
        return pa.table({
            "image_id": t["doc_id"].cast(pa.string()),
            "simhash": pa.array(H.bitcast_u64_to_i64(sh), pa.int64()),
        })

    sigs = ds.map_batches(sig, batch_format="pyarrow").materialize()

    def accept(t: pa.Table, col) -> np.ndarray:
        return H.hamming_distance_u64(
            H.bitcast_i64_to_u64(col("simhash", "src", None).to_numpy()),
            H.bitcast_i64_to_u64(col("simhash", "dst", None).to_numpy()),
        ) <= hamming_t

    edges = V.pair_and_verify(
        sigs.map_batches(lsh.ExplodeBands(cfg, families=("simhash",)),
                         batch_format="pyarrow"),
        V.DeferredSignatureIndex(sigs, cfg), cfg, accept=accept)

    def ordered(t: pa.Table) -> pa.Table:
        # src < dst as strings: the resolve emits id-hash order
        lt = pc.less(t["src"], t["dst"])
        return pa.table({"src": pc.if_else(lt, t["src"], t["dst"]),
                         "dst": pc.if_else(lt, t["dst"], t["src"])})

    return edges.map_batches(ordered, batch_format="pyarrow")


def q_doc_fingerprints(sf_dir: str, k: int = 8, w: int = 4):
    """Winnowed fingerprint count per doc (rows-only). Fully vectorized:
    one global sliding-window min over the flat gram array + a composite
    (doc, minimizer) unique/bincount — no per-row Python loop (the
    row-looped functions.text.winnow_fingerprint stays for single-doc use).
    """
    from deduplication_ray.functions import hashing as H

    ds = _docs(sf_dir, ["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        arr = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        grams, offs = H.shingle_window_hashes(arr, k)
        counts = (offs[1:] - offs[:-1]).astype(np.int64)
        n_docs = len(counts)
        nfp = np.zeros(n_docs, dtype=np.int64)
        win_counts = np.maximum(counts - w + 1, 0)
        if len(grams) >= w:
            mins_all = np.lib.stride_tricks.sliding_window_view(grams, w).min(axis=1)
            long_docs = np.nonzero(win_counts > 0)[0]
            if len(long_docs):
                reps = win_counts[long_docs]
                src = np.repeat(offs[long_docs], reps) + H._ranges(reps)
                doc_of_win = np.repeat(long_docs, reps)
                key = H.hash_u64_pair(doc_of_win.astype(np.uint64), mins_all[src])
                _, uidx = np.unique(key, return_index=True)
                nfp += np.bincount(doc_of_win[uidx], minlength=n_docs)
        nfp[(counts > 0) & (counts < w)] = 1  # short docs: single minimizer
        return pa.table({
            "doc_id": t["doc_id"],
            "n_fingerprints": pa.array(nfp, pa.int64()),
        })

    return ds.map_batches(fp, batch_format="pyarrow")


def _flat_u64(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(flat uint64 grams, per-row counts) for a binary column whose rows
    are u64-packed blobs — zero-copy views over the Arrow buffers. Every
    blob is a multiple of 8 bytes by construction, so all value offsets
    are 8-aligned and the data buffer reinterprets as uint64 directly."""
    arr = col.combine_chunks()
    off_dt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dt)[
        arr.offset: arr.offset + len(arr) + 1]
    buf = arr.buffers()[2]
    u64 = np.frombuffer(buf, dtype=np.uint64, count=len(buf) // 8)
    return (u64[offs[0] // 8: offs[-1] // 8],
            ((offs[1:] - offs[:-1]) // 8).astype(np.int64))


def q_ngram_jaccard_pairs(sf_dir: str, tau: float = 0.6,
                          exact_limit: int = 1500, metric: str = "jaccard",
                          sample_p: float = 1 / 2):
    """EXACT char n-gram Jaccard near-dup pairs (not the MinHash estimate).

    ``metric='containment'`` switches the pair score to
    |A∩B| / min(|A|,|B|) — the asymmetric detector that catches a short
    document quoted/excerpted inside a longer one, which Jaccard misses
    when the size ratio is large (output column ``containment_milli``).

    Size-dispatched: corpora up to ``exact_limit`` docs verify ALL (i<j)
    pairs — oracle-identical to the DuckDB gram-set SQL at any tau; above
    it, candidates come from the shared MinHash-band machinery (sub-linear;
    for containment, unioned with the substring L-gram rendezvous and a
    consistent gram-sampling family at ``sample_p``, so a pair sharing m
    grams is missed w.p. (1-sample_p)^m — measured recall 1.0 vs the exact
    path on the test corpus) and only candidates are verified.
    Verification attaches each doc's sorted unique gram-hash set as a
    binary blob and intersects per pair with one whole-batch sort-merge.
    """
    from deduplication_ray.stages import lsh
    from deduplication_ray.stages import verify as V
    from deduplication_ray.stages.join import lookup_join
    from deduplication_ray.stages.signatures import normalize_captions

    cfg = DedupConfig(num_partitions=8)
    ds = _docs(sf_dir, ["doc_id", "text"])

    mh_a, mh_b = H.make_minhash_perms(cfg.num_perm, cfg.seed)

    def sig(t: pa.Table) -> pa.Table:
        cap = normalize_captions(t["text"])
        grams, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        mh = H.minhash_signatures(grams, offs, mh_a, mh_b)
        # per-row sorted unique gram sets as variable-length binary blobs —
        # one vectorized lexsort over the whole batch (no per-doc loop)
        n_docs = len(offs) - 1
        counts = offs[1:] - offs[:-1]
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        order = np.lexsort((grams, doc_idx))
        gs, ds_ = grams[order], doc_idx[order]
        keep = np.concatenate([[True], (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])]) \
            if len(gs) else np.zeros(0, bool)
        gu, du = gs[keep], ds_[keep]
        per_doc = np.bincount(du, minlength=n_docs)
        boffs = np.concatenate([[0], np.cumsum(per_doc * 8)]).astype(np.int32)
        blob = pa.BinaryArray.from_buffers(
            pa.binary(), n_docs,
            [None, pa.array(boffs).buffers()[1], pa.py_buffer(gu.tobytes())])
        return pa.table({
            "image_id": t["doc_id"].cast(pa.string()),
            "minhash": H.pack_u64_rows(mh),
            "grams": blob,
        })

    sigs = ds.map_batches(sig, batch_format="pyarrow",
                          batch_size=cfg.text_batch_size).materialize()
    if sigs.count() <= exact_limit:
        # exact path: ALL (i<j) pairs, fanned out over the cluster; the
        # per-pair blob intersection below is identical either way
        ids = pa.concat_tables(
            list(sigs.select_columns(["image_id"])
                 .iter_batches(batch_format="pyarrow", batch_size=None)),
            promote_options="default")["image_id"].to_pandas().to_numpy()
        si, di = np.triu_indices(len(ids), k=1)
        edges = ray.data.from_arrow(pa.table(
            {"src": pa.array(ids[si], pa.string()),
             "dst": pa.array(ids[di], pa.string())})).repartition(
                 cfg.num_partitions * 4)
    else:
        buckets = sigs.map_batches(lsh.ExplodeBands(cfg), batch_format="pyarrow")
        if metric == "containment":
            # MinHash bands are Jaccard-tuned: a short doc fully contained
            # in a long one has containment ~1 but Jaccard ~|A|/|B|, so band
            # collision probability collapses and exactly the asymmetric
            # pairs this metric exists for would be missed. The substring
            # L-gram rendezvous catches them by construction (an excerpt of
            # >= Lmin chars shares full L-grams with its source), so union
            # its buckets into the candidate stream on the scale path.
            from deduplication_ray.stages.substring import substring_buckets

            buckets = buckets.union(
                substring_buckets(ds, cfg, id_col="doc_id", text_col="text"))
            # ... and scattered overlap can't: a quote broken by edits shares
            # many k-grams but no >=L contiguous run. Consistent gram
            # sampling covers it: every doc emits the grams whose hash falls
            # under a global p*2^64 threshold (bucket key = the gram hash),
            # so a pair sharing m grams misses with prob (1-p)^m — at the
            # p=1/2 default, >=8 shared grams rendezvous w.p. 0.996.
            # Linear cost (~p x gram stream as extra bucket rows, less than
            # the substring family's every-L-gram emission); stopword-gram
            # hot buckets are DROPPED by the tagger (cfg.gram_sample_drop_df
            # — DF>1024 grams carry no containment signal) rather than
            # star-salted, and every candidate is exactly verified below,
            # so precision is unharmed.
            thresh = np.uint64(int(sample_p * 2**64))

            def sample_grams(t: pa.Table) -> pa.Table:
                flat, lens = _flat_u64(t["grams"])
                doc = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
                m = flat < thresh
                g, d = flat[m], doc[m]
                ids_ = t["image_id"].to_pandas().to_numpy()
                z = np.zeros(len(g), np.int64)
                return pa.table({
                    "band": pa.array(np.full(len(g), lsh.BAND_GRAM_SAMPLE,
                                             np.int64)),
                    "bucket": pa.array(H.bitcast_u64_to_i64(g), pa.int64()),
                    "image_id": pa.array(ids_[d], pa.string()),
                    "ph": pa.array(z),
                    "sh": pa.array(z),
                })

            buckets = buckets.union(
                sigs.select_columns(["image_id", "grams"])
                .map_batches(sample_grams, batch_format="pyarrow"))
        # the ids only: the gram-set check below is the real verify
        edges = V.pair_and_verify(
            buckets, V.DeferredSignatureIndex(
                sigs.select_columns(["image_id"]), cfg),
            cfg, accept=V.keep_all)

    lean = sigs.select_columns(["image_id", "grams"])
    e = lookup_join(edges, lean.rename_columns({"image_id": "src", "grams": "g_src"}),
                    on=["src"], cfg=cfg)
    e = lookup_join(e, lean.rename_columns({"image_id": "dst", "grams": "g_dst"}),
                    on=["dst"], cfg=cfg)

    score_col = f"{metric}_milli"

    def check(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             score_col: pa.array([], pa.int64())})
        # whole-batch set intersection: flatten both sides to (pair_idx, gram)
        # and count grams seen twice within a pair after ONE lexsort — each
        # side's grams are unique per row, so a duplicate == an intersection
        fa, la = _flat_u64(t["g_src"])
        fb, lb = _flat_u64(t["g_dst"])
        npairs = t.num_rows
        idx = np.arange(npairs, dtype=np.int64)
        pairs = np.concatenate([np.repeat(idx, la), np.repeat(idx, lb)])
        grams = np.concatenate([fa, fb])
        order = np.lexsort((grams, pairs))
        p_s, g_s = pairs[order], grams[order]
        dup = (p_s[1:] == p_s[:-1]) & (g_s[1:] == g_s[:-1])
        inter = np.bincount(p_s[1:][dup], minlength=npairs)
        denom = (np.minimum(la, lb) if metric == "containment"
                 else la + lb - inter)
        jac = inter / np.maximum(denom, 1)
        keep = jac >= tau
        t = t.filter(pa.array(keep))
        # integer ids, src < dst NUMERICALLY (the oracle compares BIGINTs)
        a = t["src"].cast(pa.int64()).to_numpy()
        b = t["dst"].cast(pa.int64()).to_numpy()
        return pa.table({
            "src": np.minimum(a, b), "dst": np.maximum(a, b),
            score_col: pa.array((jac[keep] * 1000).astype(np.int64)),
        })

    return e.map_batches(check, batch_format="pyarrow")


def q_ngram_containment_pairs(sf_dir: str, tau: float = 0.7):
    """Asymmetric excerpt/quote detector: pairs where the smaller document's
    gram set is >= tau contained in the larger's."""
    return q_ngram_jaccard_pairs(sf_dir, tau=tau, metric="containment")


def ngram_jaccard_pairs_sql(tau: float = 0.6, k: int = 5) -> str:
    """DuckDB oracle for the EXACT path: distinct char k-gram sets over the
    same normalization (lower, collapse whitespace, trim), pair intersection
    via a gram self-join. Docs shorter than k contribute one whole-string
    gram, mirroring shingle_window_hashes' short-row rule."""
    return f"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id, substring(s, CAST(i AS INTEGER), {k}) AS g
  FROM norm, UNNEST(generate_series(1, length(s) - {k} + 1)) AS t(i)
  WHERE length(s) >= {k}
  UNION
  SELECT doc_id, s AS g FROM norm WHERE length(s) < {k}
), sizes AS (
  SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.src, i.dst,
       CAST(floor(CAST(i.c AS DOUBLE) / (sa.n + sb.n - i.c) * 1000.0) AS BIGINT)
           AS jaccard_milli
FROM inter i
JOIN sizes sa ON sa.doc_id = i.src
JOIN sizes sb ON sb.doc_id = i.dst
WHERE CAST(i.c AS DOUBLE) / (sa.n + sb.n - i.c) >= {tau}
"""


def q_doc_similar_topk(sf_dir: str, n_queries: int = 8, k: int = 10):
    """Exact text similarity SEARCH (the text analog of ``ann_topk``): for
    each of the ``n_queries`` lowest-doc_id query documents, the top-k most
    similar OTHER documents by exact distinct char-5-gram Jaccard over the
    engine's normalization, deterministic ties (score desc, doc_id asc).

    Scale plan: a search's query side is small by contract — its sorted
    gram-hash sets broadcast once via ``ray.put``; the corpus side is ONE
    stateless vectorized pass (per batch: distinct grams via one lexsort,
    then Q searchsorted membership probes + bincounts) emitting only each
    block's top-k per query; the driver merges Q x k x #blocks rows. No
    shuffle anywhere. For huge Q the banding path (``doc_lsh_dedup``
    machinery) is the candidates-first variant; this exact form is its
    recall oracle."""
    from deduplication_ray.stages.signatures import normalize_captions

    cfg = DedupConfig(num_partitions=8)
    ds = _docs(sf_dir, ["doc_id", "text"])

    # query selection: the n_queries smallest doc_ids WITH their texts in
    # the SAME pass (per-block bottom-k rows -> #blocks x n_queries short
    # rows to the driver — no second corpus scan just to re-fetch texts)
    def bottomk(t: pa.Table) -> pa.Table:
        order = np.argsort(t["doc_id"].to_numpy(), kind="stable")[:n_queries]
        return t.take(pa.array(order, pa.int64()))

    empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                          "doc_id": pd.Series(dtype="int64"),
                          "jaccard_milli": pd.Series(dtype="int64")})
    qparts = ds.map_batches(bottomk, batch_format="pyarrow").to_pandas()
    # zero-row to_pandas returns a COLUMN-LESS frame (schema loss)
    if qparts.empty or "doc_id" not in qparts.columns:
        return empty
    qdocs = (qparts.sort_values("doc_id").head(n_queries)
             .reset_index(drop=True))
    cap = normalize_captions(pa.array(qdocs["text"].astype(str), pa.string()))
    qg, qoffs = H.shingle_window_hashes(cap, cfg.shingle_k)
    qsets = [np.unique(qg[qoffs[i]:qoffs[i + 1]]) for i in range(len(qdocs))]
    qids = qdocs["doc_id"].to_numpy()
    ref = ray.put((qids, qsets))

    class Score:
        def __init__(self):
            self.qids = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.qids is None:
                self.qids, self.qsets = ray.get(ref)
            out_q, out_d, out_j = [], [], []
            if t.num_rows:
                cap = normalize_captions(t["text"])
                grams, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
                n = len(offs) - 1
                row = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
                order = np.lexsort((grams, row))
                gs, rs = grams[order], row[order]
                keep = np.concatenate(
                    [[True], (gs[1:] != gs[:-1]) | (rs[1:] != rs[:-1])]) \
                    if len(gs) else np.zeros(0, bool)
                gu, ru = gs[keep], rs[keep]
                sizes = np.bincount(ru, minlength=n)
                ids = t["doc_id"].to_numpy()
                for qid, qs in zip(self.qids, self.qsets):
                    if len(qs) == 0:
                        continue
                    pos = np.clip(np.searchsorted(qs, gu), 0, len(qs) - 1)
                    c = np.bincount(ru[qs[pos] == gu], minlength=n)
                    valid = (c > 0) & (ids != qid)
                    if not valid.any():
                        continue
                    cv, dv = c[valid], ids[valid]
                    u = sizes[valid] + len(qs) - cv
                    jm = np.floor(cv / u * 1000.0).astype(np.int64)
                    top = np.lexsort((dv, -jm))[:k]
                    out_q.append(np.full(len(top), qid, np.int64))
                    out_d.append(dv[top])
                    out_j.append(jm[top])
            cat = (lambda xs: np.concatenate(xs) if xs
                   else np.empty(0, np.int64))
            return pa.table({"query_id": pa.array(cat(out_q), pa.int64()),
                             "doc_id": pa.array(cat(out_d), pa.int64()),
                             "jaccard_milli": pa.array(cat(out_j), pa.int64())})

    parts = ds.map_batches(Score(), batch_format="pyarrow").to_pandas()
    if parts.empty or "query_id" not in parts.columns:
        return empty
    return (parts.sort_values(["query_id", "jaccard_milli", "doc_id"],
                              ascending=[True, False, True])
            .groupby("query_id", sort=True).head(k).reset_index(drop=True))


def doc_similar_topk_sql(n_queries: int = 8, k: int = 10,
                         gk: int = 5) -> str:
    return f"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id, substring(s, CAST(i AS INTEGER), {gk}) AS g
  FROM norm, UNNEST(generate_series(1, length(s) - {gk} + 1)) AS t(i)
  WHERE length(s) >= {gk}
  UNION
  SELECT doc_id, s AS g FROM norm WHERE length(s) < {gk}
), sizes AS (
  SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id
), qids AS (
  SELECT doc_id FROM documents ORDER BY doc_id LIMIT {n_queries}
), inter AS (
  SELECT a.doc_id AS query_id, b.doc_id AS doc_id, count(*) AS c
  FROM grams a JOIN grams b ON a.g = b.g AND b.doc_id <> a.doc_id
  WHERE a.doc_id IN (SELECT doc_id FROM qids)
  GROUP BY 1, 2
), scored AS (
  SELECT i.query_id, i.doc_id,
         CAST(floor(CAST(i.c AS DOUBLE) / (sq.n + sd.n - i.c) * 1000.0)
              AS BIGINT) AS jaccard_milli
  FROM inter i
  JOIN sizes sq ON sq.doc_id = i.query_id
  JOIN sizes sd ON sd.doc_id = i.doc_id
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
            ORDER BY jaccard_milli DESC, doc_id ASC) AS rn
  FROM scored)
SELECT query_id, doc_id, jaccard_milli FROM ranked WHERE rn <= {k}
"""


# ------------------------------------ exact set-similarity join (PPJoin-style)

def _group_pairs(keys: np.ndarray, cap: int, too_big) -> tuple:
    """Index pairs ``(i, j)``, ``i < j``, of every two rows sharing a key,
    over ``keys`` sorted so that equal keys are contiguous: one vectorized
    pass for all the groups of a partition. A group of more than ``cap``
    rows raises ``ValueError(too_big(size))``: the exact-candidate queries
    that call this must fail loudly rather than emit a quadratic pair
    product or drop pairs by salting."""
    k = len(keys)
    if k < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    # row j pairs with its `within[j]` predecessors in its group
    within = H.run_ranks(keys)
    size = int(within.max()) + 1
    if size > cap:
        raise ValueError(too_big(size))
    j_idx = np.repeat(np.arange(k, dtype=np.int64), within)
    i_idx = j_idx - within[j_idx] + H._ranges(within)
    return i_idx, j_idx


def _unique_pairs(t: pa.Table) -> pa.Table:
    """The distinct ``(src, dst)`` rows of a pair table (one lexsort): the
    per-partition reducer of every candidate-pair dedupe, exact once the
    exchange keyed on (src, dst) has put equal pairs in one partition."""
    a, b = t["src"].to_numpy(), t["dst"].to_numpy()
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    keep = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]) \
        if len(a) else np.zeros(0, bool)
    return pa.table({"src": pa.array(a[keep], pa.int64()),
                     "dst": pa.array(b[keep], pa.int64())})


def _prefix_filter_join(sf_dir: str, tau_permille: int, bucket_cap: int,
                        weighted: bool, sim_col: str):
    """The one prefix-filter self-join kernel behind both PPJoin queries:
    EXACT weighted Jaccard J_w(A, B) = sum(min tf) / sum(max tf) >= tau
    over documents as token multisets, or — ``weighted=False`` — plain
    Jaccard over their DISTINCT token sets, which is the same join with
    every term frequency set to 1. Deterministic by construction: unlike
    the MinHash-band candidates of ``q_ngram_jaccard_pairs``, every
    qualifying pair is found, with no sampling miss probability (Bayardo,
    Ma & Srikant WWW'07 prefixes; Xiao et al. PPJoin positional bound;
    Vernica, Carey & Li SIGMOD'10 for the MapReduce shape; all public).

    Theory: under one global token order (df asc, hash tiebreak), doc A's
    prefix is its minimal leading distinct tokens whose remaining suffix
    WEIGHT is < alpha_A = ceil(tau * W_A) (W_A = total token weight; with
    unit weights the set prefix n - ceil(tau * n) + 1): a qualifying pair's
    FIRST shared token in global order must sit in BOTH prefixes (else
    overlap <= one suffix's weight < alpha, contradiction), so bucketing
    prefix tokens finds every qualifying pair. In-bucket prunes, all
    integer-exact: weight filter min(W)*1000 >= tau*max(W); positional
    bound min(cumw_before) + min(W - cumw_before) >= alpha_pair =
    ceil(tau/(1+tau) * (W_A+W_B)) — an upper bound on the true overlap at
    EVERY shared token, so no qualifying pair is dropped.

    Scale shape: the token-df pass is vocabulary-bounded (mergeable groupby
    partials); the rank map broadcasts once via ``ray.put`` (at extreme
    vocabularies swap in plain hash order — still correct, weaker
    pruning); the only candidate shuffle carries prefix rows (rarest
    tokens first, so buckets are naturally tiny; weight-heavy docs prune
    MORE — alpha grows with W); ``bucket_cap`` raises loudly rather than
    degrade to lossy salting, because this operator's contract is
    exactness; the candidates of all ranks dedupe in one keyed exchange on
    (src, dst) (a Ray groupby-count there took ~90% of the query at
    sf0.01); verification is one whole-batch sort-merge over (token, tf)
    blobs, integer-exact on both engines. Token identity is 64-bit
    (collision odds per pair ~2^-64, same policy as ``hash_bytes_array``).
    """
    from ray.data.aggregate import Sum

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    ds = _docs(sf_dir, ["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        tok = H.hash_bytes_array(flat)
        n_docs = t.num_rows
        counts = offs[1:] - offs[:-1]
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        order = np.lexsort((tok, doc_idx))
        gs, ds_ = tok[order], doc_idx[order]
        first = np.concatenate(
            [[True], (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])]) \
            if len(gs) else np.zeros(0, bool)
        starts = np.flatnonzero(first)
        tf = (np.diff(np.append(starts, len(gs))) if weighted
              else np.ones(len(starts))).astype(np.int64)
        gu, du = gs[first], ds_[first]
        per_doc = np.bincount(du, minlength=n_docs)
        boffs = np.concatenate([[0], np.cumsum(per_doc * 8)]).astype(np.int32)

        def blob(vals: np.ndarray) -> pa.BinaryArray:
            return pa.BinaryArray.from_buffers(
                pa.binary(), n_docs,
                [None, pa.array(boffs).buffers()[1],
                 pa.py_buffer(vals.tobytes())])
        wtot = np.bincount(du, weights=tf, minlength=n_docs).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "toks": blob(gu),
                         "tfs": blob(tf.astype(np.uint64)),
                         "w": pa.array(wtot)})

    sigs = ds.map_batches(sig, batch_format="pyarrow",
                          batch_size=cfg.text_batch_size).materialize()

    # global token order: (df asc, token hash asc) -> dense rank, broadcast
    def df_partial(t: pa.Table) -> pa.Table:
        flat, _lens = _flat_u64(t["toks"])
        u, c = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(H.bitcast_u64_to_i64(u)),
                         "df": pa.array(c.astype(np.int64))})

    vocab = (sigs.map_batches(df_partial, batch_format="pyarrow")
             .groupby("tok").aggregate(Sum("df", alias_name="df"))
             .to_pandas())
    toks = H.bitcast_i64_to_u64(vocab["tok"].to_numpy())
    dfs = vocab["df"].to_numpy()
    by_rank = np.lexsort((toks, dfs))
    rank_of = np.empty(len(toks), np.int64)
    rank_of[by_rank] = np.arange(len(toks))
    tok_sorted_order = np.argsort(toks)
    rank_ref = ray.put((toks[tok_sorted_order], rank_of[tok_sorted_order]))

    class Prefix:
        def __init__(self):
            self.tok_sorted = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.tok_sorted is None:
                self.tok_sorted, self.rank = ray.get(rank_ref)
            flat, lens = _flat_u64(t["toks"])
            if len(flat) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "doc_id": pa.array([], pa.int64()),
                                 "w": pa.array([], pa.int64()),
                                 "cb": pa.array([], pa.int64())})
            tfs = _flat_u64(t["tfs"])[0].view(np.int64)
            pos = np.searchsorted(self.tok_sorted, flat)
            ranks = self.rank[pos]
            doc = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
            order = np.lexsort((ranks, doc))
            r_s, d_s, f_s = ranks[order], doc[order], tfs[order]
            # cumulative weight BEFORE each token within its doc
            w = t["w"].to_numpy()
            cum = np.cumsum(f_s)
            starts = np.concatenate([[0], np.cumsum(lens)])[:-1]
            base = np.concatenate([[0], cum])[starts[d_s]]
            cb = cum - f_s - base
            # prefix: tokens whose suffix (incl. self) weight > W - alpha,
            # i.e. cb <= W - alpha with alpha = ceil(tau * W)
            alpha = -(-(tau_permille * w) // 1000)
            m = cb <= (w - alpha)[d_s]
            ids = t["doc_id"].to_numpy()
            return pa.table({
                "bucket": pa.array(r_s[m]),
                "doc_id": pa.array(ids[d_s[m]]),
                "w": pa.array(w[d_s[m]]),
                "cb": pa.array(cb[m])})

    def emit_pairs(t: pa.Table) -> pa.Table:
        b, d = t["bucket"].to_numpy(), t["doc_id"].to_numpy()
        o = np.lexsort((d, b))
        d, w, cb = d[o], t["w"].to_numpy()[o], t["cb"].to_numpy()[o]
        i, j = _group_pairs(b[o], bucket_cap, lambda k: (
            f"ppjoin prefix bucket of {k} docs exceeds bucket_cap="
            f"{bucket_cap}; raise tau or the cap (exactness forbids "
            f"lossy salting here)"))
        keep = (np.minimum(w[i], w[j]) * 1000
                >= tau_permille * np.maximum(w[i], w[j]))
        keep &= d[i] != d[j]
        alpha = -(-(tau_permille * (w[i] + w[j])) // (1000 + tau_permille))
        ubound = (np.minimum(cb[i], cb[j])
                  + np.minimum(w[i] - cb[i], w[j] - cb[j]))
        keep &= ubound >= alpha
        return _unique_pairs(pa.table({"src": d[i][keep], "dst": d[j][keep]}))

    # the pairs of every prefix-token rank in a partition, deduped there
    # and once more across partitions in a keyed exchange on (src, dst)
    cands = hash_grouped_reduce(
        hash_grouped_reduce(sigs.map_batches(Prefix(), batch_format="pyarrow"),
                            ["bucket"], emit_pairs, cfg.num_partitions),
        ["src", "dst"], _unique_pairs, cfg.num_partitions)

    lean = sigs.select_columns(["doc_id", "toks", "tfs"])
    e = lookup_join(cands,
                    lean.rename_columns({"doc_id": "src", "toks": "t_src",
                                         "tfs": "f_src"}),
                    on=["src"], cfg=cfg)
    e = lookup_join(e, lean.rename_columns({"doc_id": "dst",
                                            "toks": "t_dst",
                                            "tfs": "f_dst"}),
                    on=["dst"], cfg=cfg)

    def check(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             sim_col: pa.array([], pa.int64())})
        fa, la = _flat_u64(t["t_src"])
        fb, lb = _flat_u64(t["t_dst"])
        ca = _flat_u64(t["f_src"])[0].view(np.int64)
        cbv = _flat_u64(t["f_dst"])[0].view(np.int64)
        npairs = t.num_rows
        idx = np.arange(npairs, dtype=np.int64)
        pairs = np.concatenate([np.repeat(idx, la), np.repeat(idx, lb)])
        grams = np.concatenate([fa, fb])
        cnts = np.concatenate([ca, cbv])
        order = np.lexsort((grams, pairs))
        p_s, g_s, c_s = pairs[order], grams[order], cnts[order]
        dup = (p_s[1:] == p_s[:-1]) & (g_s[1:] == g_s[:-1])
        # integer sums through float64 bincount: exact below 2^53
        inter = np.bincount(p_s[1:][dup],
                            weights=np.minimum(c_s[1:], c_s[:-1])[dup],
                            minlength=npairs).astype(np.int64)
        wsum = np.bincount(pairs, weights=cnts,
                           minlength=npairs).astype(np.int64)
        union = wsum - inter
        keep = inter * 1000 >= tau_permille * union
        t2 = t.filter(pa.array(keep))
        return pa.table({
            "src": t2["src"],
            "dst": t2["dst"],
            sim_col: pa.array(
                inter[keep] * 1000 // np.maximum(union[keep], 1)),
        })

    return e.map_batches(check, batch_format="pyarrow")


def q_doc_ppjoin_pairs(sf_dir: str, tau_permille: int = 600,
                       bucket_cap: int = 20_000):
    """EXACT word-set Jaccard self-join via prefix filtering: (src, dst,
    jaccard_milli) for every doc pair whose DISTINCT-token Jaccard is >=
    tau_permille / 1000. ``_prefix_filter_join`` with unit term
    frequencies, so the prefix is the classic n - ceil(tau * n) + 1 tokens
    and the positional bound min(pos) + min(n - pos)."""
    return _prefix_filter_join(sf_dir, tau_permille, bucket_cap,
                               weighted=False, sim_col="jaccard_milli")


def doc_ppjoin_pairs_sql(tau_permille: int = 600) -> str:
    """DuckDB oracle: exact distinct-word-set Jaccard pairs at the same
    integer threshold, over the same tokenizer as ``_tokens_flat``."""
    return f"""
WITH toks AS (
  SELECT DISTINCT doc_id, tok FROM (
    SELECT doc_id,
           unnest(string_split_regex(lower(trim(text)), '\\s+')) AS tok
    FROM documents)
), sizes AS (
  SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM toks a JOIN toks b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.src, i.dst,
       CAST(i.c * 1000 // (sa.n + sb.n - i.c) AS BIGINT) AS jaccard_milli
FROM inter i
JOIN sizes sa ON sa.doc_id = i.src
JOIN sizes sb ON sb.doc_id = i.dst
WHERE i.c * 1000 >= {tau_permille} * (sa.n + sb.n - i.c)
"""


def q_doc_weighted_ppjoin_pairs(sf_dir: str, tau_permille: int = 600,
                                bucket_cap: int = 20_000):
    """EXACT WEIGHTED-Jaccard self-join — ``q_doc_ppjoin_pairs``
    generalized from sets to multisets: (src, dst, wjaccard_milli) for
    every doc pair with J_w = sum(min tf) / sum(max tf) >= tau_permille /
    1000, through the same ``_prefix_filter_join`` kernel with each
    token's term frequency as its weight."""
    return _prefix_filter_join(sf_dir, tau_permille, bucket_cap,
                               weighted=True, sim_col="wjaccard_milli")


def doc_weighted_ppjoin_pairs_sql(tau_permille: int = 600) -> str:
    """DuckDB oracle: exact multiset (term-frequency) Jaccard pairs at the
    same integer threshold, same tokenizer as ``_tokens_flat``."""
    return f"""
WITH tf AS (
  SELECT doc_id, tok, count(*) AS c FROM (
    SELECT doc_id,
           unnest(string_split_regex(lower(trim(text)), '\\s+')) AS tok
    FROM documents)
  GROUP BY doc_id, tok
), tot AS (
  SELECT doc_id, sum(c) AS w FROM tf GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, sum(least(a.c, b.c)) AS o
  FROM tf a JOIN tf b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.src, i.dst,
       CAST(i.o * 1000 // (ta.w + tb.w - i.o) AS BIGINT) AS wjaccard_milli
FROM inter i
JOIN tot ta ON ta.doc_id = i.src
JOIN tot tb ON tb.doc_id = i.dst
WHERE i.o * 1000 >= {tau_permille} * (ta.w + tb.w - i.o)
"""


def q_doc_lsh_dedup(sf_dir: str, signature_mode: str = "perm"):
    """Full text near-dup engine over documents -> clusters (rows-only).
    ``signature_mode='oph'`` swaps the P-permutation MinHash sweeps for
    one-permutation hashing (same banding/verify downstream)."""
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters

    ds = _docs(sf_dir, ["doc_id", "text"])
    return text_dedup_clusters(ds, DedupConfig(num_partitions=8,
                                               signature_mode=signature_mode))


# -------------------------------------------------------- deterministic split

# Knuth multiplicative-hash constant (public: TAOCP vol. 3, section 6.4).
# doc_id is reduced mod 2^31 BEFORE the multiply so the product stays under
# 2^63 — exact in BOTH numpy uint64 and DuckDB's overflow-checked BIGINT.
_SPLIT_MULT = 2654435761
_SPLIT_MOD = 2**32
_TRAIN_LT = 3435973836   # floor(0.80 * 2^32)
_VAL_LT = 3865470566     # floor(0.90 * 2^32)


def q_doc_split(sf_dir: str, ds=None):
    """Deterministic 80/10/10 train/val/test assignment by multiplicative
    hash of doc_id — the sampling/split primitive of a training-data
    pipeline. Pure map_batches: no shuffle, no state, any worker computes
    any row's split independently (exactly what a 100 TB split needs), and
    the rule is SQL-expressible so the oracle value-hash checks every
    assignment. ``ds`` overrides the table source."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.uint64) % np.uint64(2**31)
        u = (ids * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        split = np.where(
            u < np.uint64(_TRAIN_LT), "train",
            np.where(u < np.uint64(_VAL_LT), "val", "test"))
        return pa.table({"doc_id": t["doc_id"],
                         "split": pa.array(split, pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow")


Q_DOC_SPLIT_SQL = f"""
SELECT doc_id,
       CASE WHEN ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD} < {_TRAIN_LT} THEN 'train'
            WHEN ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD} < {_VAL_LT} THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


# ------------------------------------------------- quantile-threshold filter

_QUALITY_MILLI_EXPR = r"""
       CAST(floor((
         0.4 * (CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                / greatest(length(text), 1))
       + 0.3 * least(CAST(length(text) AS DOUBLE) / 200.0, 1.0)
       + 0.3 * exp(-0.5 * (((CAST(length(text) AS DOUBLE)
                             / greatest(length(string_split_regex(trim(text), '\s+')), 1)
                            ) - 5.5) / 3.0)
                         * (((CAST(length(text) AS DOUBLE)
                             / greatest(length(string_split_regex(trim(text), '\s+')), 1)
                            ) - 5.5) / 3.0))
       ) * 1000.0) AS BIGINT)
"""


def q_docs_above_median_quality(sf_dir: str):
    """Quality-gated corpus filter: keep documents whose quality score is at
    or above the GLOBAL median — the 'drop the worst half' curation step.

    The global exact quantile is computed with the same distributed-CDF
    trick as q_grouped_quantiles: per-batch value counts over the bounded
    quality_milli domain (0..1000), one tiny groupby-sum whose shuffle
    carries <= 1001 rows per block regardless of corpus size, then a CDF
    walk picks DuckDB's quantile_disc(0.5) = sorted_v[floor(0.5*(n-1))].
    The threshold broadcasts into a stateless filter pass — two linear
    scans total, no sort, no data shuffle."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def qscore(t: pa.Table) -> pa.Table:
        score = T.quality_score(t["text"])
        return pa.table({
            "doc_id": t["doc_id"],
            "quality_milli": pa.array(
                np.floor(score * 1000.0).astype(np.int64)),
        })

    q = ds.map_batches(qscore, batch_format="pyarrow").materialize()

    def vcount(t: pa.Table) -> pa.Table:
        g = t.group_by("quality_milli").aggregate([("quality_milli", "count")])
        return pa.table({"quality_milli": g["quality_milli"],
                         "cnt": g["quality_milli_count"].cast(pa.int64())})

    agg = (q.map_batches(vcount, batch_format="pyarrow", batch_size=None)
           .groupby("quality_milli").aggregate(Sum("cnt", alias_name="cnt"))
           .to_pandas().sort_values("quality_milli"))
    v = agg["quality_milli"].to_numpy()
    cum = np.cumsum(agg["cnt"].to_numpy())
    n = int(cum[-1])
    thr = int(v[np.searchsorted(cum, int(np.floor(0.5 * (n - 1))), side="right")])

    return q.map_batches(
        lambda t: t.filter(pc.greater_equal(t["quality_milli"], thr)),
        batch_format="pyarrow")


Q_DOCS_ABOVE_MEDIAN_QUALITY_SQL = f"""
WITH q AS (
  SELECT doc_id, {_QUALITY_MILLI_EXPR} AS quality_milli FROM documents
)
SELECT doc_id, quality_milli FROM q
WHERE quality_milli >= (SELECT quantile_disc(quality_milli, 0.5) FROM q)
"""


# --------------------------------------------------- benchmark decontamination

_EVAL_MOD = 97  # docs with doc_id % 97 == 0 play the held-out benchmark suite


def _tokens_flat(text_col) -> tuple[pa.Array, np.ndarray]:
    """Lowered whitespace tokens flattened across the batch: flat token
    array + int64 offsets (one slot per row), matching DuckDB
    ``string_split_regex(lower(trim(text)), '\\s+')``."""
    # space-only trim = DuckDB trim() exactly (it does not strip \t\n)
    low = pc.utf8_lower(pc.utf8_trim(text_col, " "))
    splits = pc.split_pattern_regex(low, r"\s+")
    if isinstance(splits, pa.ChunkedArray):
        splits = splits.combine_chunks()
    flat = splits.flatten()
    counts = pc.list_value_length(splits).to_numpy().astype(np.int64)
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    return flat, offs


def _word_grams(text_col, n: int) -> tuple[pa.Array, np.ndarray]:
    """All word n-gram strings in the batch (space-joined, lowercased) plus
    the row index of each gram. Vectorized: n shifted zero-copy slices of
    the flat token array joined element-wise; grams that would span a row
    boundary are masked out via the list offsets. Mirrors DuckDB
    ``array_to_string(w[i:i+n-1], ' ')``."""
    flat, offs = _tokens_flat(text_col)
    n_rows = len(offs) - 1
    total = int(offs[-1])
    if total < n:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
    m = total - n + 1  # candidate gram start positions
    parts = [flat.slice(g, m) for g in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    counts = offs[1:] - offs[:-1]
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), counts)[:m]
    row_end = np.repeat(offs[1:], counts)[:m]
    valid = (np.arange(m, dtype=np.int64) + n) <= row_end
    return grams.filter(pa.array(valid)), row_of[valid]


def q_doc_decontaminate(sf_dir: str, n: int = 5):
    """Benchmark decontamination: drop every training document that shares
    ANY word n-gram with the held-out eval slice (doc_id % 97 == 0) — the
    standard leak-prevention step before LLM training.

    Scale plan: eval suites are small by construction (thousands of docs,
    not billions), so the distinct eval gram set is built with one pruned
    scan over the eval slice, collected once, and broadcast via ``ray.put``;
    the training-side scan is then a single stateless ``map_batches`` doing
    a vectorized Arrow ``is_in`` against the shared set — no shuffle, no
    join, linear in corpus size, and the gram set lives in the object store
    once per node (zero-copy reads), never re-shipped per batch."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def eval_grams(t: pa.Table) -> pa.Table:
        keep = (t["doc_id"].to_numpy() % _EVAL_MOD) == 0
        g, _ = _word_grams(t.filter(pa.array(keep))["text"], n)
        return pa.table({"gram": pc.unique(g)})

    ev = pa.concat_tables(
        list(ds.map_batches(eval_grams, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default")
    eval_set = pc.unique(ev["gram"].combine_chunks())
    ref = ray.put(eval_set)

    def clean(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array((t["doc_id"].to_numpy() % _EVAL_MOD) != 0))
        g, row = _word_grams(t["text"], n)
        hit = pc.is_in(g, value_set=ray.get(ref)).to_numpy(zero_copy_only=False)
        bad = np.zeros(t.num_rows, dtype=bool)
        if hit.any():
            bad[np.unique(row[hit])] = True
        return pa.table({"doc_id": t["doc_id"].filter(pa.array(~bad))})

    return ds.map_batches(clean, batch_format="pyarrow")


def doc_decontaminate_sql(n: int = 5) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), grams AS (
  SELECT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), evalg AS (
  SELECT DISTINCT g FROM grams WHERE doc_id % {_EVAL_MOD} = 0
), contaminated AS (
  SELECT DISTINCT gr.doc_id FROM grams gr JOIN evalg e ON gr.g = e.g
  WHERE gr.doc_id % {_EVAL_MOD} <> 0
)
SELECT doc_id FROM documents
WHERE doc_id % {_EVAL_MOD} <> 0
  AND doc_id NOT IN (SELECT doc_id FROM contaminated)
"""


# --------------------------------------------------- per-source quota sampling

# partitions of the per-source exchanges: a corpus has few sources
_SOURCE_PARTS = 8


def q_source_cap_sample(sf_dir: str, k: int = 10):
    """Per-source (per-domain) quota sampling: keep at most ``k`` documents
    per source, chosen deterministically by multiplicative hash of doc_id —
    the "cap every domain" step that stops a few giant crawl hosts from
    dominating a training mix.

    Scale plan: ``head`` keeps at most k rows per source of a table
    (vectorized sort + group head). It runs once per BATCH, so the
    per-source exchange ships k x num_blocks rows per source instead of the
    full table, and once per partition of that exchange, where it is exact
    because every row of a source is there. The hash order makes the
    selection independent of partitioning and re-runnable."""
    ds = _docs(sf_dir, ["doc_id", "source"])

    def head(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        h = ((ids.astype(np.uint64) % np.uint64(2**31))
             * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        h = h.astype(np.int64)
        src = t["source"].combine_chunks() if isinstance(
            t["source"], pa.ChunkedArray) else t["source"]
        scode = src.dictionary_encode().indices.to_numpy()
        order = np.lexsort((ids, h, scode))
        # rank within source (sources are contiguous after the lexsort)
        keep = order[H.run_ranks(scode[order]) < k]
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "source": src.take(pa.array(keep))})

    return hash_grouped_reduce(ds.map_batches(head, batch_format="pyarrow"),
                               ["source"], head, _SOURCE_PARTS)


def source_cap_sample_sql(k: int = 10) -> str:
    return f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD},
                    doc_id) AS rn
  FROM documents)
WHERE rn <= {k}
"""


# ------------------------------------------- token-budget mixture sampling

# target mixture in exact permille of each source's token mass: overrides
# express a NON-uniform mix (downweight src0, upweight src1), everything
# else gets the default share — integer permille so budget arithmetic is
# exact on both the Ray and the DuckDB side (no float-floor edge cases)
_MIX_DEFAULT_PERMILLE = 400
_MIX_OVERRIDES = {"src0": 100, "src1": 800}


def q_doc_token_budget_mix(sf_dir: str,
                           permille: int = _MIX_DEFAULT_PERMILLE,
                           overrides: dict[str, int] | None = None):
    """Token-budget mixture realization (the Pile-style "mix sources to
    target shares" step): downsample every source to a per-source TOKEN
    budget — (total_source_tokens * share_permille) // 1000 — by greedily
    keeping hash-ordered documents while the tokens kept BEFORE each doc
    stay under the budget (one overshoot doc allowed: standard greedy
    fill). Non-uniform shares per source express a target mixture; unlike
    ``source_cap_sample`` (row quota) the unit is TOKENS, which is what a
    training run actually budgets.

    Scale plan (text never shuffles): (1) per-source token totals —
    per-batch Arrow group_by partials into one |sources|-row groupby,
    collected driver-side (bounded dimension table) and broadcast via
    ``ray.put``; (2) per-batch prune: a doc's GLOBAL prefix sum within its
    source is >= its in-batch prefix sum, so any doc past the budget inside
    its own batch is past it globally — each block ships at most one
    budget's worth of (doc_id, source, n_tokens) rows per source
    (k x num_blocks-shaped wire cost, the cap sampler's bound); (3) the
    same greedy fill once per partition of a per-source exchange over
    those bounded partials, exact there because every row of a source is
    in it. Hash order makes the selection partition-invariant.
    """
    from ray.data.aggregate import Sum

    from deduplication_ray.functions.text import token_count

    ov = _MIX_OVERRIDES if overrides is None else overrides
    ds = _docs(sf_dir, ["doc_id", "source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"source": t["source"],
                      "n": token_count(t["text"]).cast(pa.int64())}) \
            .group_by("source").aggregate([("n", "sum")])
        return pa.table({"source": g["source"],
                         "n": g["n_sum"].cast(pa.int64())})

    totals = (ds.map_batches(tok_partial, batch_format="pyarrow")
              .groupby("source").aggregate(Sum("n", alias_name="total")))
    budget: dict[str, int] = {}
    for b in totals.iter_batches(batch_format="pyarrow"):
        for s, tot in zip(b["source"].to_pylist(), b["total"].to_pylist()):
            budget[s] = (int(tot) * ov.get(s, permille)) // 1000
    ref = ray.put(budget)

    def fill(t: pa.Table) -> pa.Table:
        # greedy fill of (doc_id, source, n_tokens) rows in hash order
        ids = t["doc_id"].to_numpy()
        h = ((ids.astype(np.uint64) % np.uint64(2**31))
             * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        df = pd.DataFrame({
            "doc_id": ids,
            "source": t["source"].to_pandas().to_numpy(),
            "n_tokens": t["n_tokens"].to_numpy(),
            "h": h.astype(np.int64),
        }).sort_values(["source", "h", "doc_id"])
        prev = (df.groupby("source", sort=False)["n_tokens"].cumsum()
                - df["n_tokens"]).to_numpy()
        lim = df["source"].map(ray.get(ref)).fillna(0).astype(np.int64)
        return pa.Table.from_pandas(
            df[prev < lim.to_numpy()][["doc_id", "source", "n_tokens"]],
            preserve_index=False)

    def prune(t: pa.Table) -> pa.Table:
        return fill(pa.table({
            "doc_id": t["doc_id"], "source": t["source"],
            "n_tokens": token_count(t["text"]).cast(pa.int64())}))

    return hash_grouped_reduce(ds.map_batches(prune, batch_format="pyarrow"),
                               ["source"], fill, _SOURCE_PARTS)


def doc_token_budget_mix_sql(permille: int = _MIX_DEFAULT_PERMILLE,
                             overrides: dict[str, int] | None = None) -> str:
    ov = _MIX_OVERRIDES if overrides is None else overrides
    case = " ".join(f"WHEN '{s}' THEN {p}" for s, p in sorted(ov.items()))
    share = f"(CASE source {case} ELSE {permille} END)"
    return f"""
WITH t AS (
  SELECT doc_id, source,
         length(string_split_regex(trim(text), '\\s+')) AS n_tokens,
         ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD} AS h
  FROM documents),
b AS (
  SELECT source, (SUM(n_tokens) * {share}) // 1000 AS budget
  FROM t GROUP BY source),
c AS (
  SELECT t.doc_id, t.source, t.n_tokens, b.budget,
         COALESCE(SUM(t.n_tokens) OVER (
           PARTITION BY t.source ORDER BY t.h, t.doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
  FROM t JOIN b USING (source))
SELECT doc_id, source, n_tokens FROM c WHERE prev < budget
"""


# --------------------------------------------------- word-repetition quality

def q_doc_word_repetition(sf_dir: str):
    """Per-document word-repetition stats (the Gopher-style repetition
    filter signal): token count, distinct-token count, and duplicate-word
    fraction in exact integer milli units. Stateless vectorized
    map_batches: tokens are flattened once, hashed, and distinct-per-row
    counted with a single composite-key unique — no per-row Python loop,
    no shuffle."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        counts = offs[1:] - offs[:-1]
        n_docs = len(counts)
        row = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        th = H.hash_bytes_array(flat)
        key = H.hash_u64_pair(row.astype(np.uint64), th)
        first = np.unique(key, return_index=True)[1]
        nuniq = np.bincount(row[first], minlength=n_docs).astype(np.int64)
        # integer milli fraction: exact on both sides (DuckDB // = floor div)
        dup_milli = ((counts - nuniq) * 1000) // np.maximum(counts, 1)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(counts, pa.int64()),
            "n_distinct": pa.array(nuniq, pa.int64()),
            "dup_frac_milli": pa.array(dup_milli, pa.int64()),
        })

    return ds.map_batches(rep, batch_format="pyarrow")


Q_DOC_WORD_REPETITION_SQL = r"""
WITH w AS (
  SELECT doc_id,
         string_split_regex(lower(trim(text)), '\s+') AS toks
  FROM documents
)
SELECT doc_id,
       CAST(length(toks) AS BIGINT) AS n_tokens,
       CAST(length(list_distinct(toks)) AS BIGINT) AS n_distinct,
       CAST(((length(toks) - length(list_distinct(toks))) * 1000)
            // greatest(length(toks), 1) AS BIGINT) AS dup_frac_milli
FROM w
"""


# --------------------------------------------------- corpus document frequency

def q_top_terms(sf_dir: str, k: int = 20):
    """Top-k vocabulary terms by document frequency — the corpus-statistics
    pass behind TF-IDF weighting and stopword discovery.

    Scale plan: each batch holds whole documents, so distinct (doc, token)
    pairs are exact locally; per-batch Arrow hash-agg partials shrink the
    stream to one row per (token, batch) before the only shuffle (a
    groupby-sum over tokens, bounded by vocabulary size, not corpus size);
    a per-block partial top-k leaves <= k rows per block for the final tiny
    driver merge — the full vocabulary is never collected."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        counts = offs[1:] - offs[:-1]
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        key = H.hash_u64_pair(row.astype(np.uint64), H.hash_bytes_array(flat))
        first = np.unique(key, return_index=True)[1]
        toks = flat.take(pa.array(np.sort(first)))
        g = pa.table({"tok": toks}).group_by("tok").aggregate([("tok", "count")])
        return pa.table({"tok": g["tok"],
                         "df": g["tok_count"].cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
           .groupby("tok").aggregate(Sum("df", alias_name="df")))

    def topk(t: pa.Table) -> pa.Table:
        df_ = (t.to_pandas().sort_values(["df", "tok"], ascending=[False, True])
               .head(k))
        return pa.Table.from_pandas(df_, preserve_index=False)

    cand = agg.map_batches(topk, batch_format="pyarrow").to_pandas()
    out = (cand.sort_values(["df", "tok"], ascending=[False, True]).head(k)
           .reset_index(drop=True)[["tok", "df"]])
    out["df"] = out["df"].astype("int64")
    return out


def top_terms_sql(k: int = 20) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_distinct(string_split_regex(lower(trim(text)), '\\s+'))) AS tok
  FROM documents
)
SELECT tok, CAST(count(*) AS BIGINT) AS df
FROM toks GROUP BY tok
ORDER BY df DESC, tok LIMIT {k}
"""


# ------------------------------------------------------ model-inference scoring

class _DocClassifier:
    """Batched MODEL INFERENCE as a map stage — the fasttext-shaped
    quality/topic classifier slot of a training-data curation pipeline.

    The model is a deterministic stand-in (no model binaries ship in this
    sandbox): a linear layer over 2^16 hashed char-trigram buckets whose
    float32 weights derive from ``seed`` via SplitMix64. The Ray-side
    contract is the real thing and is what the tests pin down: weights
    materialize ONCE per task (or actor) at the first batch (the slot where
    a production run reads the .bin from shared storage — never per
    batch), and inference is one weight gather + per-row segment reduce per
    batch (``np.add.reduceat`` — exact per-row sums independent of batch
    composition, so output is partition-invariant; no per-row Python)."""

    N_BUCKETS = 1 << 16
    N_CLASSES = 4
    LABELS = np.array(["hi", "mid", "low", "junk"])

    def __init__(self, seed: int = 42):
        self.seed = seed
        self.w = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.w is None:
            idx = np.arange(self.N_BUCKETS * self.N_CLASSES, dtype=np.uint64)
            with np.errstate(over="ignore"):
                h = H.splitmix64(
                    idx + np.uint64(self.seed) * np.uint64(0x9E3779B97F4A7C15))
            self.w = ((h >> np.uint64(40)).astype(np.float64)
                      / np.float64(1 << 24) - 0.5) \
                .reshape(self.N_BUCKETS, self.N_CLASSES)
        hashes, offs = H.shingle_window_hashes(t["text"], 3)
        b = (hashes % np.uint64(self.N_BUCKETS)).astype(np.int64)
        contrib = self.w[b]                              # (n_grams, C)
        sums = np.add.reduceat(contrib, offs[:-1], axis=0)
        n_grams = (offs[1:] - offs[:-1]).astype(np.float64)
        logits = sums / np.maximum(n_grams, 1.0)[:, None]  # mean pool
        best = np.argmax(logits, axis=1)                 # first-max-wins
        return pa.table({
            "doc_id": t["doc_id"],
            "label": pa.array(self.LABELS[best]),
            "score_milli": pa.array(
                np.floor(np.max(logits, axis=1) * 1000.0).astype(np.int64)),
        })


def q_doc_model_score(sf_dir: str):
    """Model-inference scoring pass: every document classified by a linear
    hashed-trigram model running as TASKS
    (``map_batches(_DocClassifier(seed=42))`` — weights built at each
    task's first batch, score-per-batch; no actor holds a CPU between
    batches). Rows-only check (a learned scorer
    has no ANSI SQL form); tests assert exact parity with a serial
    single-process oracle and invariance to partition count."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(_DocClassifier(seed=42), batch_format="pyarrow",
                          batch_size=1024)


# ----------------------------------------------------------- BM25 keyword search

# fixed keyword query for the driver-checked search operator; terms chosen
# from the synthetic vocabulary with deliberately spread document
# frequencies ('dup' is rare, 'window'/'spark' are near-stopwords) so the
# IDF weighting actually orders the result
_BM25_TERMS = ("dup", "spark", "window")


def q_doc_bm25_topk(sf_dir: str, k: int = 10):
    """Distributed BM25 keyword search: top-k documents for a fixed query,
    scored with the classic Okapi shape (Robertson & Spärck Jones; public)
    at k1 = 6/5, b = 3/4 — but with the log-IDF replaced by the rational RSJ
    odds (N - df + 0.5) / (df + 0.5) and every quantity kept in int64, so
    floor-milli scores are bit-identical between Ray and the SQL oracle
    (a float log() would hash differently across engines).

    Per term: score_milli += (1000 * (2N - 2df + 1) * 22 * tf * A)
                          // ((2df + 1) * (10 * tf * A + 3 * A + 9 * dl))
    which is exactly idf_odds * tf(k1+1) / (tf + k1(1 - b + b*dl/avgdl))
    scaled by 1000 with avgdl fixed to the integer A = L // N.

    Scale plan — two linear passes, no corpus shuffle: (1) a stats pass
    reduces each block to ONE row (doc count, token count, per-term df
    partials) and the driver sums #blocks rows into (N, L, df); (2) a
    scoring pass recomputes tf/dl per batch from the flat token array
    (vectorized bincount per query term — |Q| kernels, not |rows| loops)
    and keeps a per-block top-k, so the driver merge is k x #blocks rows.
    The query side is broadcast by closure — a real search engine would
    ray.put a term table; at |Q| = 3 the constants travel with the task."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats_partial(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        counts = offs[1:] - offs[:-1]
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        out = {"n_docs": pa.array([t.num_rows], pa.int64()),
               "n_tokens": pa.array([int(offs[-1])], pa.int64())}
        for i, term in enumerate(_BM25_TERMS):
            mask = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            out[f"df_{i}"] = pa.array([int(np.unique(row[mask]).size)],
                                      pa.int64())
        return pa.table(out)

    st = (ds.map_batches(stats_partial, batch_format="pyarrow")
          .to_pandas().sum())  # #blocks rows -> one
    N, L = int(st["n_docs"]), int(st["n_tokens"])
    A = max(L // max(N, 1), 1)
    dfs = [int(st[f"df_{i}"]) for i in range(len(_BM25_TERMS))]
    # overflow guard: the per-term numerator is 1000*(2N-2df+1)*22*tf*A with
    # tf <= dl; DuckDB BIGINT arithmetic ERRORS on overflow, so a silent
    # numpy int64 wrap would diverge from the oracle exactly at the scale
    # the plan targets. tf_cap is checked per batch below; fail loudly here
    # if even tf=1 is unsafe.
    tf_cap = (2**63 - 1) // max(1000 * (2 * N + 1) * 22 * A, 1)
    if tf_cap < 1:
        raise ValueError(
            f"BM25 integer scores would overflow int64 at N={N}, avgdl={A}; "
            "reduce the milli scale or shard the corpus")

    def score(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        dl = offs[1:] - offs[:-1]
        row = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
        total = np.zeros(len(dl), np.int64)
        hit = np.zeros(len(dl), bool)
        for df, term in zip(dfs, _BM25_TERMS):
            mask = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            tf = np.bincount(row[mask], minlength=len(dl)).astype(np.int64)
            if len(tf) and int(tf.max()) > tf_cap:
                raise ValueError(
                    f"BM25 integer score would overflow int64 (tf="
                    f"{int(tf.max())} > cap {tf_cap} at N={N}, avgdl={A}); "
                    "reduce the milli scale or shard the corpus")
            num = 1000 * (2 * N - 2 * df + 1) * 22 * tf * A
            den = (2 * df + 1) * (10 * tf * A + 3 * A + 9 * dl)
            total += num // den
            hit |= tf > 0
        out = pa.table({"doc_id": t["doc_id"],
                        "score_milli": pa.array(total, pa.int64())})
        return out.filter(pa.array(hit))

    def topk(t: pa.Table) -> pa.Table:
        df_ = (t.to_pandas()
               .sort_values(["score_milli", "doc_id"],
                            ascending=[False, True]).head(k))
        return pa.Table.from_pandas(df_, preserve_index=False)

    cand = (ds.map_batches(score, batch_format="pyarrow")
            .map_batches(topk, batch_format="pyarrow").to_pandas())
    out = (cand.sort_values(["score_milli", "doc_id"],
                            ascending=[False, True]).head(k)
           .reset_index(drop=True)[["doc_id", "score_milli"]])
    out["score_milli"] = out["score_milli"].astype("int64")
    return out


def doc_bm25_topk_sql(k: int = 10) -> str:
    terms = ", ".join(f"'{t}'" for t in _BM25_TERMS)
    return f"""
WITH toks AS (
  SELECT doc_id,
         unnest(string_split_regex(lower(trim(text)), '\\s+')) AS tok
  FROM documents
), dl AS (
  SELECT doc_id,
         CAST(length(string_split_regex(lower(trim(text)), '\\s+'))
              AS BIGINT) AS dl
  FROM documents
), a AS (
  SELECT n, greatest(l // greatest(n, 1), 1) AS a
  FROM (SELECT (SELECT count(*) FROM documents) AS n,
               (SELECT sum(dl) FROM dl) AS l)
), df AS (
  SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks WHERE tok IN ({terms}) GROUP BY tok
), tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE tok IN ({terms}) GROUP BY 1, 2
)
SELECT tf.doc_id AS doc_id,
       CAST(sum((1000 * (2 * a.n - 2 * df.df + 1) * 22 * tf.tf * a.a)
            // ((2 * df.df + 1)
                * (10 * tf.tf * a.a + 3 * a.a + 9 * dl.dl)))
            AS BIGINT) AS score_milli
FROM tf JOIN df USING (tok) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN a
GROUP BY 1
ORDER BY score_milli DESC, tf.doc_id LIMIT {k}
"""


# ------------------------------------------------ language-stratified sampling

# per-language keep rates as exact u32 thresholds (floor(rate * 2^32)):
# down-sample the dominant language, keep the tail languages dense — the
# data-mix rebalancing step of a multilingual training pipeline
_STRAT_THRESHOLDS = {"en": int(0.10 * 2**32)}
_STRAT_DEFAULT_THRESHOLD = int(0.40 * 2**32)


def q_lang_stratified_sample(sf_dir: str):
    """Stratified (per-group-rate) sampling over documents: keep 10% of the
    dominant language, 40% of every other, decided by the same
    multiplicative doc_id hash as q_doc_split. Stateless single-pass
    map_batches — no shuffle, deterministic at any parallelism, and every
    kept row is independently recomputable (the property a resumable 100 TB
    sampler needs). SQL-mirrored exactly via integer thresholds."""
    ds = _docs(sf_dir, ["doc_id", "lang"])

    def samp(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.uint64) % np.uint64(2**31)
        u = (ids * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        langs = t["lang"].to_pandas().to_numpy()
        th = np.full(len(langs), _STRAT_DEFAULT_THRESHOLD, dtype=np.uint64)
        for lg, thr in _STRAT_THRESHOLDS.items():
            th[langs == lg] = thr
        return t.filter(pa.array(u < th))

    return ds.map_batches(samp, batch_format="pyarrow")


def lang_stratified_sample_sql() -> str:
    cases = " ".join(f"WHEN lang = '{lg}' THEN {thr}"
                     for lg, thr in _STRAT_THRESHOLDS.items())
    return f"""
SELECT doc_id, lang FROM documents
WHERE ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD}
      < (CASE {cases} ELSE {_STRAT_DEFAULT_THRESHOLD} END)
"""


def ngram_containment_pairs_sql(tau: float = 0.7, k: int = 5) -> str:
    """Oracle for the containment metric: same gram CTEs, denominator is the
    SMALLER doc's gram-set size."""
    return f"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id, substring(s, CAST(i AS INTEGER), {k}) AS g
  FROM norm, UNNEST(generate_series(1, length(s) - {k} + 1)) AS t(i)
  WHERE length(s) >= {k}
  UNION
  SELECT doc_id, s AS g FROM norm WHERE length(s) < {k}
), sizes AS (
  SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.src, i.dst,
       CAST(floor(CAST(i.c AS DOUBLE) / least(sa.n, sb.n) * 1000.0) AS BIGINT)
           AS containment_milli
FROM inter i
JOIN sizes sa ON sa.doc_id = i.src
JOIN sizes sb ON sb.doc_id = i.dst
WHERE CAST(i.c AS DOUBLE) / least(sa.n, sb.n) >= {tau}
"""


# --------------------------------------------------------------- PII redaction

# RE2-compatible patterns (no backrefs), identical strings on both sides
_PII_PATTERNS = (
    (r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}", "<EMAIL>"),
    (r"\b\d{3}[-.]\d{3}[-.]\d{4}\b", "<PHONE>"),
    (r"\b\d{13,19}\b", "<LONGNUM>"),
)


def q_doc_redact_pii(sf_dir: str):
    """PII scrubbing pass: replace email addresses, phone-shaped numbers and
    long digit runs with typed placeholder tokens — the redaction step every
    publishable training corpus needs. One stateless map_batches with
    compiled-RE2 Arrow kernels (``replace_substring_regex``), no shuffle;
    the SQL oracle applies the IDENTICAL regex chain, so every redacted byte
    is value-hash-checked."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def redact(t: pa.Table) -> pa.Table:
        s = t["text"]
        for pat, tok in _PII_PATTERNS:
            s = pc.replace_substring_regex(s, pat, tok)
        n_red = pc.add(
            pc.count_substring(s, "<EMAIL>"),
            pc.add(pc.count_substring(s, "<PHONE>"),
                   pc.count_substring(s, "<LONGNUM>"))).cast(pa.int64())
        return pa.table({"doc_id": t["doc_id"], "clean_text": s,
                         "n_redactions": n_red})

    return ds.map_batches(redact, batch_format="pyarrow")


def doc_redact_pii_sql() -> str:
    # DuckDB single-quoted strings take backslashes LITERALLY (no escaping):
    # the regex must go in with single backslashes or '\b'/'\d' would match
    # literal backslash characters and the oracle would redact nothing
    # (caught by test_doc_redact_pii_on_planted_pii, which plants real
    # PII-shaped strings — the sf fixtures contain none, so the corpus-level
    # hash check alone would be vacuously green either way).
    expr = "text"
    for pat, tok in _PII_PATTERNS:
        sql_pat = pat.replace("'", "''")
        expr = f"regexp_replace({expr}, '{sql_pat}', '{tok}', 'g')"
    return f"""
WITH r AS (SELECT doc_id, {expr} AS clean_text FROM documents)
SELECT doc_id, clean_text,
       CAST(length(clean_text) - length(replace(clean_text, '<EMAIL>', substring('<EMAIL>', 2)))
          + length(clean_text) - length(replace(clean_text, '<PHONE>', substring('<PHONE>', 2)))
          + length(clean_text) - length(replace(clean_text, '<LONGNUM>', substring('<LONGNUM>', 2)))
          AS BIGINT) AS n_redactions
FROM r
"""


# ------------------------------------------------------------- doc chunking

def q_doc_chunks(sf_dir: str, max_words: int = 64, ds=None):
    """Split every document into fixed-size word chunks with stable ids —
    the context-window packing primitive (one training sample per chunk).

    flat_map realized vectorized: tokens are flattened ONCE per batch, chunk
    boundaries computed arithmetically on the offsets, and chunk strings
    rebuilt with a single ``binary_join_element_wise``-free slice gather via
    list-array reconstruction — no per-document Python loop. Output grows
    rows (1 -> ceil(n_words/max_words) per doc); chunk_id = (doc_id,
    chunk_idx) so any worker can recompute any chunk independently.
    ``ds`` overrides the table source (curate chains pass survivors)."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        return _chunk_batch(t, max_words)[0]

    return ds.map_batches(chunk, batch_format="pyarrow")


def _chunk_batch(t: pa.Table, max_words: int) -> tuple[pa.Table, np.ndarray]:
    """Vectorized fixed-window chunk expansion shared by ``q_doc_chunks``,
    passage dedup and the boilerplate scrub: one flat tokenization per batch,
    arithmetic chunk boundaries, a single list-array rebuild — no per-doc
    Python loop. Returns (chunk table, per-chunk row index into ``t``); the
    chunk table is emitted doc-major with ascending ``chunk_idx``."""
    flat, offs = _tokens_flat(t["text"])
    counts = offs[1:] - offs[:-1]
    n_chunks = np.maximum((counts + max_words - 1) // max_words, 1)
    doc_rep = np.repeat(np.arange(len(counts), dtype=np.int64), n_chunks)
    # chunk k of doc d spans flat[offs[d] + k*W : min(offs[d]+(k+1)*W, offs[d+1])]
    chunk_idx = H._ranges(n_chunks)
    starts = offs[:-1][doc_rep] + chunk_idx * max_words
    ends = np.minimum(starts + max_words, offs[1:][doc_rep])
    # rebuild one list<string> array over the flat tokens, then join
    lens = ends - starts
    # gather token indices for every chunk in one arange trick
    tok_idx = np.repeat(starts, lens) + H._ranges(lens)
    toks = flat.take(pa.array(tok_idx, pa.int64()))
    loffs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    lst = pa.ListArray.from_arrays(pa.array(loffs), toks)
    joined = pc.binary_join(lst, " ")
    tbl = pa.table({
        "doc_id": t["doc_id"].take(pa.array(doc_rep, pa.int64())),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "n_words": pa.array(lens, pa.int64()),
        "chunk_text": joined,
    })
    return tbl, doc_rep


def doc_chunks_sql(max_words: int = 64) -> str:
    return f"""
WITH w AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS toks
  FROM documents
), spans AS (
  SELECT doc_id, toks, CAST(i AS BIGINT) AS chunk_idx,
         greatest(length(toks), 1) AS n
  FROM w, UNNEST(generate_series(0,
        CAST(ceil(greatest(length(toks), 1) / {max_words}.0) AS BIGINT) - 1)) AS t(i)
)
SELECT doc_id, chunk_idx,
       CAST(least(n, (chunk_idx + 1) * {max_words}) - chunk_idx * {max_words} AS BIGINT) AS n_words,
       array_to_string(toks[CAST(chunk_idx * {max_words} + 1 AS BIGINT)
                            :CAST(least(n, (chunk_idx + 1) * {max_words}) AS BIGINT)], ' ') AS chunk_text
FROM spans
"""


# ------------------------------------------------------------ passage dedup

_PASSAGE_WORDS = 32     # passage = fixed 32-word chunk (boilerplate unit)
_CHUNK_IDX_BITS = 20    # rep key = doc_id * 2^20 + chunk_idx (exact in int64)


def q_doc_passage_dedup(sf_dir: str):
    """Passage-level exact dedup: split every document into fixed 32-word
    passages and collapse byte-identical passages ACROSS the corpus to one
    representative — the sub-document dedup step (boilerplate headers,
    licence blocks, quoted chunks) that whole-document dedup cannot see.
    Output: one row per distinct passage text with its representative
    (min (doc_id, chunk_idx) lexicographic, as the packed int64
    ``doc_id * 2^20 + chunk_idx`` both engines minimize) and the copy count.

    Scale plan: the chunk expansion is ``q_doc_chunks``'s vectorized
    flat_map (no per-doc loop); the only shuffle is the groupby over
    passage text — the reference's R8 content-identity shuffle at passage
    granularity (dictionary.c:49-78 generalized). The min-key and count
    aggregates both combine associatively, so Ray pre-aggregates per block
    before the exchange; at 100 TB you'd group on a 128-bit content hash
    instead, but the representative's text must cross the wire either way
    because it IS the output."""
    from ray.data.aggregate import Count, Min

    chunks = q_doc_chunks(sf_dir, max_words=_PASSAGE_WORDS)

    def pack(t: pa.Table) -> pa.Table:
        key = (t["doc_id"].to_numpy() * (1 << _CHUNK_IDX_BITS)
               + t["chunk_idx"].to_numpy())
        return pa.table({"chunk_text": t["chunk_text"],
                         "key": pa.array(key, pa.int64())})

    agg = (chunks.map_batches(pack, batch_format="pyarrow")
           .groupby("chunk_text")
           .aggregate(Min("key", alias_name="rep_key"),
                      Count(alias_name="n_copies")))

    def unpack(t: pa.Table) -> pa.Table:
        key = t["rep_key"].to_numpy()
        return pa.table({
            "chunk_text": t["chunk_text"],
            "rep_doc_id": pa.array(key >> _CHUNK_IDX_BITS, pa.int64()),
            "rep_chunk_idx": pa.array(key & ((1 << _CHUNK_IDX_BITS) - 1),
                                      pa.int64()),
            "n_copies": t["n_copies"].cast(pa.int64()),
        })

    return agg.map_batches(unpack, batch_format="pyarrow")


def q_doc_norm_exact_dedup(sf_dir: str):
    """Normalization-invariant exact dedup (the C4/CCNet pre-pass): collapse
    documents that are byte-identical AFTER lowercase + whitespace-run
    collapse + trim — catching re-encoded copies that differ only in case
    or formatting, which byte-exact dedup misses and near-dup machinery
    shouldn't have to spend candidates on. Output: one row per distinct
    NORMALIZED text (the normalized string itself is in the output, so the
    driver's value-hash compares the engine's normalizer byte-for-byte
    against DuckDB's) with min-doc_id representative and copy count.

    Scale plan: identical to ``exact_dedup_docs`` — the normalize is a
    stateless vectorized pyarrow pass (RE2 + utf8_lower, no Python rows)
    before the same content groupby; composes with
    ``dedup_keep_first_lowshuffle``'s two-pass plan at scale since the
    normalized text feeds the same hash."""
    from ray.data.aggregate import Count, Min

    from deduplication_ray.stages.signatures import normalize_captions

    ds = _docs(sf_dir, ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"norm_text": normalize_captions(t["text"]),
                         "doc_id": t["doc_id"]})

    return (ds.map_batches(norm, batch_format="pyarrow")
            .groupby("norm_text")
            .aggregate(Min("doc_id", alias_name="rep_id"),
                       Count(alias_name="n_copies")))


Q_DOC_NORM_EXACT_DEDUP_SQL = r"""
SELECT trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS norm_text,
       min(doc_id) AS rep_id, count(*) AS n_copies
FROM documents GROUP BY 1
"""


def q_source_drift_tvd(sf_dir: str):
    """Corpus drift monitor (the crawl-over-crawl health check): per-source
    total-variation-distance contributions between two snapshots — here the
    deterministic even/odd doc_id halves standing in for crawl N vs N+1.
    TVD = 0.5 * sum |p_a - p_b| is rational in the counts, so the whole
    report is EXACT int64 arithmetic (floor micro units): no float crosses
    engines, unlike a PSI/KL form whose ln() would be libm-dependent.

    Scale plan: per-batch (source, parity) count partials -> a
    |sources|x2-bounded groupby -> driver-side exact rational finalize on
    the bounded table. One row per source; the corpus never re-shuffles."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "source"])

    def parity_counts(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        even = (t["doc_id"].to_numpy() % 2) == 0
        u, inv = np.unique(src, return_inverse=True)
        ca = np.bincount(inv, weights=even.astype(np.float64))
        cb = np.bincount(inv, weights=(~even).astype(np.float64))
        return pa.table({"source": pa.array(u),
                         "ca": pa.array(ca.astype(np.int64), pa.int64()),
                         "cb": pa.array(cb.astype(np.int64), pa.int64())})

    agg = (ds.map_batches(parity_counts, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("ca", alias_name="ca"),
                      Sum("cb", alias_name="cb"))).to_pandas()
    if agg.empty or "source" not in agg.columns:
        return pd.DataFrame({"source": pd.Series(dtype=object),
                             "ca": pd.Series(dtype="int64"),
                             "cb": pd.Series(dtype="int64"),
                             "tvd_contrib_micro": pd.Series(dtype="int64")})
    na, nb = int(agg["ca"].sum()), int(agg["cb"].sum())
    contrib = [
        (1_000_000 * abs(int(ca) * nb - int(cb) * na)) // (2 * na * nb)
        if na and nb else 0
        for ca, cb in zip(agg["ca"], agg["cb"])]
    return pd.DataFrame({"source": agg["source"],
                         "ca": agg["ca"].astype("int64"),
                         "cb": agg["cb"].astype("int64"),
                         "tvd_contrib_micro": pd.Series(contrib,
                                                        dtype="int64")})


Q_SOURCE_DRIFT_TVD_SQL = """
WITH c AS (
  SELECT source,
         sum(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS ca,
         sum(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END) AS cb
  FROM documents GROUP BY source
), t AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM c)
SELECT source, CAST(ca AS BIGINT) AS ca, CAST(cb AS BIGINT) AS cb,
       CAST(CASE WHEN na = 0 OR nb = 0 THEN 0
                 ELSE (1000000 * abs(ca * nb - cb * na)) // (2 * na * nb)
            END AS BIGINT) AS tvd_contrib_micro
FROM c, t
"""


def q_doc_compression_ratio(sf_dir: str):
    """Compression-ratio quality signal (the Dolma/RedPajama filter): per
    document, ``zlib(level 6)`` size over raw size in integer milli. Very
    LOW ratios flag template/repetition spam (machine-generated boilerplate
    compresses absurdly well); ratios near 1000+ flag high-entropy noise
    (base64 blobs, minified code, random bytes). Rows-only: DuckDB has no
    zlib, and the exact byte count is a property of the codec.

    Scale plan: one stateless map_batches; the compress call is per-row C
    (zlib streams are inherently per-payload, same boundary as the DDP1 and
    WAV decoders) over the Arrow buffer slices, everything else vectorized.
    Deterministic: zlib level 6 output bytes are fixed for a given input."""
    import zlib

    ds = _docs(sf_dir, ["doc_id", "text"])

    def ratio(t: pa.Table) -> pa.Table:
        data, offs = H._arrow_flat_buffer(t["text"])
        mv = memoryview(data)
        n = len(offs) - 1
        comp = np.fromiter(
            (len(zlib.compress(mv[offs[i]:offs[i + 1]], 6))
             for i in range(n)), np.int64, n)
        raw = np.maximum(offs[1:] - offs[:-1], 1)
        return pa.table({
            "doc_id": t["doc_id"],
            "raw_bytes": pa.array(raw, pa.int64()),
            "ratio_milli": pa.array(comp * 1000 // raw, pa.int64()),
        })

    return ds.map_batches(ratio, batch_format="pyarrow")


def doc_passage_dedup_sql() -> str:
    chunks = doc_chunks_sql(_PASSAGE_WORDS).strip()
    return f"""
WITH chunks AS ({chunks}),
agg AS (
  SELECT chunk_text,
         min(doc_id * {1 << _CHUNK_IDX_BITS} + chunk_idx) AS rep_key,
         count(*) AS n_copies
  FROM chunks GROUP BY chunk_text
)
SELECT chunk_text,
       CAST(rep_key // {1 << _CHUNK_IDX_BITS} AS BIGINT) AS rep_doc_id,
       CAST(rep_key % {1 << _CHUNK_IDX_BITS} AS BIGINT) AS rep_chunk_idx,
       CAST(n_copies AS BIGINT) AS n_copies
FROM agg
"""


# ------------------------------------------- content-defined chunk dedup (CDC)

_CDC_GEAR = H.splitmix64(np.arange(1, 257, dtype=np.uint64))
_CDC_SRC_BITS = 10      # owner key = (doc_id << 30) | (chunk_idx << 10) | src
_CDC_IDX_BITS = 20      # (exact in int64 at test scale; 128-bit at 10^12)


def _cdc_cuts(texts: pa.Array | pa.ChunkedArray, mask_bits: int,
              max_chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized gear-hash content-defined chunking over one Arrow string
    OR binary column (sensor payloads chunk the same way as captions).
    Returns ``(raw, cuts, chunk_doc)``: the column's flat byte
    buffer, chunk cut offsets into it (chunks tile each doc exactly), and
    each chunk's row index.

    The gear recurrence ``h = (h << 1) + GEAR[byte]`` is unrolled to a sum
    of shifted gear lookups; the boundary test ``(h & mask) == 0`` only
    reads the low ``mask_bits`` bits, and the ``j``-th shifted term cannot
    touch bits below ``j`` — so ``mask_bits`` shifted vectorized adds
    reproduce the textbook per-byte loop bit-exactly (window = mask_bits
    trailing bytes, the effective window of gear CDC at this mask). Docs
    are separated by ``mask_bits - 1`` zero entries in gear space (zero
    contributions), so every hash is a pure function of its own doc's
    bytes and the chunking is partition/batch-size invariant. No per-byte
    or per-row Python loop anywhere; the only loop is over gaps longer
    than ``max_chunk`` (pathological boundary-free runs)."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) \
        else texts
    n = len(arr)
    if n == 0:
        z = np.zeros(0, np.int64)
        return np.zeros(0, np.uint8), z, z
    off_dt = np.int64 if (pa.types.is_large_string(arr.type)
                          or pa.types.is_large_binary(arr.type)) else np.int32
    buf_off = np.frombuffer(arr.buffers()[1], off_dt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    start, stop = buf_off[0], buf_off[-1]
    raw = data[start:stop]
    lens = np.diff(buf_off)
    total = int(stop - start)

    pad = mask_bits - 1
    g = _CDC_GEAR[raw]
    doc_of_byte = np.repeat(np.arange(n, dtype=np.int64), lens)
    pad_pos = np.arange(total, dtype=np.int64) + doc_of_byte * pad
    gp = np.zeros(total + n * pad, dtype=np.uint64)
    gp[pad_pos] = g
    h = gp.copy()
    with np.errstate(over="ignore"):
        for j in range(1, mask_bits):
            h[j:] += gp[:-j] << np.uint64(j)

    mask = np.uint64((1 << mask_bits) - 1)
    cand_p = np.flatnonzero((h & mask) == 0)
    real = np.zeros(len(gp), dtype=bool)
    real[pad_pos] = True
    cand_p = cand_p[real[cand_p]]
    doc_starts = buf_off[:-1] - start
    doc_ends = buf_off[1:] - start
    owner = np.searchsorted(doc_starts + np.arange(n) * pad, cand_p,
                            side="right") - 1
    cand = cand_p - owner * pad          # cut AFTER this byte

    cuts = np.unique(np.concatenate([doc_starts, cand + 1, doc_ends]))
    gaps = np.diff(cuts)
    big = np.flatnonzero(gaps > max_chunk)
    if len(big):
        extra = [np.arange(cuts[i] + max_chunk, cuts[i + 1], max_chunk)
                 for i in big]
        cuts = np.unique(np.concatenate([cuts] + extra))
    chunk_doc = np.searchsorted(doc_ends, cuts[:-1], side="right")
    return raw, cuts, chunk_doc


def q_doc_cdc_dedup(sf_dir: str, mask_bits: int = 6, max_chunk: int = 256):
    """Content-defined chunk dedup report: gear-hash CDC boundaries make
    chunk identity survive insertions/deletions (a shifted copy re-aligns
    at the next content boundary), generalizing the reference's FIXED
    block dictionary dedup (``compressor.c:75-114``) to shift-tolerant
    chunks — the rsync/casync/LBFS trick as a Ray pipeline.

    Per source: how many chunks/bytes it contributes, how many survive
    content dedup (a chunk's bytes count once, attributed to its global
    min-(doc, chunk, src) representative), and the per-mille byte saving.

    Scale plan: chunking + content hashing are one vectorized map_batches
    pass (no per-row loops; see ``_cdc_cuts``); ONLY fixed-width rows
    (two independent u64 content hashes + length + packed owner) cross
    the wire — never chunk payloads, unlike passage dedup whose output IS
    the text. The groupby key (h1, h2, len) is an effective 128-bit
    identity; min/count/max aggregates all pre-combine per block. The
    per-source rollup is in-batch partials summed on the driver
    (|sources| x #batches rows)."""
    from ray.data.aggregate import Count, Min

    sources = sorted(_docs(sf_dir, ["source"]).unique("source"))
    assert len(sources) < (1 << _CDC_SRC_BITS)
    src_ref = ray.put(sources)

    class Chunker:
        def __init__(self):
            self.src_vals = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.src_vals is None:
                self.src_vals = pa.array(ray.get(src_ref))
            raw, cuts, chunk_doc = _cdc_cuts(t["text"], mask_bits, max_chunk)
            if len(cuts) <= 1:
                return pa.table({"h1": pa.array([], pa.int64()),
                                 "h2": pa.array([], pa.int64()),
                                 "clen": pa.array([], pa.int64()),
                                 "owner": pa.array([], pa.int64())})
            nch = len(cuts) - 1
            if cuts[-1] < (1 << 31):
                chunks = pa.Array.from_buffers(
                    pa.binary(), nch,
                    [None, pa.py_buffer(cuts.astype(np.int32)),
                     pa.py_buffer(raw)])
            else:  # >2GB flat buffer (large_string input): int64 offsets
                chunks = pa.Array.from_buffers(
                    pa.large_binary(), nch,
                    [None, pa.py_buffer(np.ascontiguousarray(cuts)),
                     pa.py_buffer(raw)])
            h1 = H.bitcast_u64_to_i64(H.hash_bytes_array(chunks, seed=0))
            h2 = H.bitcast_u64_to_i64(H.hash_bytes_array(chunks, seed=1))
            doc_id = t["doc_id"].to_numpy()[chunk_doc]
            src = pc.index_in(t["source"], value_set=self.src_vals) \
                .to_numpy(zero_copy_only=False).astype(np.int64)[chunk_doc]
            first = np.concatenate([[0], np.flatnonzero(
                np.diff(chunk_doc)) + 1])
            cidx = (np.arange(nch, dtype=np.int64)
                    - np.repeat(first, np.diff(np.concatenate(
                        [first, [nch]]))))
            # loud overflow guards: a silent carry between packed fields
            # would mis-attribute representatives (use a 128-bit key past
            # these bounds)
            if nch and cidx.max() >= (1 << _CDC_IDX_BITS):
                raise ValueError("CDC owner key: >2^20 chunks in one doc")
            if nch and doc_id.max() >= (1 << (63 - _CDC_IDX_BITS
                                              - _CDC_SRC_BITS)):
                raise ValueError("CDC owner key: doc_id >= 2^33")
            owner = ((doc_id << (_CDC_IDX_BITS + _CDC_SRC_BITS))
                     | (cidx << _CDC_SRC_BITS) | src)
            return pa.table({
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
                "clen": pa.array(cuts[1:] - cuts[:-1], pa.int64()),
                "owner": pa.array(owner, pa.int64())})

    per_chunk = (_docs(sf_dir, ["doc_id", "text", "source"])
                 .map_batches(Chunker(), batch_format="pyarrow")
                 .groupby(["h1", "h2", "clen"])
                 .aggregate(Min("owner", alias_name="rep_owner"),
                            Count(alias_name="n_copies")))

    def per_source(t: pa.Table) -> pa.Table:
        src = (t["rep_owner"].to_numpy()
               & ((1 << _CDC_SRC_BITS) - 1)).astype(np.int64)
        clen = t["clen"].to_numpy()
        n = t["n_copies"].to_numpy().astype(np.int64)
        k = len(sources)

        def segsum(w: np.ndarray) -> np.ndarray:
            # exact int64 accumulation (bincount sums in float64 and would
            # round past 2^53 at 10^12-row scale)
            out = np.zeros(k, np.int64)
            np.add.at(out, src, w)
            return out

        return pa.table({
            "src": pa.array(np.arange(k, dtype=np.int64)),
            "n_unique_chunks": pa.array(np.bincount(src, minlength=k)
                                        .astype(np.int64)),
            "unique_bytes": pa.array(segsum(clen)),
            "n_copies": pa.array(segsum(n)),
            "total_bytes": pa.array(segsum(clen * n))})

    mom = (per_chunk.map_batches(per_source, batch_format="pyarrow")
           .to_pandas())
    g = mom.groupby("src", sort=True).sum().reset_index()
    g["source"] = [sources[i] for i in g["src"]]
    tot = g["total_bytes"].to_numpy()
    saved = tot - g["unique_bytes"].to_numpy()
    g["saved_bytes"] = saved
    g["saved_permille"] = np.where(tot > 0, saved * 1000 // np.maximum(
        tot, 1), 0).astype(np.int64)
    return g[["source", "n_unique_chunks", "unique_bytes", "n_copies",
              "total_bytes", "saved_bytes", "saved_permille"]]


# ------------------------------------------------- deterministic global shuffle

def q_doc_global_shuffle(sf_dir: str):
    """Deterministic global shuffle with materialized positions — the
    "shuffle the corpus before packing" step, as a distributed zipWithIndex
    (an operator Ray Data lacks).

    Plan: shuffle order = sort by (multiplicative doc_id hash, doc_id) — a
    seeded permutation any worker can recompute. Positions come from the
    classic two-pass zipWithIndex: after the range sort, one cheap metadata
    pass collects each block's (first-key, row-count) — #blocks rows, not
    #rows — the driver prefix-sums them into per-block offsets, broadcasts
    the tiny map, and a second stateless pass emits offset + local arange.
    No per-row driver work, no second data shuffle."""
    ds = _docs(sf_dir, ["doc_id"])

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.uint64) % np.uint64(2**31)
        h = (ids * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        return t.append_column("h", pa.array(h.astype(np.int64)))

    sorted_ds = (ds.map_batches(key, batch_format="pyarrow")
                 .sort(["h", "doc_id"]).materialize())

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h0": pa.array([], pa.int64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"h0": t["h"].slice(0, 1),
                         "id0": t["doc_id"].slice(0, 1),
                         "cnt": pa.array([t.num_rows], pa.int64())})

    meta = pa.concat_tables(
        list(sorted_ds.map_batches(block_meta, batch_format="pyarrow",
                                   batch_size=None)
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default").to_pandas()
    meta = meta.sort_values(["h0", "id0"]).reset_index(drop=True)
    offsets = {(int(r.h0), int(r.id0)): int(o) for r, o in zip(
        meta.itertuples(), np.concatenate([[0], np.cumsum(meta["cnt"])[:-1]]))}
    ref = ray.put(offsets)

    class Enumerate:
        def __init__(self):
            self.offsets = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"doc_id": pa.array([], pa.int64()),
                                 "shuffle_pos": pa.array([], pa.int64())})
            if self.offsets is None:
                self.offsets = ray.get(ref)
            base = self.offsets[(int(t["h"][0].as_py()),
                                 int(t["doc_id"][0].as_py()))]
            return pa.table({
                "doc_id": t["doc_id"],
                "shuffle_pos": pa.array(
                    base + np.arange(t.num_rows, dtype=np.int64)),
            })

    return sorted_ds.map_batches(Enumerate(), batch_format="pyarrow",
                                 batch_size=None)


Q_DOC_GLOBAL_SHUFFLE_SQL = f"""
SELECT doc_id,
       CAST(row_number() OVER (
            ORDER BY ((doc_id % 2147483648) * {_SPLIT_MULT}) % {_SPLIT_MOD},
                     doc_id) - 1 AS BIGINT) AS shuffle_pos
FROM documents
"""


# --------------------------------------------------- multi-detector ensemble

def q_ensemble_dup_pairs(sf_dir: str, jac_tau: float = 0.6,
                         cos_min: float = 0.45):
    """Detector-fusion dedup: the union of the LEXICAL near-dup detector
    (exact char-5-gram Jaccard >= jac_tau over documents) and the SEMANTIC
    one (embedding cosine >= cos_min over the aligned embeddings table),
    per pair flagged with which detector(s) fired — the ensemble view a
    curation pipeline acts on (lexical-only -> boilerplate, semantic-only
    -> paraphrase, both -> hard duplicate).

    Fusion is one bounded groupby-max over the two detectors' pair streams
    (each already sub-linear/size-dispatched); detectors never re-run per
    fusion."""
    from ray.data.aggregate import Max

    from deduplication_ray.pipelines.ann import embedding_dup_pairs

    def flag(lex: int, sem: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "src": t["src"].cast(pa.int64()),
                "dst": t["dst"].cast(pa.int64()),
                "lexical": pa.array(np.full(n, lex, np.int64)),
                "semantic": pa.array(np.full(n, sem, np.int64)),
            })
        return fn

    lex = q_ngram_jaccard_pairs(sf_dir, tau=jac_tau).map_batches(
        flag(1, 0), batch_format="pyarrow")
    sem = embedding_dup_pairs(sf_dir, cos_min=cos_min).map_batches(
        flag(0, 1), batch_format="pyarrow")
    return (lex.union(sem).groupby(["src", "dst"])
            .aggregate(Max("lexical", alias_name="lexical"),
                       Max("semantic", alias_name="semantic")))


def ensemble_dup_pairs_sql(jac_tau: float = 0.6, cos_min: float = 0.45) -> str:
    return f"""
WITH lex AS (
  SELECT src, dst FROM ({ngram_jaccard_pairs_sql(jac_tau)})
), sem AS (
  SELECT a.vec_id AS src, b.vec_id AS dst
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= {cos_min}
)
SELECT COALESCE(l.src, s.src) AS src,
       COALESCE(l.dst, s.dst) AS dst,
       CAST(CASE WHEN l.src IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS lexical,
       CAST(CASE WHEN s.src IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS semantic
FROM lex l FULL OUTER JOIN sem s ON l.src = s.src AND l.dst = s.dst
"""


# ---------------------------------------------- representative selection policy

def q_doc_dedup_keep_best(sf_dir: str, ds=None):
    """Near-dup dedup with a QUALITY-AWARE representative policy: cluster
    documents with the full text near-dup engine, then keep the
    highest-quality member of each cluster (ties -> smallest doc_id) instead
    of the min-id member — the curation policy that preserves the best copy
    of every duplicated passage.

    Selection is one bounded groupby-argmax over (cluster_id,
    quality_milli): the per-doc quality scores ride along the cluster
    stream, so no second scan of the text. Rows-only (clusters come from
    iterative union-find). ``ds`` overrides the documents read with any
    (doc_id, text) dataset (``curate.curate_documents`` passes its scrubbed
    survivors)."""
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters

    if ds is None:
        ds = _docs(sf_dir, ["doc_id", "text"])

    def qscore(t: pa.Table) -> pa.Table:
        score = T.quality_score(t["text"])
        return pa.table({
            "doc_id": t["doc_id"],
            "quality_milli": pa.array(
                np.floor(score * 1000.0).astype(np.int64)),
        })

    cfg = DedupConfig(num_partitions=8)
    quality = ds.map_batches(qscore, batch_format="pyarrow")
    clusters = text_dedup_clusters(ds, cfg)
    # the cluster engine keys by STRING ids internally; align with the
    # int64 doc_id the quality stream carries before the join
    clusters = clusters.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                            "cluster_id": t["cluster_id"].cast(pa.int64())}),
        batch_format="pyarrow")

    from deduplication_ray.stages.join import lookup_join

    joined = lookup_join(clusters, quality, on=["doc_id"], cfg=cfg)

    # per-partition argmax then one hash-partitioned vectorized final argmax
    # (cluster count is O(rows), so one call per cluster would pay Ray's
    # per-group overhead; hash_grouped_reduce reduces every cluster in a
    # partition in ONE pass) — no bit packing (a packed (quality, id) key
    # would corrupt for ids >= 2^31); each batch emits <= one row per cluster
    def _best_per_cluster(t: pa.Table) -> pa.Table:
        cl = t["cluster_id"].to_numpy()
        did = t["kept_doc_id"].to_numpy()
        qm = t["kept_quality_milli"].to_numpy()
        order = np.lexsort((did, -qm, cl))
        cls = cl[order]
        first = np.concatenate([[True], cls[1:] != cls[:-1]]) \
            if len(cls) else np.zeros(0, bool)
        keep = order[first]
        return pa.table({"cluster_id": pa.array(cl[keep]),
                         "kept_doc_id": pa.array(did[keep]),
                         "kept_quality_milli": pa.array(qm[keep])})

    def partial_best(t: pa.Table) -> pa.Table:
        return _best_per_cluster(pa.table({
            "cluster_id": t["cluster_id"].cast(pa.int64()),
            "kept_doc_id": t["doc_id"].cast(pa.int64()),
            "kept_quality_milli": t["quality_milli"].cast(pa.int64()),
        }))

    return hash_grouped_reduce(
        joined.map_batches(partial_best, batch_format="pyarrow"),
        key_hash=["cluster_id"],
        reduce_fn=_best_per_cluster,
        num_parts=cfg.num_partitions)


# --------------------------------------------------------- sequence packing

def q_doc_pack_sequences(sf_dir: str, seq_len: int = 128, ds=None):
    """Pack the tokenized corpus into fixed-length training sequences by
    global concatenate-and-slice (the standard GPT-style pretraining
    packing): documents are laid end-to-end in doc_id order and cut every
    ``seq_len`` tokens; the output manifest has one row per (document,
    sequence) span — which sequence each doc lands in, how many of its
    tokens, and at what position. (Packing in shuffled order = relabel
    doc_id with the materialized ``q_doc_global_shuffle`` position first;
    this op always packs in ascending key order.)

    Scale plan: the global token offset of every document is a distributed
    prefix sum realized with the same two-pass zipWithIndex shape as
    ``q_doc_global_shuffle`` — after a range sort on doc_id, ONE metadata
    pass collects per-block (first doc_id, token total) — #blocks rows, not
    #rows — the driver prefix-sums the tiny list, broadcasts the offset
    map, and a stateless second pass computes per-doc offsets (intra-block
    cumsum + block base) and expands doc -> (seq_id, span) rows vectorized
    (np.repeat + arange, no per-doc loop). The heavy text column never
    enters the sort: docs are collapsed to (doc_id, n_tokens) first."""
    src = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        _, offs = _tokens_flat(t["text"])
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pa.array(offs[1:] - offs[:-1])})

    counted = (src.map_batches(count_tokens, batch_format="pyarrow")
               .sort("doc_id").materialize())

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id0": pa.array([], pa.int64()),
                             "toks": pa.array([], pa.int64())})
        return pa.table({
            "id0": t["doc_id"].slice(0, 1),
            "toks": pa.array([int(t["n_tokens"].to_numpy().sum())], pa.int64()),
        })

    meta = pa.concat_tables(
        list(counted.map_batches(block_meta, batch_format="pyarrow",
                                 batch_size=None)
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default").to_pandas().sort_values("id0")
    bases = np.concatenate([[0], np.cumsum(meta["toks"].to_numpy())[:-1]]) \
        if len(meta) else np.array([], dtype=np.int64)
    ref = ray.put({int(i): int(b) for i, b in zip(meta["id0"], bases)})

    class Expand:
        def __init__(self):
            self.bases = None

        def __call__(self, t: pa.Table) -> pa.Table:
            empty = pa.table({"doc_id": pa.array([], pa.int64()),
                              "seq_id": pa.array([], pa.int64()),
                              "seq_tokens": pa.array([], pa.int64()),
                              "start_in_seq": pa.array([], pa.int64())})
            if t.num_rows == 0:
                return empty
            if self.bases is None:
                self.bases = ray.get(ref)
            n = t["n_tokens"].to_numpy()
            off = self.bases[int(t["doc_id"][0].as_py())] + np.cumsum(n) - n
            s0, s1 = off // seq_len, (off + n - 1) // seq_len
            reps = s1 - s0 + 1
            doc_rep = np.repeat(np.arange(len(n), dtype=np.int64), reps)
            seq = s0[doc_rep] + H._ranges(reps)
            lo = np.maximum(seq * seq_len, off[doc_rep])
            hi = np.minimum((seq + 1) * seq_len, (off + n)[doc_rep])
            return pa.table({
                "doc_id": t["doc_id"].take(pa.array(doc_rep, pa.int64())),
                "seq_id": pa.array(seq),
                "seq_tokens": pa.array(hi - lo),
                "start_in_seq": pa.array(lo - seq * seq_len),
            })

    return counted.map_batches(Expand(), batch_format="pyarrow",
                               batch_size=None)


def doc_pack_sequences_sql(seq_len: int = 128) -> str:
    return f"""
WITH w AS (
  SELECT doc_id,
         CAST(length(string_split_regex(lower(trim(text)), '\\s+')) AS BIGINT) AS n
  FROM documents
), o AS (
  SELECT doc_id, n,
         CAST(sum(n) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n AS BIGINT) AS off
  FROM w
)
SELECT doc_id,
       CAST(s AS BIGINT) AS seq_id,
       CAST(least((s + 1) * {seq_len}, off + n) - greatest(s * {seq_len}, off) AS BIGINT) AS seq_tokens,
       CAST(greatest(s * {seq_len}, off) - s * {seq_len} AS BIGINT) AS start_in_seq
FROM o, UNNEST(generate_series(off // {seq_len}, (off + n - 1) // {seq_len})) AS t(s)
"""


# -------------------------------------------------------- exact-k uniform sample

def _bottom_k_docs(ds, key_of_batch, k: int, key_type: pa.DataType) -> pa.Table:
    """Shared exact-k bottom-k scaffold for the samplers: each block keeps
    its own k smallest (key, doc_id) rows — vectorized partial, so the
    driver collect is bounded at k x num_blocks — then one tiny final merge.
    ``key_of_batch`` maps a batch to its per-row sort key (deterministic,
    partition-invariant by construction)."""

    def partial(t: pa.Table) -> pa.Table:
        out = pa.table({"doc_id": t["doc_id"], "key": key_of_batch(t)})
        if out.num_rows <= k:
            return out
        idx = pc.sort_indices(out, sort_keys=[("key", "ascending"),
                                              ("doc_id", "ascending")])
        return out.take(idx[:k])

    tbls = list(ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None))
    cand = pa.concat_tables(tbls, promote_options="default") if tbls \
        else pa.table({"doc_id": pa.array([], pa.int64()),
                       "key": pa.array([], key_type)})
    idx = pc.sort_indices(cand, sort_keys=[("key", "ascending"),
                                           ("doc_id", "ascending")])
    return cand.take(idx[:k]).select(["doc_id"])


def q_doc_uniform_sample(sf_dir: str, k: int = 100, ds=None):
    """EXACTLY-k uniform corpus sample: the k documents with the smallest
    seeded multiplicative hash — bottom-k sampling, the way to draw a fixed-
    size uniform sample from 10^12 rows without a global sort or any
    driver-side randomness (deterministic, resumable, any worker can
    recompute membership given the final threshold).

    Scale plan: each block keeps only its own k smallest hashes (vectorized
    partial top-k, so the collect is bounded at k x num_blocks rows), one
    tiny final merge picks the global bottom k. Complements the RATE
    samplers (``q_lang_stratified_sample``: fixed keep probability,
    variable count) with a fixed-COUNT draw."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id"])

    def key(t: pa.Table) -> pa.Array:
        ids = t["doc_id"].to_numpy().astype(np.uint64) % np.uint64(2**31)
        # second multiplicative mix so the sample is independent of the
        # train/val/test split (different constant than _SPLIT_MULT)
        u = (ids * np.uint64(2246822519)) % np.uint64(_SPLIT_MOD)
        return pa.array(u.astype(np.int64))

    return _bottom_k_docs(ds, key, k, pa.int64())


def doc_uniform_sample_sql(k: int = 100) -> str:
    return f"""
SELECT doc_id FROM documents
ORDER BY ((doc_id % 2147483648) * 2246822519) % {_SPLIT_MOD}, doc_id
LIMIT {k}
"""


# ------------------------------------------------- weighted (pps) sampling

# xxHash PRIME32_3 (public constant) — a third independent multiplicative
# stream so the weighted draw is uncorrelated with both the train/val/test
# split (_SPLIT_MULT) and the uniform sample (2246822519 = PRIME32_2).
_WSAMPLE_MULT = 3266489917


def q_doc_weighted_sample(sf_dir: str, k: int = 100, ds=None):
    """EXACTLY-k sample with inclusion probability proportional to document
    LENGTH (code points) — sequential Poisson sampling (Ohlsson 1998, public):
    rank every row by ``u / w`` where ``u`` is a seeded multiplicative hash of
    doc_id and ``w`` the weight, keep the global bottom k. Sampling docs
    proportional to size is the standard way to draw an (approximately)
    token-unbiased subset for training-mix experiments; with w=1 it
    degenerates to ``q_doc_uniform_sample``.

    Scale plan mirrors the uniform sampler: each block keeps only its own k
    smallest keys (vectorized partial bottom-k), the driver merges the
    bounded k x num_blocks survivors — no global sort, no shuffle,
    deterministic under any partitioning. The key u/w is an exact IEEE754
    double of two exact integers on BOTH engines, so the DuckDB oracle
    reproduces the ordering bit-for-bit."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def key(t: pa.Table) -> pa.Array:
        ids = t["doc_id"].to_numpy().astype(np.uint64) % np.uint64(2**31)
        u = (ids * np.uint64(_WSAMPLE_MULT)) % np.uint64(_SPLIT_MOD)
        w = pc.utf8_length(t["text"]).to_numpy(zero_copy_only=False)
        w = np.maximum(w.astype(np.int64), 1)
        return pa.array(u.astype(np.float64) / w)

    return _bottom_k_docs(ds, key, k, pa.float64())


def doc_weighted_sample_sql(k: int = 100) -> str:
    return f"""
SELECT doc_id FROM documents
ORDER BY CAST(((doc_id % 2147483648) * {_WSAMPLE_MULT}) % {_SPLIT_MOD} AS DOUBLE)
         / GREATEST(length(text), 1), doc_id
LIMIT {k}
"""


# ---------------------------------------------- fuzzy (near-dup) decontamination

# The fuzzy filter uses its OWN eval slice (mod 29, ~3% of docs): the mod-97
# slice used by the exact filter happens to contain no planted near-dups at
# the test scales, which would make this operator vacuous under the oracle.
_FUZZY_EVAL_MOD = 29


def q_doc_fuzzy_decontaminate(sf_dir: str, n: int = 3, tau: float = 0.5,
                              ds=None):
    """NEAR-duplicate benchmark decontamination: drop every training document
    whose distinct word n-gram JACCARD similarity with ANY held-out eval doc
    (doc_id % _FUZZY_EVAL_MOD == 0) reaches ``tau`` — the fuzzy complement of
    ``q_doc_decontaminate`` (which needs only ONE shared gram and so
    over-fires on boilerplate). This is the overlap rule used for training-set
    decontamination in published LLM data work (gram-overlap thresholds
    rather than exact match).

    Scale plan: eval suites are small by construction, so the per-eval-doc
    distinct gram table ({gram, ev_doc, ev_n}) is built in one pruned pass,
    collected once (bounded by the eval suite), and broadcast via ``ray.put``.
    The training side is one stateless ``map_batches``: per batch the
    distinct (row, gram) pairs come from one Arrow C++ group_by, the
    intersection counts from one Arrow C++ hash join against the shared eval
    table plus a second group_by — no Python loops, no corpus shuffle,
    linear in corpus size."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def eval_grams(t: pa.Table) -> pa.Table:
        keep = (t["doc_id"].to_numpy() % _FUZZY_EVAL_MOD) == 0
        t = t.filter(pa.array(keep))
        g, row = _word_grams(t["text"], n)
        d = pa.table({"ev_doc": t["doc_id"].take(pa.array(row)),
                      "gram": g}).group_by(["ev_doc", "gram"]).aggregate([])
        return d

    ev_tbls = list(ds.map_batches(eval_grams, batch_format="pyarrow")
                   .iter_batches(batch_format="pyarrow", batch_size=None))
    ev = pa.concat_tables(ev_tbls, promote_options="default") if ev_tbls else \
        pa.table({"ev_doc": pa.array([], pa.int64()),
                  "gram": pa.array([], pa.string())})
    # rows of one doc never span batches, so per-batch distinct is global
    sizes = ev.group_by("ev_doc").aggregate([("gram", "count")])
    ev = ev.join(sizes.rename_columns(["ev_doc", "ev_n"]), "ev_doc",
                 join_type="inner")
    ref = ray.put(ev)

    def clean(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array((t["doc_id"].to_numpy() % _FUZZY_EVAL_MOD) != 0))
        g, row = _word_grams(t["text"], n)
        bad = np.zeros(t.num_rows, dtype=bool)
        if len(g):
            d = pa.table({"row": pa.array(row), "gram": g}) \
                .group_by(["row", "gram"]).aggregate([])
            n_a = np.zeros(t.num_rows, dtype=np.int64)
            rows_d, cnts_d = np.unique(d["row"].to_numpy(), return_counts=True)
            n_a[rows_d] = cnts_d
            j = d.join(ray.get(ref), "gram", join_type="inner")
            if j.num_rows:
                inter = j.group_by(["row", "ev_doc", "ev_n"]) \
                    .aggregate([("gram", "count")])
                r = inter["row"].to_numpy()
                c = inter["gram_count"].to_numpy()
                ev_n = inter["ev_n"].to_numpy()
                jac = c / np.maximum(n_a[r] + ev_n - c, 1)
                bad[np.unique(r[jac >= tau])] = True
        return pa.table({"doc_id": t["doc_id"].filter(pa.array(~bad))})

    return ds.map_batches(clean, batch_format="pyarrow")


def doc_fuzzy_decontaminate_sql(n: int = 3, tau: float = 0.5) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), sizes AS (
  SELECT doc_id, count(*) AS cnt FROM grams GROUP BY doc_id
), inter AS (
  SELECT tr.doc_id AS td, ev.doc_id AS ed, count(*) AS c
  FROM grams tr JOIN grams ev ON tr.g = ev.g
  WHERE tr.doc_id % {_FUZZY_EVAL_MOD} <> 0 AND ev.doc_id % {_FUZZY_EVAL_MOD} = 0
  GROUP BY 1, 2
), bad AS (
  SELECT DISTINCT i.td FROM inter i
  JOIN sizes sa ON sa.doc_id = i.td
  JOIN sizes sb ON sb.doc_id = i.ed
  WHERE CAST(i.c AS DOUBLE) / (sa.cnt + sb.cnt - i.c) >= {tau}
)
SELECT doc_id FROM documents
WHERE doc_id % {_FUZZY_EVAL_MOD} <> 0 AND doc_id NOT IN (SELECT td FROM bad)
"""


# --------------------------------------------------- BPE-ish token estimation

# GPT-2-style pre-tokenizer pattern (public: the radford2019 BPE splitter),
# restated in RE2-safe syntax (no lookahead — the trailing-space refinement
# `\s+(?!\S)` is dropped, so runs of whitespace count as one token). Both
# pyarrow and DuckDB run RE2 with identical leftmost-first alternation, so
# the per-document counts agree bit-for-bit.
_BPE_SPLIT_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def q_doc_token_estimate(sf_dir: str, ds=None):
    """Per-document token-budget estimate: whitespace token count plus a
    BPE-ish pre-tokenizer match count (the GPT-2 split regex) — the cheap
    stand-in for a real tokenizer when sizing a training mix. One stateless
    ``map_batches``; both counts are single vectorized RE2 kernels
    (``count_substring_regex`` / ``split_pattern_regex``) per batch — no
    Python loops, no shuffle, linear scan."""
    from deduplication_ray.functions.text import token_count

    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens_ws": token_count(t["text"]).cast(pa.int64()),
            "n_tokens_bpe": pc.count_substring_regex(
                t["text"], _BPE_SPLIT_PATTERN).cast(pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def doc_token_estimate_sql() -> str:
    pat = _BPE_SPLIT_PATTERN.replace("'", "''")  # SQL string-literal quoting
    return f"""
SELECT doc_id,
       length(string_split_regex(trim(text), '\\s+')) AS n_tokens_ws,
       length(regexp_extract_all(text, '{pat}')) AS n_tokens_bpe
FROM documents
"""


# ------------------------------------------- heavy hitters (Misra-Gries) sketch

def q_top_terms_sketch(sf_dir: str, k: int = 200, top: int = 20, ds=None):
    """Approximate top terms by document frequency via a MERGEABLE
    Misra-Gries summary (Misra & Gries 1982; mergeability per Agarwal et al.,
    "Mergeable Summaries", PODS 2012 — both public): each batch builds its
    exact distinct-per-doc token counts, compacts them to at most ``k``
    entries by subtracting the (k+1)-th largest count, and ships only that
    summary; the driver pointwise-sums the bounded k x num_blocks partials
    and compacts once more. Estimated counts UNDERCOUNT by at most
    n/(k+1) (n = total distinct doc-token pairs), so every true heavy
    hitter with df > n/(k+1) survives.

    This is the no-shuffle alternative to ``q_top_terms``: that one shuffles
    one row per vocabulary term (fine when vocab << corpus); this one ships a
    CONSTANT k rows per block regardless of vocabulary size — the right
    trade on open-vocabulary 100 TB web text. Rows-only (approximate by
    design); the error bound and exact-top containment are asserted in
    tests against the exact operator."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def mg_compact(toks: pa.Array, cnts: np.ndarray, kk: int) -> pa.Table:
        if len(cnts) > kk:
            order = np.argsort(-cnts, kind="stable")
            sub = cnts[order[kk]]
            keep = order[:kk]
            toks, cnts = toks.take(pa.array(keep)), cnts[keep] - sub
            pos = cnts > 0
            toks, cnts = toks.filter(pa.array(pos)), cnts[pos]
        return pa.table({"tok": toks, "df_est": pa.array(cnts, pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        counts = offs[1:] - offs[:-1]
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        key = H.hash_u64_pair(row.astype(np.uint64), H.hash_bytes_array(flat))
        first = np.unique(key, return_index=True)[1]
        toks = flat.take(pa.array(np.sort(first)))
        g = pa.table({"tok": toks}).group_by("tok").aggregate([("tok", "count")])
        return mg_compact(g["tok"].combine_chunks(),
                          g["tok_count"].to_numpy().astype(np.int64), k)

    parts = list(ds.map_batches(partial, batch_format="pyarrow",
                                batch_size=None)
                 .iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return pa.table({"tok": pa.array([], pa.string()),
                         "df_est": pa.array([], pa.int64())})
    merged = pa.concat_tables(parts, promote_options="default") \
        .group_by("tok").aggregate([("df_est", "sum")])
    out = mg_compact(merged["tok"].combine_chunks(),
                     merged["df_est_sum"].to_numpy().astype(np.int64), k)
    df_ = (out.to_pandas().sort_values(["df_est", "tok"],
                                       ascending=[False, True]).head(top))
    return pa.Table.from_pandas(df_.reset_index(drop=True), preserve_index=False)


# ------------------------------------------------ LSH bucket-skew diagnostics

def q_lsh_bucket_stats(sf_dir: str, ds=None):
    """Operational skew report for the LSH shuffle: per MinHash band, the
    bucket-size distribution (p50 / p99 / max), bucket and row counts, and
    how many buckets exceed ``cfg.bucket_cap`` (i.e. would be salted by the
    dedup engine). This is the tuning dial for ``bucket_cap`` / band count
    on a new corpus: a fat p99 means the band shuffle has hot keys and the
    all-pairs step inside buckets is about to go quadratic.

    Scale plan: bucket sizes come from the SAME groupby((band, bucket))
    count the dedup pipeline already does (no extra shuffle class); the
    size DISTRIBUTION is then exact-CDF'd the way ``q_grouped_quantiles``
    is — per-batch (band, size) value-count partials, a groupby-sum bounded
    by |bands| x |distinct sizes| (tiny), one driver walk. The raw bucket
    table is never collected."""
    from ray.data.aggregate import Count, Sum

    from deduplication_ray.stages import lsh
    from deduplication_ray.stages.signatures import normalize_captions

    cfg = DedupConfig(num_partitions=8)
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    mh_a, mh_b = H.make_minhash_perms(cfg.num_perm, cfg.seed)

    def sig(t: pa.Table) -> pa.Table:
        cap = normalize_captions(t["text"])
        grams, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        mh = H.minhash_signatures(grams, offs, mh_a, mh_b)
        return pa.table({"image_id": t["doc_id"].cast(pa.string()),
                         "minhash": H.pack_u64_rows(mh)})

    buckets = (ds.map_batches(sig, batch_format="pyarrow",
                              batch_size=cfg.text_batch_size)
               .map_batches(lsh.ExplodeBands(cfg), batch_format="pyarrow"))
    sizes = buckets.groupby(["band", "bucket"]).aggregate(
        Count(alias_name="size"))

    def size_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["band", "size"]).aggregate([("size", "count")])
        return pa.table({"band": g["band"], "size": g["size"],
                         "n": g["size_count"].cast(pa.int64())})

    hist = (sizes.map_batches(size_counts, batch_format="pyarrow")
            .groupby(["band", "size"]).aggregate(Sum("n", alias_name="n"))
            .to_pandas())
    cols = ["band", "n_buckets", "n_rows", "p50_size", "p99_size",
            "max_size", "n_over_cap"]
    if "band" not in hist.columns:  # empty corpus -> column-less to_pandas()
        return pd.DataFrame(columns=cols).astype(np.int64)

    rows = []
    for band, g in hist.groupby("band"):
        g = g.sort_values("size")
        sz = g["size"].to_numpy()
        n = g["n"].to_numpy()
        cum = np.cumsum(n)
        total = int(cum[-1])

        def pick(q):
            return int(sz[np.searchsorted(cum, int(np.floor(q * (total - 1))),
                                          side="right")])

        rows.append({
            "band": int(band),
            "n_buckets": total,
            "n_rows": int((sz * n).sum()),
            "p50_size": pick(0.50),
            "p99_size": pick(0.99),
            "max_size": int(sz[-1]),
            "n_over_cap": int(n[sz > cfg.bucket_cap].sum()),
        })
    return pd.DataFrame(rows).sort_values("band").reset_index(drop=True)


# ------------------------------------------------- boilerplate line scrub

def q_doc_boilerplate_scrub(sf_dir: str, words_per_line: int = 8,
                            df_cap: int = 2, ds=None):
    """Line-level boilerplate removal (the CCNet / RefinedWeb line-dedup
    step): drop every "line" that occurs in MORE than ``df_cap`` distinct
    documents and rewrite each document from its surviving lines — the
    sub-document scrub that kills navigation chrome, licence banners and
    cookie notices that whole-document dedup can't see. The synthetic corpus
    has no newlines, so a "line" here is a fixed ``words_per_line``-word
    segment (the same unit as passage dedup); on a real crawl you'd split on
    '\\n' — only the segmentation kernel changes.

    Output: one row per input document — ``clean_text`` (kept lines joined,
    '' if fully scrubbed), kept/dropped line counts.

    Scale plan (three passes, none shuffles document text):
    1. line-DF: each document is ONE row, so per-batch distinct (line, doc)
       pairs are globally distinct — per-batch Arrow group_by partials sum
       to the exact corpus DF through one bounded groupby(line) whose wire
       cost is the distinct-line vocabulary, not the corpus;
    2. the hot set (DF > cap) IS the boilerplate — small by construction —
       collected once and broadcast via ``ray.put`` (decontaminate's
       pattern: object-store-shared per node, never re-shipped per batch);
    3. rewrite: stateless ``map_batches`` — re-chunk, vectorized ``is_in``
       mask, one list-array rebuild per batch. No doc-side shuffle at all;
       the reference's content-identity index (dictionary.c:49-78) applied
       at line granularity with a frequency threshold.
    """
    from ray.data.aggregate import Sum

    docs = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])
    W = words_per_line

    def seg_df_partial(t: pa.Table) -> pa.Table:
        ct, _ = _chunk_batch(t, W)
        g = (pa.table({"seg": ct["chunk_text"], "doc_id": ct["doc_id"]})
             .group_by(["seg", "doc_id"]).aggregate([])
             .group_by("seg").aggregate([("doc_id", "count")]))
        return pa.table({"seg": g["seg"],
                         "n": g["doc_id_count"].cast(pa.int64())})

    df = (docs.map_batches(seg_df_partial, batch_format="pyarrow")
          .groupby("seg").aggregate(Sum("n", alias_name="df")))

    def only_hot(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["df"], df_cap)).select(["seg"])

    hot_tbls = list(df.map_batches(only_hot, batch_format="pyarrow")
                    .iter_batches(batch_format="pyarrow", batch_size=None))
    hot_set = (pa.concat_tables(hot_tbls, promote_options="default")["seg"]
               .combine_chunks() if hot_tbls
               else pa.array([], pa.string()))
    ref = ray.put(hot_set)

    def scrub(t: pa.Table) -> pa.Table:
        ct, doc_rep = _chunk_batch(t, W)
        hot_mask = pc.is_in(ct["chunk_text"], value_set=ray.get(ref)) \
            .to_numpy(zero_copy_only=False)
        keep = ~hot_mask
        n = t.num_rows
        kept_per_doc = np.bincount(doc_rep[keep], minlength=n)
        # chunks are doc-major with ascending chunk_idx: the kept
        # subsequence is already in rebuild order
        kept_txt = ct["chunk_text"].filter(pa.array(keep)).combine_chunks()
        loffs = np.concatenate([[0], np.cumsum(kept_per_doc)]).astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(loffs), kept_txt)
        clean = pc.binary_join(lst, " ")
        total_per_doc = np.bincount(doc_rep, minlength=n)
        return pa.table({
            "doc_id": t["doc_id"],
            "clean_text": clean,
            "n_kept": pa.array(kept_per_doc.astype(np.int64)),
            "n_dropped": pa.array(
                (total_per_doc - kept_per_doc).astype(np.int64)),
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


def doc_boilerplate_scrub_sql(words_per_line: int = 8,
                              df_cap: int = 2) -> str:
    chunks = doc_chunks_sql(words_per_line).strip()
    return f"""
WITH chunks AS ({chunks}),
df AS (
  SELECT chunk_text AS seg, count(DISTINCT doc_id) AS df
  FROM chunks GROUP BY 1
)
SELECT c.doc_id,
       coalesce(string_agg(c.chunk_text, ' ' ORDER BY c.chunk_idx)
                FILTER (f.df <= {df_cap}), '') AS clean_text,
       CAST(count(*) FILTER (f.df <= {df_cap}) AS BIGINT) AS n_kept,
       CAST(count(*) FILTER (f.df > {df_cap}) AS BIGINT) AS n_dropped
FROM chunks c JOIN df f ON c.chunk_text = f.seg
GROUP BY c.doc_id
"""


# ------------------------------------------------------ tiered dedup funnel

def q_doc_tier_dedup(sf_dir: str, words_per_line: int = 8, df_cap: int = 2,
                     ds=None):
    """TIERED dedup funnel — the production shape (FineWeb / RefinedWeb,
    public): cheap exact tiers first so each costlier tier sees only
    survivors, with per-tier attrition reported:

      tier 1  EXACT       collapse byte-identical documents to the min-id
                          representative (the reference's R8 at document
                          granularity);
      tier 2  SCRUB       line-level boilerplate removal over the exact
                          survivors (``q_doc_boilerplate_scrub``); documents
                          scrubbed to EMPTY are dropped — and scrubbing
                          FIRST means two docs differing only in chrome
                          become identical inputs to the near-dup tier;
      tier 3  NEAR-DUP    full MinHash-LSH + substring + union-find engine
                          over the SCRUBBED text; keep each cluster's min
                          doc_id.

    Output: one row per tier — (tier, tier_name, docs_in, docs_out) — the
    attrition report a data-curation run publishes. Rows-only check (tier 3
    is iterative); funnel invariants (monotone attrition, tier-1 parity
    with ``exact_dedup_docs``, cross-tier consistency on planted
    boilerplate near-dups) are asserted in
    tests/test_queries.py::test_tier_dedup_funnel.

    Scale plan: every tier is an operator this engine already ships — the
    funnel adds only bounded id-set lookup joins between tiers (broadcast
    below ``cfg.broadcast_limit``); no tier re-reads dropped documents'
    text, and the report itself is four rows."""
    from ray.data.aggregate import Min

    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    docs = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])
    n_in = docs.count()

    # tier 1: exact — min doc_id per identical text
    reps = (docs.groupby("text")
            .aggregate(Min("doc_id", alias_name="doc_id"))
            .select_columns(["doc_id"]).materialize())
    n_exact = reps.count()
    survivors = lookup_join(docs, reps, on=["doc_id"], cfg=cfg)

    # tier 2: boilerplate scrub over exact survivors; empty docs drop out
    scrubbed = q_doc_boilerplate_scrub(
        sf_dir, words_per_line=words_per_line, df_cap=df_cap, ds=survivors)
    scrubbed = scrubbed.filter(expr="n_kept > 0") \
        .select_columns(["doc_id", "clean_text"]) \
        .rename_columns({"clean_text": "text"}).materialize()
    n_scrub = scrubbed.count()

    # tier 3: near-dup over the scrubbed text, min-id representative
    clusters = text_dedup_clusters(scrubbed, cfg)

    def ids_only(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "cluster_id": t["cluster_id"].cast(pa.int64())})

    n_near = (clusters.map_batches(ids_only, batch_format="pyarrow")
              .groupby("cluster_id")
              .aggregate(Min("doc_id", alias_name="doc_id"))
              .count())

    return pd.DataFrame({
        "tier": [1, 2, 3],
        "tier_name": ["exact", "boilerplate_scrub", "near_dup"],
        "docs_in": [n_in, n_exact, n_scrub],
        "docs_out": [n_exact, n_scrub, n_near],
    })


# ----------------------------------------------------- model TRAINING loop

_TRAIN_BUCKETS = 1 << 14


def _presence_features(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Binary hashed-trigram presence features, fully vectorized: distinct
    (row, bucket) pairs via one composite-key unique over the whole batch —
    no per-doc loop. Returns (bucket ids, row ids), row-major sorted."""
    hashes, offs = H.shingle_window_hashes(t["text"], 3)
    bt = (hashes % np.uint64(_TRAIN_BUCKETS)).astype(np.int64)
    row_of = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                       offs[1:] - offs[:-1])
    comp = np.unique(row_of * _TRAIN_BUCKETS + bt)
    return comp % _TRAIN_BUCKETS, comp // _TRAIN_BUCKETS


def _marker_labels(t: pa.Table, marker: str) -> np.ndarray:
    """y = 1 iff the document contains ``marker`` as a whitespace token —
    the deterministic weak-label stand-in for gold labels (the label source
    is the pluggable part of a production trainer)."""
    padded = pc.binary_join_element_wise(
        pa.array([" "] * t.num_rows), t["text"], pa.array([" "] * t.num_rows), "")
    return pc.match_substring(padded, f" {marker} ") \
        .to_numpy(zero_copy_only=False).astype(np.float64)


def train_doc_classifier(ds, marker: str = "dup", iters: int = 40,
                         lr: float = 50.0) -> tuple[np.ndarray, float, list]:
    """Distributed full-batch logistic-regression TRAINING — the
    counterpart of ``q_doc_model_score``'s inference stage: fit the
    fasttext-shaped hashed-trigram classifier ON the corpus with the same
    mergeable-moment pattern as the Lloyd refiner (``ann.kmeans_refine_
    centroids``). Per round, each batch emits a DENSE gradient partial
    (2^14 float64 = 128 KB) plus (loss, correct, n) scalars; the driver
    sums partials (model-sized, never corpus-sized) and steps. Per-round
    wire cost: #blocks x 128 KB — no shuffle, corpus text never moves.

    Returns (weights, bias, per-round [loss, accuracy] trace)."""
    w = np.zeros(_TRAIN_BUCKETS)
    # bias init at the base-rate logit: one cheap counting pass
    def _count(t: pa.Table) -> pa.Table:
        y = _marker_labels(t, marker)
        return pa.table({"pos": pa.array([float(y.sum())]),
                         "n": pa.array([float(len(y))])})
    cnt_tbls = list(ds.map_batches(_count, batch_format="pyarrow")
                    .iter_batches(batch_format="pyarrow", batch_size=None))
    if not cnt_tbls:                       # zero-row corpus: nothing to fit
        return w, 0.0, []
    cnt = pa.concat_tables(cnt_tbls, promote_options="default")
    pos = sum(cnt["pos"].to_pylist()); n_total = sum(cnt["n"].to_pylist())
    rate = pos / max(n_total, 1.0)
    bias = float(np.log((rate + 1e-9) / (1 - rate + 1e-9)))

    trace: list[list[float]] = []
    for _ in range(iters):
        wref = ray.put((w, bias))

        def partial(t: pa.Table) -> pa.Table:
            cw, cb = ray.get(wref)
            b, row = _presence_features(t)
            y = _marker_labels(t, marker)
            z = np.zeros(t.num_rows)
            np.add.at(z, row, cw[b])
            z = np.clip(z + cb, -30.0, 30.0)
            p = 1.0 / (1.0 + np.exp(-z))
            grad = np.zeros(_TRAIN_BUCKETS)
            np.add.at(grad, b, (p - y)[row])
            loss = float(-(y * np.log(p + 1e-12)
                           + (1 - y) * np.log(1 - p + 1e-12)).sum())
            acc = float(((p > 0.5) == (y > 0.5)).sum())
            return pa.table({
                "grad": H.pack_u64_rows(grad[None, :].view(np.uint64)),
                "gbias": pa.array([float((p - y).sum())]),
                "loss": pa.array([loss]),
                "correct": pa.array([acc]),
                "n": pa.array([float(t.num_rows)]),
            })

        parts = pa.concat_tables(
            list(ds.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)),
            promote_options="default")
        grad = H.unpack_u64_rows(parts["grad"], _TRAIN_BUCKETS) \
            .view(np.float64).sum(axis=0)
        nb = sum(parts["n"].to_pylist())
        # MEAN gradient: the step is corpus-size invariant (grad partials
        # are sums, so the 1/N belongs here, after the driver combine)
        w -= lr * grad / max(nb, 1.0)
        bias -= lr * sum(parts["gbias"].to_pylist()) / max(nb, 1.0)
        trace.append([sum(parts["loss"].to_pylist()) / max(nb, 1.0),
                      sum(parts["correct"].to_pylist()) / max(nb, 1.0)])
    return w, bias, trace


def q_doc_train_classifier(sf_dir: str, marker: str = "dup",
                           iters: int = 40, lr: float = 50.0, ds=None):
    """TRAIN the hashed-trigram document classifier on the corpus
    (distributed full-batch logistic regression, ``train_doc_classifier``),
    then score every document with the fitted model — the end-to-end
    train-then-apply loop of a quality-classifier curation stage. Output:
    (doc_id, y, p_milli, predicted, correct). Rows-only check (an iterative
    learner has no ANSI SQL form); serial-parity, above-baseline accuracy
    and monotone-loss tests in tests/test_queries.py."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])
    w, bias, trace = train_doc_classifier(ds, marker, iters, lr)
    wref = ray.put((w, bias))

    def score(t: pa.Table) -> pa.Table:
        cw, cb = ray.get(wref)
        b, row = _presence_features(t)
        y = _marker_labels(t, marker)
        z = np.zeros(t.num_rows)
        np.add.at(z, row, cw[b])
        z = np.clip(z + cb, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        return pa.table({
            "doc_id": t["doc_id"],
            "y": pa.array((y > 0.5)),
            "p_milli": pa.array(np.floor(p * 1000.0).astype(np.int64)),
            "predicted": pa.array(p > 0.5),
            "correct": pa.array((p > 0.5) == (y > 0.5)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------------- data validation

_VALID_LANGS = ("de", "en", "es", "fr", "zh")


def q_doc_validate(sf_dir: str, ds=None):
    """Data-quality VALIDATION pass — the constraint-check gate a pipeline
    runs before training on (or publishing) a table: one row per rule with
    its exact violation count. Rules: primary-key uniqueness, the n_chars
    column's consistency with the text it describes, lang within the known
    set, text non-empty.

    Scale plan: the three row-local rules are per-batch counter partials
    (one pass, no shuffle, 4 ints per block on the wire); key uniqueness is
    the exact distinct count — per-batch unique partials into one
    groupby(doc_id) whose wire cost is the narrow int64 key column (the
    same shape as the exact side of ``distinct_orderkeys_hll``; at 10^12
    rows you'd accept the HLL bound instead). Report is |rules| rows."""
    from ray.data.aggregate import Sum

    docs = ds if ds is not None else _docs(
        sf_dir, ["doc_id", "text", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        n_chars_bad = pc.sum(pc.cast(pc.not_equal(
            t["n_chars"], pc.utf8_length(t["text"])), pa.int64())).as_py() or 0
        lang_bad = pc.sum(pc.cast(pc.invert(pc.is_in(
            t["lang"], value_set=pa.array(_VALID_LANGS))),
            pa.int64())).as_py() or 0
        empty = pc.sum(pc.cast(pc.equal(
            pc.utf8_length(t["text"]), 0), pa.int64())).as_py() or 0
        return pa.table({
            "n_rows": pa.array([t.num_rows], pa.int64()),
            "n_chars_bad": pa.array([int(n_chars_bad)], pa.int64()),
            "lang_bad": pa.array([int(lang_bad)], pa.int64()),
            "empty": pa.array([int(empty)], pa.int64()),
        })

    parts = list(docs.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None))
    tot = {k: 0 for k in ("n_rows", "n_chars_bad", "lang_bad", "empty")}
    for p in parts:
        for k in tot:
            tot[k] += p[k][0].as_py()

    # exact distinct doc_id count, distributed (per-batch unique partials)
    def uniq(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.unique(t["doc_id"].combine_chunks())})

    from ray.data.aggregate import Count

    n_distinct = (docs.select_columns(["doc_id"])
                  .map_batches(uniq, batch_format="pyarrow")
                  .groupby("doc_id").aggregate(Count())  # distinct across batches
                  .count())

    return pd.DataFrame({
        "rule": ["doc_id_unique", "lang_known", "n_chars_consistent",
                 "text_nonempty"],
        "violations": [tot["n_rows"] - int(n_distinct), tot["lang_bad"],
                       tot["n_chars_bad"], tot["empty"]],
    }).astype({"violations": "int64"})


Q_DOC_VALIDATE_SQL = f"""
SELECT 'doc_id_unique' AS rule,
       CAST(count(*) - count(DISTINCT doc_id) AS BIGINT) AS violations
FROM documents
UNION ALL
SELECT 'lang_known',
       CAST(count(*) FILTER (lang NOT IN {_VALID_LANGS!r}) AS BIGINT)
FROM documents
UNION ALL
SELECT 'n_chars_consistent',
       CAST(count(*) FILTER (n_chars <> length(text)) AS BIGINT)
FROM documents
UNION ALL
SELECT 'text_nonempty',
       CAST(count(*) FILTER (length(text) = 0) AS BIGINT)
FROM documents
"""


# ------------------------------------------------- per-source dup-rate report

def q_source_dup_stats(sf_dir: str, ds=None):
    """Per-source duplication report — the operational signal behind crawl
    curation ("which hosts are boilerplate farms"): for every source, the
    document count, distinct-text count and exact duplicate rate in integer
    milli units.

    Scale plan: one groupby((source, text)) — the exact-dedup shuffle the
    engine already does, pre-aggregated per batch by Arrow group_by — then
    per-batch (source, n_docs, n_distinct) partials into a |sources|-bounded
    groupby. At 10^12 rows you'd group on a 128-bit content hash; text
    itself keeps DuckDB value-hash parity here."""
    from ray.data.aggregate import Sum

    docs = ds if ds is not None else _docs(sf_dir, ["source", "text"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = (t.select(["source", "text"])
             .group_by(["source", "text"]).aggregate([("text", "count")]))
        return pa.table({"source": g["source"], "text": g["text"],
                         "n": g["text_count"].cast(pa.int64())})

    per_text = (docs.map_batches(pair_partial, batch_format="pyarrow")
                .groupby(["source", "text"])
                .aggregate(Sum("n", alias_name="n")))

    def source_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("n", "sum"), ("n", "count")])
        return pa.table({"source": g["source"],
                         "n_docs": g["n_sum"].cast(pa.int64()),
                         "n_distinct": g["n_count"].cast(pa.int64())})

    agg = (per_text.map_batches(source_partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_distinct", alias_name="n_distinct")))

    def rate(t: pa.Table) -> pa.Table:
        n = t["n_docs"].to_numpy()
        d = t["n_distinct"].to_numpy()
        return pa.table({
            "source": t["source"],
            "n_docs": t["n_docs"].cast(pa.int64()),
            "n_distinct": t["n_distinct"].cast(pa.int64()),
            "dup_rate_milli": pa.array(((n - d) * 1000) // np.maximum(n, 1),
                                       pa.int64()),
        })

    return agg.map_batches(rate, batch_format="pyarrow")


Q_SOURCE_DUP_STATS_SQL = """
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT text) AS BIGINT) AS n_distinct,
       CAST((count(*) - count(DISTINCT text)) * 1000 // count(*) AS BIGINT)
           AS dup_rate_milli
FROM documents
GROUP BY source
"""


# ------------------------------------------------- source overlap matrix

def q_source_overlap_matrix(sf_dir: str):
    """Source-overlap matrix — exact pairwise Jaccard between each source's
    DISTINCT whitespace-token vocabulary, in integer milli units: the
    crawl-curation report that finds mirror hosts / syndication networks
    (two sources sharing most of their vocabulary are the same site twice),
    which whole-document dedup only discovers pair-by-pair.

    Scale plan (document text never shuffles):
    1. distinct (source, token): per-batch composite-key Arrow group_by
       partials, then ONE groupby over the source x vocab stream — wire
       cost is each source's distinct vocabulary, not the corpus
       (``top_terms``' shuffle shape);
    2. intersection counts: hash-partition the distinct pairs by TOKEN so
       every token's source list is co-located, then a vectorized
       run-pairing kernel per partition (sort by token, emit (src_a <
       src_b) at every offset-diagonal d = 1..k_max — <= |sources| full-
       array numpy passes, never a per-token Python loop). Per-token fanout
       is C(k, 2), k = sources containing it; at web scale cap k with a
       document-frequency ceiling — a token present in EVERY host carries
       no pair signal (not needed at |S| = 20);
    3. the |S|^2-bounded groupby sums pair increments; |S|-row vocabulary
       sizes broadcast via ``ray.put`` turn intersections into Jaccard.
    """
    from ray.data.aggregate import Count, Sum

    ds = _docs(sf_dir, ["source", "text"])
    n_parts = 16

    def tok_partial(t: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim(t["text"].combine_chunks()
                               if isinstance(t["text"], pa.ChunkedArray)
                               else t["text"], " ")
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        lens = pc.list_value_length(toks).to_numpy()
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False), lens)
        g = (pa.table({"source": pa.array(src, pa.string()),
                       "tok": pc.list_flatten(toks)})
             .group_by(["source", "tok"]).aggregate([]))
        return g

    dt = (ds.map_batches(tok_partial, batch_format="pyarrow")
          .groupby(["source", "tok"]).aggregate(Count(alias_name="c"))
          .drop_columns(["c"]).materialize())

    def size_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("tok", "count")])
        return pa.table({"source": g["source"],
                         "n": g["tok_count"].cast(pa.int64())})

    sizes: dict[str, int] = {}
    for b in (dt.map_batches(size_partial, batch_format="pyarrow")
              .groupby("source").aggregate(Sum("n", alias_name="n"))
              .iter_batches(batch_format="pyarrow")):
        for s, n in zip(b["source"].to_pylist(), b["n"].to_pylist()):
            sizes[s] = int(n)
    size_ref = ray.put(sizes)

    def pair_part(t: pa.Table) -> pa.Table:
        tok = t["tok"].combine_chunks() if isinstance(
            t["tok"], pa.ChunkedArray) else t["tok"]
        src = t["source"].combine_chunks() if isinstance(
            t["source"], pa.ChunkedArray) else t["source"]
        rid = tok.dictionary_encode().indices.to_numpy()
        sd = src.dictionary_encode()
        # rank codes by SORTED dictionary so code comparisons == string
        # comparisons: dictionary_encode assigns codes by first appearance,
        # and pairing below directs each pair (a < b) by code — raw codes
        # would direct pairs by block arrival order, breaking the oracle's
        # src_a < src_b (string) contract whenever a partition sees sources
        # out of lexicographic order
        raw_dict = sd.dictionary.to_numpy(zero_copy_only=False)
        d_order = np.argsort(raw_dict)
        rank = np.empty(len(raw_dict), np.int64)
        rank[d_order] = np.arange(len(raw_dict))
        scode = rank[sd.indices.to_numpy()]
        sdict = sd.dictionary.take(pa.array(d_order))  # sdict[rank] == str
        n_src = max(len(sdict), 1)
        order = np.lexsort((scode, rid))
        rid, scode = rid[order], scode[order]
        out_a, out_b = [], []
        d = 1
        while True:
            same = rid[d:] == rid[:-d] if d < len(rid) else np.array([], bool)
            if not same.any():
                break
            out_a.append(scode[:-d][same])
            out_b.append(scode[d:][same])
            d += 1
        if not out_a:
            return pa.table({"src_a": pa.array([], pa.string()),
                             "src_b": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        pair = (np.concatenate(out_a) * n_src) + np.concatenate(out_b)
        upair, cnt = np.unique(pair, return_counts=True)
        return pa.table({
            "src_a": sdict.take(pa.array(upair // n_src)),
            "src_b": sdict.take(pa.array(upair % n_src)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    inter = (hash_grouped_reduce(dt, ["tok"], pair_part, n_parts)
             .groupby(["src_a", "src_b"]).aggregate(Sum("n",
                                                        alias_name="inter")))

    def finish(t: pa.Table) -> pa.Table:
        sz = ray.get(size_ref)
        na = np.array([sz[s] for s in t["src_a"].to_pylist()], np.int64)
        nb = np.array([sz[s] for s in t["src_b"].to_pylist()], np.int64)
        ix = t["inter"].to_numpy().astype(np.int64)
        return pa.table({
            "src_a": t["src_a"], "src_b": t["src_b"],
            "inter": pa.array(ix),
            "jaccard_milli": pa.array(ix * 1000 // (na + nb - ix)),
        })

    return inter.map_batches(finish, batch_format="pyarrow")


Q_SOURCE_OVERLAP_MATRIX_SQL = """
WITH dt AS (
  SELECT DISTINCT source, tok FROM (
    SELECT source, unnest(string_split_regex(trim(text), '\\s+')) AS tok
    FROM documents)),
sz AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM dt GROUP BY source),
ix AS (SELECT a.source AS src_a, b.source AS src_b,
              CAST(COUNT(*) AS BIGINT) AS inter
       FROM dt a JOIN dt b ON a.tok = b.tok AND a.source < b.source
       GROUP BY 1, 2)
SELECT ix.src_a, ix.src_b, ix.inter,
       ix.inter * 1000 // (sa.n + sb.n - ix.inter) AS jaccard_milli
FROM ix
JOIN sz sa ON sa.source = ix.src_a
JOIN sz sb ON sb.source = ix.src_b
"""


# ---------------------------------------------------- corpus snapshot diff

_DIFF_OLD_MOD = 7    # "old" snapshot = doc_id % 7 != 0
_DIFF_NEW_MOD = 5    # "new" snapshot = doc_id % 5 != 0
_DIFF_EDIT_MOD = 11  # docs edited between snapshots: doc_id % 11 == 0


def q_doc_version_diff(sf_dir: str):
    """Corpus snapshot DIFF — the "what changed since the last crawl"
    report that drives incremental reprocessing: per doc_id, whether it was
    ``added``, ``removed``, ``changed`` (same id, different text) or
    ``unchanged`` between two versions. The two snapshots are derived
    deterministically from the one test table (old = id % 7 != 0, new =
    id % 5 != 0 with ids % 11 == 0 rewritten) so DuckDB mirrors them
    exactly; in production they are two table directories.

    Scale plan: one hash-co-partitioned FULL OUTER ``shuffle_join`` on
    doc_id (``stages/join`` — neither snapshot is broadcast), status
    decided vectorized per bucket. At 100 TB you'd diff 128-bit content
    hashes instead of raw text so the exchange carries 24 bytes/row."""
    from deduplication_ray.stages.join import shuffle_join

    ds = _docs(sf_dir, ["doc_id", "text"])

    def old_side(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        m = (ids % _DIFF_OLD_MOD) != 0
        t = t.filter(pa.array(m))
        return pa.table({"doc_id": t["doc_id"], "old_text": t["text"]})

    def new_side(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        m = (ids % _DIFF_NEW_MOD) != 0
        t = t.filter(pa.array(m))
        ids = t["doc_id"].to_numpy()
        edited = (ids % _DIFF_EDIT_MOD) == 0
        txt = pc.binary_join_element_wise(
            t["text"],
            pa.array(np.where(edited, " v2", ""), pa.string()), "")
        return pa.table({"doc_id": t["doc_id"], "new_text": txt})

    old = ds.map_batches(old_side, batch_format="pyarrow")
    new = ds.map_batches(new_side, batch_format="pyarrow")
    j = shuffle_join(old, new, on=["doc_id"], how="full outer")

    def status(t: pa.Table) -> pa.Table:
        o = t["old_text"]
        n_ = t["new_text"]
        o_null = pc.is_null(o).to_numpy(zero_copy_only=False)
        n_null = pc.is_null(n_).to_numpy(zero_copy_only=False)
        same = pc.equal(o, n_).fill_null(False).to_numpy(zero_copy_only=False)
        st = np.where(o_null, "added",
                      np.where(n_null, "removed",
                               np.where(same, "unchanged", "changed")))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "status": pa.array(st, pa.string())})

    return j.map_batches(status, batch_format="pyarrow")


Q_DOC_VERSION_DIFF_SQL = f"""
WITH old AS (
  SELECT doc_id, text AS old_text FROM documents
  WHERE doc_id % {_DIFF_OLD_MOD} <> 0
), new AS (
  SELECT doc_id,
         text || CASE WHEN doc_id % {_DIFF_EDIT_MOD} = 0
                      THEN ' v2' ELSE '' END AS new_text
  FROM documents WHERE doc_id % {_DIFF_NEW_MOD} <> 0
)
SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            WHEN o.old_text <> n.new_text THEN 'changed'
            ELSE 'unchanged' END AS status
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
"""


# --------------------------------------------------- Gopher-style rule filter

def q_doc_gopher_rules(sf_dir: str):
    """Gopher-style rule-based quality filter (Rae et al., "Scaling Language
    Models: Methods, Analysis & Insights from Training Gopher", 2021 —
    public): per document, the cheap shape/repetition signals and the
    combined keep flag, all in exact integer milli units so the DuckDB
    oracle hash-compares bit-for-bit. Rules (thresholds calibrated so each
    one is non-vacuous on this corpus):

      r1  15 <= n_tokens <= 90
      r2  4000 <= mean_tok_len_milli <= 6000
      r3  stop_frac_milli <= 120   (stopword set {the, a})
      r4  dup_frac_milli <= 600

    Scale plan: ONE stateless vectorized ``map_batches`` — tokens are
    flattened once per batch, every per-row sum is a bincount over the
    flat row index; no shuffle, no state, no per-row Python."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def rules(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        counts = offs[1:] - offs[:-1]
        n_docs = len(counts)
        row = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        tok_len = pc.utf8_length(flat).to_numpy().astype(np.int64)
        # bincount weight sums are float64 but exact far beyond any document
        # size (< 2^53), so the int64 cast is lossless
        sum_len = np.bincount(row, weights=tok_len,
                              minlength=n_docs).astype(np.int64)
        stop = pc.is_in(flat, value_set=pa.array(["the", "a"])) \
            .to_numpy(zero_copy_only=False)
        n_stop = np.bincount(row, weights=stop.astype(np.float64),
                             minlength=n_docs).astype(np.int64)
        key = H.hash_u64_pair(row.astype(np.uint64), H.hash_bytes_array(flat))
        first = np.unique(key, return_index=True)[1]
        nuniq = np.bincount(row[first], minlength=n_docs).astype(np.int64)
        denom = np.maximum(counts, 1)
        mtl = (sum_len * 1000) // denom
        stopf = (n_stop * 1000) // denom
        dupf = ((counts - nuniq) * 1000) // denom
        keep = ((counts >= 15) & (counts <= 90)
                & (mtl >= 4000) & (mtl <= 6000)
                & (stopf <= 120) & (dupf <= 600)).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(counts, pa.int64()),
            "mean_tok_len_milli": pa.array(mtl, pa.int64()),
            "stop_frac_milli": pa.array(stopf, pa.int64()),
            "dup_frac_milli": pa.array(dupf, pa.int64()),
            "keep": pa.array(keep, pa.int64()),
        })

    return ds.map_batches(rules, batch_format="pyarrow")


Q_DOC_GOPHER_RULES_SQL = r"""
WITH w AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\s+') AS toks
  FROM documents
), s AS (
  SELECT doc_id,
         CAST(length(toks) AS BIGINT) AS n_tokens,
         CAST((list_sum(list_transform(toks, x -> length(x))) * 1000)
              // greatest(length(toks), 1) AS BIGINT) AS mean_tok_len_milli,
         CAST((length(list_filter(toks, x -> x IN ('the', 'a'))) * 1000)
              // greatest(length(toks), 1) AS BIGINT) AS stop_frac_milli,
         CAST(((length(toks) - length(list_distinct(toks))) * 1000)
              // greatest(length(toks), 1) AS BIGINT) AS dup_frac_milli
  FROM w)
SELECT *,
       CAST(n_tokens BETWEEN 15 AND 90
            AND mean_tok_len_milli BETWEEN 4000 AND 6000
            AND stop_frac_milli <= 120
            AND dup_frac_milli <= 600 AS BIGINT) AS keep
FROM s
"""


# --------------------------------------------------- per-column table profile

_PROFILE_COLS = ("doc_id", "text", "lang", "source", "n_chars")
_PROFILE_NUMERIC = ("doc_id", "n_chars")


def q_table_profile(sf_dir: str):
    """Per-column table PROFILE of the documents table — the ``describe``
    operator a pipeline runs before trusting a new snapshot: per column,
    row count, null count, exact distinct count, and (numeric columns)
    min/max.

    Scale plan: two bounded passes over one read. (a) count/null/min/max:
    per-batch partials emit ONE row per column per block -> a
    |columns|-row groupby — no data shuffle. (b) exact distinct: each
    batch emits its DISTINCT (column, value-hash) pairs (64-bit content
    hash — the same collision budget the dedup engine runs on) -> one
    groupby bounded by the true distinct cardinality -> per-batch count
    partials -> a second |columns|-row groupby. Only |columns|-row tables
    ever reach the driver."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _docs(sf_dir, list(_PROFILE_COLS))

    def base_partial(t: pa.Table) -> pa.Table:
        rows = {"col_name": [], "n_rows": [], "n_nulls": [],
                "min_val": [], "max_val": []}
        for c in _PROFILE_COLS:
            col = t[c]
            rows["col_name"].append(c)
            rows["n_rows"].append(t.num_rows)
            rows["n_nulls"].append(col.null_count)
            if c in _PROFILE_NUMERIC and t.num_rows > 0:
                rows["min_val"].append(pc.min(col).as_py())
                rows["max_val"].append(pc.max(col).as_py())
            else:
                rows["min_val"].append(None)
                rows["max_val"].append(None)
        return pa.table({
            "col_name": pa.array(rows["col_name"], pa.string()),
            "n_rows": pa.array(rows["n_rows"], pa.int64()),
            "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
            "min_val": pa.array(rows["min_val"], pa.int64()),
            "max_val": pa.array(rows["max_val"], pa.int64()),
        })

    base = (ds.map_batches(base_partial, batch_format="pyarrow")
            .groupby("col_name")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_nulls", alias_name="n_nulls"),
                       Min("min_val", alias_name="min_val"),
                       Max("max_val", alias_name="max_val")))

    def distinct_partial(t: pa.Table) -> pa.Table:
        names, hashes = [], []
        for c in _PROFILE_COLS:
            col = t[c]
            if not pa.types.is_string(col.type):
                col = col.cast(pa.string())
            h = np.unique(H.hash_bytes_array(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col))
            names.append(np.full(len(h), _PROFILE_COLS.index(c), np.int64))
            hashes.append(h.astype(np.int64))
        return pa.table({
            "col_idx": pa.array(np.concatenate(names), pa.int64()),
            "h": pa.array(np.concatenate(hashes), pa.int64()),
        })

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("col_idx").aggregate([("col_idx", "count")])
        idx = g["col_idx"].to_numpy()
        return pa.table({
            "col_name": pa.array([_PROFILE_COLS[i] for i in idx], pa.string()),
            "n_distinct": g["col_idx_count"].cast(pa.int64()),
        })

    distinct = (ds.map_batches(distinct_partial, batch_format="pyarrow")
                .groupby(["col_idx", "h"]).aggregate(Count(alias_name="c"))
                .map_batches(count_partial, batch_format="pyarrow")
                .groupby("col_name")
                .aggregate(Sum("n_distinct", alias_name="n_distinct")))

    import pandas as pd

    out = base.to_pandas().merge(distinct.to_pandas(), on="col_name")
    out = out[["col_name", "n_rows", "n_nulls", "n_distinct",
               "min_val", "max_val"]].sort_values("col_name")
    # string columns carry NULL min/max; float64-with-NaN is exactly what
    # DuckDB's CAST(NULL AS BIGINT) lands as in pandas, so mirror it
    out["min_val"] = out["min_val"].astype("float64")
    out["max_val"] = out["max_val"].astype("float64")
    return out.reset_index(drop=True)


def table_profile_sql() -> str:
    parts = []
    for c in _PROFILE_COLS:
        mn = (f"CAST(MIN({c}) AS BIGINT)" if c in _PROFILE_NUMERIC
              else "CAST(NULL AS BIGINT)")
        mx = (f"CAST(MAX({c}) AS BIGINT)" if c in _PROFILE_NUMERIC
              else "CAST(NULL AS BIGINT)")
        parts.append(
            f"SELECT '{c}' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,\n"
            f"  CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_nulls,\n"
            f"  CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct,\n"
            f"  {mn} AS min_val, {mx} AS max_val FROM documents")
    return "\nUNION ALL\n".join(parts)


# --------------------------------------------------- char-trigram LM scoring

def _trigram_codes(text_col) -> tuple[np.ndarray, np.ndarray]:
    """All char-trigram codes (c1<<16 | c2<<8 | c3 over the lowered utf-8
    bytes) in the batch plus per-row offsets into the code stream. Windows
    never cross a row boundary. Zero-copy over the Arrow buffer."""
    low = pc.utf8_lower(text_col)
    if isinstance(low, pa.ChunkedArray):
        low = low.combine_chunks()
    buf, offs = H._arrow_flat_buffer(low)
    buf = buf[offs[0]: offs[-1]]
    offs = offs - offs[0]
    lens = offs[1:] - offs[:-1]
    n_tri = np.maximum(lens - 2, 0)
    tri_offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(n_tri, out=tri_offs[1:])
    total = int(tri_offs[-1])
    if total == 0:
        return np.empty(0, np.int64), tri_offs
    # global byte index of each trigram start: row starts repeated + ramp
    starts = np.repeat(offs[:-1], n_tri) + (
        np.arange(total) - np.repeat(tri_offs[:-1], n_tri))
    b = buf.astype(np.int64)
    codes = (b[starts] << 16) | (b[starts + 1] << 8) | b[starts + 2]
    return codes, tri_offs


def train_char_lm(ds: ray.data.Dataset) -> dict[str, np.ndarray]:
    """Train an order-2 character language model (trigram counts) over the
    corpus — the distributed form of the CCNet / KenLM quality-filter step
    (Wenzek et al., "CCNet: Extracting High Quality Monolingual Datasets
    from Web Crawl Data", 2020 — public; reference dictionary-build analog:
    ``/root/reference/src/dictionary.c:61-78``, content-keyed counting
    state, here realized as mergeable count partials instead of a mutable
    dict).

    Scale plan: per-batch ``np.unique`` partials (one row per DISTINCT
    trigram per block) -> one groupby-sum bounded by the trigram vocabulary
    (charset^3 — ~20k on this corpus, <= a few million for byte soup;
    never corpus-sized) -> the model (sorted code + count arrays) collects
    on the driver at vocabulary size and broadcasts once via ``ray.put``."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        codes, _ = _trigram_codes(t["text"])
        u, c = np.unique(codes, return_counts=True)
        return pa.table({"tri": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby("tri").aggregate(Sum("n", alias_name="n"))).to_pandas()
    tri = g["tri"].to_numpy().astype(np.int64)
    cnt = g["n"].to_numpy().astype(np.int64)
    order = np.argsort(tri, kind="stable")
    tri, cnt = tri[order], cnt[order]
    # context counts: sum trigram counts per (c1, c2) prefix
    ctx_all = tri >> 8
    ctx, inv = np.unique(ctx_all, return_inverse=True)
    ctx_cnt = np.bincount(inv, weights=cnt.astype(np.float64)) \
        .astype(np.int64)
    return {"tri": tri, "tri_cnt": cnt, "ctx": ctx, "ctx_cnt": ctx_cnt}


def score_char_lm(table: pa.Table, model: dict[str, np.ndarray]) -> pa.Table:
    """Bits-per-char of each document under the trigram model, add-one
    smoothed over a 256-symbol alphabet, in exact integer micro units.
    Deterministic and batch-composition-independent: each doc's sum runs
    over its own trigram segment (reduceat), so any partitioning yields
    bit-identical scores."""
    def _gather_counts(keys: np.ndarray, sorted_keys: np.ndarray,
                       counts: np.ndarray) -> np.ndarray:
        if len(sorted_keys) == 0:
            return np.zeros(len(keys), np.int64)
        i = np.minimum(np.searchsorted(sorted_keys, keys),
                       len(sorted_keys) - 1)
        return np.where(sorted_keys[i] == keys, counts[i], 0)

    codes, tri_offs = _trigram_codes(table["text"])
    n_docs = table.num_rows
    if len(codes):
        tc = _gather_counts(codes, model["tri"], model["tri_cnt"])
        cc = _gather_counts(codes >> 8, model["ctx"], model["ctx_cnt"])
        bits = np.log2((cc + 256).astype(np.float64)) - \
            np.log2((tc + 1).astype(np.float64))
        # sentinel element keeps every offset a valid reduceat index (a
        # trailing empty doc has offset == len(bits)); empty-doc slots get a
        # junk single element from reduceat and are zeroed by the mask
        bits_ext = np.append(bits, 0.0)
        seg = np.add.reduceat(bits_ext, tri_offs[:-1])
        seg[tri_offs[:-1] == tri_offs[1:]] = 0.0
    else:
        seg = np.zeros(n_docs)
    n_tri = np.maximum(tri_offs[1:] - tri_offs[:-1], 1)
    bpc_micro = np.floor(seg / n_tri * 1e6).astype(np.int64)
    return pa.table({"doc_id": table["doc_id"],
                     "bits_per_char_micro": pa.array(bpc_micro, pa.int64())})


def q_doc_lm_score(sf_dir: str):
    """Language-model quality scoring (the CCNet filter shape): train a
    char-trigram LM on the corpus itself, then score every document with
    its bits-per-char under the model — low = fluent/typical, high =
    gibberish/outlier. Rows-only (an iterative train-then-apply op, not
    ANSI-SQL-expressible); exact serial parity, partition invariance and
    the planted-gibberish ordering are asserted in
    tests/test_queries.py::test_lm_score_serial_parity_and_signal.

    Scale plan: training is mergeable count partials bounded by the
    trigram vocabulary; the model broadcasts once via ``ray.put``; scoring
    is one stateless vectorized map_batches (two searchsorted gathers per
    batch)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    model_ref = ray.put(train_char_lm(ds))

    def score(t: pa.Table) -> pa.Table:
        return score_char_lm(t, ray.get(model_ref))

    return ds.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------- MinHash estimator verdict

def q_minhash_jaccard_check(sf_dir: str, tau: float = 0.6):
    """MinHash-estimator VERDICT: for every exact char-5-gram Jaccard pair
    (the ``ngram_jaccard_pairs`` ground truth), re-estimate the Jaccard
    from the P-permutation MinHash signatures the dedup engine actually
    runs on (same ``cfg.seed``/``cfg.num_perm``/``cfg.shingle_k``) and
    emit ``(src, dst, jaccard_milli, mh_within_bound)`` — TRUE iff the
    estimate sits inside the 4.5-sigma binomial band (+1/P quantization
    slack) around the true value. The DuckDB oracle recomputes the exact
    pairs and emits constant TRUE, so a drifting MinHash implementation
    fails the driver's value-hash: this SQL-checks the engine's core
    similarity estimator against ground truth (the same verdict shape as
    the HLL/quantile sketch checks).

    Scale plan: inherits ``q_ngram_jaccard_pairs``'s size dispatch for the
    pair set; the extra work is one signature pass over the docs plus two
    broadcast lookup joins on the (bounded) pair list — no new shuffle."""
    return _minhash_check_impl(sf_dir, tau=tau, b=None,
                               flag_col="mh_within_bound")


def q_bbit_minhash_check(sf_dir: str, tau: float = 0.6, b: int = 4):
    """b-BIT MinHash estimator VERDICT (Li & Koenig, WWW 2010): the storage
    form that keeps only the lowest ``b`` bits of each of the P MinHash
    values — a 16x signature shrink at b=4 vs u64 — at the price of a
    1/2^b chance that two UNrelated permutation slots agree by accident.
    The unbiased estimator inverts that collision floor:
    E[match_frac] = C + (1-C)*J with C = 1/2^b (minhash values of
    non-shared elements are uniform over the 64-bit space, so their low-b
    collision odds are exactly 2^-b up to the 2^-64 sampling-without-
    replacement term). For every exact char-5-gram Jaccard pair this emits
    ``(src, dst, jaccard_milli, bbit_within_bound)`` — TRUE iff the
    observed match fraction sits inside the 4.5-sigma binomial band
    (+1/P quantization slack) around C + (1-C)*J. The DuckDB oracle
    recomputes the exact pairs with constant TRUE, so estimator drift
    fails the driver's value-hash.

    Scale plan: identical to ``minhash_jaccard_check`` (the b-bit mask is
    applied at verdict time to the same packed signatures); in a real
    deployment the b-bit columns would be what's WRITTEN, cutting the
    signature table — the thing that feeds every LSH shuffle — by 16x."""
    return _minhash_check_impl(sf_dir, tau=tau, b=b,
                               flag_col="bbit_within_bound")


def q_oph_minhash_check(sf_dir: str, tau: float = 0.6):
    """One-Permutation-Hashing estimator VERDICT (Li, Owen & Zhang 2012;
    rotation densification per Shrivastava & Li 2014): the signature
    construction that fills all P slots from ONE remix pass over the
    shingle stream instead of P fused-multiply-add sweeps — at P=128 that
    is the difference between 1x and 128x passes over every shingle of a
    100 TB corpus, i.e. the compute bill of the signature stage. For every
    exact char-5-gram Jaccard pair this emits
    ``(src, dst, jaccard_milli, oph_within_bound)`` — TRUE iff the
    densified-slot match fraction sits within a 4.5-sigma band (+1/P
    slack) of the true Jaccard. The band's sample size is the pair's MIN
    pre-densification filled-bin count, not P: borrowed (densified) slots
    are copies, and for short docs the binomial-at-P band is measurably
    ~1.5x too tight (the kernel's unbiasedness is property-tested in
    tests/test_hashing.py). Oracle = exact pairs + constant TRUE, so
    estimator drift fails the value-hash.

    Scale plan: identical pair-list plumbing to ``minhash_jaccard_check``;
    the signature pass itself is the cheap one."""
    return _minhash_check_impl(sf_dir, tau=tau, b=None,
                               flag_col="oph_within_bound", kind="oph")


def _minhash_check_impl(sf_dir: str, tau: float, b: int | None,
                        flag_col: str, kind: str = "perm"):
    from deduplication_ray.stages.join import lookup_join
    from deduplication_ray.stages.signatures import normalize_captions

    cfg = DedupConfig(num_partitions=8)
    pairs = q_ngram_jaccard_pairs(sf_dir, tau=tau)
    ds = _docs(sf_dir, ["doc_id", "text"])
    mh_a, mh_b = H.make_minhash_perms(cfg.num_perm, cfg.seed)
    P = cfg.num_perm

    def sig(t: pa.Table) -> pa.Table:
        cap = normalize_captions(t["text"])
        grams, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        if kind == "oph":
            mh, mf = H.oph_signatures(grams, offs, P, cfg.seed,
                                      with_filled=True)
            return pa.table({"doc_id": t["doc_id"],
                             "mh": H.pack_u64_rows(mh),
                             "mf": pa.array(mf, pa.int64())})
        mh = H.minhash_signatures(grams, offs, mh_a, mh_b)
        return pa.table({"doc_id": t["doc_id"], "mh": H.pack_u64_rows(mh)})

    sigs = ds.map_batches(sig, batch_format="pyarrow",
                          batch_size=cfg.text_batch_size).materialize()
    ren_src = {"doc_id": "src", "mh": "mh_src"}
    ren_dst = {"doc_id": "dst", "mh": "mh_dst"}
    if kind == "oph":
        ren_src["mf"], ren_dst["mf"] = "mf_src", "mf_dst"
    e = lookup_join(pairs, sigs.rename_columns(ren_src), on=["src"], cfg=cfg)
    e = lookup_join(e, sigs.rename_columns(ren_dst), on=["dst"], cfg=cfg)

    def verdict(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "jaccard_milli": pa.array([], pa.int64()),
                             flag_col: pa.array([], pa.bool_())})
        va = H.unpack_u64_rows(t["mh_src"], P)
        vb = H.unpack_u64_rows(t["mh_dst"], P)
        if b is not None:
            mask = np.uint64((1 << b) - 1)
            va, vb = va & mask, vb & mask
        est = (va == vb).sum(axis=1) / P
        j = t["jaccard_milli"].to_numpy().astype(np.float64) / 1000.0
        # expected match prob: J for full values; C + (1-C)J with the
        # accidental-collision floor C = 2^-b for b-bit values
        C = 0.0 if b is None else 1.0 / (1 << b)
        p_exp = C + (1.0 - C) * j
        # effective sample size: P independent slots for permutation
        # MinHash; for densified OPH only the genuinely filled bins carry
        # independent information (borrowed slots are copies), so the band
        # uses the pair's min filled count — conservative for short docs,
        # where the binomial-at-P band is measurably too tight (~1.5x)
        if kind == "oph":
            m = np.minimum(t["mf_src"].to_numpy(),
                           t["mf_dst"].to_numpy()).clip(min=1).astype(float)
        else:
            m = float(P)
        sigma = np.sqrt(np.maximum(p_exp * (1.0 - p_exp), 0.0) / m)
        ok = np.abs(est - p_exp) <= 4.5 * sigma + 1.0 / P
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "jaccard_milli": t["jaccard_milli"],
                         flag_col: pa.array(ok, pa.bool_())})

    return e.map_batches(verdict, batch_format="pyarrow")


def minhash_jaccard_check_sql(tau: float = 0.6, k: int = 5) -> str:
    base = ngram_jaccard_pairs_sql(tau=tau, k=k)
    return (f"SELECT src, dst, jaccard_milli, TRUE AS mh_within_bound "
            f"FROM ({base})")


def bbit_minhash_check_sql(tau: float = 0.6, k: int = 5) -> str:
    base = ngram_jaccard_pairs_sql(tau=tau, k=k)
    return (f"SELECT src, dst, jaccard_milli, TRUE AS bbit_within_bound "
            f"FROM ({base})")


def oph_minhash_check_sql(tau: float = 0.6, k: int = 5) -> str:
    base = ngram_jaccard_pairs_sql(tau=tau, k=k)
    return (f"SELECT src, dst, jaccard_milli, TRUE AS oph_within_bound "
            f"FROM ({base})")


def q_weighted_jaccard_check(sf_dir: str, tau: float = 0.6, P: int = 128,
                             seed: int = 17):
    """Weighted-MinHash (ICWS, Ioffe 2010) estimator VERDICT: for every
    near-dup candidate pair (the exact ``ngram_jaccard_pairs`` universe),
    compute the EXACT weighted word Jaccard sum(min tf)/sum(max tf) —
    the multiset similarity that, unlike set Jaccard, sees a doc that
    repeats a template 10x as different from one containing it once —
    and re-estimate it from P consistent weighted samples. Emits
    (src, dst, wjaccard_milli, icws_within_bound): TRUE iff the estimate
    sits in the 4.5-sigma binomial band (+1/P slack) around the exact
    value. The DuckDB oracle recomputes the exact weighted Jaccard and
    emits constant TRUE, so estimator drift fails the value-hash.

    Scale plan: the pair list inherits ``q_ngram_jaccard_pairs``'s size
    dispatch; signatures are one stateless pass over the corpus (P
    vectorized reduceat sweeps per batch, token strings die at the scan);
    exact per-pair sums attach texts to the bounded pair list via two
    lookup joins and verify with ONE lexsort over the flattened
    (pair, token) arrays — the same whole-batch sort-merge the n-gram
    verify uses, no per-pair Python."""
    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    pairs = q_ngram_jaccard_pairs(sf_dir, tau=tau)
    ds = _docs(sf_dir, ["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        th = H.hash_bytes_array(flat)
        row = np.repeat(np.arange(len(offs) - 1, dtype=np.int64),
                        np.diff(offs))
        order = np.lexsort((th, row))
        ths, rs = th[order], row[order]
        first = np.concatenate([[True], (ths[1:] != ths[:-1])
                                | (rs[1:] != rs[:-1])]) \
            if len(ths) else np.zeros(0, bool)
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(ths)))
        toku, rowu = ths[first], rs[first]
        offsu = np.zeros(len(offs), np.int64)
        np.add.at(offsu[1:], rowu, 1)
        np.cumsum(offsu, out=offsu)
        T, Q = H.icws_signatures(toku, counts, offsu, P, seed)
        return pa.table({
            "doc_id": t["doc_id"],
            "wtok": H.pack_u64_rows(T),
            "wq": H.pack_u64_rows(H.bitcast_i64_to_u64(Q.ravel())
                                  .reshape(Q.shape)),
            "tf_tok": _pack_tf_lists(toku, offsu),
            "tf_cnt": _pack_tf_counts(counts, offsu),
        })

    sigs = ds.map_batches(sig, batch_format="pyarrow",
                          batch_size=1024).materialize()
    e = lookup_join(
        pairs, sigs.rename_columns(
            {"doc_id": "src", "wtok": "wtok_a", "wq": "wq_a",
             "tf_tok": "tf_tok_a", "tf_cnt": "tf_cnt_a"}),
        on=["src"], cfg=cfg)
    e = lookup_join(
        e, sigs.rename_columns(
            {"doc_id": "dst", "wtok": "wtok_b", "wq": "wq_b",
             "tf_tok": "tf_tok_b", "tf_cnt": "tf_cnt_b"}),
        on=["dst"], cfg=cfg)

    def verdict(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "wjaccard_milli": pa.array([], pa.int64()),
                             "icws_within_bound": pa.array([], pa.bool_())})
        smin, den = _pair_weighted_overlap(t)
        ta = H.unpack_u64_rows(t["wtok_a"], P)
        tb = H.unpack_u64_rows(t["wtok_b"], P)
        qa = H.unpack_u64_rows(t["wq_a"], P)
        qb = H.unpack_u64_rows(t["wq_b"], P)
        est = ((ta == tb) & (qa == qb)).sum(axis=1) / P
        j = smin / den
        sigma = np.sqrt(np.maximum(j * (1.0 - j), 0.0) / P)
        ok = np.abs(est - j) <= 4.5 * sigma + 1.0 / P
        return pa.table({
            "src": t["src"], "dst": t["dst"],
            "wjaccard_milli": pa.array(
                (1000 * smin) // np.maximum(den, 1)),
            "icws_within_bound": pa.array(ok, pa.bool_()),
        })

    return e.map_batches(verdict, batch_format="pyarrow")


def _pack_tf_lists(toku: np.ndarray, offsu: np.ndarray) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(offsu.astype(np.int32)),
        pa.array(H.bitcast_u64_to_i64(toku), pa.int64()))


def _pack_tf_counts(counts: np.ndarray, offsu: np.ndarray) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(offsu.astype(np.int32)),
        pa.array(counts.astype(np.int64), pa.int64()))


def _pair_weighted_overlap(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair sum(min tf) and sum(max tf) from the attached per-doc
    (token, count) lists: ONE lexsort over the flattened (pair, token,
    side) arrays — matched tokens become adjacent (pair, token) runs of
    length 2 — then vectorized segment sums. No per-pair Python."""
    def flat(col_tok, col_cnt):
        lt = t[col_tok]
        lc = t[col_cnt]
        if isinstance(lt, pa.ChunkedArray):
            lt = lt.combine_chunks()
        if isinstance(lc, pa.ChunkedArray):
            lc = lc.combine_chunks()
        lens = pc.list_value_length(lt).to_numpy().astype(np.int64)
        pair = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        return (pair, lt.flatten().to_numpy().astype(np.int64),
                lc.flatten().to_numpy().astype(np.int64), lens)

    pa_, ta_, ca_, lens_a = flat("tf_tok_a", "tf_cnt_a")
    pb_, tb_, cb_, lens_b = flat("tf_tok_b", "tf_cnt_b")
    tot_a = np.zeros(t.num_rows, np.int64)
    np.add.at(tot_a, pa_, ca_)
    tot_b = np.zeros(t.num_rows, np.int64)
    np.add.at(tot_b, pb_, cb_)
    pair = np.concatenate([pa_, pb_])
    tokf = np.concatenate([ta_, tb_])
    cnt = np.concatenate([ca_, cb_])
    side = np.concatenate([np.zeros(len(pa_), np.int8),
                           np.ones(len(pb_), np.int8)])
    o = np.lexsort((side, tokf, pair))
    pair, tokf, cnt = pair[o], tokf[o], cnt[o]
    # per-doc tokens are distinct, so a (pair, token) run of length 2 is
    # exactly one a-side and one b-side entry: the shared-token case
    match = np.zeros(len(pair), bool)
    if len(pair) > 1:
        match[1:] = (pair[1:] == pair[:-1]) & (tokf[1:] == tokf[:-1])
    smin = np.zeros(t.num_rows, np.int64)
    m = np.flatnonzero(match)
    if len(m):
        np.add.at(smin, pair[m], np.minimum(cnt[m], cnt[m - 1]))
    den = tot_a + tot_b - smin
    return smin, den


def weighted_jaccard_check_sql(tau: float = 0.6) -> str:
    base = ngram_jaccard_pairs_sql(tau=tau)
    return f"""
WITH pairs AS ({base}),
toks AS (
  SELECT doc_id,
         unnest(string_split_regex(lower(trim(text)), '\\s+')) AS wd
  FROM documents
), tf AS (
  SELECT doc_id, wd, count(*) AS c FROM toks GROUP BY doc_id, wd
), tot AS (
  SELECT doc_id, sum(c) AS tot FROM tf GROUP BY doc_id
), shared AS (
  -- INNER joins only: DuckDB's least() IGNORES NULLs, so a LEFT JOIN
  -- formulation would leak unmatched-token counts into the sum
  SELECT p.src, p.dst, sum(least(a.c, b.c)) AS smin
  FROM pairs p
  JOIN tf a ON a.doc_id = p.src
  JOIN tf b ON b.doc_id = p.dst AND b.wd = a.wd
  GROUP BY p.src, p.dst
)
SELECT p.src, p.dst,
       CAST((1000 * coalesce(s.smin, 0))
            // (ta.tot + tb.tot - coalesce(s.smin, 0)) AS BIGINT)
           AS wjaccard_milli,
       TRUE AS icws_within_bound
FROM pairs p
LEFT JOIN shared s ON s.src = p.src AND s.dst = p.dst
JOIN tot ta ON ta.doc_id = p.src
JOIN tot tb ON tb.doc_id = p.dst
"""


# --------------------------------------------------- corpus composition report

def q_source_lang_matrix(sf_dir: str):
    """Corpus COMPOSITION report: document count per (source, lang) with
    each cell's integer-permille share of its source — the mixture table a
    training-data pipeline prints before and after every curation step
    (and the input to ``q_doc_token_budget_mix``'s share targets).

    Scale plan: per-batch (source, lang) hash-agg partials -> one
    groupby-sum bounded by |sources| x |langs| (a dimension table, never
    corpus-sized) -> the bounded result computes per-source shares in one
    driver pass (the same bounded-collect contract as ``top_terms``'s
    final merge)."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "lang"]).aggregate([("lang", "count")])
        return pa.table({"source": g["source"], "lang": g["lang"],
                         "n_docs": g["lang_count"].cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["source", "lang"])
           .aggregate(Sum("n_docs", alias_name="n_docs"))).to_pandas()
    totals = agg.groupby("source")["n_docs"].transform("sum")
    agg["share_permille"] = (agg["n_docs"] * 1000 // totals).astype("int64")
    agg["n_docs"] = agg["n_docs"].astype("int64")
    return agg.reset_index(drop=True)


Q_SOURCE_LANG_MATRIX_SQL = """
SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) * 1000 // sum(count(*)) OVER (PARTITION BY source)
            AS BIGINT) AS share_permille
FROM documents GROUP BY source, lang
"""


# --------------------------------------------------- corpus PII audit report

def q_doc_pii_stats(sf_dir: str, ds=None):
    """Corpus PII AUDIT — the compliance report a pipeline publishes before
    releasing a corpus: per source, documents scanned, documents containing
    each PII class (email / phone / long number), and total hits, using the
    SAME compiled-RE2 patterns the redaction pass applies (so the report
    and the scrubber can never disagree about what counts as PII).

    Scale plan: one stateless map_batches computing per-batch (source,
    counters) partials -> a |sources|-bounded groupby-sum; document text
    never shuffles."""
    from ray.data.aggregate import Sum

    if ds is None:
        ds = _docs(sf_dir, ["source", "text"])
    names = ("email", "phone", "longnum")

    def partial(t: pa.Table) -> pa.Table:
        cols = {"source": t["source"], "n_docs": pa.array(
            np.ones(t.num_rows, np.int64))}
        total = np.zeros(t.num_rows, np.int64)
        for (pat, _), nm in zip(_PII_PATTERNS, names):
            c = pc.count_substring_regex(t["text"], pat) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            cols[f"docs_with_{nm}"] = pa.array((c > 0).astype(np.int64))
            total += c
        cols["total_hits"] = pa.array(total)
        g = pa.table(cols).group_by("source").aggregate(
            [("n_docs", "sum"), ("total_hits", "sum")]
            + [(f"docs_with_{nm}", "sum") for nm in names])
        return pa.table({
            "source": g["source"],
            "n_docs": g["n_docs_sum"].cast(pa.int64()),
            **{f"docs_with_{nm}": g[f"docs_with_{nm}_sum"].cast(pa.int64())
               for nm in names},
            "total_hits": g["total_hits_sum"].cast(pa.int64()),
        })

    aggs = [Sum("n_docs", alias_name="n_docs")] + \
        [Sum(f"docs_with_{nm}", alias_name=f"docs_with_{nm}")
         for nm in names] + [Sum("total_hits", alias_name="total_hits")]
    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("source").aggregate(*aggs))


def doc_pii_stats_sql() -> str:
    names = ("email", "phone", "longnum")
    per_doc, sums = [], []
    for (pat, _), nm in zip(_PII_PATTERNS, names):
        sql_pat = pat.replace("'", "''")
        per_doc.append(
            f"length(regexp_extract_all(text, '{sql_pat}')) AS c_{nm}")
        sums.append(f"CAST(sum(CASE WHEN c_{nm} > 0 THEN 1 ELSE 0 END) "
                    f"AS BIGINT) AS docs_with_{nm}")
    return f"""
WITH d AS (SELECT source, {', '.join(per_doc)} FROM documents)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       {', '.join(sums)},
       CAST(sum({' + '.join('c_' + nm for nm in names)}) AS BIGINT)
           AS total_hits
FROM d GROUP BY source
"""


# ------------------------------------------------------ BPE tokenizer training

def _word_count_agg(ds: ray.data.Dataset) -> ray.data.Dataset:
    """TOTAL token frequencies (tok, n), distributed: per-batch ``np.unique``
    partials -> one groupby-sum bounded by the word vocabulary."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        flat, _ = _tokens_flat(t["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        u, c = np.unique(toks, return_counts=True)
        return pa.table({"tok": pa.array(u, pa.string()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("tok").aggregate(Sum("n", alias_name="n")))


def corpus_word_counts(ds: ray.data.Dataset,
                       vocab_cap: int = 30000) -> tuple[list[str], np.ndarray]:
    """Corpus WORD-FREQUENCY table, distributed: per-batch ``np.unique``
    partials (one row per distinct token per block) -> one groupby-sum
    bounded by the word vocabulary, never corpus-sized -> per-block partial
    top-``vocab_cap`` -> tiny driver merge. This is the exact shape
    SentencePiece / HF tokenizers train from (merges are learned from word
    counts, not the raw stream). The heavy-tail cap bounds driver memory at
    web scale (Zipf tail words contribute ~nothing to pair counts and still
    tokenize fine at apply time); ties break lexicographically so the cap
    is deterministic."""
    agg = _word_count_agg(ds)

    def topcap(t: pa.Table) -> pa.Table:
        df_ = (t.to_pandas().sort_values(["n", "tok"], ascending=[False, True])
               .head(vocab_cap))
        return pa.Table.from_pandas(df_, preserve_index=False)

    cand = agg.map_batches(topcap, batch_format="pyarrow").to_pandas()
    cand = (cand.sort_values(["n", "tok"], ascending=[False, True])
            .head(vocab_cap).reset_index(drop=True))
    return cand["tok"].tolist(), cand["n"].to_numpy().astype(np.int64)


def _bpe_apply_merge(s: tuple, left: str, right: str, new: str) -> tuple:
    out, i, n = [], 0, len(s)
    while i < n:
        if i < n - 1 and s[i] == left and s[i + 1] == right:
            out.append(new)
            i += 2
        else:
            out.append(s[i])
            i += 1
    return tuple(out)


def bpe_merge_loop(words: list[str], counts: np.ndarray,
                   num_merges: int) -> list[tuple[str, str]]:
    """Deterministic BPE merge loop over a word-frequency table (Sennrich
    et al. 2016, "Neural Machine Translation of Rare Words with Subword
    Units" — public; learn_bpe): per round the highest-total-count adjacent
    symbol pair wins, ties broken by the lexicographically smallest
    (left, right), so the merge table is a pure function of the word-count
    table. Incremental maintenance: only words containing the winning pair
    are re-scanned (pair -> word-index inverted lists), the classic fast
    variant — the loop never re-walks the whole vocabulary."""
    from collections import defaultdict

    syms: list[tuple] = [tuple(w) for w in words]
    pair_n: dict = defaultdict(int)
    pair_w: dict = defaultdict(set)
    for i, s in enumerate(syms):
        c = int(counts[i])
        for p in zip(s, s[1:]):
            pair_n[p] += c
            pair_w[p].add(i)
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_n:
            break
        best = min(pair_n.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_n[best] <= 0:
            break
        merges.append(best)
        new_sym = best[0] + best[1]
        for i in sorted(pair_w[best]):
            s, c = syms[i], int(counts[i])
            for p in zip(s, s[1:]):
                pair_n[p] -= c
                pair_w[p].discard(i)
                if pair_n[p] <= 0:
                    pair_n.pop(p, None)
                    pair_w.pop(p, None)
            s = _bpe_apply_merge(s, best[0], best[1], new_sym)
            syms[i] = s
            for p in zip(s, s[1:]):
                pair_n[p] += c
                pair_w[p].add(i)
    return merges


def bpe_token_count(word: str, ranks: dict, merge_at: list,
                    cache: dict) -> int:
    """Number of BPE tokens ``word`` encodes to under the trained merge
    table: repeatedly apply the LOWEST-RANK applicable merge (the standard
    greedy BPE encoder). Memoized per distinct word — each batch pays the
    loop once per unique word, not once per occurrence."""
    got = cache.get(word)
    if got is not None:
        return got
    s = tuple(word)
    while len(s) > 1:
        best_rank = None
        for p in zip(s, s[1:]):
            r = ranks.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
        if best_rank is None:
            break
        left, right = merge_at[best_rank]
        s = _bpe_apply_merge(s, left, right, left + right)
    cache[word] = len(s)
    return len(s)


def q_doc_train_bpe(sf_dir: str, num_merges: int = 200,
                    vocab_cap: int = 30000):
    """Distributed BPE tokenizer TRAINING — the vocabulary-construction step
    of an LLM data pipeline. Rows-only (an iterative argmax loop, not
    ANSI-SQL-expressible); exact end-to-end parity with an independent
    serial implementation plus partition invariance are asserted in
    tests/test_bpe.py.

    Scale plan: the only distributed work is the word-count pass
    (vocabulary-bounded groupby-sum, per-block partial top-k); the merge
    loop itself runs on the capped driver-side table — the standard
    architecture (HF tokenizers / SentencePiece train exactly this way)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    words, counts = corpus_word_counts(ds, vocab_cap)
    merges = bpe_merge_loop(words, counts, num_merges)
    return pd.DataFrame({
        "rank": np.arange(len(merges), dtype=np.int64),
        "left": [m[0] for m in merges],
        "right": [m[1] for m in merges],
        "merged": [m[0] + m[1] for m in merges],
    })


def q_doc_bpe_tokenize(sf_dir: str, num_merges: int = 200,
                       vocab_cap: int = 30000):
    """BPE tokenization APPLY pass: train the merge table (above), broadcast
    it once via ``ray.put``, then one stateless map_batches encodes every
    document — per batch the encoder loop runs once per DISTINCT word
    (np.unique + inverse-index scatter), and per-doc totals come from one
    ``np.add.reduceat`` over the flat token array. Output: (doc_id,
    n_words, n_bpe_tokens). Rows-only; serial parity + the
    chars >= tokens >= words compression invariants are asserted in
    tests/test_bpe.py."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    merges = bpe_merge_loop(*corpus_word_counts(ds, vocab_cap), num_merges)
    ranks = {p: i for i, p in enumerate(merges)}
    ref = ray.put((ranks, merges))

    class Encode:
        def __init__(self):
            self.ranks = None
            self.cache: dict = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.ranks is None:
                self.ranks, self.merges = ray.get(ref)
            flat, offs = _tokens_flat(t["text"])
            toks = flat.to_numpy(zero_copy_only=False)
            nonempty = toks != ""
            u, inv = np.unique(toks, return_inverse=True)
            per_u = np.array([bpe_token_count(w, self.ranks, self.merges,
                                              self.cache) if w else 0
                              for w in u], dtype=np.int64)
            per_tok = per_u[inv]
            per_tok[~nonempty] = 0
            ext = np.append(per_tok, 0)
            wext = np.append(nonempty.astype(np.int64), 0)
            starts = np.minimum(offs[:-1], len(per_tok))
            n_tok = np.add.reduceat(ext, starts)
            n_w = np.add.reduceat(wext, starts)
            empty = offs[1:] == offs[:-1]
            n_tok[empty] = 0
            n_w[empty] = 0
            return pa.table({
                "doc_id": t["doc_id"],
                "n_words": pa.array(n_w.astype(np.int64)),
                "n_bpe_tokens": pa.array(n_tok.astype(np.int64)),
            })

    return ds.map_batches(Encode(), batch_format="pyarrow")


# ------------------------------------------------------- keyed upsert (merge)

# partitions of the doc_id exchanges of the keyed merges
_MERGE_PARTS = 16


def _keep_latest(t: pa.Table) -> pa.Table:
    """Each doc_id's highest-version row of ``t`` (one lexsort, keep last):
    the per-batch combiner of the keyed merges below and, after their
    exchange on doc_id, their exact per-partition final."""
    ids, ver = t["doc_id"].to_numpy(), t["version"].to_numpy()
    order = np.lexsort((ver, ids))
    ids_s = ids[order]
    last = np.concatenate([ids_s[1:] != ids_s[:-1], [True]]) \
        if len(ids_s) else np.zeros(0, bool)
    return t.take(pa.array(order[last]))


def q_doc_upsert(sf_dir: str):
    """Keyed UPSERT / latest-writer-wins merge — the table-maintenance verb
    behind incremental crawl refreshes (Delta/Iceberg MERGE INTO shape):
    base = every document at version 1; delta = re-crawled rows (doc_id
    divisible by 5, n_chars grew by 1000) at version 2 plus brand-new rows
    (doc_id + 1,000,000 for doc_id divisible by 7); output = one row per
    key at its highest version. Delta is DERIVED deterministically from the
    documents table so the DuckDB oracle builds the identical inputs.

    Scale shape: per-batch local argmax-by-version reduce first (np.lexsort
    keep-last, so in-batch duplicates collapse before the wire), then ONE
    keyed exchange on doc_id whose partitions run the same keep-last — the
    classic combiner + single-shuffle merge; no driver materialization."""
    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def base(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "version": pa.array(np.ones(t.num_rows, np.int64)),
            "n_chars": t["n_chars"].cast(pa.int64()),
        })

    def delta(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        chars = t["n_chars"].to_numpy().astype(np.int64)
        upd = ids % 5 == 0
        new = ids % 7 == 0
        out_id = np.concatenate([ids[upd], ids[new] + 1_000_000])
        out_ch = np.concatenate([chars[upd] + 1000, chars[new]])
        return pa.table({
            "doc_id": pa.array(out_id),
            "version": pa.array(np.full(len(out_id), 2, np.int64)),
            "n_chars": pa.array(out_ch),
        })

    unioned = ds.map_batches(base, batch_format="pyarrow") \
        .union(ds.map_batches(delta, batch_format="pyarrow")) \
        .map_batches(_keep_latest, batch_format="pyarrow")
    return hash_grouped_reduce(unioned, ["doc_id"], _keep_latest,
                               _MERGE_PARTS)


Q_DOC_APPLY_CHANGELOG_SQL = """
WITH log AS (
  SELECT doc_id, 0 AS version, CAST(n_chars AS BIGINT) AS n_chars, 'u' AS op
  FROM documents
  UNION ALL
  SELECT doc_id + 1000000, 1, CAST(n_chars AS BIGINT), 'u'
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id, 2, CAST(n_chars + 1000 AS BIGINT), 'u'
  FROM documents WHERE doc_id % 5 = 0
  UNION ALL
  SELECT doc_id, 3, CAST(0 AS BIGINT), 'd'
  FROM documents WHERE doc_id % 11 = 0
), latest AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id
            ORDER BY version DESC) AS rn
  FROM log)
SELECT doc_id, n_chars FROM latest WHERE rn = 1 AND op = 'u'
"""


def q_doc_apply_changelog(sf_dir: str):
    """CDC changelog APPLY — ``doc_upsert`` generalized with DELETE ops
    (the Delta/Iceberg/Hudi change-log materialization): base table at
    version 0, a derived log of upsert-inserts (% 7, shifted key space,
    version 1), updates (doc_id % 5, version 2) and deletes (% 11,
    version 3 — so a key that is both updated and deleted ends DELETED);
    output = one row per surviving key at its highest version. The log
    derives deterministically from the documents table so the DuckDB
    oracle builds identical inputs. Each stream owns a distinct version
    level, so no (key, version) tie can arise even when a shifted insert
    key collides with a real doc_id (ids spanning past 1e6) — ties would
    make the terminal-row election order-dependent.

    Scale shape: all four log streams are emitted by ONE stateless pass
    over the base (no 4-way dataset union); per-batch keep-last combiner
    collapses in-batch versions before the wire; ONE keyed exchange on
    doc_id runs it again per partition to pick each key's terminal row and
    drops tombstones. Tombstone semantics match the engine's deletion
    propagation (``incremental.delete_ids``) at the table-maintenance
    level."""
    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def log_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        chars = t["n_chars"].to_numpy().astype(np.int64)
        upd, ins, dele = ids % 5 == 0, ids % 7 == 0, ids % 11 == 0
        out_id = np.concatenate(
            [ids, ids[ins] + 1_000_000, ids[upd], ids[dele]])
        out_ver = np.concatenate(
            [np.zeros(len(ids), np.int64),
             np.ones(ins.sum(), np.int64),
             np.full(upd.sum(), 2, np.int64),
             np.full(dele.sum(), 3, np.int64)])
        out_ch = np.concatenate(
            [chars, chars[ins], chars[upd] + 1000,
             np.zeros(dele.sum(), np.int64)])
        out_op = np.concatenate(
            [np.full(len(ids) + ins.sum() + upd.sum(), "u"),
             np.full(dele.sum(), "d")])
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "version": pa.array(out_ver, pa.int64()),
                         "n_chars": pa.array(out_ch, pa.int64()),
                         "op": pa.array(out_op, pa.string())})

    def terminal(t: pa.Table) -> pa.Table:
        t = _keep_latest(t)
        return t.filter(pc.equal(t["op"], "u")).select(["doc_id", "n_chars"])

    log = ds.map_batches(log_rows, batch_format="pyarrow") \
        .map_batches(_keep_latest, batch_format="pyarrow")
    return hash_grouped_reduce(log, ["doc_id"], terminal, _MERGE_PARTS)


Q_DOC_UPSERT_SQL = """
WITH base AS (
  SELECT doc_id, CAST(1 AS BIGINT) AS version,
         CAST(n_chars AS BIGINT) AS n_chars
  FROM documents
), delta AS (
  SELECT doc_id, CAST(2 AS BIGINT) AS version,
         CAST(n_chars + 1000 AS BIGINT) AS n_chars
  FROM documents WHERE doc_id % 5 = 0
  UNION ALL
  SELECT doc_id + 1000000, CAST(2 AS BIGINT), CAST(n_chars AS BIGINT)
  FROM documents WHERE doc_id % 7 = 0
), u AS (
  SELECT * FROM base UNION ALL SELECT * FROM delta
)
SELECT doc_id, CAST(max(version) AS BIGINT) AS version,
       CAST(max_by(n_chars, version) AS BIGINT) AS n_chars
FROM u GROUP BY doc_id
"""


# ------------------------------------------------- count-min sketch verdict

def q_term_freq_cm_check(sf_dir: str, width: int = 2048, depth: int = 4,
                         k: int = 20):
    """Count-min sketch point-frequency VERDICT (Cormode & Muthukrishnan
    2005): build the sketch from mergeable per-block partials, recompute the
    top-k terms' EXACT frequencies distributed, and emit per term
    (tok, tf, cm_within_bound) where the verdict checks BOTH count-min
    guarantees — est >= exact (never undercounts, deterministic) and
    est - exact <= 3N/width (a deliberately loosened integer form of the
    eps*N = eN/width overcount bound, so the check is float-free and holds
    with overwhelming probability at depth 4).

    Scale shape: the sketch partial is depth x width int64 per block (64 KB
    at 4 x 2048) merged by elementwise sum on the driver — flat wire cost at
    any corpus size; the exact side reuses the vocabulary-bounded word-count
    groupby + per-block partial top-k."""
    from deduplication_ray.functions import sketch as SK

    ds = _docs(sf_dir, ["doc_id", "text"])

    def cm_partial(t: pa.Table) -> pa.Table:
        flat, _ = _tokens_flat(t["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        u, c = np.unique(toks, return_counts=True)
        cm = SK.cm_init(width, depth)
        if len(u):
            h = H.hash_bytes_array(pa.array(u, pa.string()))
            SK.cm_add(cm, h, c)
        return pa.table({"cm": pa.array([cm.ravel().tolist()],
                                        pa.list_(pa.int64()))})

    parts = ds.map_batches(cm_partial, batch_format="pyarrow").to_pandas()
    cm = SK.cm_init(width, depth)
    for p in parts["cm"]:
        cm += np.asarray(p, np.int64).reshape(depth, width)

    agg = _word_count_agg(ds).materialize()
    n_total = int(agg.sum("n"))

    def topk(t: pa.Table) -> pa.Table:
        df_ = (t.to_pandas().sort_values(["n", "tok"],
                                         ascending=[False, True]).head(k))
        return pa.Table.from_pandas(df_, preserve_index=False)

    cand = agg.map_batches(topk, batch_format="pyarrow").to_pandas()
    top = (cand.sort_values(["n", "tok"], ascending=[False, True])
           .head(k).reset_index(drop=True))

    est = SK.cm_query(cm, H.hash_bytes_array(pa.array(top["tok"],
                                                      pa.string())))
    tf = top["n"].to_numpy().astype(np.int64)
    bound = (3 * n_total) // width
    ok = (est >= tf) & (est - tf <= bound)
    return pd.DataFrame({"tok": top["tok"], "tf": tf,
                         "cm_within_bound": ok.astype(bool)})


def term_freq_cm_check_sql(k: int = 20) -> str:
    return f"""
WITH toks AS (
  SELECT unnest(string_split_regex(lower(trim(text)), '\\s+')) AS tok
  FROM documents
)
SELECT tok, CAST(count(*) AS BIGINT) AS tf, TRUE AS cm_within_bound
FROM toks WHERE tok <> '' GROUP BY tok
ORDER BY tf DESC, tok LIMIT {k}
"""


# ------------------------------------------- duplicated-span annotation (C4)

def _gram_doc_pairs(t: pa.Table, n: int) -> pa.Table:
    """Distinct (gram hash, doc_id) rows of a batch's word n-grams (docs are
    whole within a batch, so batch-level dedupe IS global dedupe)."""
    g, row = _word_grams(t["text"], n)
    gh = H.hash_bytes_array(g)
    d = t["doc_id"].to_numpy()[row]
    order = np.lexsort((gh, d))
    ghs, dss = gh[order], d[order]
    keep = np.concatenate([[True], (ghs[1:] != ghs[:-1])
                           | (dss[1:] != dss[:-1])]) \
        if len(ghs) else np.zeros(0, bool)
    return pa.table({
        "gh": pa.array(H.bitcast_u64_to_i64(ghs[keep]), pa.int64()),
        "doc_id": pa.array(dss[keep], pa.int64()),
    })


def q_doc_span_dup_flags(sf_dir: str, n: int = 8, drop_permille: int = 300,
                         num_buckets: int = 64):
    """C4/RefinedWeb-style duplicated-span annotation: for every document,
    how many of its DISTINCT word n-grams also occur in at least one OTHER
    document, the dup fraction in integer permille, and a keep flag
    (dup fraction <= drop_permille) — the standard "drop documents made of
    repeated boilerplate spans" filter, kept as an annotation so the caller
    chooses drop vs weight.

    Scale shape: per-batch distinct (gram-hash, doc) pairs (docs are whole
    within a batch, so batch-level dedupe IS global dedupe); ONE bucket
    shuffle keyed on gram hash where each bucket counts docs-per-gram
    vectorized and emits |docs-in-bucket|-bounded per-doc partials; a
    |docs| x |buckets|-bounded groupby-sum; per-doc gram totals never
    shuffle (computed exactly at the scan) and join the dup counts via the
    size-dispatched lookup join. Gram STRINGS never leave the scan stage —
    only u64 hashes move."""
    from ray.data.aggregate import Sum

    from deduplication_ray.stages.join import lookup_join

    ds = _docs(sf_dir, ["doc_id", "text"])

    def doc_totals(t: pa.Table) -> pa.Table:
        g, row = _word_grams(t["text"], n)
        gh = H.hash_bytes_array(g)
        d = t["doc_id"].to_numpy()
        # distinct grams per doc: dedupe (gram, doc) then bincount rows
        order = np.lexsort((gh, row))
        ghs, rs = gh[order], row[order]
        keep = np.concatenate([[True], (ghs[1:] != ghs[:-1])
                               | (rs[1:] != rs[:-1])]) \
            if len(ghs) else np.zeros(0, bool)
        per = np.bincount(rs[keep], minlength=t.num_rows)
        return pa.table({"doc_id": pa.array(d, pa.int64()),
                         "n_grams": pa.array(per.astype(np.int64))})

    def bucket_dups(t: pa.Table) -> pa.Table:
        gh = t["gh"].to_numpy()
        _, inv, cnt = np.unique(gh, return_inverse=True, return_counts=True)
        dup = (cnt[inv] >= 2).astype(np.int64)
        ud, dinv = np.unique(t["doc_id"].to_numpy(), return_inverse=True)
        nd = np.bincount(dinv, weights=dup).astype(np.int64)
        return pa.table({"doc_id": pa.array(ud), "nd": pa.array(nd)})

    grams = ds.map_batches(_gram_doc_pairs, fn_args=(n,),
                           batch_format="pyarrow")
    dups = (hash_grouped_reduce(grams, ["gh"], bucket_dups, num_buckets)
            .groupby("doc_id").aggregate(Sum("nd", alias_name="n_dup")))

    totals = ds.map_batches(doc_totals, batch_format="pyarrow")
    joined = lookup_join(totals, dups, on=["doc_id"],
                         cfg=DedupConfig(), how="left")

    def finish(t: pa.Table) -> pa.Table:
        ng = t["n_grams"].to_numpy()
        nd = t["n_dup"].fill_null(0).cast(pa.int64()).to_numpy() \
            if "n_dup" in t.column_names else np.zeros(len(ng), np.int64)
        permille = np.where(ng > 0, (1000 * nd) // np.maximum(ng, 1), 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_grams": pa.array(ng.astype(np.int64)),
            "n_dup": pa.array(nd.astype(np.int64)),
            "dup_permille": pa.array(permille.astype(np.int64)),
            "keep": pa.array(nd * 1000 <= drop_permille * ng),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def doc_span_dup_flags_sql(n: int = 8, drop_permille: int = 300) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), cnt AS (
  SELECT g, count(*) AS ndocs FROM grams GROUP BY g
), per AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams,
         CAST(sum(CASE WHEN ndocs >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
  FROM grams JOIN cnt USING (g) GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(n_grams, 0) AS n_grams, COALESCE(n_dup, 0) AS n_dup,
       CASE WHEN COALESCE(n_grams, 0) = 0 THEN 0
            ELSE (1000 * n_dup) // n_grams END AS dup_permille,
       (COALESCE(n_dup, 0) * 1000 <= {drop_permille} * COALESCE(n_grams, 0))
           AS keep
FROM documents d LEFT JOIN per USING (doc_id)
"""


# ------------------------------------- duplicated-span removal (ExactSubstr)

def _word_gram_positions(text_col, n: int) -> tuple[pa.Array, np.ndarray,
                                                    np.ndarray]:
    """``_word_grams`` plus each gram's 0-based word position within its
    row — needed when the gram's LOCATION matters (span removal), not just
    its identity. Same vectorized shifted-slice construction."""
    flat, offs = _tokens_flat(text_col)
    n_rows = len(offs) - 1
    total = int(offs[-1])
    if total < n:
        z = np.empty(0, dtype=np.int64)
        return pa.array([], pa.string()), z, z
    m = total - n + 1
    parts = [flat.slice(g, m) for g in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    counts = offs[1:] - offs[:-1]
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), counts)[:m]
    row_start = np.repeat(offs[:-1], counts)[:m]
    row_end = np.repeat(offs[1:], counts)[:m]
    starts = np.arange(m, dtype=np.int64)
    valid = (starts + n) <= row_end
    return (grams.filter(pa.array(valid)), row_of[valid],
            (starts - row_start)[valid])


def _dup_occurrence_rows(sf_dir: str, n: int, num_buckets: int, ds=None):
    """Shared spine for the dup-span operators: every occurrence
    (doc_id, pos) of a word n-gram whose CORPUS occurrence count — with
    multiplicity, same-doc repeats included — is >= 2. This is the
    ExactSubstr duplication criterion of Lee et al. 2022 ("Deduplicating
    Training Data Makes Language Models Better") at word granularity.

    Scale shape: gram strings die at the scan (only (gh, doc, pos) int64
    triples shuffle — occurrence-bounded wire); ONE ``hash_grouped_reduce``
    keyed on gram hash, inside which occurrences-per-gram is a vectorized
    transform and only duplicated occurrences survive. Downstream per-doc
    passes exchange the survivors on doc_id the same way."""
    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def occurrences(t: pa.Table) -> pa.Table:
        g, row, pos = _word_gram_positions(t["text"], n)
        gh = H.hash_bytes_array(g)
        d = t["doc_id"].to_numpy()[row]
        return pa.table({
            "gh": pa.array(H.bitcast_u64_to_i64(gh), pa.int64()),
            "doc_id": pa.array(d, pa.int64()),
            "pos": pa.array(pos, pa.int64()),
        })

    def dup_only(t: pa.Table) -> pa.Table:
        gh = t["gh"].to_numpy()
        _, inv, cnt = np.unique(gh, return_inverse=True, return_counts=True)
        keep = cnt[inv] >= 2
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy()[keep]),
            "pos": pa.array(t["pos"].to_numpy()[keep]),
        })

    return hash_grouped_reduce(
        ds.map_batches(occurrences, batch_format="pyarrow"), ["gh"],
        dup_only, num_buckets)


def q_doc_dup_spans(sf_dir: str, n: int = 8, num_buckets: int = 64,
                    ds=None):
    """Merged duplicated spans per document: half-open 0-based word-index
    intervals [span_start, span_end) covering every occurrence of a word
    n-gram that appears >= 2 times in the corpus (multiplicity counted,
    same-doc repeats included). Overlapping AND touching occurrence
    intervals merge — a verbatim 3n-word boilerplate block shared by two
    docs reports as ONE span per doc, not 2n+1 gram hits.

    Scale shape: `_dup_occurrence_rows` spine (one gram-hash exchange),
    then one doc_id-keyed ``hash_grouped_reduce`` where interval merging is a
    single lexsort + segment-break cumsum — equal-width intervals make the
    island rule one vectorized gap test (next_pos - pos > n)."""
    dup = _dup_occurrence_rows(sf_dir, n, num_buckets, ds=ds)

    def merge_spans(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        p = t["pos"].to_numpy()
        if len(d) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "span_start": pa.array([], pa.int64()),
                             "span_end": pa.array([], pa.int64())})
        o = np.lexsort((p, d))
        d, p = d[o], p[o]
        brk = np.concatenate([[True],
                              (d[1:] != d[:-1]) | (p[1:] - p[:-1] > n)])
        first = np.flatnonzero(brk)
        last = np.concatenate([first[1:] - 1, [len(p) - 1]])
        return pa.table({"doc_id": pa.array(d[brk]),
                         "span_start": pa.array(p[brk]),
                         "span_end": pa.array(p[last] + n)})

    return hash_grouped_reduce(dup, ["doc_id"], merge_spans, num_buckets)


def doc_dup_spans_sql(n: int = 8) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), occ AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)],
                         ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), cnt AS (
  SELECT g, count(*) AS c FROM occ GROUP BY g
), dup AS (
  SELECT doc_id, i FROM occ JOIN cnt USING (g) WHERE c >= 2
), brk AS (
  SELECT doc_id, i,
         CASE WHEN i - lag(i) OVER (PARTITION BY doc_id ORDER BY i) <= {n}
              THEN 0 ELSE 1 END AS b
  FROM dup
), isl AS (
  SELECT doc_id, i,
         sum(b) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS UNBOUNDED PRECEDING) AS island
  FROM brk
)
SELECT doc_id, CAST(min(i) - 1 AS BIGINT) AS span_start,
       CAST(max(i) + {n - 1} AS BIGINT) AS span_end
FROM isl GROUP BY doc_id, island
"""


def q_doc_remove_dup_spans(sf_dir: str, n: int = 8, num_buckets: int = 64,
                           ds=None):
    """ExactSubstr span REMOVAL (Lee et al. 2022): rewrite every document
    with all duplicated word n-gram occurrences cut out, keeping only the
    words no duplicated gram covers. Emits (doc_id, text, n_words,
    n_removed) for EVERY document — text is the kept words joined by one
    space (the corpus's normalized form), n_removed the covered word count.

    Scale shape: the spine's dup occurrences aggregate to ONE row per doc
    (pos lists, |occurrences|-bounded) in a doc_id-keyed exchange, then
    attach to the corpus through the size-dispatched lookup join; the rewrite is
    one stateless map_batches — coverage via a diff-array cumsum over the
    batch's flat token stream, kept text rebuilt with a single zero-copy
    ListArray + binary_join (no per-row Python joins). Texts shuffle at
    most once (inside lookup_join's shuffle fallback when the span side
    outgrows broadcast)."""
    from deduplication_ray.stages.join import lookup_join

    ds = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])
    dup = _dup_occurrence_rows(sf_dir, n, num_buckets, ds=ds)

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "positions": pa.array([], pa.list_(pa.int64()))})

    def per_doc(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy()
        p = g["pos"].to_numpy()
        if len(d) == 0:
            return empty
        o = np.lexsort((p, d))
        d, p = d[o], p[o]
        brk = np.concatenate([[True], d[1:] != d[:-1]])
        first = np.flatnonzero(brk)
        offs = np.append(first, len(p)).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offs),
                                         pa.array(p, pa.int64()))
        return pa.table({"doc_id": pa.array(d[brk], pa.int64()),
                         "positions": lists})

    spans = hash_grouped_reduce(dup, ["doc_id"], per_doc, num_buckets)
    joined = lookup_join(ds, spans, on=["doc_id"], cfg=DedupConfig(),
                         how="left")

    def rewrite(t: pa.Table) -> pa.Table:
        flat, offs = _tokens_flat(t["text"])
        total = int(offs[-1])
        diff = np.zeros(total + 1, np.int64)
        pos_col = t["positions"] if "positions" in t.column_names else None
        if pos_col is not None:
            if isinstance(pos_col, pa.ChunkedArray):
                pos_col = pos_col.combine_chunks()
            if pos_col.null_count < len(pos_col):
                lens = np.asarray(pc.list_value_length(pos_col).fill_null(0)
                                  .to_numpy(zero_copy_only=False),
                                  dtype=np.int64)
                starts = (np.repeat(offs[:-1], lens)
                          + pos_col.flatten().to_numpy().astype(np.int64))
                ends = np.minimum(starts + n,
                                  np.repeat(offs[1:], lens))
                np.add.at(diff, starts, 1)
                np.add.at(diff, ends, -1)
        covered = np.cumsum(diff[:-1]) > 0
        kept = flat.filter(pa.array(~covered))
        kept_per_row = np.subtract(offs[1:], offs[:-1]) - np.add.reduceat(
            covered, offs[:-1]) if total else np.zeros(
                len(offs) - 1, np.int64)
        # reduceat quirk: offs[i] == offs[i+1] == total would repeat the
        # last segment — impossible here (every row has >= 1 token because
        # split_pattern_regex('') == [''])
        new_offs = np.zeros(len(offs), np.int64)
        np.cumsum(kept_per_row, out=new_offs[1:])
        lists = pa.ListArray.from_arrays(
            pa.array(new_offs.astype(np.int32)),
            kept.combine_chunks() if isinstance(kept, pa.ChunkedArray)
            else kept)
        text = pc.binary_join(lists, " ")
        n_words = (offs[1:] - offs[:-1]).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "text": text,
            "n_words": pa.array(n_words),
            "n_removed": pa.array(
                (n_words - kept_per_row).astype(np.int64)),
        })

    return joined.map_batches(rewrite, batch_format="pyarrow")


def doc_remove_dup_spans_sql(n: int = 8) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), occ AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)],
                         ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), cnt AS (
  SELECT g, count(*) AS c FROM occ GROUP BY g
), dup AS (
  SELECT doc_id, i FROM occ JOIN cnt USING (g) WHERE c >= 2
), cover AS (
  SELECT DISTINCT doc_id, CAST(k AS BIGINT) AS k
  FROM dup, UNNEST(generate_series(i, i + {n - 1})) AS s(k)
), pos AS (
  SELECT t.doc_id, CAST(k AS BIGINT) AS k, w[CAST(k AS BIGINT)] AS word
  FROM toks t, UNNEST(generate_series(1, length(w))) AS p(k)
)
SELECT p.doc_id,
       coalesce(array_to_string(
           list(word ORDER BY p.k) FILTER (WHERE c.k IS NULL), ' '), '')
           AS text,
       CAST(count(*) AS BIGINT) AS n_words,
       CAST(count(c.k) AS BIGINT) AS n_removed
FROM pos p LEFT JOIN cover c ON p.doc_id = c.doc_id AND p.k = c.k
GROUP BY p.doc_id
"""


# --------------------------------------------- edit-distance near-dup pairs

def q_edit_distance_pairs(sf_dir: str, n: int = 5, num_buckets: int = 64,
                          gram_df_cap: int = 8192):
    """Edit-distance-verified near-duplicate pairs: candidates = document
    pairs sharing at least one word n-gram (the rendezvous that makes this
    sub-quadratic — a pair within the distance budget shares many full
    n-grams unless every edit is evenly spread, and then it fails the
    budget anyway), verified by EXACT Levenshtein distance with
    ``5 * lev <= 2 * max(len_a, len_b)`` (distance <= 40% of the longer
    text, float-free). Emits (src, dst, lev, sim_milli) with
    sim_milli = 1000 - 1000*lev // max_len.

    Scale shape: gram strings die at the scan (u64 hashes shuffle); ONE
    bucket shuffle keyed on gram hash generates pairs via a vectorized
    self-merge per bucket; pairs dedupe in a keyed exchange on (src, dst);
    texts attach through the size-dispatched lookup join; the verify stage
    is the pair-vectorized DP kernel (``functions.text.levenshtein_pairs``)
    — max_len matrix iterations per batch, no per-pair Python. Texts are
    normalized lower(trim) ASCII so byte distance == DuckDB's character
    distance."""
    from deduplication_ray.stages.join import lookup_join

    ds = _docs(sf_dir, ["doc_id", "text"])

    def bucket_pairs(g: pa.Table) -> pa.Table:
        # Vectorized within-gram all-pairs over the partition, with the
        # same LOUD cap as PPJoin (``_group_pairs``): an exact-candidate
        # contract (the oracle joins on ANY shared gram) forbids lossy
        # DF-dropping, so a boilerplate gram shared by > gram_df_cap docs
        # must fail fast instead of silently emitting a quadratic pair
        # product (50k-doc gram -> 2.5G rows in one group).
        gh = g["gh"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, gh))
        gh, d = gh[order], d[order]
        uniq = np.concatenate([[True], (gh[1:] != gh[:-1])
                               | (d[1:] != d[:-1])]) \
            if len(gh) else np.zeros(0, bool)
        gh, d = gh[uniq], d[uniq]
        # doc ids strictly increase within a gram, so src < dst
        i, j = _group_pairs(gh, gram_df_cap, lambda k: (
            f"edit-distance gram bucket of {k} docs exceeds gram_df_cap="
            f"{gram_df_cap}; raise n or the cap (exactness forbids lossy "
            f"DF-dropping here)"))
        return _unique_pairs(pa.table({"src": d[i], "dst": d[j]}))

    grams = ds.map_batches(_gram_doc_pairs, fn_args=(n,),
                           batch_format="pyarrow")
    pairs = hash_grouped_reduce(
        hash_grouped_reduce(grams, ["gh"], bucket_pairs, num_buckets),
        ["src", "dst"], _unique_pairs, num_buckets)

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "t": pc.utf8_lower(pc.utf8_trim(t["text"], " "))})

    lean = ds.map_batches(norm, batch_format="pyarrow")
    cfg = DedupConfig()
    e = lookup_join(pairs, lean.rename_columns(
        {"doc_id": "src", "t": "t_src"}), on=["src"], cfg=cfg)
    e = lookup_join(e, lean.rename_columns(
        {"doc_id": "dst", "t": "t_dst"}), on=["dst"], cfg=cfg)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            z = pa.array([], pa.int64())
            return pa.table({"src": z, "dst": z, "lev": z, "sim_milli": z})
        lev = T.levenshtein_pairs(t["t_src"], t["t_dst"])
        la = pc.utf8_length(t["t_src"]).to_numpy().astype(np.int64)
        lb = pc.utf8_length(t["t_dst"]).to_numpy().astype(np.int64)
        ml = np.maximum(np.maximum(la, lb), 1)
        keep = 5 * lev <= 2 * ml
        sim = 1000 - (1000 * lev) // ml
        k = pa.array(keep)
        return pa.table({
            "src": t["src"].filter(k), "dst": t["dst"].filter(k),
            "lev": pa.array(lev[keep], pa.int64()),
            "sim_milli": pa.array(sim[keep], pa.int64()),
        })

    return e.map_batches(verify, batch_format="pyarrow", batch_size=2048)


def edit_distance_pairs_sql(n: int = 5) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, lower(trim(text)) AS t,
         string_split_regex(lower(trim(text)), '\\s+') AS w
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(generate_series(1, length(w) - {n - 1})) AS t(i)
), cand AS (
  SELECT DISTINCT a.doc_id AS src, b.doc_id AS dst
  FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
)
SELECT c.src, c.dst, CAST(levenshtein(x.t, y.t) AS BIGINT) AS lev,
       CAST(1000 - (1000 * levenshtein(x.t, y.t))
            // greatest(length(x.t), length(y.t), 1) AS BIGINT) AS sim_milli
FROM cand c JOIN toks x ON x.doc_id = c.src JOIN toks y ON y.doc_id = c.dst
WHERE 5 * levenshtein(x.t, y.t) <= 2 * greatest(length(x.t), length(y.t))
"""


# ------------------------------------------- leakage-safe train/val/test split

def q_doc_leakage_safe_split(sf_dir: str, ds=None):
    """LEAKAGE-SAFE train/val/test split: assign by the hash of each
    document's NEAR-DUP CLUSTER representative, not its own id, so a
    near-duplicate pair THE ENGINE LINKS can never straddle train and test
    (the benchmark-contamination failure mode ``q_doc_split`` alone cannot
    prevent — hashing doc ids puts two near-identical docs in different
    splits with probability 2·p·(1-p)). Residual leakage is bounded by the
    engine's recall contract (>= 0.99 on planted families): only a pair
    the detector misses can still straddle.

    Composition: the full text near-dup engine (MinHash-LSH + substring +
    union-find) elects each doc's cluster representative; the split rule is
    ``q_doc_split``'s multiplicative hash applied to the REPRESENTATIVE id.
    Output: (doc_id, cluster_id, split). Rows-only (clustering is
    iterative); the no-straddle invariant, planted-pair co-assignment and
    ratio band are asserted in
    tests/test_text.py::test_leakage_safe_split_never_splits_clusters.

    Scale plan: clustering is the engine's own bucketed path; the split
    assignment is one stateless map over (doc_id, cluster_id) — any worker
    assigns any row independently once labels exist."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import text_dedup_clusters

    docs = ds if ds is not None else _docs(sf_dir, ["doc_id", "text"])
    clusters = text_dedup_clusters(docs, DedupConfig(num_partitions=8))

    def assign(t: pa.Table) -> pa.Table:
        # cluster_id is the min doc_id of the component (stringified by the
        # engine): hash THAT, so every member lands in the same split
        reps = H.hash_bytes_array(
            t["cluster_id"].combine_chunks().cast(pa.string())) \
            % np.uint64(2**31)
        u = (reps * np.uint64(_SPLIT_MULT)) % np.uint64(_SPLIT_MOD)
        split = np.where(
            u < np.uint64(_TRAIN_LT), "train",
            np.where(u < np.uint64(_VAL_LT), "val", "test"))
        return pa.table({"doc_id": t["doc_id"],
                         "cluster_id": t["cluster_id"],
                         "split": pa.array(split, pa.string())})

    return clusters.map_batches(assign, batch_format="pyarrow")


# ------------------------------------------------- dup-cluster size histogram

def q_dup_cluster_size_hist(sf_dir: str, ds=None):
    """Exact-dup cluster-size histogram — the count-of-counts view of
    content duplication (how many texts appear once / twice / k times),
    the first diagnostic a curation run reads: its tail says whether dup
    mass sits in a few mega-clusters (boilerplate farms -> salting, star
    edges) or a long tail of pairs.

    Scale shape (count-of-counts, same as q_events_user_degree_hist): the
    exact-dedup shuffle with per-batch Arrow group_by partials bounds the
    first exchange by distinct texts; the histogram pass re-partials
    (cluster_size, n) per batch so the second groupby is bounded by
    |distinct sizes| — a handful of rows at any corpus scale. At 10^12
    rows the text key becomes a 128-bit content hash; the text itself
    keeps DuckDB value-hash parity here (same note as q_source_dup_stats)."""
    from ray.data.aggregate import Sum

    docs = ds if ds is not None else _docs(sf_dir, ["text"])

    def text_partial(t: pa.Table) -> pa.Table:
        g = t.select(["text"]).group_by("text").aggregate([("text", "count")])
        return pa.table({"text": g["text"],
                         "n": g["text_count"].cast(pa.int64())})

    per_text = (docs.map_batches(text_partial, batch_format="pyarrow")
                .groupby("text").aggregate(Sum("n", alias_name="n")))

    def size_partial(t: pa.Table) -> pa.Table:
        g = t.select(["n"]).group_by("n").aggregate([("n", "count")])
        return pa.table({"cluster_size": g["n"].cast(pa.int64()),
                         "n_clusters": g["n_count"].cast(pa.int64())})

    return (per_text.map_batches(size_partial, batch_format="pyarrow")
            .groupby("cluster_size")
            .aggregate(Sum("n_clusters", alias_name="n_clusters")))


Q_DUP_CLUSTER_SIZE_HIST_SQL = """
SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
FROM (SELECT CAST(count(*) AS BIGINT) AS cluster_size
      FROM documents GROUP BY text)
GROUP BY cluster_size
"""

# ------------------------------------------- cross-source duplication matrix

def q_cross_source_dup_matrix(sf_dir: str, tau: float = 0.6):
    """Provenance diagnostic over the near-dup graph: near-dup PAIR counts
    per unordered (source, source) combination — "which crawl sources
    duplicate each other?", the signal behind source-level dedup ordering,
    mirror detection and crawl-budget allocation (a hot off-diagonal cell
    means two feeds ship the same content; a hot diagonal cell means a
    source self-duplicates).

    Built on the size-dispatched exact gram-Jaccard detector
    (``q_ngram_jaccard_pairs`` — all-pairs below ``exact_limit``, MinHash
    banding above); the source attribution is two broadcast lookups on the
    bounded pair list and the final groupby is |sources|^2-bounded, so the
    matrix costs pair-list size, not corpus size, on top of the detector."""
    from ray.data.aggregate import Count

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    pairs = q_ngram_jaccard_pairs(sf_dir, tau=tau) \
        .select_columns(["src", "dst"])
    # materialized once: both lookup sides derive from the same scan
    src_tbl = _docs(sf_dir, ["doc_id", "source"]).materialize()
    e = lookup_join(
        pairs, src_tbl.rename_columns({"doc_id": "src", "source": "s_a"}),
        on=["src"], cfg=cfg)
    e = lookup_join(
        e, src_tbl.rename_columns({"doc_id": "dst", "source": "s_b"}),
        on=["dst"], cfg=cfg)

    def canon(t: pa.Table) -> pa.Table:
        # unordered pair key: lexicographic (min, max) of the source names
        a, b = t["s_a"], t["s_b"]
        swap = pc.greater(a, b)
        return pa.table({"source_a": pc.if_else(swap, b, a),
                         "source_b": pc.if_else(swap, a, b)})

    return (e.map_batches(canon, batch_format="pyarrow")
            .groupby(["source_a", "source_b"])
            .aggregate(Count(alias_name="n_pairs")))


def cross_source_dup_matrix_sql(tau: float = 0.6) -> str:
    return f"""
WITH pairs AS ({ngram_jaccard_pairs_sql(tau)})
SELECT LEAST(da.source, db.source) AS source_a,
       GREATEST(da.source, db.source) AS source_b,
       COUNT(*) AS n_pairs
FROM pairs p
JOIN documents da ON da.doc_id = p.src
JOIN documents db ON db.doc_id = p.dst
GROUP BY 1, 2
"""


# ------------------------------------------- dup rate by length bucket

def q_dup_rate_by_length(sf_dir: str, bucket_chars: int = 200,
                         max_bucket: int = 9):
    """Exact-duplicate RATE by document-length bucket — the curation
    diagnostic behind length-aware dedup policy ("are short docs the dup
    problem?"): per ``bucket_chars``-wide length bucket (capped at
    ``max_bucket``), the doc count and the count of docs whose text occurs
    more than once corpus-wide, plus the rate in exact integer milli.

    Scale shape: one content groupby (the exact-dedup exchange — group
    cardinality = distinct texts) emitting ONE (bucket, k) row per
    distinct text; the bucket rollup is |buckets|-bounded. Identical
    texts share a length, so the bucket is constant within each group."""
    from ray.data.aggregate import Count, Sum

    ds = _docs(sf_dir, ["text", "n_chars"])

    def keyed(t: pa.Table) -> pa.Table:
        b = np.minimum(t["n_chars"].to_numpy() // bucket_chars, max_bucket)
        return pa.table({"text": t["text"],
                         "len_bucket": pa.array(b.astype(np.int64))})

    per_text = (ds.map_batches(keyed, batch_format="pyarrow")
                .groupby(["text", "len_bucket"])
                .aggregate(Count(alias_name="k")))

    def expand(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy().astype(np.int64)
        return pa.table({
            "len_bucket": t["len_bucket"].cast(pa.int64()),
            "n_docs": pa.array(k),
            "n_dup_docs": pa.array(np.where(k > 1, k, 0)),
        })

    agg = (per_text.map_batches(expand, batch_format="pyarrow")
           .groupby("len_bucket")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_dup_docs", alias_name="n_dup_docs")))

    def rate(t: pa.Table) -> pa.Table:
        n = t["n_docs"].to_numpy().astype(np.int64)
        d = t["n_dup_docs"].to_numpy().astype(np.int64)
        return t.append_column("dup_milli", pa.array(d * 1000 // n))

    return agg.map_batches(rate, batch_format="pyarrow")


def dup_rate_by_length_sql(bucket_chars: int = 200, max_bucket: int = 9) -> str:
    return f"""
WITH c AS (SELECT text, COUNT(*) AS k FROM documents GROUP BY text),
d AS (
  SELECT LEAST(n_chars // {bucket_chars}, {max_bucket}) AS len_bucket,
         (c.k > 1) AS isdup
  FROM documents JOIN c USING (text))
SELECT CAST(len_bucket AS BIGINT) AS len_bucket,
       COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN isdup THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs,
       CAST((SUM(CASE WHEN isdup THEN 1 ELSE 0 END) * 1000) // COUNT(*)
            AS BIGINT) AS dup_milli
FROM d GROUP BY 1
"""


# ------------------------------------------- cross-split leakage audit

def q_split_leakage_matrix(sf_dir: str, tau: float = 0.6):
    """Cross-split LEAKAGE audit of the NAIVE per-doc train/val/test split:
    near-dup pair counts per unordered (split, split) combination — the
    off-diagonal cells (train x test, train x val) are exactly the
    contaminated pairs the cluster-level ``doc_leakage_safe_split``
    exists to prevent, quantified. The diagonal is benign within-split
    duplication.

    Same plan as ``q_cross_source_dup_matrix``: rides the size-dispatched
    gram-Jaccard pair list, two broadcast split lookups (the split is a
    pure doc_id hash — the lookup table is derived, never scanned from
    storage), one 3x3-bounded groupby."""
    from ray.data.aggregate import Count

    from deduplication_ray.stages.join import lookup_join

    cfg = DedupConfig(num_partitions=8)
    pairs = q_ngram_jaccard_pairs(sf_dir, tau=tau) \
        .select_columns(["src", "dst"])
    splits = q_doc_split(sf_dir).materialize()
    e = lookup_join(
        pairs, splits.rename_columns({"doc_id": "src", "split": "sp_a"}),
        on=["src"], cfg=cfg)
    e = lookup_join(
        e, splits.rename_columns({"doc_id": "dst", "split": "sp_b"}),
        on=["dst"], cfg=cfg)

    def canon(t: pa.Table) -> pa.Table:
        a, b = t["sp_a"], t["sp_b"]
        swap = pc.greater(a, b)
        return pa.table({"split_a": pc.if_else(swap, b, a),
                         "split_b": pc.if_else(swap, a, b)})

    return (e.map_batches(canon, batch_format="pyarrow")
            .groupby(["split_a", "split_b"])
            .aggregate(Count(alias_name="n_pairs")))


def split_leakage_matrix_sql(tau: float = 0.6) -> str:
    return f"""
WITH pairs AS ({ngram_jaccard_pairs_sql(tau)}),
s AS ({Q_DOC_SPLIT_SQL})
SELECT LEAST(sa.split, sb.split) AS split_a,
       GREATEST(sa.split, sb.split) AS split_b,
       COUNT(*) AS n_pairs
FROM pairs p
JOIN s sa ON sa.doc_id = p.src
JOIN s sb ON sb.doc_id = p.dst
GROUP BY 1, 2
"""


# ------------------------------------------- per-doc content novelty

def q_doc_ngram_novelty(sf_dir: str):
    """Per-document CONTENT NOVELTY — the data-valuation signal dedup
    thresholds can't see: for every doc, the fraction (exact integer
    milli) of its distinct char-5-grams whose corpus-wide FIRST occurrence
    (min doc_id) is this doc. A re-crawl of known content scores ~0; the
    doc that introduced a template scores high even though later copies
    out-number it. Output (doc_id, n_grams, n_novel, novelty_milli).

    Scale shape: one stateless pass emits per-batch DISTINCT (gram-hash,
    doc) pairs (one lexsort, grams die at the scan); ONE gram-hash
    partitioned reduce marks each gram's min-doc occurrence; a
    |docs|-bounded groupby sums the per-doc flags. Two exchanges, both
    over 16-byte rows."""
    from ray.data.aggregate import Sum

    from deduplication_ray.stages.signatures import normalize_captions

    cfg = DedupConfig(num_partitions=8)
    ds = _docs(sf_dir, ["doc_id", "text"])

    def gram_pairs(t: pa.Table) -> pa.Table:
        cap = normalize_captions(t["text"])
        grams, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        counts = offs[1:] - offs[:-1]
        docs = np.repeat(t["doc_id"].to_numpy(), counts)
        order = np.lexsort((grams, docs))
        g_s, d_s = grams[order], docs[order]
        keep = np.concatenate([[True], (g_s[1:] != g_s[:-1])
                               | (d_s[1:] != d_s[:-1])]) \
            if len(g_s) else np.zeros(0, bool)
        return pa.table({
            "gh": pa.array(H.bitcast_u64_to_i64(g_s[keep]), pa.int64()),
            "doc_id": pa.array(d_s[keep]),
        })

    pairs = ds.map_batches(gram_pairs, batch_format="pyarrow",
                           batch_size=cfg.text_batch_size)

    def mark_first(t: pa.Table) -> pa.Table:
        gh = t["gh"].to_numpy()
        doc = t["doc_id"].to_numpy()
        order = np.lexsort((doc, gh))
        g_s, d_s = gh[order], doc[order]
        # cross-block repeats of the same (gh, doc) pair: drop them so a
        # doc's gram counts once even when its rows straddled batches
        keep = np.concatenate([[True], (g_s[1:] != g_s[:-1])
                               | (d_s[1:] != d_s[:-1])]) \
            if len(g_s) else np.zeros(0, bool)
        g_s, d_s = g_s[keep], d_s[keep]
        first = np.concatenate([[True], g_s[1:] != g_s[:-1]]) \
            if len(g_s) else np.zeros(0, bool)
        return pa.table({
            "doc_id": pa.array(d_s),
            "n_grams": pa.array(np.ones(len(d_s), np.int64)),
            "n_novel": pa.array(first.astype(np.int64)),
        })

    marked = hash_grouped_reduce(
        pairs,
        key_hash=["gh"],
        reduce_fn=mark_first,
        num_parts=cfg.num_partitions * 2,
    )
    agg = (marked.groupby("doc_id")
           .aggregate(Sum("n_grams", alias_name="n_grams"),
                      Sum("n_novel", alias_name="n_novel")))

    def rate(t: pa.Table) -> pa.Table:
        n = t["n_grams"].to_numpy().astype(np.int64)
        v = t["n_novel"].to_numpy().astype(np.int64)
        return t.append_column("novelty_milli", pa.array(v * 1000 // n))

    return agg.map_batches(rate, batch_format="pyarrow")


def doc_ngram_novelty_sql(k: int = 5) -> str:
    return f"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id, substring(s, CAST(i AS INTEGER), {k}) AS g
  FROM norm, UNNEST(generate_series(1, length(s) - {k} + 1)) AS t(i)
  WHERE length(s) >= {k}
  UNION
  SELECT doc_id, s AS g FROM norm WHERE length(s) < {k}
), firsts AS (
  SELECT g, MIN(doc_id) AS d0 FROM grams GROUP BY g
)
SELECT doc_id, COUNT(*) AS n_grams,
       CAST(SUM(CASE WHEN f.d0 = doc_id THEN 1 ELSE 0 END) AS BIGINT)
           AS n_novel,
       CAST((SUM(CASE WHEN f.d0 = doc_id THEN 1 ELSE 0 END) * 1000)
            // COUNT(*) AS BIGINT) AS novelty_milli
FROM grams JOIN firsts f USING (g)
GROUP BY doc_id
"""
