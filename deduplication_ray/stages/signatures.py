"""Signature computation: ONE decode pass -> every identity signal.

Generalizes the reference's dedup-encode loop (``/root/reference/src/
compressor.c:105-114``): where the reference probes a heap dictionary per
block, the graft computes *keys* per row — exact content keys plus three
near-dup signatures — and lets groupby shuffles do the matching. All state
(MinHash permutation coefficients, SimHash hyperplanes, DCT basis) is built
once per stage instance in ``__init__`` from the config seed and ships with
each task (the analog of ``dict_init``, ``dictionary.c:8-19``).

Input batch:  image_id, bytes, w, h, fmt, caption, phash (zero-copy Arrow).
Output batch: image_id, ck (16-byte exact content key), cap_hash (normalized-
caption exact key), phash (recomputed, int64), phash_ok (vs input column),
simhash (int64), minhash (fixed_size_list<int64>[P]); with the opt-in image
channels on, also oh0..oh7 (orientation pHashes) and wh0..wh5 + wvalid
(crop-window pHashes and their validity bitmask), banded by
``lsh.ExplodeBands`` (``lsh.CHANNELS``).

The ``bytes`` column dies here — signatures are ~1KB/row vs multi-KB images,
and nothing downstream shuffles pixels (SURVEY §7.5 'wide rows').
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import codecs as C
from deduplication_ray.functions import hashing as H


def normalize_captions(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """NFKC-ish normalization: lowercase, collapse whitespace runs, strip.
    Pure pyarrow.compute — vectorized, no Python per row."""
    x = pc.utf8_lower(arr)
    x = pc.replace_substring_regex(x, r"\s+", " ")
    x = pc.utf8_trim_whitespace(x)
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    return x


def _caption_signature(shingles, offs, stage, cfg):
    """Signature-mode dispatch shared by both stages: classic P-permutation
    MinHash, or one-permutation hashing (one remix pass, same P slots and
    downstream banding — ``cfg.signature_mode``)."""
    if cfg.signature_mode == "oph":
        return H.oph_signatures(shingles, offs, cfg.num_perm, cfg.seed)
    return H.minhash_signatures(shingles, offs, stage.mh_a, stage.mh_b)


class ComputeSignatures:
    """Actor-pool stage: decode pixels + compute all signatures in one pass."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        self.mh_a, self.mh_b = H.make_minhash_perms(cfg.num_perm, cfg.seed)
        self.planes = H.make_simhash_planes(cfg.simhash_bits, cfg.simhash_dim, cfg.seed)
        self.dct = C.dct_matrix(cfg.phash_size)  # warm the cache once per stage

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows

        # ---- pixel path: decode each DISTINCT payload once (real per-row
        # compute: zlib inflate), batch the math (resize matmuls + one
        # batched DCT). Web crawls are full of byte-identical images, so the
        # batch-local dictionary probe (the reference's dict_find,
        # dictionary.c:49-59, keyed by hash instead of memcmp) skips
        # re-decoding repeats; cross-batch dedup would shuffle pixel
        # payloads, which this engine never does (SURVEY §7.5 'wide rows').
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        bk = H.hash_bytes_array(batch["bytes"])
        payloads = batch["bytes"].combine_chunks() if isinstance(batch["bytes"], pa.ChunkedArray) else batch["bytes"]
        # zero-copy slices into the Arrow value buffer (as_py() copied every
        # payload); decode itself (zlib inflate) is inherently per-row
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        # decode identity = (payload, fmt, w, h): same key -> same gray plane
        dk = (bk ^ H.hash_bytes_array(batch["fmt"])
              ^ (ws.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
              ^ (hs.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)))
        uniq_rows = np.sort(np.unique(dk, return_index=True)[1])
        grays = np.zeros((n, cfg.phash_size, cfg.phash_size), dtype=np.float32)
        wins = None
        if cfg.crop_channel:
            from deduplication_ray.pipelines.cropdup import (N_WINDOWS,
                                                             window_grays)

            wins = np.zeros((n, N_WINDOWS, cfg.phash_size, cfg.phash_size),
                            dtype=np.float32)
        bad = np.zeros(n, dtype=bool)
        for i in uniq_rows:
            try:
                img = C.decode_image(pbuf[poffs[i]:poffs[i + 1]],
                                     fmts[i], int(ws[i]), int(hs[i]))
                g = C.to_grayscale(img)
                grays[i] = C.resize_area(g, cfg.phash_size)
                if wins is not None:
                    wins[i] = window_grays(g, cfg.phash_size)
            except Exception:
                # at web scale some crawled bytes are always corrupt; the
                # strict default keeps the reference's fail-fast contract
                if not cfg.skip_undecodable:
                    raise
                bad[i] = True
        if bad.any():
            bad = np.isin(dk, dk[bad])  # repeats of a bad payload drop too
            import logging

            logging.getLogger(__name__).warning(
                "skip_undecodable: dropping %d/%d rows that failed decode",
                int(bad.sum()), n)
        if len(uniq_rows) < n:
            # scatter each repeat its representative's plane
            rep_of = {k: i for i, k in zip(uniq_rows, dk[uniq_rows])}
            dup_rows = np.setdiff1d(np.arange(n), uniq_rows,
                                    assume_unique=True)
            rep_rows = [rep_of[k] for k in dk[dup_rows]]
            grays[dup_rows] = grays[rep_rows]
            if wins is not None:
                wins[dup_rows] = wins[rep_rows]
        phash = C.phash64_batch(grays, cfg.phash_size, cfg.phash_lowfreq)
        feats = C.simhash_features(grays)
        simhash = H.simhash_from_features(feats, self.planes)
        phash_in = H.bitcast_i64_to_u64(batch["phash"].to_numpy())
        phash_ok = phash == phash_in

        # ---- caption path: vectorized over the Arrow string buffer.
        cap = normalize_captions(batch["caption"])
        cap_hash = H.hash_bytes_array(cap)
        shingles, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        sig = _caption_signature(shingles, offs, self, cfg)

        # ---- exact content key: 128 bits = hash(bytes) (bk, computed above
        # for the decode probe), hash(norm caption) as two int64 join keys.
        # Exactness contract (the memcmp analog, dictionary.c:53): 128 bits
        # make same-key-different-content pairs vanishingly unlikely at
        # 10^12 rows.
        cols = {
            "image_id": batch["image_id"],
            "ck1": pa.array(H.bitcast_u64_to_i64(bk), pa.int64()),
            "ck2": pa.array(H.bitcast_u64_to_i64(cap_hash), pa.int64()),
            "cap_hash": pa.array(H.bitcast_u64_to_i64(cap_hash), pa.int64()),
            "phash": pa.array(H.bitcast_u64_to_i64(phash), pa.int64()),
            "phash_ok": pa.array(phash_ok),
            "simhash": pa.array(H.bitcast_u64_to_i64(simhash), pa.int64()),
            "minhash": H.pack_u64_rows(sig),
        }
        # optional extra pixel-identity channels, from the SAME decode pass
        if cfg.orientation_channel:
            dh = C.phash64_dihedral_batch(grays, cfg.phash_size,
                                          cfg.phash_lowfreq)
            for k in range(dh.shape[1]):
                cols[f"oh{k}"] = pa.array(H.bitcast_u64_to_i64(dh[:, k]),
                                          pa.int64())
        if wins is not None:
            from deduplication_ray.pipelines.cropdup import window_phashes

            wh, wvalid = window_phashes(wins, cfg.phash_size,
                                        cfg.phash_lowfreq)
            for k in range(wh.shape[1]):
                cols[f"wh{k}"] = pa.array(H.bitcast_u64_to_i64(wh[:, k]),
                                          pa.int64())
            cols["wvalid"] = pa.array(wvalid)
        out = pa.table(cols)
        return out.filter(pa.array(~bad)) if bad.any() else out


class CaptionSignatures:
    """Caption-only signature stage for text tables (documents): same MinHash
    machinery, no pixel path. Columns parameterized so it runs over any
    (id, text) table."""

    def __init__(self, cfg: DedupConfig, id_col: str = "doc_id", text_col: str = "text"):
        self.cfg = cfg
        self.id_col = id_col
        self.text_col = text_col
        self.mh_a, self.mh_b = H.make_minhash_perms(cfg.num_perm, cfg.seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        cap = normalize_captions(batch[self.text_col])
        cap_hash = H.hash_bytes_array(cap)
        shingles, offs = H.shingle_window_hashes(cap, cfg.shingle_k)
        sig = _caption_signature(shingles, offs, self, cfg)
        return pa.table(
            {
                "image_id": batch[self.id_col].cast(pa.string()),
                "cap_hash": pa.array(H.bitcast_u64_to_i64(cap_hash), pa.int64()),
                "minhash": H.pack_u64_rows(sig),
            }
        )
