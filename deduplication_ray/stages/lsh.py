"""LSH banding, hot-bucket skew defusal, and candidate-pair generation.

Realizes SURVEY §2.2 T7-T9. The shuffle key is ``(band, bucket)`` — the
distributed replacement for the reference's single mutable dictionary probe
(``/root/reference/src/dictionary.c:49-59``): rows that could be duplicates
meet in a bucket instead of scanning a shared index.

Skew story (T8): one stock phrase shared by a large row population drives one
bucket super-linear. Pairing is ONE shuffle keyed on the (band, bucket)
hash, so each partition holds every row of its buckets and learns their
sizes itself, as the reference does from its one dictionary probe.
Per partition, ``_tag_buckets`` counts each bucket (``np.unique``): rows of
singleton buckets are DROPPED, and rows of hot buckets (count >
``cfg.bucket_cap``) get ``salt = hash(image_id) % ceil(count / cap)``. Per
salted sub-bucket the min-id row is linked star-wise, and the sub-bucket
minima are all-paired per (band, bucket), which re-connects the salts.
Connectivity of a true-duplicate bucket is preserved; no task ever
all-pairs a hot bucket.

Pair emission (T9): ``slim_pairs_from_buckets`` is the one way any engine
turns bucket rows into pairs. In the same partition,
``_pair_tagged_table_slim`` all-pairs cold buckets and stars + ambassadors
hot ones, emitting pairs as 64-bit id hashes. The star anchor is the min
id hash (deterministic; parallel-safe analog of first-occurrence ids,
``compressor.c:109-113``). Exact identity rides the same stream
(``BAND_EXACT``: bucket = content key), and so do the image engine's
opt-in orientation and crop channels (``CHANNELS``: K variant pHashes per
image, each in 4 x 16-bit bands of its own namespace, so variant i of one
image meets variant j of another). Every 16-bit band row is built by
``hash16_band_rows``. Pairs are deduped once (``dedupe_slim_pairs``) and
resolved back to ids against the signature table once
(``verify.resolve_and_verify_pairs``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H

# band-id namespaces: one bucket stream carries every candidate family
BAND_MINHASH = 0      # 0 .. bands-1
BAND_PHASH = 1000     # 1000..1003: 4 x 16-bit multi-index bands (pigeonhole:
BAND_SIMHASH = 2000   # any Hamming distance <= 3 collides in >= 1 band)
BAND_SUBSTR = 3000    # 3000..3999: candidate-only namespace -> kind
                      # 'substr_cand'; the caller must verify these pairs
BAND_GRAM_SAMPLE = 3500  # consistent gram sampling (containment candidates):
                      # bucket key = a shingle-gram hash below a global
                      # threshold p*2^64, so two docs sharing m grams miss
                      # with prob (1-p)^m even when the overlap is SCATTERED
                      # (no contiguous >=L run for the substring family).
                      # Inside the substr_cand namespace: pure candidate,
                      # callers must verify (q_ngram_jaccard_pairs does).
BAND_SUBSTR_EXACT = 4000  # full L-gram rendezvous: bucket key IS the L-gram
                      # hash, so membership proves the >=L shared substring
                      # -> trusted kind 'substr', no verification join, and
                      # hot-bucket star links are true by construction
BAND_EXACT = 5000     # exact-duplicate family: bucket key = hash(content
                      # key), so co-membership IS identity (128-bit ck) ->
                      # trusted kind 'exact'. Exact dedup rides the shared
                      # bucket stream in every pipeline (full runs, ingest,
                      # merge, the tier funnel); connectivity matches the
                      # min-id star (all-pairs below bucket_cap, salted
                      # stars + ambassadors above — same components either
                      # way, and hash-min union-find elects the same min-id
                      # representative)
BAND_ORIENT = 6000    # 6000..6003 / 7000..7003: the opt-in image channels'
BAND_WINDOW = 7000    # variant pHashes (``CHANNELS``), 4 x 16-bit bands each,
                      # apart from BAND_PHASH so the default families'
                      # buckets never see them


class Channel(NamedTuple):
    """An opt-in image channel: K variant pHashes per image, banded like
    a pHash in namespace ``band``. The band key folds the band position but
    not the variant index, so variant i of one image meets variant j of
    another; ``ph`` carries the variant hash for the emission gate (radius
    ``cfg.<radius>``). Emitted when ``cfg.<flag>`` is on."""
    band: int
    cols: tuple[str, ...]
    valid: str | None     # validity bitmask column (None: all valid)
    flag: str
    radius: str


CHANNELS = {
    # the 8 dihedral orientations (pipelines/orientation.py)
    "orient": Channel(BAND_ORIENT, tuple(f"oh{k}" for k in range(8)), None,
                      "orientation_channel", "orientation_hamming_t"),
    # the 6 crop windows; flat windows are invalid (pipelines/cropdup.py)
    "window": Channel(BAND_WINDOW, tuple(f"wh{k}" for k in range(6)),
                      "wvalid", "crop_channel", "crop_hamming_t"),
}


def channel_variants(family: str, get) -> tuple[np.ndarray, np.ndarray]:
    """``get(column)`` -> the channel's (n, K) u64 variant hashes and the
    (n, K) bool mask of its valid ones."""
    ch = CHANNELS[family]
    h = np.stack([H.bitcast_i64_to_u64(np.asarray(get(c), np.int64))
                  for c in ch.cols], axis=1)
    if ch.valid is None:
        return h, np.ones(h.shape, dtype=bool)
    v = np.asarray(get(ch.valid), np.int64)
    return h, ((v[:, None] >> np.arange(len(ch.cols))) & 1).astype(bool)


def _hash16_bands(values_u64: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Split 64-bit hashes into 4 x 16-bit multi-index bands.

    Guarantees (pigeonhole) that pairs within Hamming distance 3 share at
    least one band; larger distances up to the configured radius are also
    caught probabilistically and via the sibling signature's bands.
    """
    n = len(values_u64)
    band = np.tile(np.arange(4, dtype=np.int32) + base, n)
    shifts = (np.arange(4, dtype=np.uint64) * np.uint64(16))[None, :]
    chunks = (values_u64[:, None] >> shifts) & np.uint64(0xFFFF)
    # mix band index in so band b of hash X never collides with band c of X
    with np.errstate(over="ignore"):
        bucket = H.splitmix64(chunks + (np.arange(4, dtype=np.uint64) + np.uint64(base))[None, :] * np.uint64(0x9E3779B97F4A7C15))
    return band, H.bitcast_u64_to_i64(bucket).ravel()


def hash16_band_rows(ids, hashes, base: int) -> pa.Table:
    """One id per int64 pHash-like hash -> bucket rows in the shared
    (band, bucket, image_id, ph, sh) schema: the hash's 4 x 16-bit bands in
    namespace ``base`` (``_hash16_bands``); ``ph`` carries the hash itself
    for the emission-time Hamming gate, ``sh`` is 0."""
    hashes = np.asarray(hashes, np.int64)
    band, bucket = _hash16_bands(H.bitcast_i64_to_u64(hashes), base)
    return pa.table({
        "band": band.astype(np.int64),
        "bucket": bucket,
        "image_id": pa.array(np.repeat(ids, 4), pa.string()),
        "ph": np.repeat(hashes, 4),
        "sh": np.zeros(4 * len(hashes), dtype=np.int64),
    })


class ExplodeBands:
    """signatures -> (band:int64, bucket:int64, image_id, ph, sh) rows.

    Emits every candidate family in one pass over the signature table:
    MinHash LSH bands (caption near-dup), pHash multi-index bands and SimHash
    multi-index bands (pixel near-dup) when those columns are present, and
    the opt-in image channels' variant bands (``CHANNELS``) when their
    config flag is on. Hot buckets are salted after the bucket-key shuffle
    (``_tag_buckets``), where each bucket's size is known.
    """

    def __init__(self, cfg: DedupConfig,
                 families: tuple[str, ...] = ("minhash", "phash", "simhash")):
        """``families`` masks which band namespaces to EMIT — a channel
        slice (e.g. the tier funnel's pixel-only tier) skips the other
        families' bucket rows at the source instead of filtering them
        after emission (bands x rows saved per signature at scale)."""
        self.cfg = cfg
        self.families = families

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self._signature_rows(batch)
        chans = [f for f in CHANNELS if f in self.families
                 and getattr(self.cfg, CHANNELS[f].flag)]
        if not chans:
            return out
        ids = batch["image_id"].to_pandas().to_numpy()
        for f in chans:
            h, valid = channel_variants(f, lambda c: batch[c].to_numpy())
            r, k = np.nonzero(valid)
            out = pa.concat_tables([out, hash16_band_rows(
                ids[r], H.bitcast_u64_to_i64(h[r, k]), CHANNELS[f].band)])
        return out

    def _signature_rows(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows

        fam_bands: list[np.ndarray] = []
        fam_buckets: list[np.ndarray] = []
        if "minhash" in self.families:
            sig = H.unpack_u64_rows(batch["minhash"], cfg.num_perm)
            keys = H.lsh_band_keys(sig, cfg.bands, cfg.rows_per_band)  # (n, bands)
            mh_band = np.tile(np.arange(cfg.bands, dtype=np.int32), n)
            mh_bucket = H.bitcast_u64_to_i64(keys).ravel()
            fam_bands.append(mh_band.reshape(n, cfg.bands))
            fam_buckets.append(mh_bucket.reshape(n, cfg.bands))
        for col, base in (("phash", BAND_PHASH), ("simhash", BAND_SIMHASH)):
            if col in batch.column_names and col in self.families:
                b, k = _hash16_bands(H.bitcast_i64_to_u64(batch[col].to_numpy()), base)
                fam_bands.append(b.reshape(n, 4))
                fam_buckets.append(k.reshape(n, 4))
        if "exact" in self.families and n:
            if "ck1" in batch.column_names:  # image: 128-bit content key
                ckb = H.hash_u64_pair(
                    batch["ck1"].to_numpy().view(np.uint64),
                    batch["ck2"].to_numpy().view(np.uint64))
            elif "cap_hash" in batch.column_names:  # text: caption equality
                ch = batch["cap_hash"].to_numpy().view(np.uint64)
                ckb = H.hash_u64_pair(ch, ch)
            else:
                ckb = None
            if ckb is not None:
                fam_bands.append(np.full((n, 1), BAND_EXACT, dtype=np.int32))
                fam_buckets.append(H.bitcast_u64_to_i64(ckb).reshape(n, 1))

        if not fam_bands or n == 0:
            return pa.table({
                "band": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "image_id": pa.array([], pa.string()),
                "ph": pa.array([], pa.int64()),
                "sh": pa.array([], pa.int64()),
            })
        band = np.concatenate(fam_bands, axis=1).ravel()
        bucket = np.concatenate(fam_buckets, axis=1).ravel()
        per_row = band.size // n
        ids = batch["image_id"].to_pandas().to_numpy()
        image_id = np.repeat(ids, per_row)

        # carry the pixel hashes themselves so pixel-band pairs can be
        # Hamming-verified AT EMISSION: 16-bit bands saturate with n (65k
        # buckets), and without early verification random collisions produce
        # O(n^2/65k) junk candidate edges (observed 2.5M at 150k rows)
        ph = (np.repeat(batch["phash"].to_numpy(), per_row)
              if "phash" in batch.column_names else np.zeros(n * per_row, np.int64))
        sh = (np.repeat(batch["simhash"].to_numpy(), per_row)
              if "simhash" in batch.column_names else np.zeros(n * per_row, np.int64))

        return pa.table(
            {
                "band": band.astype(np.int64),
                "bucket": bucket,
                "image_id": image_id,
                "ph": ph,
                "sh": sh,
            }
        )


def _pixel_pair_keep(band: np.ndarray, ph_a, ph_b, sh_a, sh_b, cfg: DedupConfig) -> np.ndarray:
    """Early Hamming verification for pixel-band pairs (16-bit bands saturate
    with n; junk collisions must die at emission, not in a 2.5M-edge dedupe).
    Channel bands gate the variant hashes that collided (``ph``) at the
    channel's radius. Non-pixel bands pass through untouched."""
    is_ch = band >= BAND_ORIENT
    is_ph = ((band >= BAND_PHASH) & (band < BAND_SIMHASH)) | is_ch
    is_sh = (band >= BAND_SIMHASH) & (band < BAND_SUBSTR)
    keep = ~(is_ph | is_sh)
    if is_ph.any():
        hd = H.popcount64(np.asarray(ph_a, np.int64).view(np.uint64)
                          ^ np.asarray(ph_b, np.int64).view(np.uint64))
        radius = cfg.phash_hamming_t
        if is_ch.any():
            radius = np.select(
                [band >= BAND_WINDOW, is_ch],
                [cfg.crop_hamming_t, cfg.orientation_hamming_t], radius)
        keep |= is_ph & (hd <= radius)
    if is_sh.any():
        hd = H.popcount64(np.asarray(sh_a, np.int64).view(np.uint64)
                          ^ np.asarray(sh_b, np.int64).view(np.uint64))
        keep |= is_sh & (hd <= cfg.simhash_hamming_t)
    return keep


def id_hash_rows(t: pa.Table, cols: tuple[str, ...] = ()) -> pa.Table:
    """``cols`` of ``t`` + its ``image_id`` (as string) + the 64-bit id
    hash ``idh`` that the pair kernel identifies rows by."""
    ids = t["image_id"].combine_chunks().cast(pa.string())
    return t.select(list(cols)).append_column("image_id", ids).append_column(
        "idh", pa.array(H.bitcast_u64_to_i64(H.hash_bytes_array(ids)),
                        pa.int64()))


def id_hash_table(ds: ray.data.Dataset, cfg: DedupConfig,
                  cols: tuple[str, ...] = ()) -> ray.data.Dataset:
    """Distributed ``distinct_id_hashes`` of ``id_hash_rows(ds, cols)``:
    one row per id hash, hash-partitioned; raises on a collision."""
    from deduplication_ray.stages.groupred import hash_grouped_reduce

    return hash_grouped_reduce(
        ds.map_batches(lambda t: id_hash_rows(t, cols), batch_format="pyarrow"),
        lambda t: t["idh"].to_numpy().view(np.uint64),
        distinct_id_hashes, cfg.num_partitions)


def distinct_id_hashes(t: pa.Table) -> pa.Table:
    """Rows keyed by a 64-bit image-id hash ``idh`` -> one row per hash,
    sorted by hash. The same id repeating is fine; two DISTINCT ids sharing
    a hash raise, because every pair kernel downstream identifies rows by
    that hash alone and would silently merge or drop them."""
    if t.num_rows == 0:
        return t
    h = t["idh"].to_numpy()
    order = np.argsort(h, kind="stable")
    t = t.take(pa.array(order))
    same = h[order][1:] == h[order][:-1]
    raise_on_id_collision(t["image_id"], same)
    return t.filter(pa.array(np.concatenate([[True], ~same])))


def raise_on_id_collision(sorted_ids, same: np.ndarray) -> None:
    """``sorted_ids`` in id-hash order; ``same[i]`` is True when rows i and
    i+1 share a hash. Raises if any such neighbours are distinct ids (any
    hash group holding two distinct ids has a differing neighbour pair)."""
    import pyarrow.compute as pc

    if not same.any():
        return
    n = len(sorted_ids)
    m = pa.array(same)
    lo = sorted_ids.slice(0, n - 1).filter(m)
    hi = sorted_ids.slice(1, n - 1).filter(m)
    bad = pc.invert(pc.equal(lo, hi))
    if pc.any(bad).as_py():
        i = pc.index(bad, True).as_py()
        raise RuntimeError(
            f"64-bit image_id hash collision: {lo[i].as_py()!r} and "
            f"{hi[i].as_py()!r} share one hash")


def _pair_rows(t: pa.Table) -> pa.Table:
    """Bucket rows -> the columns the pairing kernel reads: the bucket key
    ``comp``, ``band``, the id hash ``idh`` and the pixel hashes, if any.
    Projected before the bucket-key shuffle, so the shuffle moves no id
    strings (measured 7-8 s instead of 12 s, and no spill, at 40k docs on 4
    CPUs) and every key and id is hashed once."""
    import pyarrow.compute as pc

    # an id sits on many bucket rows: hash each distinct id once
    ids = pc.dictionary_encode(t["image_id"].combine_chunks())
    idh = H.hash_bytes_array(ids.dictionary)[ids.indices.to_numpy()]
    return pa.table({
        "comp": pa.array(H.bitcast_u64_to_i64(bucket_key(t)), pa.int64()),
        "band": t["band"],
        "idh": pa.array(H.bitcast_u64_to_i64(idh), pa.int64()),
        **{c: t[c] for c in ("ph", "sh") if c in t.column_names}})


def _tag_buckets(t: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Size and salt the buckets of ``_pair_rows`` that hold EVERY row of
    each of their (band, bucket)s — one partition of the bucket-key
    shuffle, or a whole stream. Rows of singleton buckets are DROPPED; the
    rest get a ``salt`` column: hash(image_id) % ceil(count/cap) in hot
    buckets (count > cap), -1 elsewhere. Gram-sample rows
    (BAND_GRAM_SAMPLE) in buckets above ``cfg.gram_sample_drop_df`` members
    are dropped outright — stopword shingles carry no containment signal
    and star-linking them would emit bucket-size spurious candidates."""
    _, inv, cnt = np.unique(t["comp"].to_numpy(), return_inverse=True,
                            return_counts=True)
    cnt = cnt[inv.ravel()]
    band = t["band"].to_numpy()
    keep = (cnt >= 2) & ~((band == BAND_GRAM_SAMPLE)
                          & (cnt > cfg.gram_sample_drop_df))
    t, cnt = t.filter(pa.array(keep)), cnt[keep]
    idh = t["idh"].to_numpy().view(np.uint64)
    salt = np.full(t.num_rows, -1, dtype=np.int64)
    hot = cnt > cfg.bucket_cap
    n_salts = -(-cnt[hot] // cfg.bucket_cap)
    salt[hot] = (idh[hot] % n_salts.astype(np.uint64)).astype(np.int64)
    return t.append_column("salt", pa.array(salt, pa.int64()))


def _pair_tagged_table_slim(tbl: pa.Table, cfg: DedupConfig) -> pa.Table:
    """The pairing kernel over ``_tag_buckets``' rows: cold-bucket
    all-pairs (with emission-time pixel Hamming filtering), hot sub-bucket
    stars + ambassador all-pairs re-linking the salt shards. Pure numpy;
    pair INDEX arrays are generated per bucket-size class and filtered at
    once, so a saturated 16-bit pixel band (~90M raw pairs at 150k rows)
    never materializes as a join product.

    Pairs leave the kernel as 64-bit image-id HASHES
    ``(ah, bh, prio:int8)`` — 17 bytes/row instead of ~75 with the id
    strings — so the global pair-dedupe exchange moves 4x fewer bytes and
    the kernel never gathers object-dtype string arrays. A true pair
    collides in many bands, so pairs are deduped here first, by the same
    ``_min_prio_pairs`` the global dedupe runs. Strings come back after the
    global dedupe, when
    ``verify.resolve_and_verify_pairs`` resolves both hashes against the
    signature table. Hash-collision budget: E[collisions] ~
    n^2/2^65 (< 1e-7 at 1M ids); every resolve raises on one rather than
    merging two ids (``raise_on_id_collision``)."""
    empty = pa.table({"ah": pa.array([], pa.int64()),
                      "bh": pa.array([], pa.int64()),
                      "prio": pa.array([], pa.int8())})
    if tbl.num_rows == 0:
        return empty
    band = tbl["band"].to_numpy()
    salt = tbl["salt"].to_numpy()
    comp = tbl["comp"].to_numpy().view(np.uint64)
    idh = tbl["idh"].to_numpy().view(np.uint64)
    has_px = "ph" in tbl.column_names
    ph = tbl["ph"].to_numpy() if has_px else np.zeros(len(band), np.int64)
    sh = tbl["sh"].to_numpy() if has_px else np.zeros(len(band), np.int64)

    out_a, out_b, out_band = [], [], []

    def pair_groups(sel: np.ndarray, group_key: np.ndarray, mode: str) -> None:
        if not sel.any():
            return
        idx = np.nonzero(sel)[0]
        order = np.argsort(group_key[idx], kind="stable")
        idx = idx[order]
        gk = group_key[idx]
        starts = np.nonzero(np.concatenate([[True], gk[1:] != gk[:-1]]))[0]
        sizes = np.diff(np.concatenate([starts, [len(idx)]]))
        if mode == "star":
            # per group: min-hash-id row linked to every other row (anchor
            # choice by hash order — deterministic, components unchanged)
            grp = np.repeat(np.arange(len(starts)), sizes)
            g_min = np.minimum.reduceat(idh[idx], starts)[grp]
            mask = idh[idx] != g_min
            out_a.append(g_min[mask])
            out_b.append(idh[idx][mask])
            out_band.append(band[idx][mask])
            return
        for s_val in np.unique(sizes):
            if s_val < 2:
                continue
            gsel = sizes == s_val
            gstarts = starts[gsel]
            iu, ju = np.triu_indices(int(s_val), k=1)
            a = (gstarts[:, None] + iu[None, :]).ravel()
            b = (gstarts[:, None] + ju[None, :]).ravel()
            ra, rb = idx[a], idx[b]
            keep = np.ones(len(ra), dtype=bool)
            if has_px:
                keep = _pixel_pair_keep(band[ra], ph[ra], ph[rb], sh[ra], sh[rb], cfg)
            ha, hb = idh[ra][keep], idh[rb][keep]
            out_a.append(np.minimum(ha, hb))
            out_b.append(np.maximum(ha, hb))
            out_band.append(band[ra][keep])

    with np.errstate(over="ignore"):
        comp_salt = H.hash_u64_pair(comp, salt.view(np.uint64))

    cold = salt == -1
    pair_groups(cold, comp, "allpairs")

    hot = salt >= 0
    if hot.any():
        pair_groups(hot, comp_salt, "star")
        # ambassadors: per sub-bucket min-hash row, all-pairs per (band,
        # bucket) — pure u64 reduceat, no pandas
        hidx = np.nonzero(hot)[0]
        order_h = np.lexsort((idh[hidx], comp_salt[hidx]))
        hs = hidx[order_h]
        ks = comp_salt[hidx][order_h]
        first = np.concatenate([[True], ks[1:] != ks[:-1]])
        midx = hs[first]   # min idh per sub-bucket (idh ascending in ties)
        sel = np.zeros(len(band), dtype=bool)
        sel[midx] = True
        pair_groups(sel, comp, "allpairs")

    if not out_a:
        return empty
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    bands = np.concatenate(out_band).astype(np.int64)
    # a == b: one id on several rows of a bucket (video frames) — never an
    # edge. Two DISTINCT ids on one hash are caught by the resolves.
    nz = a != b
    a, b, bands = a[nz], b[nz], bands[nz]
    prio_of_band = np.select(
        [bands >= BAND_WINDOW, bands >= BAND_ORIENT, bands >= BAND_EXACT,
         bands >= BAND_SUBSTR_EXACT, bands >= BAND_SUBSTR,
         bands >= BAND_SIMHASH, bands >= BAND_PHASH],
        [KIND_PRIORITY.index("window"), KIND_PRIORITY.index("orient"),
         KIND_PRIORITY.index("exact"), KIND_PRIORITY.index("substr"),
         KIND_PRIORITY.index("substr_cand"),
         KIND_PRIORITY.index("simhash"), KIND_PRIORITY.index("phash")],
        default=KIND_PRIORITY.index("minhash"),
    ).astype(np.int8)
    return _min_prio_pairs(a, b, prio_of_band)


def _min_prio_pairs(a: np.ndarray, b: np.ndarray, prio: np.ndarray) -> pa.Table:
    """One slim row per distinct (a, b) id-hash pair, with its best (min)
    prio: a lexsort-unique. ``a`` / ``b`` are 64-bit hashes (uint64 or
    int64); they leave as int64 ``ah`` / ``bh``."""
    order = np.lexsort((prio, b, a))
    a_s, b_s = a[order], b[order]
    first = np.ones(len(a_s), dtype=bool)
    first[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    return pa.table({
        "ah": pa.array(a_s[first].view(np.int64), pa.int64()),
        "bh": pa.array(b_s[first].view(np.int64), pa.int64()),
        "prio": pa.array(prio[order][first], pa.int8()),
    })


def bucket_key(t: pa.Table) -> np.ndarray:
    """The 64-bit composite key of bucket rows' (band, bucket)."""
    return H.hash_u64_pair(t["band"].to_numpy().view(np.uint64),
                           t["bucket"].to_numpy().view(np.uint64))


def slim_pairs_from_buckets(
    buckets: ray.data.Dataset, cfg: DedupConfig
) -> ray.data.Dataset:
    """The one pairing stage: ONE shuffle on the bucket key, then per
    partition ``_tag_buckets`` -> SLIM pairing kernel, pairs exchanged as
    materialized (ah, bh, prio) id-hash rows. Callers follow with
    ``dedupe_slim_pairs`` + ``verify.resolve_and_verify_pairs``. An id may
    repeat across bucket rows (video frames do); it never pairs with
    itself. Every bucket (and so its salted sub-buckets + ambassadors)
    lands wholly in one partition, so the partition's own counts are the
    bucket sizes: no counting pass runs before the shuffle."""
    from deduplication_ray.stages.groupred import hash_grouped_reduce
    from deduplication_ray.stages.tuning import apply_context_tuning, ensure_blocks

    def pair_partition(t: pa.Table) -> pa.Table:
        return _pair_tagged_table_slim(_tag_buckets(t, cfg), cfg)

    apply_context_tuning()
    # the bucket stream is read once, so it streams into the projection
    # (held through the shuffle, it made a 4-CPU session's 400 MB object
    # store spill on 1,500 docs); the pairs are materialized because every
    # caller feeds them into a second hash-grouped shuffle (the pair
    # dedupe), and chaining the two lazily measured ~13 s of pure overhead
    # at 60k docs
    return hash_grouped_reduce(
        ensure_blocks(buckets, cfg.num_partitions).map_batches(
            _pair_rows, batch_format="pyarrow", batch_size=None),
        lambda t: t["comp"].to_numpy().view(np.uint64), pair_partition,
        max(cfg.num_partitions * 4, 8)).materialize()


def dedupe_slim_pairs(pairs: ray.data.Dataset, cfg: DedupConfig) -> ray.data.Dataset:
    """Collapse duplicate (ah, bh) id-hash pairs across bands/partitions,
    keeping the best (min) prio: one hash-partitioned ``_min_prio_pairs``
    per partition over the 17-byte slim rows (Ray's aggregate pays
    per-distinct-group costs that dominate at group-per-row keys); returns
    a LAZY dataset so the caller can fuse the resolve/verify gather into
    the same execution."""
    from deduplication_ray.stages.groupred import hash_grouped_reduce

    return hash_grouped_reduce(
        pairs,
        lambda t: H.hash_u64_pair(t["ah"].to_numpy().view(np.uint64),
                                  t["bh"].to_numpy().view(np.uint64)),
        lambda t: _min_prio_pairs(t["ah"].to_numpy(), t["bh"].to_numpy(),
                                  t["prio"].to_numpy()),
        2 * cfg.num_partitions,
    )


# trust order for duplicate (src,dst) edges found by several detectors:
# trusted-by-construction kinds first, so verification never downgrades a
# pair that an exact detector already proved. The opt-in channels rank
# after the default families (a plain pHash pair also meets in orientation
# band 0, and stays 'phash'). 'substr_cand' (the candidate-only namespace,
# e.g. gram sampling) ranks LAST so any other detection of the same pair
# wins.
KIND_PRIORITY = ["exact", "substr", "phash", "simhash", "minhash", "orient",
                 "window", "substr_cand"]


def plan_lsh_params(threshold: float, num_perm: int = 128,
                    min_recall: float = 0.99,
                    max_fp_below: float = 0.5) -> dict:
    """LSH parameter PLANNER: choose (bands b, rows-per-band r) for a target
    Jaccard ``threshold`` from the banding S-curve
    P(candidate | jaccard=s) = 1 - (1 - s^r)^b  (Leskovec/Rajaraman/Ullman,
    *Mining of Massive Datasets* §3.4 — public). Among all factorizations
    b*r == num_perm it picks the one that (a) catches pairs AT the threshold
    with probability >= ``min_recall`` and (b) minimizes the candidate
    probability at ``max_fp_below``·threshold (shuffle cost control: every
    false candidate is a wasted edge through the bucket groupby). If no
    factorization reaches ``min_recall``, the closest one is returned with
    ``recall_ok=False`` — callers should raise num_perm.

    Returns {bands, rows_per_band, p_at_threshold, p_at_fp, recall_ok};
    feed the first two straight into ``DedupConfig``.
    """
    best = None
    for r in range(1, num_perm + 1):
        if num_perm % r:
            continue
        b = num_perm // r
        p_t = 1.0 - (1.0 - threshold ** r) ** b
        s_fp = max_fp_below * threshold
        p_fp = 1.0 - (1.0 - s_fp ** r) ** b
        ok = p_t >= min_recall
        # prefer: recall met, then lowest fp prob, then fewer bands (fewer
        # bucket rows emitted per signature)
        key = (not ok, p_fp if ok else -p_t, b)
        if best is None or key < best[0]:
            best = (key, {"bands": b, "rows_per_band": r,
                          "p_at_threshold": round(p_t, 6),
                          "p_at_fp": round(p_fp, 6), "recall_ok": ok})
    return best[1]
