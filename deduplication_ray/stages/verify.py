"""Candidate-pair verification: Hamming-ball + MinHash-Jaccard checks (T10).

Candidates from LSH banding are *hypotheses*. ``resolve_and_verify_pairs``
resolves both endpoints of every deduped slim pair against the signature
table (the lean ~1KB/row table, never pixels) and keeps a pair iff its
``accept`` mask says so. The default accept (``_accept_mask``) keeps a pair
iff any signal passes:

* estimated Jaccard(minhash_src, minhash_dst) >= cfg.jaccard_tau
* popcount(phash_src ^ phash_dst)   <= cfg.phash_hamming_t   (corroborated:
  the simhash distance must also be <= cfg.pixel_corr_t)
* popcount(simhash_src ^ simhash_dst) <= cfg.simhash_hamming_t (corroborated:
  the phash distance must also be <= cfg.pixel_corr_t)
* with an opt-in image channel on (``cfg.orientation_channel`` /
  ``cfg.crop_channel``): the min Hamming distance over the endpoints' valid
  variant-hash pairs (``channel_hamming``) <= the channel's radius
* pairs of a kind trusted by construction pass unchecked: 'exact' (same
  content-key bucket) and 'substr' (a shared L-gram)

Engine-specific checks (video frame containment, audio alignment,
embedding cosine, text SimHash) are ``accept`` functions over the same
column accessor. Signatures resolve by a broadcast gather up to the
broadcast tier (``join.broadcast_ok``) and by hash joins on the id hash
above it. The per-batch check is pure vectorized numpy over Arrow columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from deduplication_ray.config import DedupConfig
from deduplication_ray.functions import hashing as H
from deduplication_ray.stages import lsh


def _accept_mask(cfg: DedupConfig, trusted: np.ndarray, has_pixels: bool,
                 col) -> np.ndarray:
    """The one verify predicate. ``col(name, side, rows)`` returns endpoint
    ``side``'s ('src'/'dst') signature column ``name`` for the row indices
    ``rows`` (None = every row). Checks run CHEAPEST first: the 8-byte
    Hamming checks decide most pairs, so the num_perm*8-byte MinHash gather
    + unpack (~2 KB/pair at P=128) runs only over the rows still undecided
    — measured 3.4s -> sub-second on a 600k-row / 825k-pair resolve. With
    an opt-in image channel on, an undecided pair also passes when its
    ``channel_hamming`` is within the channel's radius."""
    keep = np.array(trusted, dtype=bool)
    if has_pixels:
        d = {c: H.hamming_distance_u64(
                H.bitcast_i64_to_u64(_np(col(c, "src", None))),
                H.bitcast_i64_to_u64(_np(col(c, "dst", None))))
             for c in ("phash", "simhash")}
        # corroborated accept (see config.pixel_corr_t): an in-ball hit on
        # one pixel hash needs the other within the loose corr bound —
        # kills single-channel chance collisions without any recall cost
        keep |= (d["phash"] <= cfg.phash_hamming_t) & (d["simhash"] <= cfg.pixel_corr_t)
        keep |= (d["simhash"] <= cfg.simhash_hamming_t) & (d["phash"] <= cfg.pixel_corr_t)
        for fam, ch in lsh.CHANNELS.items():
            und = np.flatnonzero(~keep)
            if getattr(cfg, ch.flag) and len(und):
                keep[und] |= (channel_hamming(fam, col, und)
                              <= getattr(cfg, ch.radius))
    und = np.flatnonzero(~keep)
    if len(und):
        ms = H.unpack_u64_rows(col("minhash", "src", und), cfg.num_perm)
        md = H.unpack_u64_rows(col("minhash", "dst", und), cfg.num_perm)
        keep[und] |= (ms == md).mean(axis=1) >= cfg.jaccard_tau
    return keep


def channel_hamming(family: str, col, rows) -> np.ndarray:
    """The min Hamming distance over every valid (i, j) pair of the two
    endpoints' variant hashes of channel ``family`` (``lsh.CHANNELS``), 65
    when none is valid; ``col`` and ``rows`` as in ``_accept_mask``. One
    (pairs, K, K) popcount — for the dihedral orientations this equals the
    min over RELATIVE orientations (B's hashes permute A's)."""
    ha, va = lsh.channel_variants(family, lambda c: _np(col(c, "src", rows)))
    hb, vb = lsh.channel_variants(family, lambda c: _np(col(c, "dst", rows)))
    d = np.where(va[:, :, None] & vb[:, None, :],
                 H.popcount64(ha[:, :, None] ^ hb[:, None, :]), 65)
    return d.reshape(len(d), -1).min(axis=1, initial=65)


def _np(a) -> np.ndarray:
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    return a.to_numpy(zero_copy_only=False)


def _attached_col(t: pa.Table, lists: dict):
    """``accept`` column accessor over ``{name}_{side}`` columns; the
    columns named in ``lists`` crossed the joins packed (``_pack_lists``)
    and are unpacked to their list type on access."""
    def col(name: str, side: str, rows):
        c = t[f"{name}_{side}"]
        c = c if rows is None else c.take(pa.array(rows))
        if name not in lists:
            return c
        data, offs = H._arrow_flat_buffer(c)
        vt = lists[name].value_type
        vals = data[offs[0]:offs[-1]].view(vt.to_pandas_dtype())
        return pa.ListArray.from_arrays(
            pa.array((offs - offs[0]) // vt.byte_width, pa.int32()),
            pa.array(vals, vt))
    return col


def _pack_lists(t: pa.Table, lists: dict) -> pa.Table:
    """Arrow's hash join carries no nested column: a list-of-fixed-width
    signature column (video frame hashes, audio sub-fingerprints) crosses
    the join tier as one binary of its value bytes per row."""
    for name in lists:
        a = t[name].combine_chunks()
        vals = a.flatten().to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(a).fill_null(0).to_numpy()
        offs = np.concatenate([[0], np.cumsum(lens)]) * vals.itemsize
        t = t.set_column(t.column_names.index(name), name,
                         pa.LargeBinaryArray.from_buffers(
                             pa.large_binary(), len(a),
                             [None, pa.py_buffer(offs.astype(np.int64)),
                              pa.py_buffer(vals.tobytes())]))
    return t


class DeferredSignatureIndex:
    """``signature_index`` started on a side thread: the broadcast index is
    needed only by the final resolve/verify gather, so its build (a count,
    a per-block hash task round, a driver argsort) overlaps the pairing
    chain instead of serializing before it. ``get()`` joins and re-raises.
    ``eligible`` (the broadcast tier) is decided synchronously from
    metadata; above the tier ``resolve_and_verify_pairs`` resolves against
    ``signatures`` by hash joins instead."""

    def __init__(self, signatures: ray.data.Dataset, cfg: DedupConfig):
        import threading

        from deduplication_ray.stages.join import broadcast_ok

        self._box: dict = {}
        self.signatures = signatures.materialize()  # no-op on checkpoints
        self.eligible = broadcast_ok(self.signatures, cfg)
        if not self.eligible:
            self._th = None
            return

        def _build() -> None:
            try:
                self._box["ref"] = signature_index(self.signatures, cfg)
            except BaseException as exc:
                self._box["err"] = exc

        self._th = threading.Thread(target=_build, daemon=True)
        self._th.start()

    def get(self):
        if self._th is None:
            return None
        self._th.join()
        if "err" in self._box:
            raise self._box["err"]
        return self._box["ref"]


def signature_index(signatures: ray.data.Dataset, cfg: DedupConfig):
    """Broadcast signature index: (block refs, sorted image_id hashes,
    permutation) in the object store, built with the driver touching only
    8 bytes/row. Returns the ray.put handle, or None when the table exceeds
    the broadcast tier (``join.broadcast_ok``). Raises if two distinct ids
    share a hash: every gather against this index resolves by hash.

    No projection pass: the caller's signature table is already materialized
    (checkpoint output) and its non-index columns are ~33 bytes/row next to
    the ~1 KB/row minhash column, so re-materializing a pruned copy cost a
    full extra execution (measured 0.8-2.0s at 600k rows) to save ~3% of
    broadcast bytes."""
    from deduplication_ray.stages.join import (_block_key_hashes,
                                               _resolve_small, broadcast_ok)
    from deduplication_ray.stages.lsh import raise_on_id_collision

    sig = signatures.materialize()  # no-op on checkpointed/materialized input
    if not broadcast_ok(sig, cfg):
        return None
    refs = list(sig.to_arrow_refs())
    hs = ray.get([_block_key_hashes.remote(r, ["image_id"]) for r in refs])
    kh = np.concatenate(hs) if hs else np.zeros(0, np.uint64)
    order = np.argsort(kh, kind="stable")
    sorted_h = kh[order]
    same = sorted_h[1:] == sorted_h[:-1]
    if same.any():  # rare: fetch the ids only when hashes repeat
        raise_on_id_collision(
            _resolve_small(refs)["image_id"].take(pa.array(order)), same)
    return ray.put((refs, sorted_h, order.astype(np.int64)))


def keep_all(t: pa.Table, col) -> np.ndarray:
    """The ``accept`` of callers that only need the ids resolved."""
    return np.ones(t.num_rows, dtype=bool)


def _default_accept(cfg: DedupConfig, has_pixels: bool):
    """``_accept_mask`` as an ``accept``: 'exact' and 'substr' pairs are
    trusted by construction, the rest must pass a signature check."""
    from deduplication_ray.stages.lsh import KIND_PRIORITY

    trusted = [KIND_PRIORITY.index("exact"), KIND_PRIORITY.index("substr")]

    def accept(t: pa.Table, col) -> np.ndarray:
        return _accept_mask(cfg, np.isin(t["prio"].to_numpy(), trusted),
                            has_pixels, col)
    return accept


_EMPTY_VERIFIED = pa.schema([("src", pa.string()), ("dst", pa.string()),
                             ("kind", pa.string())])


def _verified_slim(t: pa.Table, accept, col) -> pa.Table:
    """Slim pairs (ah, bh, prio) -> accepted (src, dst, kind).
    ``col`` is the ``accept`` column accessor; it also serves the endpoint
    ``image_id`` strings, fetched for accepted rows only."""
    from deduplication_ray.stages.lsh import KIND_PRIORITY

    if t.num_rows == 0:
        return _EMPTY_VERIFIED.empty_table()
    kept = np.flatnonzero(accept(t, col))
    return pa.table({
        "src": col("image_id", "src", kept),
        "dst": col("image_id", "dst", kept),
        "kind": pc.take(pa.array(KIND_PRIORITY),
                        pa.array(t["prio"].to_numpy()[kept].astype(np.int32))),
    })


class _ResolveVerify:
    """One fused map over deduped SLIM pairs (ah, bh, prio): gather the
    id strings and signature columns for both endpoints from the broadcast
    signature index, apply ``accept`` (None: ``_accept_mask``), and emit
    accepted (src, dst, kind)."""

    def __init__(self, ref, cfg: DedupConfig, has_pixels: bool, accept=None):
        self.ref = ref
        self.cfg = cfg
        self.has_pixels = has_pixels
        self.accept = accept
        self._state = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from deduplication_ray.stages.join import _resolve_small

        if self._state is None:
            small, sorted_h, order = ray.get(self.ref)
            small = _resolve_small(small)
            accept = self.accept or _default_accept(
                self.cfg, self.has_pixels and "phash" in small.column_names)
            self._state = (small, sorted_h, order, accept)
        small, sorted_h, order, accept = self._state
        if t.num_rows == 0 or small.num_rows == 0:
            return _EMPTY_VERIFIED.empty_table()
        rows = {}
        for side, name in (("ah", "src"), ("bh", "dst")):
            h = t[side].to_numpy().view(np.uint64)
            pos = np.minimum(np.searchsorted(sorted_h, h), len(sorted_h) - 1)
            if not (sorted_h[pos] == h).all():
                # every pair hash came from a signature row, so a miss can
                # only be a stale index — fail loudly rather than drop
                raise RuntimeError(
                    f"resolve_and_verify: {int((sorted_h[pos] != h).sum())} "
                    "pair endpoints missing from the signature index")
            rows[name] = pa.array(order[pos], pa.int64())

        def col(c: str, side: str, sel):
            idx = rows[side] if sel is None else rows[side].take(pa.array(sel))
            return small[c].take(idx)

        return _verified_slim(t, accept, col)


def _resolve_by_join(pairs: ray.data.Dataset, sig: ray.data.Dataset,
                     cfg: DedupConfig, has_pixels: bool,
                     accept=None) -> ray.data.Dataset:
    """Above the broadcast tier: resolve both endpoints by hash joins on
    the id hash against the signature table (one row per id hash, with the
    collision check), carrying every signature column the caller passed,
    then apply the same ``accept``."""
    from deduplication_ray.stages.join import lookup_join
    from deduplication_ray.stages.lsh import id_hash_table

    schema = sig.schema()
    types = dict(zip(schema.names, schema.types))
    cols = tuple(c for c in types if c != "image_id")
    lists = {c: typ for c, typ in types.items() if pa.types.is_list(typ)}
    accept = accept or _default_accept(cfg, has_pixels and "phash" in cols)
    if lists:
        sig = sig.map_batches(lambda t: _pack_lists(t, lists),
                              batch_format="pyarrow")
    side = id_hash_table(sig, cfg, cols).materialize()

    def renamed(key: str, name: str) -> ray.data.Dataset:
        return side.rename_columns(
            {"idh": key, **{c: f"{c}_{name}" for c in ["image_id", *cols]}})

    e = lookup_join(pairs, renamed("ah", "src"), on=["ah"], cfg=cfg)
    e = lookup_join(e, renamed("bh", "dst"), on=["bh"], cfg=cfg)
    return e.map_batches(
        lambda t: _verified_slim(t, accept, _attached_col(t, lists)),
        batch_format="pyarrow")


def resolve_and_verify_pairs(
    slim_pairs: ray.data.Dataset, sig_ref, cfg: DedupConfig,
    has_pixels: bool = True, accept=None,
) -> ray.data.Dataset:
    """Deduped slim pairs -> accepted (src, dst, kind) edges (lazy).

    ``sig_ref`` is a ``signature_index`` handle (broadcast gather) or a
    ``DeferredSignatureIndex``, which picks the broadcast gather inside the
    tier and the hash-join resolve above it. ``accept(t, col)`` returns the
    keep mask of slim batch ``t``; ``col(name, side, rows)`` serves
    endpoint ``side``'s ('src'/'dst') signature column ``name`` for the row
    indices ``rows`` (None = every row). None keeps ``_accept_mask``
    (``has_pixels`` adds its pixel checks)."""
    if isinstance(sig_ref, DeferredSignatureIndex):
        if not sig_ref.eligible:
            return _resolve_by_join(slim_pairs, sig_ref.signatures, cfg,
                                    has_pixels, accept)
        sig_ref = sig_ref.get()  # index build overlapped the pairing chain
    return slim_pairs.map_batches(
        _ResolveVerify(sig_ref, cfg, has_pixels, accept),
        batch_format="pyarrow", batch_size=65536)


def pair_and_verify(buckets: ray.data.Dataset, sig_ref, cfg: DedupConfig,
                    accept=None, has_pixels: bool = True,
                    pair_filter=None) -> ray.data.Dataset:
    """The one bucket-rows -> edges path of every engine: slim pairs ->
    pair dedupe -> [``pair_filter`` over the slim pairs] -> resolve +
    ``accept``. Emits (src, dst, kind), lazy. ``sig_ref`` as in
    ``resolve_and_verify_pairs``; build a ``DeferredSignatureIndex`` before
    calling so its index build overlaps the pairing chain.

    The edges are complete for union-find, not as a pair set: a bucket
    above ``cfg.bucket_cap`` rows emits only its salted stars (each
    sub-bucket linked to its min-id anchor) and ambassadors, a spanning
    set of its pairs. A caller that reads the output as pairs misses the
    direct pairs of such a bucket's non-anchor rows."""
    from deduplication_ray.stages import lsh

    pairs = lsh.dedupe_slim_pairs(lsh.slim_pairs_from_buckets(buckets, cfg),
                                  cfg)
    if pair_filter is not None:
        pairs = pairs.map_batches(pair_filter, batch_format="pyarrow")
    return resolve_and_verify_pairs(pairs, sig_ref, cfg,
                                    has_pixels=has_pixels, accept=accept)


def plan_hamming_radius(pos_dists, neg_dists, target_recall: float = 0.99,
                        bits: int = 64) -> dict:
    """Operating-point planner for a Hamming-ball verification channel —
    the verify-stage analog of ``lsh.plan_lsh_params``: given labeled
    Hamming distances (``pos_dists`` from known-duplicate pairs,
    ``neg_dists`` from known-non-duplicate pairs — a small calibration
    sample by contract, e.g. a planted fixture or a human-labeled batch),
    choose the smallest radius whose recall meets ``target_recall`` and
    report the full sweep so the false-positive cost of each extra bit is
    visible. The default config's radii (``phash_hamming_t=10``,
    ``simhash_hamming_t=6``, ``crop_hamming_t=3``) were chosen exactly
    this way against the planted fixtures.

    Returns {radius, recall, fpr, recall_ok, f1_radius, sweep} where
    ``sweep`` is a list of (radius, recall_milli, fpr_milli) for radii up
    to the first with recall 1.0, and ``f1_radius`` maximizes F1 treating
    the calibration sample as the population. Pure driver math on the
    bounded sample — no distributed work.
    """
    import numpy as np

    pos = np.asarray(pos_dists, dtype=np.int64)
    neg = np.asarray(neg_dists, dtype=np.int64)
    if len(pos) == 0:
        raise ValueError("need at least one positive-pair distance")
    sweep = []
    chosen, f1_best, f1_radius = None, -1.0, 0
    for r in range(bits + 1):
        recall = float((pos <= r).mean())
        fpr = float((neg <= r).mean()) if len(neg) else 0.0
        tp = int((pos <= r).sum())
        fp = int((neg <= r).sum())
        prec = tp / (tp + fp) if tp + fp else 1.0
        f1 = (2 * prec * recall / (prec + recall)) if prec + recall else 0.0
        if f1 > f1_best:
            f1_best, f1_radius = f1, r
        sweep.append((r, int(recall * 1000), int(fpr * 1000)))
        if chosen is None and recall >= target_recall:
            chosen = r
        if recall >= 1.0:
            break
    r = chosen if chosen is not None else bits
    return {
        "radius": r,
        "recall": float((pos <= r).mean()),
        "fpr": float((neg <= r).mean()) if len(neg) else 0.0,
        "recall_ok": chosen is not None,
        "f1_radius": f1_radius,
        "sweep": sweep,
    }
