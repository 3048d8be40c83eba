"""Vectorized 64-bit hashing kernels.

The reference's only "hash" is a linear ``memcmp`` scan over the dictionary
(``/root/reference/src/dictionary.c:49-59``) — O(dict_size) per probe. At
10^12-row scale the dedup index must be a *key*, not a scan: every identity
and near-identity notion in this engine reduces to u64 keys produced here.

All functions operate on numpy ``uint64`` arrays with wraparound arithmetic
(two's-complement, like the C kernels they mirror) and are fully vectorized.
u64 values are bit-cast to int64 at Arrow boundaries (Parquet + Ray aggregates
are friendlier with signed types); comparisons downstream are on bit patterns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

U64 = np.uint64
_SPLITMIX_GAMMA = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
# odd multiplier for the polynomial rolling shingle hash
_POLY_P = U64(0x100000001B3)  # FNV-ish odd prime


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer — the u64 mixing primitive (public constant set)."""
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=U64) + _SPLITMIX_GAMMA).astype(U64)
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        return z ^ (z >> U64(31))


def hash_u64_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine two u64 arrays into one (order-sensitive)."""
    with np.errstate(over="ignore"):
        return splitmix64(np.asarray(a, U64) * _MIX1 + splitmix64(np.asarray(b, U64)))


def bitcast_u64_to_i64(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=U64).view(np.int64)


def bitcast_i64_to_u64(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.int64).view(U64)


def popcount64(a: np.ndarray) -> np.ndarray:
    """Vectorized popcount on u64 (SWAR — numpy<2 has no bit_count)."""
    x = np.asarray(a, dtype=U64)
    m1 = U64(0x5555555555555555)
    m2 = U64(0x3333333333333333)
    m4 = U64(0x0F0F0F0F0F0F0F0F)
    h01 = U64(0x0101010101010101)
    with np.errstate(over="ignore"):
        x = x - ((x >> U64(1)) & m1)
        x = (x & m2) + ((x >> U64(2)) & m2)
        x = (x + (x >> U64(4))) & m4
        return ((x * h01) >> U64(56)).astype(np.int64)


def hash_bytes_array(arr: pa.Array | pa.ChunkedArray,
                     seed: int = 0) -> np.ndarray:
    """Content hash of an Arrow binary/string column -> u64 per row.

    ``seed`` selects an independent member of the hash family (the mixed
    seed perturbs every per-word hash BEFORE the splitmix finalizer, so
    collisions at different seeds are uncorrelated); seed=0 is bit-identical
    to the unseeded function. Two seeds give an effective 128-bit key.

    Zero-copy: reads the Arrow value buffer directly (no per-row Python
    bytes objects). This is the distributed replacement for the reference's
    ``memcmp`` identity (``dictionary.c:53``): equal payloads -> equal u64;
    a 64-bit key over <=10^12 rows has ~3e-4 collision odds per *equal-key
    pair*, and exact mode re-verifies payload equality within each group.
    """
    buf, offsets = _arrow_flat_buffer(arr)
    if len(offsets) <= 1:
        return np.empty(0, dtype=U64)
    # normalize to the covered byte range (array may be a non-zero-offset slice)
    buf = buf[offsets[0] : offsets[-1]]
    offsets = offsets - offsets[0]
    n_rows = len(offsets) - 1
    lens = offsets[1:] - offsets[:-1]

    # WORD-wise hashing: copy each row into an 8-byte-aligned padded buffer,
    # then all mixing runs over u64 words: 8x fewer vector elements than
    # byte-wise. Each word is hashed with its row-relative position
    # (order-aware), rows combine by commutative segment sum, byte length is
    # mixed in last so zero-padding is unambiguous.
    word_counts = ((lens + 7) >> 3).astype(np.int64)
    word_starts = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(word_counts, out=word_starts[1:])
    padded = np.zeros(int(word_starts[-1]) * 8, dtype=np.uint8)
    _copy_rows_padded(buf, offsets, lens, word_starts[:-1] * 8, padded)
    words = padded.view(U64)

    rel = (
        np.arange(len(words), dtype=np.int64)
        - np.repeat(word_starts[:-1], word_counts)
    ).astype(U64)
    seed_mix = splitmix64(np.uint64(seed)) if seed else U64(0)
    with np.errstate(over="ignore"):
        per_word = splitmix64(
            (words + U64(1)) * _POLY_P + rel * _MIX2 + seed_mix)
    seg = np.zeros(n_rows, dtype=U64)
    nonempty = word_counts > 0
    if nonempty.any():
        with np.errstate(over="ignore"):
            seg[nonempty] = np.add.reduceat(per_word, word_starts[:-1][nonempty])
    with np.errstate(over="ignore"):
        seg = seg + lens.astype(U64) * _MIX1
    return splitmix64(seg)


# Rows up to this many bytes are copied by one gather/scatter over all of
# them (ids, tokens: the per-row slice loop was 70% of the pair kernel on
# text); longer rows (image payloads) keep one slice memcpy each, where the
# per-byte index arrays would cost more than the per-row Python overhead.
_SCATTER_MAX_ROW_BYTES = 256


def _copy_rows_padded(buf: np.ndarray, offsets: np.ndarray, lens: np.ndarray,
                      dst_starts: np.ndarray, padded: np.ndarray) -> None:
    """``padded[dst_starts[i]:][:lens[i]] = buf[offsets[i]:][:lens[i]]``
    for every row i."""
    short = lens <= _SCATTER_MAX_ROW_BYTES
    s_lens = lens[short]
    total = int(s_lens.sum())
    if total:
        # byte k of the short rows: its row's start plus its rank in the row
        ends = np.cumsum(s_lens)
        rank = np.arange(total, dtype=np.int64) - np.repeat(ends - s_lens,
                                                            s_lens)
        padded[np.repeat(dst_starts[short], s_lens) + rank] = \
            buf[np.repeat(offsets[:-1][short], s_lens) + rank]
    for i in np.flatnonzero(~short):
        d, o, length = dst_starts[i], offsets[i], lens[i]
        padded[d : d + length] = buf[o : o + length]


def _arrow_flat_buffer(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 value buffer, int64 row offsets) of a string/binary column.

    Zero-copy view into Arrow memory; handles chunked arrays and non-zero
    array offsets. Large-binary offsets are int64 already; 32-bit offsets are
    upcast.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # combine_chunks on empty can stay chunked
        if arr.num_chunks == 0:
            return np.empty(0, np.uint8), np.zeros(1, np.int64)
        arr = arr.chunk(0)
    buffers = arr.buffers()
    if len(buffers) < 3 or buffers[2] is None:
        return np.empty(0, np.uint8), np.zeros(len(arr) + 1, np.int64)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(buffers[1], dtype=off_dtype)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    return data, offs


def shingle_window_hashes(
    arr: pa.Array | pa.ChunkedArray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """All char k-gram rolling hashes of a string column.

    Returns ``(hashes, row_offsets)`` where ``hashes[row_offsets[i]:
    row_offsets[i+1]]`` are the u64 hashes of row i's k-grams, in order.
    Rows shorter than k get ONE hash (the whole-row content hash) so every
    row participates in MinHash. Fully vectorized: k shifted
    multiply-accumulate passes over the concatenated utf-8 buffer.

    Generalizes the reference's block chunking (``compressor.c:75-86``) from
    non-overlapping fixed tiles to overlapping k-grams — near-dup needs
    overlap; exact-block mode keeps the non-overlapping variant (exact.py).
    """
    buf, offs = _arrow_flat_buffer(arr)
    n_rows = len(offs) - 1
    lens = offs[1:] - offs[:-1]
    n = len(buf)

    # window hash at every buffer position (invalid across-row windows masked out later)
    h = np.zeros(max(n - k + 1, 0), dtype=U64)
    if len(h):
        with np.errstate(over="ignore"):
            pw = U64(1)
            for j in range(k - 1, -1, -1):
                h += (buf[j : j + len(h)].astype(U64) + U64(1)) * pw
                with np.errstate(over="ignore"):
                    pw = pw * _POLY_P
            h = splitmix64(h)

    # per-row valid window count
    counts = np.maximum(lens - k + 1, 0)
    short = lens < k
    out_counts = np.where(short, 1, counts)
    row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_counts, out=row_offsets[1:])

    out = np.empty(row_offsets[-1], dtype=U64)
    # gather long rows: windows starting at offs[i] .. offs[i]+counts[i]-1
    long_rows = np.nonzero(~short)[0]
    if len(long_rows):
        reps = counts[long_rows]
        dest = np.repeat(row_offsets[long_rows], reps) + _ranges(reps)
        src = np.repeat(offs[long_rows], reps) + _ranges(reps)
        out[dest] = h[src]
    # short rows: single whole-row hash
    short_rows = np.nonzero(short)[0]
    if len(short_rows):
        whole = hash_bytes_array(arr)
        out[row_offsets[short_rows]] = whole[short_rows]
    return out, row_offsets


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] — vectorized per-segment aranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ids = np.repeat(np.arange(len(counts)), counts)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - starts[ids]


def run_ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``keys`` (sorted
    so that equal keys are contiguous): the 0-based rank within a group."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    new = np.concatenate([[True], keys[1:] != keys[:-1]])
    return _ranges(np.diff(np.append(np.flatnonzero(new), len(keys))))


def minhash_signatures(
    hashes: np.ndarray, row_offsets: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """MinHash signature matrix (n_rows x P) from per-row shingle hashes.

    ``sig[i, p] = min over row-i shingles s of (a[p]*s + b[p] mod 2^64)``.
    Duplicate shingles don't affect the min, so no per-row dedup is needed.
    Vectorized: one fused multiply-add + ``np.minimum.reduceat`` per
    permutation (P passes over the flat shingle array; no row loop).
    """
    n_rows = len(row_offsets) - 1
    P = len(a)
    sig = np.empty((n_rows, P), dtype=U64)
    if n_rows == 0:
        return sig
    nonempty = row_offsets[:-1] < row_offsets[1:]
    red_idx = row_offsets[:-1][nonempty]
    with np.errstate(over="ignore"):
        for p in range(P):
            v = hashes * a[p] + b[p]
            col = np.full(n_rows, np.iinfo(U64).max, dtype=U64)
            if len(red_idx):
                col[nonempty] = np.minimum.reduceat(v, red_idx)
            sig[:, p] = col
    return sig


def oph_signatures(hashes: np.ndarray, row_offsets: np.ndarray,
                   P: int, seed: int,
                   with_filled: bool = False) -> np.ndarray | tuple:
    """One-Permutation Hashing signatures with rotation densification
    (Li, Owen & Zhang NIPS 2012; Shrivastava & Li ICML 2014).

    Classic MinHash costs P passes over the shingle stream (one fused
    multiply-add + reduceat per permutation — see ``minhash_signatures``).
    OPH computes the whole P-slot signature from ONE remix pass: each
    shingle hash is remixed once, its top log2(P) bits pick a bin, and the
    per-(row, bin) minimum fills the slot. Empty bins (a row with n
    shingles leaves ~P*(1-1/P)^n empty) are densified by circular
    rotation: an empty slot borrows the nearest filled slot to its right
    (wrapping) plus hop*_OPH_C, so two rows agree on a borrowed slot iff
    they borrowed the SAME slot value from the SAME distance — keeping
    E[slot match] = J (the densified estimator is unbiased). At equal P
    this is ~P/3 times less signature compute, the 100 TB cost of the
    signature stage.

    Deterministic + partition-invariant: all randomness is the seed remix;
    slots of an empty row stay u64 MAX. P must be a power of two.
    Returns (n_rows, P) u64 — or ``(sig, filled)`` with the per-row count
    of GENUINELY filled (pre-densification) bins when ``with_filled``:
    densified slots are copies, so a pair's effective sample size for
    variance purposes is min(filled) rather than P.
    """
    if P < 2 or P & (P - 1):
        # P=1 would shift by the full 64-bit width (undefined in numpy)
        raise ValueError(f"OPH needs power-of-two P >= 2, got {P}")
    n_rows = len(row_offsets) - 1
    sig = np.full((n_rows, P), np.iinfo(U64).max, dtype=U64)
    if n_rows == 0 or len(hashes) == 0:
        return (sig, np.zeros(n_rows, np.int64)) if with_filled else sig
    bbits = int(P).bit_length() - 1
    with np.errstate(over="ignore"):
        v = splitmix64(np.asarray(hashes, U64) ^ splitmix64(U64(seed & (2**64 - 1))))
    bins = (v >> U64(64 - bbits)).astype(np.int64)
    row = np.repeat(np.arange(n_rows, dtype=np.int64),
                    np.diff(row_offsets))
    # per-(row, bin) min via one lexsort: within a key the smallest value
    # sorts first, so the first occurrence per key is the min
    key = row * P + bins
    order = np.lexsort((v, key))
    ks, vs = key[order], v[order]
    first = np.concatenate([[True], ks[1:] != ks[:-1]])
    sig.reshape(-1)[ks[first]] = vs[first]

    # rotation densification: for each empty slot, distance to the nearest
    # filled slot rightward (circular) via a reverse cumulative min over
    # the doubled position axis
    filled = sig != np.iinfo(U64).max
    n_filled = filled.sum(axis=1).astype(np.int64)
    if not filled.all():
        pos = np.arange(2 * P, dtype=np.int64)
        occ2 = np.concatenate([filled, filled], axis=1)
        cand = np.where(occ2, pos, np.iinfo(np.int64).max)
        nxt = np.minimum.accumulate(cand[:, ::-1], axis=1)[:, ::-1][:, :P]
        has_any = filled.any(axis=1)
        rows_e, cols_e = np.nonzero(~filled & has_any[:, None])
        src = nxt[rows_e, cols_e]
        hop = (src - cols_e).astype(U64)
        with np.errstate(over="ignore"):
            sig[rows_e, cols_e] = sig[rows_e, src % P] + hop * _OPH_C
    return (sig, n_filled) if with_filled else sig


_OPH_C = np.uint64(0x9E3779B97F4A7C15)


def icws_signatures(tok: np.ndarray, w: np.ndarray, offs: np.ndarray,
                    P: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Improved Consistent Weighted Sampling signatures (Ioffe 2010,
    "Improved Consistent Sampling, Weighted Minhash and L1 Sketching"):
    for each row's weighted set {(token u64, weight > 0)} draw P
    consistent samples (t*, q*) such that two rows' samples at index k
    collide with probability EXACTLY their weighted Jaccard
    sum(min(wA, wB)) / sum(max(wA, wB)).

    ``tok``/``w`` are the flattened per-row DISTINCT tokens and their
    weights; ``offs`` the int64 row offsets (rows must be non-empty —
    ``np.minimum.reduceat`` cannot represent an empty segment). All
    randomness derives from splitmix64 chains over (token, k, seed), so
    signatures are deterministic and partition-invariant. Per sample:
    r, c ~ Gamma(2,1) (= -ln(u·u')), b ~ U(0,1),
    q = floor(ln w / r + b), y = exp(r (q - b)), a = c / (y e^r);
    the row's sample is the (token, q) of the minimal a. Vectorized: the
    P-loop does a handful of elementwise ops + two reduceats over the
    flat element array — no per-row Python.

    Returns (tokens, quantiles): two (n_rows, P) arrays (u64, int64).
    A signature position MATCHES iff both agree."""
    n_rows = len(offs) - 1
    out_t = np.empty((n_rows, P), dtype=U64)
    out_q = np.empty((n_rows, P), dtype=np.int64)
    if n_rows == 0:
        return out_t, out_q
    if np.any(offs[:-1] >= offs[1:]):
        raise ValueError("icws_signatures: empty weighted set")
    logw = np.log(w.astype(np.float64))
    seg = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offs))
    elem_idx = np.arange(len(tok), dtype=np.int64)
    red = offs[:-1]
    two53 = np.float64(2.0 ** -53)

    def uniform(h: np.ndarray) -> np.ndarray:
        # strictly inside (0,1): never 0 (log-safe), never 1
        return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * two53

    with np.errstate(over="ignore"):
        for k in range(P):
            ck = splitmix64(np.asarray(
                [U64(seed) * U64(0x9E37) + U64(k) + U64(1)], dtype=U64))[0]
            h1 = splitmix64(tok + ck)
            h2 = splitmix64(h1)
            h3 = splitmix64(h2)
            h4 = splitmix64(h3)
            h5 = splitmix64(h4)
            r = -np.log(uniform(h1) * uniform(h2))
            c = -np.log(uniform(h3) * uniform(h4))
            b = uniform(h5)
            q = np.floor(logw / r + b)
            a = c / np.exp(r * (q - b) + r)
            minv = np.minimum.reduceat(a, red)
            cand = np.where(a == minv[seg], elem_idx, len(tok))
            arg = np.minimum.reduceat(cand, red)
            out_t[:, k] = tok[arg]
            out_q[:, k] = q[arg].astype(np.int64)
    return out_t, out_q


def make_minhash_perms(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) coefficient arrays; a forced odd (invertible mod 2^64)."""
    base = splitmix64(np.arange(2 * num_perm, dtype=U64) + U64(seed * 0x9E37 + 1))
    a = base[:num_perm] | U64(1)
    b = base[num_perm:]
    return a, b


def lsh_band_keys(sig: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """Bucket key per (row, band): hash of the band's r signature values.

    Returns (n_rows x bands) u64. Realizes T7: the groupby on
    ``(band_id, bucket_key)`` is the LSH shuffle.
    """
    n, P = sig.shape
    assert bands * rows_per_band == P
    with np.errstate(over="ignore"):
        view = sig.reshape(n, bands, rows_per_band)
        acc = np.full((n, bands), _SPLITMIX_GAMMA, dtype=U64)
        for r in range(rows_per_band):
            acc = splitmix64(acc * _MIX1 + view[:, :, r])
        # mix band index so identical row-chunks in different bands don't collide
        acc = splitmix64(acc ^ (np.arange(bands, dtype=U64)[None, :] * _MIX2))
    return acc


def simhash_from_features(feats: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """64-bit sign-random-projection hash of real feature vectors.

    ``feats``: (n, d) float; ``planes``: (bits, d) hyperplane normals.
    bit j = sign(feats . planes[j]). Returns u64 per row.
    """
    proj = feats @ planes.T  # (n, bits)
    bits = (proj > 0).astype(U64)
    weights = U64(1) << np.arange(planes.shape[0], dtype=U64)
    return (bits * weights[None, :]).sum(axis=1, dtype=U64)


def make_simhash_planes(bits: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 0x51A)
    return rng.standard_normal((bits, dim)).astype(np.float32)


def hamming_distance_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return popcount64(np.asarray(a, U64) ^ np.asarray(b, U64))


def jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard from two (n, P) aligned signature matrices."""
    return (sig_a == sig_b).mean(axis=1)


def pack_u64_rows(mat: np.ndarray) -> pa.Array:
    """(n, P) u64 -> Arrow binary column of P*8-byte blobs (zero-copy-ish).

    Signatures travel through shuffles/joins as plain binary because Arrow
    acero joins reject fixed_size_list payload columns.
    """
    n, P = mat.shape
    flat = np.ascontiguousarray(mat, dtype=U64).view(np.uint8).reshape(-1)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * (P * 8))
    return pa.BinaryArray.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(flat.tobytes())]
    )


def unpack_u64_rows(col: pa.Array | pa.ChunkedArray, P: int) -> np.ndarray:
    """Arrow binary column of P*8-byte blobs -> (n, P) u64 (zero-copy)."""
    buf, offs = _arrow_flat_buffer(col)
    n = len(offs) - 1
    if n == 0:
        return np.empty((0, P), dtype=U64)
    lens = offs[1:] - offs[:-1]
    if not (lens == P * 8).all():
        raise ValueError("signature blob length mismatch")
    return buf[offs[0] : offs[-1]].view(U64).reshape(n, P)
