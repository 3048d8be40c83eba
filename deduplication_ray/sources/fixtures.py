"""Deterministic synthetic image+caption fixture generator (seed-driven).

The reference's de-facto conformance corpus is ``/root/reference/samples/``
(six real sensor captures, characterized in FIXTURES.md §1). The graft needs
an image+caption corpus with *planted, known* duplicate structure so recall
and precision are exactly measurable — this module synthesizes it. No
external data: images are seeded low-frequency patterns, captions are word
salad from a seeded vocabulary.

Two phases so generation itself is Ray-Data-shaped and scales:

1. ``plan_rows`` (driver, cheap): decides the cluster structure FIRST —
   kinds, per-cluster pattern seeds, captions — and emits a spec table plus
   ground-truth cluster labels. Everything is derived from ``seed``; row
   order is then shuffled (seeded).
2. ``RenderImages`` (``map_batches`` actor-compatible callable): renders
   pixels from each row's ``(pattern_seed, noise_seed)``, encodes with the
   row's fmt, computes the ``phash`` column. Deterministic per row ->
   identical output at any parallelism.

Planted populations (fractions of n; see FIXTURES.md §2):
  unique 55% | exact dup clusters (2-8) 15% | re-encode dups 8% |
  near-dup images 8% | near-dup captions 8% | substring dups 4% |
  hot-bucket adversary 2% (+ stock phrase appended to 5% of uniques).
Half of the re-encode / near-image variant rows get a FRESH caption so the
pixel-signature path (pHash/SimHash) is load-bearing for recall, not shadowed
by the caption MinHash path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from deduplication_ray.functions import codecs as C
from deduplication_ray.functions.hashing import bitcast_u64_to_i64

KINDS = ("unique", "exact", "reenc", "near_img", "near_cap", "substr", "hot")
_FMTS = ("raw", "png", "qrgb")
# short enough that the stock phrase stays BELOW substring_min_len (40 chars
# normalized) — the hot-bucket adversary must stress MinHash bucket skew, not
# legitimately trip the exact-substring detector
HOT_PHRASE_WORDS = 4


def make_vocab(seed: int, size: int = 2000) -> list[str]:
    rng = np.random.default_rng([seed, 0xCA])
    cons = list("bcdfghjklmnprstvwz")
    vow = list("aeiou")
    words = set()
    while len(words) < size:
        n_syll = rng.integers(2, 5)
        w = "".join(
            cons[rng.integers(len(cons))] + vow[rng.integers(len(vow))]
            for _ in range(n_syll)
        )
        words.add(w)
    return sorted(words)


def _salad(rng: np.random.Generator, vocab: list[str], lo: int = 25, hi: int = 45) -> str:
    n = int(rng.integers(lo, hi + 1))
    idx = rng.integers(0, len(vocab), n)
    return " ".join(vocab[i] for i in idx)


def _edit_caption(rng: np.random.Generator, caption: str, vocab: list[str], n_edits: int) -> str:
    words = caption.split(" ")
    for _ in range(n_edits):
        pos = int(rng.integers(len(words)))
        words[pos] = vocab[int(rng.integers(len(vocab)))]
    return " ".join(words)


def plan_rows(n_rows: int, seed: int = 42,
              fmts: tuple[str, ...] = _FMTS) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Build the spec table + truth clusters.

    Returns ``(spec, truth)``:
      spec: image_id, kind, pattern_seed, noise_seed, fmt, w, h, caption
      truth: image_id, cluster_id  (cluster_id = min image_id of the planted
             cluster — matching the pipeline's deterministic representative
             rule, the parallel-safe analog of the reference's
             first-occurrence ids, ``compressor.c:109-113``)
    """
    rng = np.random.default_rng([seed, 1])
    vocab = make_vocab(seed)
    hot_phrase = " ".join(vocab[i] for i in range(0, HOT_PHRASE_WORDS * 7, 7))

    quotas = {
        "exact": int(0.15 * n_rows),
        "reenc": int(0.08 * n_rows),
        "near_img": int(0.08 * n_rows),
        "near_cap": int(0.08 * n_rows),
        "substr": int(0.04 * n_rows),
        "hot": max(int(0.02 * n_rows), 3),
    }

    rows: list[dict] = []           # spec rows, generation order
    cluster_of: list[int] = []      # planted cluster index per row
    next_cluster = 0

    def add(kind, pattern_seed, noise_seed, fmt, w, h, caption, cluster):
        rows.append(
            dict(kind=kind, pattern_seed=pattern_seed, noise_seed=noise_seed,
                 fmt=fmt, w=w, h=h, caption=caption)
        )
        cluster_of.append(cluster)

    def fresh_pattern() -> int:
        return int(rng.integers(1, 2**31))

    def dims() -> tuple[int, int]:
        return int(rng.integers(32, 65)), int(rng.integers(32, 65))

    def fmt() -> str:
        return fmts[int(rng.integers(len(fmts)))]

    # --- dup clusters (built first; uniques fill the remainder) ---
    for kind, quota in quotas.items():
        made = 0
        while made < quota:
            cl = next_cluster
            next_cluster += 1
            w, h = dims()
            ps = fresh_pattern()
            base_cap = _salad(rng, vocab)
            if kind == "exact":
                size = int(rng.integers(2, 9))
                f = fmt()
                for _ in range(min(size, quota - made)):
                    add("exact", ps, 0, f, w, h, base_cap, cl)
                made += min(size, quota - made)
            elif kind == "reenc":
                # cap at len(fmts): a reenc member in a REPEATED format would
                # be byte-identical to an earlier member — an exact dup, not a
                # re-encode — quietly weakening the planted truth
                size = min(3, len(fmts), quota - made)
                if size < 2:
                    # cannot plant a pair; absorb remainder as unique
                    add("unique", ps, 0, fmt(), w, h, base_cap, cl)
                    made += 1
                    continue
                # distinct formats from the configured set (do NOT rebind
                # ``fmts`` — the fmt() closure reads the parameter)
                perm = rng.permutation(len(fmts))[:size]
                reenc_fmts = [fmts[int(j)] for j in perm]
                for i, f in enumerate(reenc_fmts):
                    cap = base_cap if (i == 0 or rng.random() < 0.5) \
                        else _salad(rng, vocab)
                    add("reenc", ps, 0, f, w, h, cap, cl)
                made += size
            elif kind == "near_img":
                size = 2 if quota - made >= 2 else 1
                if size < 2:
                    add("unique", ps, 0, fmt(), w, h, base_cap, cl)
                    made += 1
                    continue
                f = fmt()
                add("near_img", ps, 0, f, w, h, base_cap, cl)
                cap2 = base_cap if rng.random() < 0.5 else _salad(rng, vocab)
                add("near_img", ps, int(rng.integers(1, 2**31)), f, w, h, cap2, cl)
                made += 2
            elif kind == "near_cap":
                size = 2 if quota - made >= 2 else 1
                if size < 2:
                    add("unique", ps, 0, fmt(), w, h, base_cap, cl)
                    made += 1
                    continue
                add("near_cap", ps, 0, fmt(), w, h, base_cap, cl)
                cap2 = _edit_caption(rng, base_cap, vocab, int(rng.integers(1, 3)))
                ps2 = fresh_pattern()  # different image — caption path must link
                add("near_cap", ps2, 0, fmt(), w, h, cap2, cl)
                made += 2
            elif kind == "substr":
                size = 2 if quota - made >= 2 else 1
                if size < 2:
                    add("unique", ps, 0, fmt(), w, h, base_cap, cl)
                    made += 1
                    continue
                # caption A (>= Lmin chars) embedded verbatim inside longer B
                cap_a = _salad(rng, vocab, 10, 14)
                pre = _salad(rng, vocab, 6, 10)
                post = _salad(rng, vocab, 6, 10)
                cap_b = f"{pre} {cap_a} {post}"
                add("substr", ps, 0, fmt(), w, h, cap_a, cl)
                add("substr", fresh_pattern(), 0, fmt(), w, h, cap_b, cl)
                made += 2
            elif kind == "hot":
                # ONE adversarial cluster: captions ~90% stock phrase
                for _ in range(quota):
                    extra = vocab[int(rng.integers(len(vocab)))]
                    hw, hh = dims()
                    add("hot", fresh_pattern(), 0, fmt(),
                        hw, hh, f"{hot_phrase} {extra}", cl)
                made = quota

    # --- unique background fills the remainder ---
    n_unique = n_rows - len(rows)
    for i in range(n_unique):
        cl = next_cluster
        next_cluster += 1
        w, h = dims()
        cap = _salad(rng, vocab)
        if rng.random() < 0.05:  # hot-phrase shingle mass on 5% of background
            cap = f"{cap} {hot_phrase}"
        add("unique", fresh_pattern(), 0, fmt(), w, h, cap, cl)

    spec = pd.DataFrame(rows)
    spec["image_id"] = [f"img_{i:09d}" for i in range(len(spec))]
    spec["cluster_key"] = cluster_of

    # truth: cluster_id = min image_id per planted cluster
    truth = spec[["image_id", "cluster_key"]].copy()
    truth["cluster_id"] = truth.groupby("cluster_key")["image_id"].transform("min")
    truth = truth[["image_id", "cluster_id"]]

    # shuffle row order (seeded) — the table must not leak generation order
    perm = np.random.default_rng([seed, 2]).permutation(len(spec))
    spec = spec.iloc[perm].reset_index(drop=True)
    return spec, truth.sort_values("image_id").reset_index(drop=True)


def render_pattern(pattern_seed: int, w: int, h: int) -> np.ndarray:
    """Low-frequency random image: bilinear upsample of a seeded 8x8 RGB grid
    (+ tiny deterministic texture). Low-freq => pHash is stable under the
    planted mild-noise edits; distinct seeds => far apart."""
    rng = np.random.default_rng([pattern_seed, 3])
    grid = rng.integers(0, 256, (8, 8, 3)).astype(np.float32)
    # _area_matrix rows average the straddled input cells per output cell,
    # which for upsampling acts as a box/bilinear blend — smooth by design.
    ky = C._area_matrix(8, h)
    kx = C._area_matrix(8, w)
    up = np.einsum("yi,ijc,xj->yxc", ky, grid, kx)
    tex = rng.integers(-6, 7, (h, w, 1)).astype(np.float32)
    return np.clip(up + tex, 0, 255).astype(np.uint8)


def apply_noise(img: np.ndarray, noise_seed: int) -> np.ndarray:
    """Mild pixel noise for near-dup image rows: +-2 on ~20% of pixels."""
    if noise_seed == 0:
        return img
    rng = np.random.default_rng([noise_seed, 4])
    mask = rng.random(img.shape[:2]) < 0.2
    delta = rng.integers(-2, 3, img.shape)
    out = img.astype(np.int16)
    out[mask] += delta[mask].astype(np.int16)
    return np.clip(out, 0, 255).astype(np.uint8)


class RenderImages:
    """map_batches callable: spec rows -> final fixture rows.

    Stateless math but class-shaped like the real signature stages.
    """

    def __init__(self, phash_size: int = 32, phash_lowfreq: int = 8):
        self.size = phash_size
        self.lowfreq = phash_lowfreq

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        pseeds = batch["pattern_seed"].to_numpy()
        nseeds = batch["noise_seed"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        n = len(kinds)
        payloads = []
        grays = np.empty((n, self.size, self.size), dtype=np.float32)
        for i in range(n):
            img = apply_noise(render_pattern(int(pseeds[i]), int(ws[i]), int(hs[i])),
                              int(nseeds[i]))
            data = C.encode_image(img, fmts[i])
            if fmts[i] in ("qrgb", "jpg"):  # lossy: phash over what a
                # reader will decode, gated by the PSNR >= 40 dB invariant
                dec = C.decode_image(data, fmts[i], int(ws[i]), int(hs[i]))
                if C.psnr_db(img, dec) < 40.0:
                    raise AssertionError(
                        f"{fmts[i]} codec violated PSNR >= 40 dB")
                img = dec
            payloads.append(data)
            grays[i] = C.resize_area(C.to_grayscale(img), self.size)
        ph = C.phash64_batch(grays, self.size, self.lowfreq)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "bytes": pa.array(payloads, type=pa.binary()),
                "w": batch["w"].cast(pa.int32()),
                "h": batch["h"].cast(pa.int32()),
                "fmt": batch["fmt"],
                "caption": batch["caption"],
                "phash": pa.array(bitcast_u64_to_i64(ph), type=pa.int64()),
            }
        )


def generate(out_dir: str, n_rows: int, seed: int = 42,
             num_files: int | None = None,
             fmts: tuple[str, ...] = _FMTS) -> None:
    """Materialize a fixture dataset: table at ``out_dir``/data, labels at
    ``out_dir``/truth (separate dirs so a directory read of the table never
    picks up truth files).

    Requires an active Ray session (caller-owned). Deterministic for a given
    (n_rows, seed) at any parallelism.
    """
    import os

    import ray.data

    from deduplication_ray.sources import storage

    spec, truth = plan_rows(n_rows, seed, fmts=fmts)
    if num_files is None:
        num_files = max(4, min(64, n_rows // 2000))
    ds = ray.data.from_pandas(spec).repartition(num_files)
    # Stateless tasks, not an actor pool: rendering holds no real state, and a
    # fixed-size pool sized >= num_cpus starves the write stage on small
    # sessions (observed: 4-actor pool on a 4-CPU session deadlocks progress).
    ds = ds.map_batches(RenderImages(), batch_size=512, batch_format="pyarrow")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ds.write_parquet(data_dir)
    storage.write_arrow_table(pa.Table.from_pandas(truth),
                              os.path.join(out_dir, "truth"))
    storage.write_manifest(out_dir, {"n_rows": n_rows, "seed": seed,
                                     "num_files": num_files, "stage": "fixture",
                                     "fmts": list(fmts)})


def _rot_selection(image_ids: pa.Array | pa.ChunkedArray,
                   stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic augmentation plan from ids alone: row i gets a dihedral
    copy iff hash(id) % stride == 0, with orientation 1 + hash(id) % 7.
    Pure function of the id so truth pairs derive without touching pixels."""
    from deduplication_ray.functions import hashing as H

    idh = H.hash_bytes_array(image_ids)
    sel = (idh % np.uint64(stride)) == 0
    k = 1 + (idh % np.uint64(7)).astype(np.int64)
    return sel, k


def rot_truth_pairs(image_ids, stride: int = 5) -> pd.DataFrame:
    """Planted (orig, rotated-copy) pairs for ``generate_rotated``."""
    arr = pa.array(list(image_ids), pa.string()) \
        if not isinstance(image_ids, (pa.Array, pa.ChunkedArray)) else image_ids
    sel, k = _rot_selection(arr, stride)
    ids = np.asarray(arr.to_pylist(), dtype=object)[sel]
    ks = k[sel]
    return pd.DataFrame({
        "id_a": ids,
        "id_b": [f"rot{int(kk)}_of_{i}" for i, kk in zip(ids, ks)],
        "orient": ks,
    })


class _RotAugment:
    """map_batches task: pass every base row through and append one
    dihedral-transformed copy for each selected row."""

    def __init__(self, stride: int, phash_size: int = 32,
                 phash_lowfreq: int = 8):
        self.stride = stride
        self.size = phash_size
        self.lowfreq = phash_lowfreq

    def __call__(self, t: pa.Table) -> pa.Table:
        from deduplication_ray.functions import hashing as H

        sel, kk = _rot_selection(t["image_id"], self.stride)
        rows = np.flatnonzero(sel)
        if not len(rows):
            return t
        ids = t["image_id"].to_pylist()
        fmts = t["fmt"].to_pylist()
        ws = t["w"].to_numpy()
        hs = t["h"].to_numpy()
        caps = t["caption"].to_pylist()
        payloads = t["bytes"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        new = {c: [] for c in ("image_id", "bytes", "w", "h", "fmt",
                               "caption")}
        grays = np.empty((len(rows), self.size, self.size), np.float32)
        for j, i in enumerate(rows):
            k = int(kk[i])
            img = C.decode_image(pbuf[poffs[i]:poffs[i + 1]],
                                 fmts[i], int(ws[i]), int(hs[i]))
            timg = np.ascontiguousarray(C.dihedral_apply(img, k))
            data = C.encode_image(timg, fmts[i])
            if fmts[i] in ("qrgb", "jpg"):  # lossy: hash what a reader
                timg = C.decode_image(data, fmts[i],  # will decode
                                      int(timg.shape[1]),
                                      int(timg.shape[0]))
            new["image_id"].append(f"rot{k}_of_{ids[i]}")
            new["bytes"].append(data)
            new["w"].append(int(timg.shape[1]))
            new["h"].append(int(timg.shape[0]))
            new["fmt"].append(fmts[i])
            new["caption"].append(caps[i])
            grays[j] = C.resize_area(C.to_grayscale(timg), self.size)
        ph = C.phash64_batch(grays, self.size, self.lowfreq)
        extra = pa.table({
            "image_id": pa.array(new["image_id"], pa.string()),
            "bytes": pa.array(new["bytes"], pa.binary()),
            "w": pa.array(new["w"], pa.int32()),
            "h": pa.array(new["h"], pa.int32()),
            "fmt": pa.array(new["fmt"], pa.string()),
            "caption": pa.array(new["caption"], pa.string()),
            "phash": pa.array(bitcast_u64_to_i64(ph), pa.int64()),
        })
        return pa.concat_tables([t.select(extra.column_names), extra],
                                promote_options="default")


def generate_rotated(base_dir: str, out_dir: str, stride: int = 5) -> None:
    """Augment a generated image fixture (``generate`` output at
    ``base_dir``) with dihedral near-duplicates: every stride-th image (by
    id hash) gains one rotated/mirrored/transposed copy. Writes the
    augmented table to ``out_dir``/data and the planted (orig, copy) pairs
    to ``out_dir``/truth_pairs. Requires an active Ray session."""
    import os

    import ray.data

    from deduplication_ray.sources import storage

    ds = storage.read_table(os.path.join(base_dir, "data"))
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ds.map_batches(_RotAugment(stride), batch_size=512,
                   batch_format="pyarrow").write_parquet(data_dir)
    base_ids = storage.read_table(os.path.join(base_dir, "data"),
                                  columns=["image_id"]).to_pandas()
    pairs = rot_truth_pairs(base_ids["image_id"].tolist(), stride)
    storage.write_arrow_table(pa.Table.from_pandas(pairs),
                              os.path.join(out_dir, "truth_pairs"))
    storage.write_manifest(out_dir, {"base": base_dir, "stride": stride,
                                     "stage": "rot_fixture"})


CROP_VARIANTS = ("tl", "tr", "bl", "br", "center", "pad2x")


def _crop_selection(image_ids: pa.Array | pa.ChunkedArray,
                    stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic crop/pad plan from ids alone: row i gets a copy iff
    hash(id) % stride == 1 (offset so it never collides with the rotation
    plan on the same fixture), variant = (hash >> 8) % 6."""
    from deduplication_ray.functions import hashing as H

    idh = H.hash_bytes_array(image_ids)
    sel = (idh % np.uint64(stride)) == 1
    v = ((idh >> np.uint64(8)) % np.uint64(len(CROP_VARIANTS))).astype(np.int64)
    return sel, v


def crop_apply(img: np.ndarray, variant: int) -> np.ndarray:
    """Apply the variant-th crop/pad transform to an (h, w, 3) array."""
    h, w = img.shape[:2]
    h2, w2 = h // 2, w // 2
    if variant == 0:
        return img[:h2, :w2]
    if variant == 1:
        return img[:h2, w - w2:]
    if variant == 2:
        return img[h - h2:, :w2]
    if variant == 3:
        return img[h - h2:, w - w2:]
    if variant == 4:
        h4, w4 = h // 4, w // 4
        return img[h4:h4 + h2, w4:w4 + w2]
    if variant == 5:  # pad to double: content centered, black bars
        out = np.zeros((2 * h, 2 * w, 3), dtype=img.dtype)
        out[h2:h2 + h, w2:w2 + w] = img
        return out
    raise ValueError(f"crop variant out of range: {variant}")


def crop_truth_pairs(image_ids, stride: int = 5) -> pd.DataFrame:
    """Planted (orig, crop/pad-copy) pairs for ``generate_cropped``."""
    arr = pa.array(list(image_ids), pa.string()) \
        if not isinstance(image_ids, (pa.Array, pa.ChunkedArray)) else image_ids
    sel, v = _crop_selection(arr, stride)
    ids = np.asarray(arr.to_pylist(), dtype=object)[sel]
    vs = v[sel]
    return pd.DataFrame({
        "id_a": ids,
        "id_b": [f"crop_{CROP_VARIANTS[int(vv)]}_of_{i}"
                 for i, vv in zip(ids, vs)],
        "variant": [CROP_VARIANTS[int(vv)] for vv in vs],
    })


class _CropAugment:
    """map_batches task: pass every base row through and append one
    crop/pad-transformed copy for each selected row."""

    def __init__(self, stride: int, phash_size: int = 32,
                 phash_lowfreq: int = 8):
        self.stride = stride
        self.size = phash_size
        self.lowfreq = phash_lowfreq

    def __call__(self, t: pa.Table) -> pa.Table:
        from deduplication_ray.functions import hashing as H

        sel, vv = _crop_selection(t["image_id"], self.stride)
        rows = np.flatnonzero(sel)
        if not len(rows):
            return t
        ids = t["image_id"].to_pylist()
        fmts = t["fmt"].to_pylist()
        ws = t["w"].to_numpy()
        hs = t["h"].to_numpy()
        caps = t["caption"].to_pylist()
        payloads = t["bytes"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        pbuf, poffs = H._arrow_flat_buffer(payloads)
        new = {c: [] for c in ("image_id", "bytes", "w", "h", "fmt",
                               "caption")}
        grays = np.empty((len(rows), self.size, self.size), np.float32)
        for j, i in enumerate(rows):
            v = int(vv[i])
            img = C.decode_image(pbuf[poffs[i]:poffs[i + 1]],
                                 fmts[i], int(ws[i]), int(hs[i]))
            timg = np.ascontiguousarray(crop_apply(img, v))
            data = C.encode_image(timg, fmts[i])
            if fmts[i] in ("qrgb", "jpg"):  # lossy: hash what a reader
                timg = C.decode_image(data, fmts[i],  # will decode
                                      int(timg.shape[1]),
                                      int(timg.shape[0]))
            new["image_id"].append(f"crop_{CROP_VARIANTS[v]}_of_{ids[i]}")
            new["bytes"].append(data)
            new["w"].append(int(timg.shape[1]))
            new["h"].append(int(timg.shape[0]))
            new["fmt"].append(fmts[i])
            new["caption"].append(caps[i])
            grays[j] = C.resize_area(C.to_grayscale(timg), self.size)
        ph = C.phash64_batch(grays, self.size, self.lowfreq)
        extra = pa.table({
            "image_id": pa.array(new["image_id"], pa.string()),
            "bytes": pa.array(new["bytes"], pa.binary()),
            "w": pa.array(new["w"], pa.int32()),
            "h": pa.array(new["h"], pa.int32()),
            "fmt": pa.array(new["fmt"], pa.string()),
            "caption": pa.array(new["caption"], pa.string()),
            "phash": pa.array(bitcast_u64_to_i64(ph), pa.int64()),
        })
        return pa.concat_tables([t.select(extra.column_names), extra],
                                promote_options="default")


def generate_cropped(base_dir: str, out_dir: str, stride: int = 5) -> None:
    """Augment a generated image fixture with crop/pad near-duplicates:
    every stride-th image (by id hash) gains one quadrant-crop, center-crop
    or pad-to-double copy. Writes the augmented table to ``out_dir``/data
    and the planted pairs to ``out_dir``/truth_pairs. Requires an active
    Ray session."""
    import os

    import ray.data

    from deduplication_ray.sources import storage

    ds = storage.read_table(os.path.join(base_dir, "data"))
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ds.map_batches(_CropAugment(stride), batch_size=512,
                   batch_format="pyarrow").write_parquet(data_dir)
    base_ids = storage.read_table(os.path.join(base_dir, "data"),
                                  columns=["image_id"]).to_pandas()
    pairs = crop_truth_pairs(base_ids["image_id"].tolist(), stride)
    storage.write_arrow_table(pa.Table.from_pandas(pairs),
                              os.path.join(out_dir, "truth_pairs"))
    storage.write_manifest(out_dir, {"base": base_dir, "stride": stride,
                                     "stage": "crop_fixture"})


# ---------------------------------------------------------------- video fixture

VIDEO_KINDS = ("unique", "exact", "reenc", "trim", "jitter")


def plan_videos(n_rows: int, seed: int = 42) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Video spec + truth, mirroring ``plan_rows`` for VSQ1 clips.

    spec: video_id, kind, pattern_seed, noise_seed, w, h, n_frames, fps,
          fmt, trim (frames dropped from the head).
    Planted populations: unique 60% | exact dups 14% | re-encode (png->qrgb)
    10% | head-trimmed copies 10% | per-frame pixel-jitter copies 6%.
    truth: video_id, cluster_id (min video_id of the planted cluster).
    """
    rng = np.random.default_rng([seed, 11])
    quotas = {"exact": int(0.14 * n_rows), "reenc": int(0.10 * n_rows),
              "trim": int(0.10 * n_rows), "jitter": int(0.06 * n_rows)}
    rows: list[dict] = []
    cluster_of: list[int] = []
    next_cluster = 0

    def add(kind, ps, ns, w, h, nf, fps, fmt, trim, cluster):
        rows.append(dict(kind=kind, pattern_seed=ps, noise_seed=ns, w=w, h=h,
                         n_frames=nf, fps=fps, fmt=fmt, trim=trim))
        cluster_of.append(cluster)

    def dims():
        return int(rng.integers(40, 65)), int(rng.integers(32, 49))

    for kind, quota in quotas.items():
        made = 0
        while made < quota:
            cl = next_cluster
            next_cluster += 1
            w, h = dims()
            ps = int(rng.integers(1, 2**31))
            nf = int(rng.integers(9, 16))
            size = int(rng.integers(2, 5))
            base_fmt = "png" if kind == "reenc" else _FMTS[int(rng.integers(3))]
            add(kind, ps, 0, w, h, nf, 24, base_fmt, 0, cl)
            made += 1
            for _ in range(size - 1):
                if kind == "exact":
                    add(kind, ps, 0, w, h, nf, 24, base_fmt, 0, cl)
                elif kind == "reenc":
                    add(kind, ps, 0, w, h, nf, 24, "qrgb", 0, cl)
                elif kind == "trim":
                    add(kind, ps, 0, w, h, nf, 24, base_fmt,
                        int(rng.integers(1, 3)), cl)
                else:  # jitter: mild per-frame pixel noise
                    add(kind, ps, int(rng.integers(1, 2**31)), w, h, nf, 24,
                        base_fmt, 0, cl)
                made += 1
    while len(rows) < n_rows:
        w, h = dims()
        add("unique", int(rng.integers(1, 2**31)), 0, w, h,
            int(rng.integers(9, 16)), 24, _FMTS[int(rng.integers(3))], 0,
            next_cluster)
        next_cluster += 1
    rows = rows[:n_rows]
    cluster_of = cluster_of[:n_rows]
    order = rng.permutation(n_rows)
    spec = pd.DataFrame([rows[i] for i in order])
    spec.insert(0, "video_id", [f"v{i:07d}" for i in range(n_rows)])
    clusters = pd.Series([cluster_of[i] for i in order])
    # truth cluster id = min video_id within the planted cluster
    rep = spec.groupby(clusters.values)["video_id"].transform("min")
    truth = pd.DataFrame({"video_id": spec["video_id"], "cluster_id": rep})
    return spec, truth


def render_video_frames(ps: int, w: int, h: int, nf: int,
                        noise_seed: int = 0) -> list[np.ndarray]:
    """Deterministic clip: a seeded low-freq base frame panned 2 px/frame
    (wrap-around), so consecutive frames are near-dups of each other but
    distinct clips are far apart — the same stability argument as
    ``render_pattern`` applied over time."""
    base = render_pattern(ps, w, h)
    frames = [np.roll(base, 2 * i, axis=1) for i in range(nf)]
    if noise_seed:
        frames = [apply_noise(f, noise_seed + i) for i, f in enumerate(frames)]
    return frames


class RenderVideos:
    """map_batches callable: video spec rows -> (video_id, bytes, ...) rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = []
        for r in batch.to_pylist():
            frames = render_video_frames(r["pattern_seed"], r["w"], r["h"],
                                         r["n_frames"], r["noise_seed"])
            payloads.append(C.encode_vseq(frames[r["trim"]:], r["fps"],
                                          r["fmt"]))
        return pa.table({
            "video_id": batch["video_id"],
            "bytes": pa.array(payloads, pa.binary()),
            "n_frames": batch["n_frames"].cast(pa.int64()),
            "fps": batch["fps"].cast(pa.int32()),
            "fmt": batch["fmt"],
        })


def generate_videos(out_dir: str, n_rows: int, seed: int = 42,
                    num_files: int | None = None) -> None:
    """Materialize the video fixture: table at out_dir/data, labels at
    out_dir/truth. Requires an active Ray session; deterministic at any
    parallelism (per-row seeds)."""
    import os

    import ray.data

    from deduplication_ray.sources import storage

    spec, truth = plan_videos(n_rows, seed)
    if num_files is None:
        num_files = max(4, min(64, n_rows // 500))
    ds = ray.data.from_pandas(spec).repartition(num_files)
    ds = ds.map_batches(RenderVideos(), batch_size=128, batch_format="pyarrow")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ds.write_parquet(data_dir)
    storage.write_arrow_table(pa.Table.from_pandas(truth),
                              os.path.join(out_dir, "truth"))
    storage.write_manifest(out_dir, {"n_rows": n_rows, "seed": seed,
                                     "num_files": num_files,
                                     "stage": "video_fixture"})


# ---------------------------------------------------------------- audio fixture

AUDIO_KINDS = ("unique", "exact", "requant", "trim", "jitter", "reverse")
AUDIO_RATE = 16000


def plan_audios(n_rows: int, seed: int = 42,
                with_reverse: bool = False) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Audio spec + truth, mirroring ``plan_videos`` for WAV clips.

    spec: audio_id, kind, pattern_seed, noise_seed, n_samples, bits,
          trim_hops (window/2-sample hops dropped from the head),
          reversed (time-reversed copy flag).
    Planted populations: unique 60% | exact dups 14% | 8-bit requantized
    copies 10% | head-trimmed copies 10% | additive-noise copies 6%
    (+ time-reversed copies 6% when ``with_reverse``, their lengths pinned
    to the hop grid — the ``audio_reverse_channel`` exactness contract).
    truth: audio_id, cluster_id (min audio_id of the planted cluster).
    """
    rng = np.random.default_rng([seed, 12])
    quotas = {"exact": int(0.14 * n_rows), "requant": int(0.10 * n_rows),
              "trim": int(0.10 * n_rows), "jitter": int(0.06 * n_rows)}
    if with_reverse:
        quotas["reverse"] = int(0.06 * n_rows)
    rows: list[dict] = []
    cluster_of: list[int] = []
    next_cluster = 0

    def add(kind, ps, ns, n_samples, bits, trim_hops, cluster, reverse=0,
            chirp=0):
        rows.append(dict(kind=kind, pattern_seed=ps, noise_seed=ns,
                         n_samples=n_samples, bits=bits, trim_hops=trim_hops,
                         reversed=reverse, chirp=chirp))
        cluster_of.append(cluster)

    for kind, quota in quotas.items():
        made = 0
        while made < quota:
            cl = next_cluster
            next_cluster += 1
            ps = int(rng.integers(1, 2**31))
            ns_len = int(rng.integers(13000, 21000))
            chirp = 0
            if kind == "reverse":
                # hop-grid-aligned length: reversal is then EXACT frame-wise.
                # chirp base signal: a time-symmetric (quasi-stationary)
                # clip reads the same both ways, which would make the
                # channel vacuous AND the blindness control meaningless
                ns_len = 1024 + 512 * int(rng.integers(24, 39))
                chirp = 1
            size = int(rng.integers(2, 5))
            add(kind, ps, 0, ns_len, 16, 0, cl, chirp=chirp)
            made += 1
            for _ in range(size - 1):
                if kind == "exact":
                    add(kind, ps, 0, ns_len, 16, 0, cl)
                elif kind == "requant":
                    add(kind, ps, 0, ns_len, 8, 0, cl)
                elif kind == "trim":
                    add(kind, ps, 0, ns_len, 16, int(rng.integers(1, 5)), cl)
                elif kind == "reverse":
                    add(kind, ps, 0, ns_len, 16, 0, cl, reverse=1, chirp=1)
                else:  # jitter: small additive noise on the same signal
                    add(kind, ps, int(rng.integers(1, 2**31)), ns_len, 16, 0, cl)
                made += 1
    while len(rows) < n_rows:
        add("unique", int(rng.integers(1, 2**31)), 0,
            int(rng.integers(13000, 21000)), 16, 0, next_cluster)
        next_cluster += 1
    rows = rows[:n_rows]
    cluster_of = cluster_of[:n_rows]
    order = rng.permutation(n_rows)
    spec = pd.DataFrame([rows[i] for i in order])
    spec.insert(0, "audio_id", [f"a{i:07d}" for i in range(n_rows)])
    clusters = pd.Series([cluster_of[i] for i in order])
    rep = spec.groupby(clusters.values)["audio_id"].transform("min")
    truth = pd.DataFrame({"audio_id": spec["audio_id"], "cluster_id": rep})
    return spec, truth


def render_audio_pcm(ps: int, n_samples: int, noise_seed: int = 0,
                     chirp: bool = False) -> np.ndarray:
    """Deterministic clip: 3 seeded AM-modulated tones over a seeded
    broadband noise floor (the floor is part of the SIGNAL — same seed in
    every copy — so adjacent-band energy signs are deterministic everywhere,
    not noise-dominated in tone-free bands). ``noise_seed`` adds small
    independent noise on top (the "jitter" dup population). ``chirp``
    replaces the tones with rising frequency sweeps — a temporally
    ASYMMETRIC signal (the reverse-channel populations need one: a
    quasi-stationary clip reads the same in both time directions)."""
    r = np.random.default_rng([ps, 13])
    t = np.arange(n_samples) / AUDIO_RATE
    x = np.zeros(n_samples)
    dur = n_samples / AUDIO_RATE
    for _ in range(3):
        f = float(np.exp(r.uniform(np.log(350.0), np.log(3800.0))))
        a = float(r.uniform(0.3, 1.0))
        m = float(r.uniform(2.0, 5.0))
        ph = float(r.uniform(0.0, 2.0 * np.pi))
        if chirp:
            f1 = float(np.exp(r.uniform(np.log(350.0), np.log(3800.0))))
            phase = 2 * np.pi * (f * t + (f1 - f) * t * t / (2.0 * dur))
            x += a * np.sin(phase)
        else:
            x += a * (1.0 + 0.8 * np.sin(2 * np.pi * m * t + ph)) / 2.0 \
                * np.sin(2 * np.pi * f * t)
    x += 0.1 * r.standard_normal(n_samples)
    x = 0.5 * x / np.abs(x).max()
    if noise_seed:
        x = x + 0.005 * np.random.default_rng([noise_seed, 14]).standard_normal(n_samples)
    return x


class RenderAudios:
    """map_batches callable: audio spec rows -> (audio_id, bytes, ...) rows."""

    def __init__(self, hop: int = 512):
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        from deduplication_ray.stages.multimodal import encode_wav

        payloads = []
        for r in batch.to_pylist():
            pcm = render_audio_pcm(r["pattern_seed"], r["n_samples"],
                                   r["noise_seed"], bool(r.get("chirp")))
            pcm = pcm[r["trim_hops"] * self.hop:]
            if r.get("reversed"):
                pcm = pcm[::-1]
            payloads.append(encode_wav(pcm, AUDIO_RATE, r["bits"]))
        return pa.table({
            "audio_id": batch["audio_id"],
            "bytes": pa.array(payloads, pa.binary()),
            "sample_rate": pa.array(np.full(batch.num_rows, AUDIO_RATE, np.int64)),
            "bits": batch["bits"].cast(pa.int32()),
        })


def generate_audios(out_dir: str, n_rows: int, seed: int = 42,
                    num_files: int | None = None, hop: int = 512,
                    with_reverse: bool = False) -> None:
    """Materialize the audio fixture: table at out_dir/data, labels at
    out_dir/truth. Requires an active Ray session; deterministic at any
    parallelism (per-row seeds). ``hop`` must equal audio_window // 2 of the
    config under test (trim offsets are planted grid-aligned)."""
    import os

    import ray.data

    from deduplication_ray.sources import storage

    spec, truth = plan_audios(n_rows, seed, with_reverse=with_reverse)
    if num_files is None:
        num_files = max(4, min(64, n_rows // 500))
    ds = ray.data.from_pandas(spec).repartition(num_files)
    ds = ds.map_batches(RenderAudios(hop), batch_size=128, batch_format="pyarrow")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ds.write_parquet(data_dir)
    storage.write_arrow_table(pa.Table.from_pandas(truth),
                              os.path.join(out_dir, "truth"))
    storage.write_manifest(out_dir, {"n_rows": n_rows, "seed": seed,
                                     "num_files": num_files,
                                     "stage": "audio_fixture"})


# --------------------------------------------------- text fixture (planted)

def plan_text_rows(n_rows: int, seed: int = 42) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Deterministic text corpus with PLANTED duplicate structure, the text
    engine's analog of ``plan_rows``: unique ~60% | exact dup clusters (2-4)
    ~15% | near-dups (3 word substitutions in ~100 words; char-5-gram
    Jaccard ~0.9, far above ``jaccard_tau=0.5``) ~15% | substring dups
    (40-word verbatim excerpt >= ``substring_min_len`` chars embedded in
    fresh text) ~10%. Returns (docs(doc_id, text), truth(doc_id,
    cluster_id)); min-id representative convention matches the engine."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(4000)])

    def words(k: int) -> np.ndarray:
        return vocab[rng.integers(0, len(vocab), k)]

    ids, texts, t_ids, t_cl = [], [], [], []
    counter = 0

    def add(word_arr, cluster_root=None) -> str:
        nonlocal counter
        did = f"doc_{counter:08d}"
        counter += 1
        ids.append(did)
        texts.append(" ".join(word_arr.tolist()))
        t_ids.append(did)
        t_cl.append(cluster_root if cluster_root is not None else did)
        return did

    n_exact = int(0.15 * n_rows)
    n_near = int(0.15 * n_rows)
    n_substr = int(0.10 * n_rows)

    made = 0
    while made < n_exact:
        size = int(rng.integers(2, 5))
        base = words(int(rng.integers(60, 140)))
        root = add(base)
        for _ in range(min(size - 1, n_exact - made - 1)):
            add(base, root)
        made += size

    made = 0
    while made < n_near:
        base = words(int(rng.integers(80, 130)))
        root = add(base)
        var = base.copy()
        pos = rng.choice(len(var), size=3, replace=False)
        var[pos] = words(3)
        add(var, root)
        made += 2

    made = 0
    while made < n_substr:
        base = words(int(rng.integers(80, 130)))
        root = add(base)
        lo = int(rng.integers(0, len(base) - 40))
        excerpt = base[lo:lo + 40]
        host = words(80)
        at = int(rng.integers(0, len(host)))
        emb = np.concatenate([host[:at], excerpt, host[at:]])
        add(emb, root)
        made += 2

    while counter < n_rows:
        add(words(int(rng.integers(60, 140))))

    docs = pd.DataFrame({"doc_id": ids, "text": texts})
    truth = pd.DataFrame({"doc_id": t_ids, "cluster_id": t_cl})
    return docs, truth


def generate_text(out_dir: str, n_rows: int, seed: int = 42,
                  num_files: int = 16) -> None:
    """Materialize the planted text fixture: docs at ``out_dir``/data,
    labels at ``out_dir``/truth (driver-side — text rendering is cheap).
    Docs are sharded over ``num_files`` parquet files so Ray's read (and
    the fused signature stage) parallelizes — a single-file table capped
    the signature stage at the file's row-group count regardless of
    session CPUs."""
    import os

    from deduplication_ray.sources import storage

    docs, truth = plan_text_rows(n_rows, seed)
    os.makedirs(os.path.join(out_dir, "data"), exist_ok=True)
    dt = pa.Table.from_pandas(docs, preserve_index=False)
    shards = max(1, min(num_files, dt.num_rows))
    step = (dt.num_rows + shards - 1) // shards
    written = 0
    for i in range(shards):
        part = dt.slice(i * step, step)
        if part.num_rows:
            storage.write_arrow_table(
                part, os.path.join(out_dir, "data"),
                filename=f"part-{i}.parquet")
            written += 1
    storage.write_arrow_table(pa.Table.from_pandas(truth, preserve_index=False),
                              os.path.join(out_dir, "truth"))
    # record the shard count actually on disk (ceil-division can leave the
    # tail slices empty, e.g. n_rows=5 / shards=4 writes 3 files)
    storage.write_manifest(out_dir, {"n_rows": n_rows, "seed": seed,
                                     "num_files": written,
                                     "stage": "text_fixture"})
