"""Reference-conformant exact-block dedup: binary stream framing + DDP1
container (SURVEY §2.1 R3-R5, R10-R15; FIXTURES.md §1 conformance contract).

Reproduces, bit-for-bit, what ``dedup_bin c/d`` computes
(``/root/reference/src/compressor.c``) — but as a Ray Data pipeline, not a
sequential loop:

* framing: ``total_samples = nbytes // width`` (``compressor.c:68``), blocks
  of ``block_size`` samples, tail dropped with a warning (``:85-93``)
* dedup: the reference assigns dictionary ids in FIRST-OCCURRENCE order over
  a sequential scan (``:105-114``). The parallel-deterministic equivalent:
  group blocks by content, take min(block_idx) per group, sort groups by that
  first occurrence — the rank IS the reference's id. (Verified against the
  compiled C binary in tests/test_conformance.py.)
* container: DDP1 layout per the spec comment at ``compressor.c:30-39``
  (magic 'DDP1', u32 LE sample_count/block_size/…, dict payload, id stream).

File sizes here are tiny (the reference slurps whole files, ``bin_io.c:5-52``)
but the pipeline is written over Datasets so the same code shards a 100 TB
binary corpus: framing is a ``map_batches`` over (offset, chunk) rows and the
first-occurrence election is the same groupby-min used everywhere else.
"""

from __future__ import annotations

import struct
import sys

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Min

from deduplication_ray.functions import hashing as H

MAGIC = b"DDP1"
VALID_WIDTHS = (1, 2, 4, 8)


def frame_blocks(data: bytes, width: int, block_size: int) -> tuple[np.ndarray, int]:
    """bytes -> (num_blocks, block_bytes) uint8 matrix + used_samples.

    Mirrors compressor.c:46-93 incl. validation and tail truncation."""
    if width not in VALID_WIDTHS:
        raise ValueError(f"width must be one of {VALID_WIDTHS}")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if len(data) < width:
        raise ValueError("input smaller than one sample")
    total_samples = len(data) // width
    num_blocks = total_samples // block_size
    used_samples = num_blocks * block_size
    if used_samples < total_samples:
        print(
            f"warning: dropping tail of {total_samples - used_samples} samples "
            f"(not a whole block)", file=sys.stderr,
        )
    bb = block_size * width
    arr = np.frombuffer(data, dtype=np.uint8, count=num_blocks * bb)
    return arr.reshape(num_blocks, bb), used_samples


def blocks_to_dataset(blocks: np.ndarray, shard_rows: int = 65536) -> ray.data.Dataset:
    """(n, bb) uint8 -> Dataset(block_idx: int64, key1: i64, key2: i64).

    Content is reduced to a 128-bit key up front (two independent u64 mixes)
    so the shuffle moves 16 bytes/block, not the payload — the same
    wide-row discipline as the image pipeline."""
    n, bb = blocks.shape
    with np.errstate(over="ignore"):
        base = _block_hashes(blocks)
        alt = H.splitmix64(base ^ np.uint64(0xDEADBEEFCAFEF00D))
    tables = []
    for s in range(0, max(n, 1), shard_rows):
        e = min(s + shard_rows, n)
        tables.append(pa.table({
            "block_idx": np.arange(s, e, dtype=np.int64),
            "key1": H.bitcast_u64_to_i64(base[s:e]),
            "key2": H.bitcast_u64_to_i64(alt[s:e]),
        }))
    return ray.data.from_arrow(tables)


def _block_hashes(blocks: np.ndarray) -> np.ndarray:
    """Per-row content hash of a (n, bb) uint8 matrix, vectorized."""
    n, bb = blocks.shape
    with np.errstate(over="ignore"):
        pos = H.splitmix64(np.arange(bb, dtype=np.uint64))
        acc = (blocks.astype(np.uint64) + np.uint64(1)) * pos[None, :]
        seg = acc.sum(axis=1, dtype=np.uint64) + np.uint64(bb) * H._MIX1
    return H.splitmix64(seg)


LOCAL_ENCODE_MAX_BLOCKS = 4_000_000


def dedup_encode(
    blocks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence dedup -> (dict_order_block_idx, block_ids).

    Size-dispatched like every lookup in this engine: inputs small enough for
    one worker (<= LOCAL_ENCODE_MAX_BLOCKS) run a vectorized local path —
    np.unique + first-occurrence ranking, O(n log n), which beats the
    reference's O(n * dict_size) memcmp scan (``dictionary.c:49-59``) by
    orders of magnitude on its own corpus. Larger inputs run the distributed
    plan: groupby(key) -> min(block_idx) -> first-occurrence rank -> broadcast
    ids back.
    """
    if len(blocks) <= LOCAL_ENCODE_MAX_BLOCKS:
        return _dedup_encode_local(blocks)
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages.join import lookup_join

    ds = blocks_to_dataset(blocks)
    firsts = ds.groupby(["key1", "key2"]).aggregate(
        Min("block_idx", alias_name="first_idx")
    )
    # ranks: dictionary ids are first-occurrence ranks; the dictionary is
    # small by construction (that's why dedup compresses), so rank on driver
    fdf = firsts.to_pandas().sort_values("first_idx").reset_index(drop=True)
    fdf["id"] = np.arange(len(fdf), dtype=np.int64)

    # ids attach by the broadcast probe on the exact (key1, key2) pair;
    # then a DISTRIBUTED sort by stream position streams the id sequence
    # out in order — the caller never materializes the assignment table, it
    # only concatenates already-sorted id batches (4 bytes/block) for the
    # sequential container write
    assigned = lookup_join(ds, fdf[["key1", "key2", "id"]],
                           on=["key1", "key2"], cfg=DedupConfig()) \
        .select_columns(["block_idx", "id"]).sort("block_idx")
    parts = [b["id"].to_numpy()
             for b in assigned.iter_batches(batch_format="pyarrow")]
    block_ids = (np.concatenate(parts) if parts
                 else np.empty(0, dtype=np.int64))
    dict_block_idx = fdf["first_idx"].to_numpy()
    return dict_block_idx, block_ids


def _dedup_encode_local(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized single-node first-occurrence dedup over raw block content
    (exact — no hashing): np.unique on a void view of the rows."""
    n, bb = blocks.shape
    void = np.ascontiguousarray(blocks).view([("v", f"V{bb}")]).ravel()
    _, first_idx, inverse = np.unique(void, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[order] = np.arange(len(first_idx), dtype=np.int64)
    return first_idx[order], rank[inverse]


def compress_bytes(data: bytes, width: int, block_size: int) -> tuple[bytes, dict]:
    """Full compress path -> (ddp1_bytes, summary counters).

    Summary mirrors compressor.c:202-204: used_samples, block_size, dict_size,
    num_blocks."""
    blocks, used_samples = frame_blocks(data, width, block_size)
    num_blocks = len(blocks)
    if num_blocks == 0:
        dict_idx = np.empty(0, dtype=np.int64)
        block_ids = np.empty(0, dtype=np.int64)
    else:
        dict_idx, block_ids = dedup_encode(blocks)
    dict_payload = blocks[dict_idx].tobytes() if num_blocks else b""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", used_samples, block_size)      # compressor.c:140-141
    out += struct.pack("<B3x", width)                        # compressor.c:150-155
    out += struct.pack("<II", len(dict_idx), num_blocks)     # compressor.c:164-165
    out += dict_payload                                      # compressor.c:174-184
    out += block_ids.astype("<u4").tobytes()                 # compressor.c:186-195
    summary = {
        "used_samples": used_samples,
        "block_size_samples": block_size,
        "dict_size": len(dict_idx),
        "num_blocks": num_blocks,
    }
    return bytes(out), summary


def decompress_bytes(ddp: bytes, max_output_bytes: int | None = None) -> bytes:
    """Decompress path (compressor.c:212-341): header parse + validation,
    dictionary rebuild, bounds-checked gather, final clamp.

    ``max_output_bytes`` guards against CRAFTED headers whose gather
    product (num_blocks x block bytes) is astronomically larger than the
    container — a resource-exhaustion vector the payload-length check
    cannot catch, because a LEGITIMATE high-ratio container (one dict
    block referenced millions of times) also expands far beyond its own
    size. Default None preserves unlimited legitimate expansion; callers
    decoding untrusted bytes should pass a budget."""
    if len(ddp) < 24:
        raise ValueError("truncated DDP1 header")
    if ddp[:4] != MAGIC:
        raise ValueError("bad magic: not a DDP1 container")
    sample_count, block_size = struct.unpack_from("<II", ddp, 4)
    (width,) = struct.unpack_from("<B", ddp, 12)
    if width not in VALID_WIDTHS:
        raise ValueError(f"invalid width {width}")
    dict_size, num_blocks = struct.unpack_from("<II", ddp, 16)
    bb = block_size * width
    if bb <= 0:
        raise ValueError("invalid block size")
    off = 24
    if len(ddp) - off < dict_size * bb + num_blocks * 4:
        raise ValueError("container shorter than header promises")
    if max_output_bytes is not None and num_blocks * bb > max_output_bytes:
        raise ValueError(
            f"decoded size {num_blocks * bb} exceeds the "
            f"{max_output_bytes}-byte budget")
    dict_payload = np.frombuffer(ddp, dtype=np.uint8, count=dict_size * bb, offset=off)
    dictionary = dict_payload.reshape(dict_size, bb)
    off += dict_size * bb
    ids = np.frombuffer(ddp, dtype="<u4", count=num_blocks, offset=off).astype(np.int64)
    if len(ids) and (ids.max(initial=0) >= dict_size):
        raise ValueError("block id out of dictionary range")  # compressor.c:323-329
    out = dictionary[ids].reshape(-1)  # the gather, vectorized (cf. :331-339)
    total_bytes = sample_count * width
    if total_bytes > out.size:
        # a valid compressor never promises more samples than blocks carry
        # (tail truncation only ever SHRINKS, compressor.c:68-93) — a larger
        # count is header corruption, not a short write
        raise ValueError("sample count exceeds block payload")
    return out[:total_bytes].tobytes()  # final clamp (compressor.c:332-338)


def compress_file(in_path: str, out_path: str, width: int, block_size: int) -> dict:
    with open(in_path, "rb") as f:
        data = f.read()
    ddp, summary = compress_bytes(data, width, block_size)
    with open(out_path, "wb") as f:
        f.write(ddp)
    return summary


def decompress_file(in_path: str, out_path: str) -> None:
    with open(in_path, "rb") as f:
        ddp = f.read()
    with open(out_path, "wb") as f:
        f.write(decompress_bytes(ddp))
