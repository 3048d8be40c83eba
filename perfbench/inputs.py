"""Benchmark inputs, generated from a seed by one process (no Ray) and
cached under the work directory by (kind, seed, rows).

A cached input is reused only when its manifest matches the request and
the number of data files on disk equals the number the manifest says were
written, so a half-written or older input is regenerated.
"""

from __future__ import annotations

import json
import os
import shutil

IMG_FMTS = ("raw", "png", "qrgb", "jpg")  # about a quarter real JPEG
IMG_FILES = 4
TEXT_FILES = 4
INGEST_EVERY = 6  # every 6th row is the delta, as in tests/test_incremental.py
MANIFEST = "inputs.json"


def _data_files(d: str) -> int:
    if not os.path.isdir(d):
        return 0
    return sum(1 for f in os.listdir(d) if f.endswith(".parquet"))


def _cached(d: str, want: dict) -> bool:
    try:
        with open(os.path.join(d, MANIFEST)) as f:
            m = json.load(f)
    except (OSError, ValueError):
        return False
    if any(m.get(k) != v for k, v in want.items()):
        return False
    return all(_data_files(os.path.join(d, sub)) == n
               for sub, n in m["files"].items())


def _commit(d: str, want: dict) -> None:
    files = {sub: _data_files(os.path.join(d, sub))
             for sub in sorted(os.listdir(d))
             if os.path.isdir(os.path.join(d, sub))}
    with open(os.path.join(d, MANIFEST), "w") as f:
        json.dump({**want, "files": files}, f, sort_keys=True)


def _write_shards(table, d: str, parts: int) -> None:
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    step = max(1, -(-table.num_rows // parts))
    for i in range(parts):
        part = table.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(d, f"part-{i}.parquet"))


def image_table(work: str, seed: int, rows: int) -> str:
    """Planted image+caption table (exact, re-encoded, near-image,
    near-caption, substring and hot populations) at ``<dir>/data``, planted
    clusters at ``<dir>/truth``."""
    import pyarrow as pa

    from deduplication_ray.sources import fixtures

    d = os.path.join(work, "inputs", f"img_s{seed}_n{rows}")
    want = {"kind": "img", "seed": seed, "rows": rows, "fmts": list(IMG_FMTS)}
    if _cached(d, want):
        return d
    shutil.rmtree(d, ignore_errors=True)
    spec, truth = fixtures.plan_rows(rows, seed, fmts=IMG_FMTS)
    render = fixtures.RenderImages()
    spec_t = pa.Table.from_pandas(spec, preserve_index=False)
    rendered = pa.concat_tables(
        [render(spec_t.slice(i, 256)) for i in range(0, spec_t.num_rows, 256)])
    _write_shards(rendered, os.path.join(d, "data"), IMG_FILES)
    _write_shards(pa.Table.from_pandas(truth, preserve_index=False),
                  os.path.join(d, "truth"), 1)
    _commit(d, want)
    return d


def text_table(work: str, seed: int, rows: int) -> str:
    """Planted text corpus (exact, near and substring duplicates) at
    ``<dir>/data`` with its truth at ``<dir>/truth``."""
    from deduplication_ray.sources import fixtures

    d = os.path.join(work, "inputs", f"text_s{seed}_n{rows}")
    want = {"kind": "text", "seed": seed, "rows": rows}
    if _cached(d, want):
        return d
    shutil.rmtree(d, ignore_errors=True)
    fixtures.generate_text(d, rows, seed=seed, num_files=TEXT_FILES)
    _commit(d, want)
    return d


def ingest_split(work: str, source: str, tag: str) -> str:
    """Split a generated table into ``base`` (5 of 6 rows) and ``delta``
    (every 6th row) directories."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    d = os.path.join(work, "inputs", f"{tag}_split")
    want = {"kind": "split", "source": os.path.basename(source)}
    if _cached(d, want):
        return d
    shutil.rmtree(d, ignore_errors=True)
    tbl = pads.dataset(os.path.join(source, "data"), format="parquet").to_table()
    tbl = tbl.sort_by(tbl.column_names[0])
    idx = pa.array([i % INGEST_EVERY == 0 for i in range(tbl.num_rows)])
    _write_shards(tbl.filter(pa.compute.invert(idx)),
                  os.path.join(d, "base"), 4)
    _write_shards(tbl.filter(idx), os.path.join(d, "delta"), 2)
    _commit(d, want)
    return d


def read_dir(d: str):
    """Every parquet file under ``d`` as one pandas frame."""
    import pyarrow.dataset as pads

    files = sorted(os.path.join(d, f) for f in os.listdir(d)
                   if f.endswith(".parquet"))
    return pads.dataset(files, format="parquet").to_table().to_pandas()
