"""Session-scoped Ray fixture (ONE init per pytest session) + shared fixtures."""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY_ROWS = 800
FIXTURE_DIR = "/tmp/dedup_ray_test_fixture"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_fixture(ray_session):
    """Deterministic 800-row image+caption fixture (generated once)."""
    from deduplication_ray.sources import fixtures, storage

    manifest = storage.read_manifest(FIXTURE_DIR)
    if not (manifest and manifest.get("n_rows") == TINY_ROWS):
        shutil.rmtree(FIXTURE_DIR, ignore_errors=True)
        fixtures.generate(FIXTURE_DIR, TINY_ROWS, seed=42)
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def tiny_run(ray_session, tiny_fixture):
    """Full pipeline run over the tiny fixture (executed once per session)."""
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup

    run_dir = "/tmp/dedup_ray_test_run"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = DedupConfig(num_partitions=4)
    metrics = image_dedup.run_pipeline(f"{tiny_fixture}/data", run_dir, cfg)
    return run_dir, cfg, metrics


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the enclosed block with TimeoutError after ``seconds`` (SIGALRM;
    main thread only) — a stalled Ray plan fails the test instead of
    hanging the session."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"exceeded {seconds}s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def fuzz_blocks(rng, t):
    """Split a pa.Table into 1-4 random block slices (fuzz helper shared by
    the differential join/reduce tests — multi-block inputs make bucketing
    cross block boundaries)."""
    import pyarrow as pa

    import ray

    if t.num_rows == 0:
        return ray.data.from_arrow(t)
    k = int(rng.integers(1, 5))
    cuts = sorted(rng.integers(0, t.num_rows + 1, k - 1).tolist())
    cuts = [0] + cuts + [t.num_rows]
    return ray.data.from_arrow(
        [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])


def fuzz_canon(t, names=None) -> list[tuple]:
    """Order-insensitive canonical rows of a pa.Table (None sorts first)."""
    names = sorted(t.column_names) if names is None else names
    rows = [tuple(d[c] for c in names) for d in t.select(names).to_pylist()]
    return sorted(rows, key=lambda r: tuple((v is None, v) for v in r))


def fuzz_collect(ds):
    """Concatenated non-empty result blocks of a Dataset, or None if the
    result is empty (empty blocks may carry a degenerate schema). The plan
    is materialized first: on a lazy plan ``to_arrow_refs`` asks for the
    schema after the run, which re-runs the plan up to its first block and
    then cancels the rest of its tasks."""
    import pyarrow as pa

    import ray

    tables = [t for t in (ray.get(r)
                          for r in ds.materialize().to_arrow_refs())
              if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def load_parquet_dir(d: str):
    import glob

    import pyarrow.dataset as pads

    files = sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))
    return pads.dataset(files).to_table().to_pandas()


def unconnected_pairs(pairs, want) -> list:
    """The pairs of ``want`` whose endpoints no path of ``pairs`` joins."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [(a, b) for a, b in want if find(a) != find(b)]
