"""Ray Data execution tuning applied by pipeline entry points.

* ``apply_context_tuning`` makes ``fsspec``'s HTTP filesystem import safe
  under concurrent path resolution (see ``_stub_fsspec_http``). The
  package's shuffles all run on the default sort shuffle, so no
  ``DataContext`` setting is changed.
* Shuffle parallelism follows the INPUT block count: a groupby over a
  2-block dataset runs 2 reducers no matter how many CPUs exist (observed
  14.7s vs 3.2s after repartition(32) on identical data). ``ensure_blocks``
  repartitions shuffle inputs to >= the configured partition count.
"""

from __future__ import annotations

import ray.data


def apply_context_tuning() -> None:
    _stub_fsspec_http()


def _stub_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` importable even without aiohttp.

    Ray's path resolution lazily does ``from fsspec.implementations.http
    import HTTPFileSystem`` guarded by ``except ModuleNotFoundError`` — but
    when several THREADS trigger that import concurrently (parallel shard
    groups), losers observe the partially-initialized module and get a bare
    ``ImportError`` that escapes Ray's guard. Installing a stub module with a
    never-matching HTTPFileSystem class removes the race (this sandbox has no
    aiohttp and no network; HTTP filesystems are unreachable anyway).
    """
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        mod = types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:  # isinstance() against this never matches
            pass

        mod.HTTPFileSystem = _NoHTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except Exception:
        pass


def ensure_blocks(ds: ray.data.Dataset, num_blocks: int) -> ray.data.Dataset:
    """Repartition so downstream all-to-all operators get EXACTLY
    ``num_blocks`` reducers — splitting few-block inputs for parallelism
    AND coalescing many-small-block inputs so the shuffle pays
    per-partition cost ``num_blocks`` times, not once per tiny block
    (skipping the coalesce when blocks >= target measured +9 s on the
    image bucket shuffle at 150k rows / 32 CPUs). Exact-count contract:
    callers pass ``cfg.num_partitions``, which is the ONE partitioning
    degree reused across every shuffle of a run — a session with more
    CPUs than ``num_partitions`` should raise the config knob, not expect
    this helper to preserve a larger upstream block count. Materializes
    first: repartitioning the LAZY stream re-plans the whole upstream DAG
    into the exchange, which measured ~1.8 s slower than
    materialize-then-slice on a 36M-row bucket stream."""
    ds = ds.materialize()
    if ds.num_blocks() == num_blocks:
        return ds
    # the coalesce is load-bearing at every measured size: skipping it when
    # blocks were "close enough" (within 8x) cost +10.6s on the 600k-row
    # edge stage at 32 CPUs — the partial-agg stats pass compresses far
    # better over few large blocks than many small ones
    return ds.repartition(num_blocks)
