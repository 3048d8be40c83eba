"""Per-stage wall profile of the text engine at one CPU width — the FUSED
slim-pair path, i.e. the plan `text_dedup_clusters` actually executes
(`incremental.engine_kit`'s `edges` in the broadcast tier), with the slim-pair chain broken
at its barriers. Each stage is materialized with a wall timer in plan
order, in a fresh Ray session at ``RAY_GRAFT_CPUS``.

Earlier rounds profiled the pre-fuse STRING path (kept in
BENCH/text_stage_profile_{8,32}cpu_prefuse.json for the before/after
comparison); this version matches production so stage ratios can be read
against the e2e 8v32 number.

Usage:   taskset -c 0-7 RAY_GRAFT_CPUS=8 python bench/text_stage_profile.py
Prints:  ONE JSON line {stage: sec, ...}.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "8"))


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import bench
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines.text_dedup import (as_engine_table,
                                                        text_signatures)
    from deduplication_ray.sources import storage
    from deduplication_ray.stages import lsh, verify
    from deduplication_ray.stages.substring import substring_buckets
    from deduplication_ray.stages.tuning import (apply_context_tuning,
                                                 ensure_blocks)
    from deduplication_ray.state import unionfind

    apply_context_tuning()
    fix = bench.ensure_text_fixture()
    storage.read_table(f"{fix}/data").count()  # warm page cache
    cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))

    t: dict[str, float] = {}

    def stage(name: str, fn):
        t0 = time.time()
        out = fn()
        t[name] = round(time.time() - t0, 2)
        print(f"{name}: {t[name]}s", file=sys.stderr)
        return out

    ds = storage.read_table(f"{fix}/data", columns=["doc_id", "text"])
    caps = stage("canon_caps", lambda: as_engine_table(ds).materialize())
    sigs = stage("signatures", lambda: text_signatures(
        caps, cfg, id_col="image_id", text_col="caption").materialize())
    deferred = verify.DeferredSignatureIndex(sigs, cfg)
    assert deferred.eligible, "corpus exceeds the broadcast tier"
    buckets = stage("buckets", lambda: sigs.map_batches(
        lsh.ExplodeBands(cfg, families=("minhash", "exact")),
        batch_format="pyarrow", batch_size=cfg.text_batch_size).union(
            substring_buckets(caps, cfg)).materialize())
    # the slim-pair chain at its barriers (production runs
    # slim_pairs_from_buckets + dedupe_slim_pairs)
    b2 = stage("ensure_blocks", lambda: ensure_blocks(
        buckets, cfg.num_partitions).materialize())
    pairs = stage("pair_exchange",
                  lambda: lsh.slim_pairs_from_buckets(b2, cfg))
    ve = stage("dedupe_resolve_verify", lambda: verify.
               resolve_and_verify_pairs(
                   lsh.dedupe_slim_pairs(pairs, cfg), deferred.get(), cfg,
                   has_pixels=False).materialize())
    stage("unionfind", lambda: unionfind.connected_components(
        ve.map_batches(lambda b: b.select(["src", "dst", "kind"]),
                       batch_format="pyarrow"), cfg).materialize())
    out = {
        "num_cpus": NUM_CPUS,
        "rows": ds.count(),
        "edges": ve.count(),
        "total": round(sum(t.values()), 2),
        **t,
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
