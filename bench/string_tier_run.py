"""Broadcast vs hash-join resolve tier, exercised END-TO-END on the
flagship. Every engine turns bucket rows into edges one way: slim id-hash
pairs -> pair dedupe -> ``verify.resolve_and_verify_pairs``, which resolves
both pair endpoints against the signature table by a broadcast gather
inside the broadcast tier (``join.broadcast_ok``) and by two shuffle joins
(``join.shuffle_join``) on the id hash above it. Benches and pins run the
broadcast gather; the 10^12-row story rests on the join tier. This script
runs the SAME planted
flagship twice — default config (broadcast gather) and
``broadcast_limit=0`` (every lookup and the resolve forced onto the join
tier) — asserts the cluster outputs are IDENTICAL row-for-row, and records
both legs' wall times and throughputs.

Usage:  STRING_TIER_ROWS=60000 RAY_GRAFT_CPUS=4 python bench/string_tier_run.py
        (rows default to 600000, CPUs to 32)
Writes: prints ONE JSON line (redirect into BENCH/join_tier_<rows>.json).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("STRING_TIER_ROWS", "600000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import dataclasses

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.sources import fixtures, storage

    fix = f"/tmp/dedup_ray_stringfix_{SEED}_{ROWS}"
    m = storage.read_manifest(fix)
    if not (m and m.get("n_rows") == ROWS):
        shutil.rmtree(fix, ignore_errors=True)
        t0 = time.time()
        fixtures.generate(fix, ROWS, seed=SEED, num_files=64)
        print(f"fixture: {time.time() - t0:.0f}s", file=sys.stderr)

    base_cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
    legs = {}
    preds = {}
    for name, cfg in (
        ("broadcast", base_cfg),
        # broadcast_limit=0: DeferredSignatureIndex ineligible -> the same
        # slim pairs resolved by two hash joins on the id hash, then the
        # same verify — the exact plan the 10^12-row tier would run
        ("join_tier", dataclasses.replace(base_cfg, broadcast_limit=0)),
    ):
        run_dir = f"/tmp/dedup_ray_stringrun_{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.time()
        metrics = image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
        wall = time.time() - t0
        pred = storage.read_table(f"{run_dir}/clusters").to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        preds[name] = pred
        truth = storage.read_table(f"{fix}/truth").to_pandas()
        pm = pair_metrics(pred, truth)
        legs[name] = {
            "wall_sec": round(wall, 1),
            "images_per_sec": round(ROWS / wall, 1),
            "stage_seconds": metrics["stage_seconds"],
            "verified_edges": metrics["rows"].get("verified_edges"),
            "recall": round(pm["recall"], 5),
            "precision": round(pm["precision"], 5),
        }
        print(f"{name}: {legs[name]}", file=sys.stderr)

    a, b = preds["broadcast"], preds["join_tier"]
    identical = bool((a["image_id"].equals(b["image_id"]))
                     and (a["cluster_id"].equals(b["cluster_id"])))
    out = {
        "metric": "broadcast vs forced join-tier flagship (cluster parity)",
        "rows": ROWS,
        "num_cpus": NUM_CPUS,
        "clusters_identical": identical,
        **{f"{k}_{n}": v for n, leg in legs.items() for k, v in leg.items()},
    }
    print(json.dumps(out))
    if not identical:
        diff = (a["cluster_id"] != b["cluster_id"]).sum()
        print(f"MISMATCH: {diff} rows differ", file=sys.stderr)
        sys.exit(1)
    ray.shutdown()


if __name__ == "__main__":
    main()
