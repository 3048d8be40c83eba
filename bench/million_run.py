"""One-shot 1M-row flagship pin: wall, per-stage seconds, peak PSS, and
recall/precision vs planted truth at 1,000,000 image+caption rows — the
committed evidence that the quality story measured at 150k holds two
orders of magnitude above the tiny fixtures (verdict r3 item 7).

Usage:  RAY_GRAFT_CPUS=32 python bench/million_run.py
Writes: prints ONE JSON line (redirect into BENCH/million_row_pin.json).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("MILLION_ROWS", "1000000"))
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

    import bench
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.pipelines import image_dedup
    from deduplication_ray.pipelines.evaluate import pair_metrics
    from deduplication_ray.sources import fixtures, storage

    fix = f"/tmp/dedup_ray_millionfix_{SEED}_{ROWS}"
    m = storage.read_manifest(fix)
    if not (m and m.get("n_rows") == ROWS):
        shutil.rmtree(fix, ignore_errors=True)
        t0 = time.time()
        fixtures.generate(fix, ROWS, seed=SEED, num_files=128)
        print(f"fixture: {time.time() - t0:.0f}s", file=sys.stderr)

    run_dir = f"/tmp/dedup_ray_millionrun_{NUM_CPUS}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # MILLION_PARTS: partitioning override for scaling-protocol runs — the
    # narrow legs (1/4 CPUs) default to 8 partitions, whose coarse tasks
    # leave packing idle in barrier tails; the protocol requires the SAME
    # value on both legs of a comparison
    n_parts = int(os.environ.get("MILLION_PARTS", max(8, NUM_CPUS)))
    cfg = DedupConfig(num_partitions=n_parts)
    with bench.PeakPssSampler() as pss, bench.CpuCounters() as cpu:
        t0 = time.time()
        metrics = image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
        wall = time.time() - t0

    pred = storage.read_table(f"{run_dir}/clusters").to_pandas()
    truth = storage.read_table(f"{fix}/truth").to_pandas()
    pm = pair_metrics(pred, truth)
    out = {
        "metric": "1M-row flagship pin (image dedup end-to-end)",
        "img_rows": ROWS,
        "num_cpus": NUM_CPUS,
        "wall_sec": round(wall, 1),
        "images_per_sec": round(ROWS / wall, 1),
        "stage_seconds": {k: round(v, 2)
                          for k, v in metrics["stage_seconds"].items()},
        "rows": metrics["rows"],
        "peak_pss_mb": round(pss.peak_kb / 1024, 1),
        "busy_cores": cpu.busy_cores,
        "recall": round(pm["recall"], 5),
        "precision": round(pm["precision"], 5),
        "truth_pairs": pm["truth_pairs"],
        "pred_pairs": pm["pred_pairs"],
        **bench.host_health_probe(),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
