"""600k-row flagship pin over a fixture with ~25% REAL baseline-JPEG
payloads (the bench fixture recipe at 10x rows): evidence that the
realistic-decode path holds quality and throughput at scale, not just at
the 60k headline size.

Usage:  RAY_GRAFT_CPUS=32 python bench/jpg600k_run.py
Writes: prints ONE JSON line (redirect into BENCH/jpg600k_pin.json).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("JPG_PIN_ROWS", "600000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42
FMTS = ("raw", "png", "qrgb", "jpg")


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

    fix = f"/tmp/dedup_ray_jpgfix_{SEED}_{ROWS}"
    m = storage.read_manifest(fix)
    if not (m and m.get("n_rows") == ROWS
            and tuple(m.get("fmts") or ()) == FMTS):
        shutil.rmtree(fix, ignore_errors=True)
        t0 = time.time()
        fixtures.generate(fix, ROWS, seed=SEED, num_files=64, fmts=FMTS)
        print(f"fixture: {time.time() - t0:.0f}s", file=sys.stderr)

    run_dir = f"/tmp/dedup_ray_jpgrun_{NUM_CPUS}"
    shutil.rmtree(run_dir, ignore_errors=True)
    storage.read_table(f"{fix}/data").count()  # warm page cache
    cfg = DedupConfig(num_partitions=max(8, NUM_CPUS))
    with bench.PeakPssSampler() as pss, bench.CpuCounters() as cpu:
        t0 = time.time()
        metrics = image_dedup.run_pipeline(f"{fix}/data", run_dir, cfg)
        wall = time.time() - t0

    pred = storage.read_table(f"{run_dir}/clusters").to_pandas()
    truth = storage.read_table(f"{fix}/truth").to_pandas()
    pm = pair_metrics(pred, truth)
    out = {
        "metric": "600k flagship over ~25%-jpg fixture",
        "img_rows": ROWS,
        "num_cpus": NUM_CPUS,
        "wall_sec": round(wall, 1),
        "images_per_sec": round(ROWS / wall, 1),
        "stage_seconds": metrics["stage_seconds"],
        "rows": metrics["rows"],
        "peak_pss_mb": round(pss.peak_kb / 1024, 1),
        "busy_cores": cpu.busy_cores,
        "recall": round(pm["recall"], 5),
        "precision": round(pm["precision"], 5),
        "truth_pairs": int(pm["truth_pairs"]),
        **bench.host_health_probe(),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
