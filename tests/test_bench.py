"""The bench harness's own measurements."""

import os
import time


def test_peak_pss_sampler_within_physical_ram(ray_session):
    """Summed PSS of the driver and the session's Ray processes cannot
    exceed the host's RAM (summed RSS could: every worker counted the
    shared object-store pages again)."""
    import bench

    with open("/proc/meminfo") as f:
        mem_total_kb = next(int(line.split()[1]) for line in f
                            if line.startswith("MemTotal:"))
    with bench.PeakPss(os.getpid(), interval=0.1) as pss:
        time.sleep(0.5)
    assert 0 < pss.peak_mb * 1024 <= mem_total_kb


def test_image_case_join_tier_parity(ray_session, monkeypatch):
    """The ``image`` case with its ``broadcast_limit=0`` leg runs in the
    suite's session (``cli._session`` reuses it), reports both legs, and
    the two legs' clusters are identical row for row."""
    import bench

    monkeypatch.setenv("BENCH_IMG_ROWS", "400")
    out = bench.run(["image", "--join-tier", "--shards", "4",
                     "--partitions", "4"])
    leg = {"wall_sec", "images_per_sec", "stage_seconds", "rows",
           "peak_pss_mb", "busy_cores", "recall", "precision",
           "truth_pairs", "pred_pairs"}
    assert {"metric", "img_rows", "num_cpus", "num_partitions",
            "clusters_identical", "host_mem_gbps", "host_sort_units",
            "host_degraded"} | leg | {f"{k}_join_tier" for k in leg} \
        == set(out)
    assert out["img_rows"] == 400 and out["num_partitions"] == 4
    assert out["rows"]["clusters"] == out["rows_join_tier"]["clusters"] == 400
    assert out["clusters_identical"] is True
    assert out["recall"] == out["recall_join_tier"] > 0.9
