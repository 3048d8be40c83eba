"""The bench harness's own measurements."""

import time


def test_peak_pss_sampler_within_physical_ram(ray_session):
    """Summed PSS of the driver and the session's Ray processes cannot
    exceed the host's RAM (summed RSS could: every worker counted the
    shared object-store pages again)."""
    import bench

    with open("/proc/meminfo") as f:
        mem_total_kb = next(int(line.split()[1]) for line in f
                            if line.startswith("MemTotal:"))
    with bench.PeakPssSampler(interval=0.1) as pss:
        time.sleep(0.5)
    assert 0 < pss.peak_kb <= mem_total_kb
