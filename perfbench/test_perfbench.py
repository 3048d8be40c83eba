"""Checks of the benchmark itself (not part of the repository's suite):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import inputs  # noqa: E402
import procstats  # noqa: E402


def test_pss_counts_no_more_than_rss():
    with open(f"/proc/{os.getpid()}/status") as f:
        rss = next(int(line.split()[1]) for line in f
                   if line.startswith("VmRSS:"))
    assert 0 < procstats.pss_kb(os.getpid()) <= rss


def test_cached_input_is_regenerated_when_a_shard_is_missing(tmp_path):
    d = inputs.text_table(str(tmp_path), 3, 40)
    data = os.path.join(d, "data")
    files = sorted(os.listdir(data))
    assert len(files) == inputs.TEXT_FILES
    os.remove(os.path.join(data, files[-1]))
    assert inputs.text_table(str(tmp_path), 3, 40) == d
    assert sorted(os.listdir(data)) == files


def test_cache_key_follows_the_package_sources(tmp_path, monkeypatch):
    """Cached base runs and reference digests belong to the code that made
    them: any edit of the package moves the cache directory."""
    import run

    shutil.copytree(os.path.join(ROOT, "deduplication_ray"),
                    tmp_path / "deduplication_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    before = run.state_dir()
    assert run.state_dir() == before
    with open(tmp_path / "deduplication_ray" / "config.py", "a") as f:
        f.write("\n# an edit\n")
    assert run.state_dir() != before


def test_run_from_another_directory_is_correct_and_pss_fits_in_ram(tmp_path):
    """The whole command, started outside the checkout: Ray workers must
    still import the package, the clusters must pass the gate, and the
    summed PSS cannot exceed physical memory (a summed RSS could)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "text_planted", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, out.stderr[-3000:]
    pss = res["metrics"]["peak_pss_mb"]["value"]
    assert 0 < pss <= procstats.mem_total_mb()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "img_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
