"""Dedup-spine benchmark: one command that runs a workload, checks its
clusters and prints every metric by name with its unit.

    python3 perfbench/run.py --workload img_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (or anywhere: paths are taken from this
file). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host shape (``nproc``, MemTotal, a memory-bandwidth sample).

Workloads (closed loop: one call at a time, the next after the previous
returns; each call runs the pipeline over the whole input):

- ``img_mixed``: ``image_dedup.run_pipeline`` (checkpointed) over a planted
  image+caption table, about a quarter of it real JPEG. The only workload
  where pixel decode, pHash and SimHash do real work.
- ``text_planted``: ``text_dedup.text_dedup_clusters`` over a planted text
  corpus. No pixels: in the traced run at 1500 documents the LSH pair
  exchange took about 40% of the spine and the substring buckets plus
  pair dedupe about 20%.
- ``img_ingest``: ``incremental.ingest_delta`` of every 6th row of the
  ``img_mixed`` table against a base run over the rest (the base run is
  untimed input preparation, cached per seed). Its clusters must equal
  ``img_mixed``'s at the same seed. It is not in ``BENCHMARK.json``: with
  three workloads the runs are too short to be steady on a shared 4-vCPU
  host, and every traced run of the other two already times and checks
  the same ingest (``spine.ingest_pass``).

``--trace 0`` runs one fresh Ray session that times its own set-up and
then calls the workload until ``--seconds`` are spent; it reports the
end-to-end metrics, ``rows_per_s`` from the faster calls of the run
(``fast_quartile``). ``--trace 1`` runs one session that calls the spine
layer by layer (``spine.py``) and reports the per-layer metrics. One
set-up costs 12-24 s on a 4-CPU host (Ray start plus a warm-up call that
starts the workers), so a run samples it once rather than paying for
several.

Inputs, their ingest base runs and the cluster digests of earlier runs are
cached under ``.perfbench_work/state/<key>/`` at the checkout root, where
the key hashes the package's source files and the session's
``DedupConfig``: a cache made by other code or another config is never
reused, so a program change is measured against its own inputs, base runs
and reference clusters. All Ray state and temporary files live under
``.perfbench_work/`` too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

IMG_ROWS = 1000
TEXT_ROWS = 1500
KERNEL_ROWS = 128      # image sample of the text workload's kernel timings
CALL_TIMEOUT_S = 60    # one call (or set-up step) longer fails
RUN_LIMIT_S = 170      # the whole run ends within this
OBJECT_STORE_MB = 400
WARM_TEXT_ROWS = 48    # tiny corpus of text_planted's warm-up calls
UNITS = {"rows_per_s": "1/s", "setup_s": "s", "peak_pss_mb": "MB",
         "recall": "ratio", "precision": "ratio", "success_ratio": "ratio"}
# Ray puts unix sockets under its temp dir: the socket paths must stay
# within the kernel's 107-byte limit
RAY_DIR_MAX = 40


def per_layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "bytes_written" in name:
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def state_dir() -> str:
    """The cache directory of this code and config: sha256 over every
    source file of the package, plus ``DedupConfig.config_hash()``."""
    from session import bench_config

    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "deduplication_ray")
    for d, dirs, files in os.walk(pkg):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".pyc"):
                continue
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    h.update(bench_config().config_hash().encode())
    return os.path.join(WORK, "state", h.hexdigest()[:16])


def make_inputs(workload: str, seed: int, trace: bool, state: str) -> dict:
    import inputs

    spec: dict = {}
    if workload == "text_planted":
        spec["warm_text"] = inputs.text_table(state, 0, WARM_TEXT_ROWS)
        spec["text"] = inputs.text_table(state, seed, TEXT_ROWS)
        if trace:
            spec["text_split"] = inputs.ingest_split(
                state, spec["text"], f"text_s{seed}_n{TEXT_ROWS}")
            spec["kernel_img"] = inputs.image_table(state, seed, KERNEL_ROWS)
        return spec
    spec["img"] = spec["kernel_img"] = inputs.image_table(state, seed,
                                                          IMG_ROWS)
    if trace or workload == "img_ingest":
        spec["img_split"] = inputs.ingest_split(
            state, spec["img"], f"img_s{seed}_n{IMG_ROWS}")
    return spec


def ray_dir() -> str:
    """Ray's temp dir, removed after each session."""
    d = os.path.join(WORK, "ray")
    if len(d) <= RAY_DIR_MAX:
        return d
    # a checkout too deep for unix sockets: a short private dir instead
    return tempfile.mkdtemp(prefix="pbray", dir="/tmp")


def run_session(spec: dict, deadline: float, log) -> list[dict]:
    """Run one session process; returns its ``@@PB`` events. The session's
    process group (Ray included) is stopped before this returns."""
    from procstats import stop_group

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, HERE]),
               TMPDIR=os.path.join(WORK, "tmp"), RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "session.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        out, _ = proc.communicate()
        out += "\n@@PB " + json.dumps({"event": "call", "ok": False,
                                        "error": "session ran out of time"})
    finally:
        stop_group(proc.pid)
        # session logs and spill files: nothing of Ray outlives a session
        shutil.rmtree(spec["ray_dir"], ignore_errors=True)
    events = [json.loads(line[5:]) for line in out.splitlines()
              if line.startswith("@@PB ")]
    if proc.returncode != 0 and not any(
            e["event"] == "call" and not e["ok"] for e in events):
        events.append({"event": "call", "ok": False,
                       "error": f"session exited with {proc.returncode}"})
    return events


def read_digest(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def write_digest(path: str, digest: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(digest + "\n")


def fast_quartile(rates: list[float]) -> float:
    """The upper quartile of the calls' rates: on a shared host the slower
    calls of a run mostly time other tenants, not the program (calls of
    one session spread by up to 1.8x on a 4-vCPU host, in episodes of
    seconds to minutes), so the faster quarter is the steadier estimate."""
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=4)[2]


def end_to_end(seconds: int, base: dict, ref_file: str, deadline: float,
               log) -> dict:
    """One measured session."""
    calls: list[dict] = []
    setup, pss = None, None
    for e in run_session(dict(base, budget=seconds, trace=False), deadline,
                         log):
        if e["event"] == "call":
            calls.append(e)
        elif e["event"] == "setup":
            setup = e
        elif e["event"] == "pss":
            pss = e["peak_pss_mb"]
        elif e["event"] == "reference":
            write_digest(ref_file, e["digest"])
    ref = read_digest(ref_file)
    ok = [c for c in calls if c["ok"]]
    if ref is None and ok:
        ref = ok[0]["digest"]
    for c in ok:
        if c["digest"] != ref:
            c["ok"] = False
            c["error"] = "clusters differ from the reference run at this seed"
    failed = [c for c in calls if not c["ok"]]
    for c in failed:
        print(f"perfbench: failed call: {c.get('error')}", file=sys.stderr)
    good = [c for c in calls if c["ok"]]
    if good and not failed and read_digest(ref_file) is None:
        write_digest(ref_file, ref)

    def med(xs) -> float:
        return statistics.median(xs) if xs else 0.0

    metrics = {
        "rows_per_s": fast_quartile([c["rows"] / c["sec"] for c in good]),
        "setup_s": setup["setup_s"] if setup else 0.0,
        "peak_pss_mb": pss or 0.0,
        "recall": med([c["recall"] for c in good]),
        "precision": med([c["precision"] for c in good]),
        "success_ratio": len(good) / len(calls) if calls else 0.0,
    }
    return {
        "correct": bool(good) and not failed and setup is not None,
        "attempted": max(len(calls), 1),
        "failed": len(failed) if calls else 1,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
        "detail": {"call_s": [c.get("sec") for c in calls], "setup": setup},
    }


def per_layer(seconds: int, base: dict, deadline: float, log) -> dict:
    """One traced session."""
    events = run_session(dict(base, budget=seconds, trace=True), deadline, log)
    trace = [e for e in events if e["event"] == "trace"]
    errors = [e for e in events if e["event"] == "call" and not e["ok"]]
    for e in errors:
        print(f"perfbench: failed: {e.get('error')}", file=sys.stderr)
    if not trace:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    t = trace[0]
    return {
        "correct": t["failed"] == 0 and not errors,
        "attempted": t["attempted"],
        "failed": t["failed"] + len(errors),
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)}
                    for k, v in sorted(t["metrics"].items())},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["img_mixed", "text_planted", "img_ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "deduplication_ray",
                                       "__init__.py")):
        fail(f"no deduplication_ray package under {ROOT}: run from a "
             "checkout of the repository")
    # run dirs of a session that was stopped mid-call
    shutil.rmtree(os.path.join(WORK, "runs"), ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # the JPEG codec compiles into, and loads from, the temp dir
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, ROOT)

    import procstats

    host = procstats.host_shape()
    state = state_dir()
    base = make_inputs(args.workload, args.seed, bool(args.trace), state)
    # the reference clusters of this code at this seed; img_ingest's must
    # equal img_mixed's
    ref_file = os.path.join(state, "digests", (
        f"text_planted_s{args.seed}_n{TEXT_ROWS}.txt"
        if args.workload == "text_planted"
        else f"img_mixed_s{args.seed}_n{IMG_ROWS}.txt"))
    base.update(
        workload=args.workload, work=WORK, ray_dir=ray_dir(),
        call_timeout=CALL_TIMEOUT_S, object_store_mb=OBJECT_STORE_MB,
        base_runs=[(base[k], k == "text_split")
                   for k in ("img_split", "text_split") if k in base],
        reference=(args.workload == "img_ingest" and not args.trace
                   and read_digest(ref_file) is None))
    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    log_path = os.path.join(WORK, "logs", f"{args.workload}_s{args.seed}_"
                            f"t{args.trace}.log")
    with open(log_path, "w") as log:
        if args.trace:
            res = per_layer(args.seconds, base, deadline, log)
        else:
            res = end_to_end(args.seconds, base, ref_file, deadline, log)
    detail = res.pop("detail", {})
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "detail": detail}))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
