"""One Ray session of the benchmark, run as its own process by ``run.py``.

    python3 perfbench/session.py '<json spec>'

The session times its own set-up (imports, ``ray.init`` sized from
``os.sched_getaffinity``, context tuning and the workload's warm-up
calls), then either times the workload's call until its budget is spent
or runs the traced plan of ``spine.py``. Ingest base runs missing from
the cache are built before the warm-up and left out of the set-up time;
for ``img_ingest`` the digest of a full run over the whole table, which
its clusters must equal, is made after it when the cache has none.
Results go to stdout as ``@@PB <json>`` lines; everything else the
session prints is log output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def emit(event: str, **kw) -> None:
    print("@@PB " + json.dumps({"event": event, **kw}), flush=True)


class Watchdog:
    """Ends the process when one call outlives ``limit`` seconds, after
    reporting the call as timed out; the parent then stops the process
    group, Ray included. A deadlock is counted, not waited out."""

    def __init__(self, limit: float):
        self.limit = limit
        self._deadline: float | None = None
        self._what = ""
        threading.Thread(target=self._run, daemon=True).start()

    def arm(self, what: str) -> None:
        self._what = what
        self._deadline = time.monotonic() + self.limit

    def disarm(self) -> None:
        self._deadline = None

    def _run(self) -> None:
        while True:
            time.sleep(0.25)
            d = self._deadline
            if d is not None and time.monotonic() > d:
                emit("call", ok=False, error=f"timeout: {self._what} ran "
                     f"longer than {self.limit:.0f} s")
                os._exit(3)


def cluster_digest(df, id_col: str) -> str:
    """sha256 of the sorted (id, cluster_id) rows."""
    import hashlib

    s = df[[id_col, "cluster_id"]].astype(str).sort_values(id_col)
    h = hashlib.sha256()
    for a, b in zip(s[id_col], s["cluster_id"]):
        h.update(f"{a}\t{b}\n".encode())
    return h.hexdigest()


def check_clusters(pred, truth, id_col: str) -> dict:
    """Structural and quality checks of one predicted clustering: every
    input id has exactly one cluster, every cluster is named by its least
    member, and pair recall/precision against the planted truth."""
    from deduplication_ray.pipelines.evaluate import pair_metrics

    pred = pred[[id_col, "cluster_id"]].astype(str)
    if pred[id_col].duplicated().any():
        raise AssertionError("an id is assigned to more than one cluster")
    if set(pred[id_col]) != set(truth[id_col].astype(str)):
        raise AssertionError("clustered ids differ from the input ids")
    least = pred.groupby("cluster_id")[id_col].min()
    if not (least.index == least.values).all():
        raise AssertionError("a cluster is not named by its least member")
    m = pair_metrics(pred.rename(columns={id_col: "image_id"}),
                     truth.rename(columns={id_col: "image_id"})
                     .astype(str))
    return {"recall": m["recall"], "precision": m["precision"],
            "digest": cluster_digest(pred, id_col)}


class Workload:
    """A workload's timed call and the warm-up of its set-up."""

    id_col = "image_id"

    def __init__(self, spec: dict, cfg):
        self.spec = spec
        self.cfg = cfg
        self.runs = os.path.join(spec["work"], "runs", str(os.getpid()))
        os.makedirs(self.runs, exist_ok=True)
        self._n = 0

    def fresh_dir(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.runs, f"{tag}{self._n}")

    def warm(self) -> None:
        # A call on the workload's own input: after one on a tiny input the
        # first timed image call was often 20-40% slower than the next.
        _, _, _, run_dir = self.call()
        if run_dir:
            shutil.rmtree(run_dir, ignore_errors=True)

    def call(self) -> tuple[float, int, object, str | None]:
        """Run once; returns (seconds, rows, clusters frame, run dir)."""
        raise NotImplementedError


def _read_clusters(run_dir: str):
    from inputs import read_dir

    return read_dir(os.path.join(run_dir, "clusters"))


class ImgMixed(Workload):
    def __init__(self, spec, cfg):
        super().__init__(spec, cfg)
        from inputs import read_dir

        self.data = os.path.join(spec["img"], "data")
        self.truth = read_dir(os.path.join(spec["img"], "truth"))
        self.rows = len(self.truth)

    def call(self):
        from deduplication_ray.pipelines import image_dedup

        run_dir = self.fresh_dir("run")
        t0 = time.perf_counter()
        image_dedup.run_pipeline(self.data, run_dir, self.cfg)
        sec = time.perf_counter() - t0
        return sec, self.rows, _read_clusters(run_dir), run_dir


def base_run_dir(split: str) -> str:
    """The base run of an ingest split, built once and kept across
    sessions and runs. The split lives under the cache directory of this
    code and config (``run.state_dir``), so a base run is only reused by
    the code and config that wrote it."""
    return os.path.join(split, "base_run")


def ensure_base_run(split: str, cfg, text: bool) -> None:
    from deduplication_ray.pipelines import image_dedup, text_dedup
    from deduplication_ray.sources import storage

    d = base_run_dir(split)
    if (storage.read_manifest(d) or {}).get("complete"):
        return
    shutil.rmtree(d, ignore_errors=True)
    run = text_dedup.run_text_pipeline if text else image_dedup.run_pipeline
    run(os.path.join(split, "base"), d, cfg)


class ImgIngest(ImgMixed):
    def __init__(self, spec, cfg):
        super().__init__(spec, cfg)
        from inputs import read_dir

        self.split = spec["img_split"]
        self.delta_rows = len(read_dir(os.path.join(self.split, "delta")))

    def call(self):
        from deduplication_ray.pipelines.incremental import ingest_delta

        out = self.fresh_dir("ingest")
        t0 = time.perf_counter()
        ingest_delta(base_run_dir(self.split),
                     os.path.join(self.split, "base"),
                     os.path.join(self.split, "delta"), out, self.cfg)
        sec = time.perf_counter() - t0
        return sec, self.delta_rows, _read_clusters(out), out


class TextPlanted(Workload):
    id_col = "doc_id"

    def __init__(self, spec, cfg):
        super().__init__(spec, cfg)
        from inputs import read_dir

        self.data = os.path.join(spec["text"], "data")
        self.truth = read_dir(os.path.join(spec["text"], "truth"))
        self.rows = len(self.truth)

    def _run(self, data: str):
        from deduplication_ray.pipelines.text_dedup import text_dedup_clusters
        from deduplication_ray.sources import storage

        return text_dedup_clusters(
            storage.read_table(data, columns=["doc_id", "text"]),
            self.cfg).to_pandas()

    def warm(self) -> None:
        # After one call on its own input the first timed call was still
        # 20-50% slower than the next; after two calls on a tiny input it
        # was not, at a smaller set-up cost.
        for _ in range(2):
            self._run(os.path.join(self.spec["warm_text"], "data"))

    def call(self):
        t0 = time.perf_counter()
        pred = self._run(self.data)
        sec = time.perf_counter() - t0
        return sec, self.rows, pred, None


def bench_config():
    """The config of every session; part of the cache key in ``run.py``."""
    from deduplication_ray.config import DedupConfig

    return DedupConfig(num_partitions=max(8, len(os.sched_getaffinity(0))))


WORKLOADS = {"img_mixed": ImgMixed, "img_ingest": ImgIngest,
             "text_planted": TextPlanted}


def start_ray(spec: dict):
    import logging

    import ray
    from ray.data import DataContext

    # Workers import the package from the checkout, wherever the benchmark
    # was started from: they inherit PYTHONPATH from this process (set by
    # run.py). A runtime_env with the same variable works too but adds
    # about 5 s to every set-up on a 4-CPU host.
    # Idle workers are kept for the session's life: with Ray's default 1 s
    # idle-kill, every call re-spawned 4-9 workers (each re-importing NumPy,
    # pyarrow and the package), which added 2-3 s and most of the
    # call-to-call spread on a 4-CPU host.
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=spec["ray_dir"],
             object_store_memory=spec["object_store_mb"] * 2**20,
             _system_config={"idle_worker_killing_time_threshold_ms":
                             3_600_000})
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False
    return ray


def timed_loop(wl: Workload, budget: float, dog: Watchdog) -> None:
    from procstats import PeakPss

    secs: list[float] = []
    calls = 0
    t_begin = time.perf_counter()
    with PeakPss(os.getpid()) as pss:
        while calls == 0 or (time.perf_counter() - t_begin
                             + (statistics.median(secs) if secs else 0)
                             <= budget):
            calls += 1
            dog.arm(f"{wl.spec['workload']} call")
            try:
                sec, rows, pred, run_dir = wl.call()
            except Exception as exc:  # reported, counted, and the loop goes on
                dog.disarm()
                emit("call", ok=False, error=f"{type(exc).__name__}: {exc}")
                continue
            dog.disarm()
            secs.append(sec)
            try:
                chk = check_clusters(pred, wl.truth, wl.id_col)
            except (AssertionError, ValueError) as exc:
                emit("call", ok=False, sec=sec, error=f"wrong clusters: {exc}")
                continue
            finally:
                if run_dir:
                    shutil.rmtree(run_dir, ignore_errors=True)
            emit("call", ok=True, sec=sec, rows=rows, **chk)
    emit("pss", peak_pss_mb=pss.peak_mb)


def reference(spec: dict, cfg) -> None:
    """Reports the digest of one full run over the whole image table."""
    wl = ImgMixed(spec, cfg)
    _, _, pred, run_dir = wl.call()
    shutil.rmtree(run_dir, ignore_errors=True)
    emit("reference",
         digest=check_clusters(pred, wl.truth, wl.id_col)["digest"])


def main() -> None:
    spec = json.loads(sys.argv[1])
    dog = Watchdog(spec["call_timeout"])
    dog.arm("set-up")
    ray = start_ray(spec)
    t_init = time.perf_counter()
    from deduplication_ray.stages.tuning import apply_context_tuning

    apply_context_tuning()
    cfg = bench_config()
    # input preparation, not set-up: its seconds are taken out of setup_s
    t_base = time.perf_counter()
    for split, text in spec["base_runs"]:
        dog.arm("base run")
        ensure_base_run(split, cfg, text)
    base_s = time.perf_counter() - t_base
    wl = WORKLOADS[spec["workload"]](spec, cfg)
    dog.arm("warm-up call")
    t_warm = time.perf_counter()
    wl.warm()
    t_end = time.perf_counter()
    emit("setup", setup_s=t_end - T_START - base_s, init_s=t_init - T_START,
         base_run_s=base_s, warm_s=t_end - t_warm)
    if spec["reference"]:
        dog.arm("reference run")
        reference(spec, cfg)
    dog.disarm()
    if spec["trace"]:
        import spine

        spine.traced_run(wl, spec, dog)
    else:
        timed_loop(wl, spec["budget"], dog)
    shutil.rmtree(wl.runs, ignore_errors=True)
    dog.disarm()
    ray.shutdown()
    emit("done")


if __name__ == "__main__":
    main()
