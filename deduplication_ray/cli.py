"""Command-line entry points (R19 analog, ``/root/reference/main.c:19-65``).

The reference exposes ``dedup_bin c|d``; the graft exposes:

  python -m deduplication_ray.cli run        --input DIR --out RUN_DIR [opts]
  python -m deduplication_ray.cli resume     --input DIR --out RUN_DIR
  python -m deduplication_ray.cli reconstruct --out RUN_DIR --dest DIR
  python -m deduplication_ray.cli compress   WIDTH BLOCK IN.bin OUT.ddp
  python -m deduplication_ray.cli decompress IN.ddp OUT.bin
  python -m deduplication_ray.cli fixture    --out DIR --rows N [--seed S]
  python -m deduplication_ray.cli query      [NAME] [--sf-dir DIR] [--dest DIR]
  python -m deduplication_ray.cli ingest     --base-run DIR --base-input DIR
                                             --delta-input DIR --out RUN_DIR

``run`` and ``resume`` are the same code path — resume is what ``run`` does
when the run dir already holds complete, config-matching checkpoints (the
separate verb exists for operator clarity). A command reuses a live Ray
session and leaves it running (so ``cli.main`` can be called in-process);
otherwise it starts its own and shuts it down when done
(``ray job submit``-compatible: it also runs under an existing cluster
address if RAY_ADDRESS is set to one).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys


@contextlib.contextmanager
def _session(num_cpus: int | None):
    """The verb's Ray session: a live session is reused and left running;
    one started here is shut down when the verb is done."""
    import logging

    import ray

    started = not ray.is_initialized()
    if started:
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        if started:
            ray.shutdown()


def _cfg_from_args(args) -> "DedupConfig":
    from deduplication_ray.config import DedupConfig

    overrides = {}
    for field in ("seed", "shingle_k", "num_perm", "bands", "rows_per_band",
                  "bucket_cap", "substring_min_len", "num_partitions"):
        v = getattr(args, field, None)
        if v is not None:
            overrides[field] = v
    tau = getattr(args, "jaccard_threshold", None)
    if tau is not None:
        if not (0.0 < tau < 1.0):
            raise SystemExit("--jaccard-threshold must be in (0, 1)")
        num_perm = overrides.get("num_perm", DedupConfig.num_perm)
        if "bands" in overrides or "rows_per_band" in overrides:
            # a pinned flag wins; derive ITS partner from num_perm — never
            # pair values from two different factorizations
            if "bands" in overrides:
                overrides.setdefault("rows_per_band",
                                     num_perm // overrides["bands"])
            else:
                overrides.setdefault("bands",
                                     num_perm // overrides["rows_per_band"])
        else:
            from deduplication_ray.stages.lsh import plan_lsh_params

            plan = plan_lsh_params(tau, num_perm)
            if not plan["recall_ok"]:
                raise SystemExit(
                    f"no (bands, rows) factorization of num_perm={num_perm} "
                    f"reaches 0.99 recall at threshold {tau}; raise "
                    f"--num-perm")
            overrides["bands"] = plan["bands"]
            overrides["rows_per_band"] = plan["rows_per_band"]
        overrides["jaccard_tau"] = tau
    return DedupConfig(**overrides)


def _query(args) -> int:
    """The ``query`` verb, inside its Ray session."""
    import __ray_entry__ as entry

    qs = entry.queries()
    if args.name is None:
        checked = set(entry.oracle_sql())
        for name in sorted(qs):
            tag = "sql-checked" if name in checked else "rows-only"
            print(f"{name}  [{tag}]")
        return 0
    if args.name not in qs:
        print(f"unknown query {args.name!r}; run with no name to list",
              file=sys.stderr)
        return 2
    res = qs[args.name](args.sf_dir)
    if args.dest is not None:
        if args.partition_by:
            from deduplication_ray.sources import storage

            if not hasattr(res, "write_parquet"):
                import ray.data as rd

                res = rd.from_pandas(res.to_pandas()
                                     if hasattr(res, "to_pandas")
                                     else res)
            storage.write_partitioned(res, args.dest,
                                      by=args.partition_by.split(","))
            print(json.dumps({"query": args.name, "rows": res.count(),
                              "dest": args.dest,
                              "partition_by": args.partition_by}))
            return 0
        if hasattr(res, "write_parquet"):  # Dataset
            res.write_parquet(args.dest)
            n = res.count()
        else:  # driver-side pandas/Arrow result (e.g. top_terms)
            import os

            import pyarrow as pa
            import pyarrow.parquet as pq

            tbl = (res if isinstance(res, pa.Table)
                   else pa.Table.from_pandas(res, preserve_index=False))
            os.makedirs(args.dest, exist_ok=True)
            pq.write_table(tbl, os.path.join(args.dest, "part-0.parquet"))
            n = tbl.num_rows
        print(json.dumps({"query": args.name, "rows": n,
                          "dest": args.dest}))
    else:
        if hasattr(res, "write_parquet"):  # Dataset: bounded preview —
            # ONE bounded execution: fetch limit+1 rows (streaming limit
            # stops the executor early; no full materialize — a result
            # bigger than the object store must not be pinned for a
            # 20-row preview). Exact row count is printed only when the
            # result fits inside the limit; a truncated preview reports
            # rows=null rather than re-executing the whole query.
            df = res.limit(args.limit + 1).to_pandas()
            truncated = len(df) > args.limit
            df = df.head(args.limit)
            n = None if truncated else len(df)
        else:  # already a driver-side pandas/Arrow result (bounded)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            n, truncated = len(df), False
        print(df.head(20).to_string())
        print(json.dumps({"query": args.name, "rows": n,
                          "preview_limit": args.limit,
                          "truncated": truncated}))
    if args.stats and hasattr(res, "stats"):
        print(res.stats())
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="deduplication_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    for verb in ("run", "resume"):
        s = sub.add_parser(verb, help="execute (or resume) the dedup DAG")
        s.add_argument("--input", required=True, help="parquet table dir/file")
        s.add_argument("--out", required=True, help="run (checkpoint) dir")
        s.add_argument("--mode",
                       choices=("image", "text", "video", "audio",
                                "embedding"),
                       default="image",
                       help="engine of incremental.run_checkpointed: "
                            "'image' (image+caption tables), 'text' "
                            "((doc_id, text) tables), 'video' / 'audio' / "
                            "'embedding' ((id, bytes|vector) tables)")
        s.add_argument("--num-cpus", type=int, default=None)
        s.add_argument("--jaccard-threshold", type=float, default=None,
                       dest="jaccard_threshold",
                       help="target near-dup Jaccard: picks (bands, rows) "
                            "via the banding S-curve planner and sets "
                            "jaccard_tau (explicit --bands/--rows-per-band "
                            "still win)")
        for f in ("seed", "shingle_k", "num_perm", "bands", "rows_per_band",
                  "bucket_cap", "substring_min_len", "num_partitions"):
            s.add_argument(f"--{f.replace('_', '-')}", type=int, default=None,
                           dest=f)

    s = sub.add_parser("ingest", help="dedup a delta table against a finished "
                                      "base run (incremental; reuses base "
                                      "signature/cluster checkpoints)")
    s.add_argument("--base-run", required=True,
                   help="run dir(s) of prior runs, comma-separated "
                        "(original run + each finished ingest, in order)")
    s.add_argument("--base-input", default=None,
                   help="prior input table dir(s), comma-separated "
                        "(required for image/text modes; video/audio "
                        "ingest reads base signatures from the run dirs "
                        "and never touches base media)")
    s.add_argument("--delta-input", required=True, help="delta parquet table dir")
    s.add_argument("--out", required=True, help="run dir for the ingest")
    s.add_argument("--mode",
                   choices=("image", "text", "video", "audio", "embedding"),
                   default="image",
                   help="engine of the base run (incremental.ingest_delta): "
                        "every mode ingests against a run_checkpointed "
                        "base of the same mode")
    s.add_argument("--num-cpus", type=int, default=None)
    s.add_argument("--jaccard-threshold", type=float, default=None,
                   dest="jaccard_threshold",
                   help="target near-dup Jaccard (must match the base "
                        "run's): plans (bands, rows) and sets jaccard_tau")
    for f in ("seed", "shingle_k", "num_perm", "bands", "rows_per_band",
              "bucket_cap", "substring_min_len", "num_partitions"):
        s.add_argument(f"--{f.replace('_', '-')}", type=int, default=None,
                       dest=f)

    s = sub.add_parser("merge", help="merge two finished dedup runs into one "
                                     "clusters table (no media re-decode: "
                                     "signatures come from both checkpoints; "
                                     "only cross-run pairs are verified)")
    s.add_argument("--run-a", required=True, help="first finished run dir")
    s.add_argument("--input-a", default=None,
                   help="first input table dir (required for image/text — "
                        "the caption substring family re-reads text; modal "
                        "merges read only the run dirs)")
    s.add_argument("--run-b", required=True,
                   help="second finished run dir (pass the SMALLER run here)")
    s.add_argument("--input-b", default=None, help="second input table dir")
    s.add_argument("--out", required=True, help="run dir for the merge")
    s.add_argument("--mode",
                   choices=("image", "text", "video", "audio", "embedding"),
                   default="image")
    s.add_argument("--num-cpus", type=int, default=None)
    s.add_argument("--jaccard-threshold", type=float, default=None,
                   dest="jaccard_threshold",
                   help="target near-dup Jaccard (must match the base "
                        "run's): plans (bands, rows) and sets jaccard_tau")
    for f in ("seed", "shingle_k", "num_perm", "bands", "rows_per_band",
              "bucket_cap", "substring_min_len", "num_partitions"):
        s.add_argument(f"--{f.replace('_', '-')}", type=int, default=None,
                       dest=f)

    s = sub.add_parser("curate", help="end-to-end training-data curation: "
                                      "decontaminate -> quality gate -> scrub -> "
                                      "dedup keep-best -> split -> chunk -> "
                                      "partitioned parquet")
    s.add_argument("--sf-dir", required=True,
                   help="directory holding documents.parquet")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--remove-dup-spans", action="store_true",
                   help="also cut cross-document verbatim word-8-gram "
                        "spans (ExactSubstr, Lee et al. 2022) before the "
                        "near-dup tier")
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("reconstruct", help="rebuild full table from a run dir")
    s.add_argument("--out", required=True, help="run dir of a completed run")
    s.add_argument("--dest", required=True, help="directory for the rebuilt table")
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("compact", help="table maintenance: rewrite a "
                                       "fragmented table directory into "
                                       "~target-row part files")
    s.add_argument("--input", required=True, help="table directory to compact")
    s.add_argument("--out", required=True, help="output table directory")
    s.add_argument("--target-rows", type=int, default=1_000_000)
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("embed", help="materialize image embeddings: batched "
                                     "task-stage inference over an "
                                     "image+caption table -> (image_id, "
                                     "embedding) table")
    s.add_argument("--input", required=True, help="input table dir/file")
    s.add_argument("--out", required=True, help="output table directory")
    s.add_argument("--dim", type=int, default=64)
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("validate", help="audit a finished image run's "
                                        "per-row invariants (decoded-pixel "
                                        "equality, caption equality, lossy "
                                        "PSNR >= 40 dB) against its input "
                                        "table; exits nonzero on any failure")
    s.add_argument("--input", required=True, help="input table dir/file")
    s.add_argument("--out", required=True, help="run dir of a completed run")
    s.add_argument("--sample", type=int, default=None,
                   help="audit only the first N representatives")
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("compare", help="pair-level agreement between two "
                                       "finished runs' clusterings "
                                       "(Adjusted Rand Index; exact, "
                                       "pair sets never materialized)")
    s.add_argument("--run-a", required=True, help="first run dir")
    s.add_argument("--run-b", required=True, help="second run dir")
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("compress", help="reference-conformant DDP1 encode")
    s.add_argument("width", type=int)
    s.add_argument("block", type=int)
    s.add_argument("infile")
    s.add_argument("outfile")

    s = sub.add_parser("decompress", help="DDP1 decode")
    s.add_argument("infile")
    s.add_argument("outfile")

    s = sub.add_parser("fixture", help="generate the synthetic image+caption table")
    s.add_argument("--out", required=True)
    s.add_argument("--rows", type=int, required=True)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("delete", help="propagate an id deletion list through "
                                      "a finished run (no media recompute; "
                                      "see incremental.delete_ids)")
    s.add_argument("--base-run", required=True, help="finished run dir")
    s.add_argument("--base-input", default=None,
                   help="input table dir (enables representative rebuild)")
    s.add_argument("--ids", required=True,
                   help="comma-separated ids, or @FILE with one id per line")
    s.add_argument("--out", required=True, help="output run dir")
    s.add_argument("--id-col", default="image_id")
    s.add_argument("--num-cpus", type=int, default=None)
    s.add_argument("--jaccard-threshold", type=float, default=None,
                   dest="jaccard_threshold")
    for f in ("seed", "shingle_k", "num_perm", "bands", "rows_per_band",
              "bucket_cap", "substring_min_len", "num_partitions"):
        s.add_argument(f"--{f.replace('_', '-')}", type=int, default=None,
                       dest=f)

    s = sub.add_parser("query", help="run a registered pipeline over a table dir")
    s.add_argument("name", nargs="?", default=None,
                   help="query name (omit to list all)")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                   help="directory holding the parquet tables")
    s.add_argument("--dest", default=None,
                   help="write result parquet here instead of printing a preview")
    s.add_argument("--partition-by", default=None, dest="partition_by",
                   help="comma-separated result columns: write --dest as a "
                        "hive-partitioned <col>=<value>/ tree (resumable "
                        "consumption; see storage.write_partitioned)")
    s.add_argument("--num-cpus", type=int, default=None)
    s.add_argument("--limit", type=int, default=1000,
                   help="preview mode only (no --dest): cap on rows pulled "
                        "driver-side from a Dataset result — an unbounded "
                        "result (e.g. a full pair list at sf0.1+) never "
                        "materializes on the driver; use --dest for a "
                        "streaming parquet write of the full result")
    s.add_argument("--stats", action="store_true",
                   help="print Ray Data per-operator execution stats after "
                        "the run (wall time, rows, bytes per stage)")

    s = sub.add_parser("plan", help="print an operating point without running "
                       "anything: LSH (bands, rows) for a Jaccard threshold, "
                       "and/or a Hamming verify radius from labeled distances")
    s.add_argument("--jaccard-threshold", type=float, default=None,
                   dest="jaccard_threshold",
                   help="target Jaccard: choose (bands, rows_per_band) via "
                        "the banding S-curve (stages/lsh.plan_lsh_params)")
    s.add_argument("--num-perm", type=int, default=128)
    s.add_argument("--hamming-pos", default=None,
                   help="file of labeled DUP-pair Hamming distances (one "
                        "int per line): plan the verify radius")
    s.add_argument("--hamming-neg", default=None,
                   help="file of labeled NON-dup-pair distances")
    s.add_argument("--target-recall", type=float, default=0.99)
    s.add_argument("--bits", type=int, default=64)

    args = p.parse_args(argv)

    if args.cmd == "plan":
        import json as _json

        did = False
        if args.jaccard_threshold is not None:
            from deduplication_ray.stages.lsh import plan_lsh_params

            plan = plan_lsh_params(args.jaccard_threshold, args.num_perm)
            print(_json.dumps({"lsh": plan}))
            did = True
        if args.hamming_pos is not None:
            from deduplication_ray.stages.verify import plan_hamming_radius

            def _read_dists(path):
                with open(path) as f:
                    return [int(line) for line in f if line.strip()]

            neg = _read_dists(args.hamming_neg) if args.hamming_neg else []
            plan = plan_hamming_radius(_read_dists(args.hamming_pos), neg,
                                       target_recall=args.target_recall,
                                       bits=args.bits)
            print(_json.dumps({"hamming": plan}))
            did = True
        if not did:
            print("nothing to plan: pass --jaccard-threshold and/or "
                  "--hamming-pos", file=sys.stderr)
            return 2
        return 0

    if args.cmd == "query":
        import os

        sys.path.insert(0, os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))  # repo root: __ray_entry__ lives there
        with _session(args.num_cpus):
            return _query(args)

    if args.cmd in ("run", "resume"):
        from deduplication_ray.pipelines.incremental import run_checkpointed

        with _session(args.num_cpus):
            print(json.dumps(run_checkpointed(
                args.input, args.out, _cfg_from_args(args), mode=args.mode,
                strict_resume=(args.cmd == "resume"))))
            return 0

    if args.cmd == "embed":
        with _session(args.num_cpus):
            from deduplication_ray.sources import storage
            from deduplication_ray.stages.imgembed import embed_images

            from deduplication_ray.stages.imgembed import EMBED_COLUMNS

            emb = embed_images(storage.read_table(args.input,
                                                  columns=EMBED_COLUMNS),
                               dim=args.dim)
            storage.write_table(emb, args.out)
            n = storage.read_table(args.out).count()
            print(json.dumps({"rows": n, "dim": args.dim, "out": args.out}))
            return 0

    if args.cmd == "validate":
        with _session(args.num_cpus):
            from deduplication_ray.pipelines.evaluate import validate_run

            report = validate_run(args.input, args.out, sample=args.sample)
            print(json.dumps(report))
            return 0 if report["ok"] else 1

    if args.cmd == "compare":
        with _session(args.num_cpus):
            from deduplication_ray.pipelines.evaluate import cluster_agreement
            from deduplication_ray.sources import storage

            a = storage.read_table(f"{args.run_a}/clusters")
            b = storage.read_table(f"{args.run_b}/clusters")
            report = cluster_agreement(a, b, id_col="image_id",
                                       cluster_col="cluster_id")
            print(json.dumps(report.to_dict("records")[0]))
            return 0

    if args.cmd == "curate":
        with _session(args.num_cpus):
            from deduplication_ray.pipelines.curate import curate_documents

            print(json.dumps(curate_documents(
                args.sf_dir, args.out,
                remove_dup_spans=args.remove_dup_spans)))
            return 0

    if args.cmd == "compact":
        with _session(args.num_cpus):
            from deduplication_ray.sources.storage import compact_table

            print(json.dumps(compact_table(
                args.input, args.out, target_rows_per_file=args.target_rows)))
            return 0

    if args.cmd == "delete":
        with _session(args.num_cpus):
            from deduplication_ray.config import DedupConfig
            from deduplication_ray.pipelines.incremental import delete_ids

            if args.ids.startswith("@"):
                with open(args.ids[1:]) as f:
                    ids = [ln.strip() for ln in f if ln.strip()]
            else:
                ids = args.ids.split(",")
            metrics = delete_ids(args.base_run, args.base_input, ids, args.out,
                                 _cfg_from_args(args), id_col=args.id_col)
            print(json.dumps(metrics))
            return 0

    if args.cmd in ("ingest", "merge"):
        from deduplication_ray.pipelines.incremental import (
            engine_kit, ingest_delta, merge_runs)

        cfg = _cfg_from_args(args)
        inputs = ([args.base_input] if args.cmd == "ingest"
                  else [args.input_a, args.input_b])
        # validate BEFORE booting a Ray session — the check needs nothing
        # from it: image and text bucket streams re-read input captions
        if engine_kit(args.mode, cfg)["caps_of"] and not all(inputs):
            flags = ("--base-input" if args.cmd == "ingest"
                     else "--input-a/--input-b")
            raise SystemExit(f"{flags} required for mode={args.mode}")
        with _session(args.num_cpus):
            if args.cmd == "ingest":
                metrics = ingest_delta(
                    args.base_run.split(","),
                    args.base_input.split(",") if args.base_input else None,
                    args.delta_input, args.out, cfg, mode=args.mode)
            else:
                metrics = merge_runs(args.run_a, args.input_a, args.run_b,
                                     args.input_b, args.out, cfg,
                                     mode=args.mode)
            print(json.dumps(metrics))
            return 0

    if args.cmd == "reconstruct":
        with _session(args.num_cpus):
            from deduplication_ray.pipelines.image_dedup import reconstruct

            ds = reconstruct(args.out)
            ds.write_parquet(args.dest)
            print(json.dumps({"rows": ds.count(), "dest": args.dest}))
            return 0

    if args.cmd == "compress":
        with _session(None):
            from deduplication_ray.sources.ddp1 import compress_file

            summary = compress_file(args.infile, args.outfile, args.width,
                                    args.block)
            print(json.dumps(summary))
            return 0

    if args.cmd == "decompress":
        with _session(None):
            from deduplication_ray.sources.ddp1 import decompress_file

            decompress_file(args.infile, args.outfile)
            return 0

    if args.cmd == "fixture":
        with _session(args.num_cpus):
            from deduplication_ray.sources.fixtures import generate

            generate(args.out, args.rows, seed=args.seed)
            print(json.dumps({"out": args.out, "rows": args.rows,
                              "seed": args.seed}))
            return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
