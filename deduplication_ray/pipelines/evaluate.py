"""Cluster-quality evaluation vs planted truth (dup-pair recall/precision).

Pair counts are computed from cluster-size contingency — never materialized
pair sets (the hot-bucket cluster alone would be O(n^2) pairs):

  truth pairs      = sum over truth clusters   C(n_i, 2)
  predicted pairs  = sum over pred clusters    C(m_j, 2)
  agreeing pairs   = sum over (truth, pred) cells C(n_ij, 2)
  recall = agree / truth ; precision = agree / predicted

The north rule's gate is dup-pair recall >= 0.99 at the planted
(shingle/band/row) config.
"""

from __future__ import annotations

import pandas as pd


def _pairs(sizes: pd.Series) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


def pair_metrics(pred: pd.DataFrame, truth: pd.DataFrame) -> dict:
    """pred/truth: DataFrames (image_id, cluster_id). Returns recall etc."""
    m = truth.rename(columns={"cluster_id": "t"}).merge(
        pred.rename(columns={"cluster_id": "p"}), on="image_id", how="inner"
    )
    if len(m) != len(truth):
        raise ValueError(
            f"prediction covers {len(m)} of {len(truth)} truth rows"
        )
    truth_pairs = _pairs(m.groupby("t").size())
    pred_pairs = _pairs(m.groupby("p").size())
    agree_pairs = _pairs(m.groupby(["t", "p"]).size())
    return {
        "rows": len(m),
        "truth_pairs": truth_pairs,
        "pred_pairs": pred_pairs,
        "agree_pairs": agree_pairs,
        "recall": agree_pairs / truth_pairs if truth_pairs else 1.0,
        "precision": agree_pairs / pred_pairs if pred_pairs else 1.0,
        "truth_clusters": int(m["t"].nunique()),
        "pred_clusters": int(m["p"].nunique()),
    }


def validate_run(input_path: str, run_dir: str, cfg=None,
                 sample: int | None = None) -> dict:
    """North-rule per-row invariant AUDIT over a finished image run (the
    CLI ``validate`` verb): every representative row must be payload-
    faithful to the input table row with the same id — decoded pixels
    identical, captions exactly equal, and for lossy formats the codec's
    idempotence PSNR >= 40 dB. The reference verifies its decode path by
    byte-identical round-trip (``/root/reference/src/compressor.c:212-341``);
    this generalizes that check to pixel/caption invariants.

    Distributed: the (optionally ``sample``-bounded) representative id set
    joins the input through the size-dispatched lookup join; each batch
    decodes and compares locally (variable-length payload decode is
    inherently per-row; the comparison math is whole-array); only
    per-batch counter rows reach the driver."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.functions import codecs as C
    from deduplication_ray.sources import storage
    from deduplication_ray.stages.join import lookup_join

    cfg = cfg or DedupConfig()
    cols = ["image_id", "bytes", "w", "h", "fmt", "caption"]
    reps = storage.read_table(f"{run_dir}/representatives").select_columns(cols)
    if sample is not None:
        reps = reps.limit(sample)
    reps = reps.rename_columns(
        {c: f"{c}_rep" for c in cols if c != "image_id"}).materialize()
    expected = reps.count()
    inp = storage.read_table(input_path, columns=cols)
    j = lookup_join(inp, reps, on=["image_id"], cfg=cfg)  # inner: rep ids only

    def check(t: pa.Table) -> pa.Table:
        n = t.num_rows
        # null-safe caption equality: (a == b) OR (a null AND b null)
        eq = pc.or_(pc.fill_null(pc.equal(t["caption"], t["caption_rep"]),
                                 False),
                    pc.and_(pc.is_null(t["caption"]),
                            pc.is_null(t["caption_rep"])))
        cap_fail = int(n - pc.sum(eq.cast(pa.int64())).as_py()) if n else 0
        pix_fail = psnr_fail = 0
        bts, fmts = t["bytes"], t["fmt"]
        bts_r, fmts_r = t["bytes_rep"], t["fmt_rep"]
        for i in range(n):
            try:  # an undecodable payload IS a pixel failure, not an abort
                a = C.decode_image(bts[i].as_py(), fmts[i].as_py(),
                                   t["w"][i].as_py(), t["h"][i].as_py())
                b = C.decode_image(bts_r[i].as_py(), fmts_r[i].as_py(),
                                   t["w_rep"][i].as_py(), t["h_rep"][i].as_py())
            except Exception:
                pix_fail += 1
                continue
            if a.shape != b.shape or not (a == b).all():
                pix_fail += 1
            fmt_r = fmts_r[i].as_py()
            if not C.is_lossless(fmt_r):
                # fmt-dispatched idempotence round-trip (NOT hardcoded to one
                # lossy codec), same altitude as the is_lossless guard
                try:
                    again = C.decode_image(C.encode_image(b, fmt_r), fmt_r,
                                           b.shape[1], b.shape[0])
                    if C.psnr_db(b, again) < 40.0:
                        psnr_fail += 1
                except Exception:
                    psnr_fail += 1
        return pa.table({"n": pa.array([n], pa.int64()),
                         "caption_fail": pa.array([cap_fail], pa.int64()),
                         "pixel_fail": pa.array([pix_fail], pa.int64()),
                         "psnr_fail": pa.array([psnr_fail], pa.int64())})

    parts = j.map_batches(check, batch_format="pyarrow").to_pandas()
    keys = ("n", "caption_fail", "pixel_fail", "psnr_fail")
    # an empty join yields a column-less frame — audit must fail, not crash
    out = ({k: 0 for k in keys} if parts.empty
           else {k: int(parts[k].sum()) for k in keys})
    # coverage: every audited representative must have found its input row;
    # a silent shortfall (wrong --input, corrupted ids) is itself a failure
    out["expected"] = int(expected)
    out["missing"] = int(expected) - out["n"]
    out["ok"] = (out["missing"] == 0 and out["caption_fail"] == 0
                 and out["pixel_fail"] == 0 and out["psnr_fail"] == 0)
    return out


def cluster_agreement(a, b, id_col: str = "doc_id",
                      cluster_col: str = "cluster_id") -> pd.DataFrame:
    """Distributed agreement between two CLUSTERINGS of the same id universe
    (e.g. two dedup configs, two signature modes, engine-vs-baseline):
    pair-level confusion counts and the Adjusted Rand Index, computed from
    cluster-size contingency — pair sets are never materialized (the same
    discipline as ``pair_metrics``, here fully distributed for 10^12-row
    cluster tables).

    Plan: ONE hash-co-partitioned join on the id, ONE contingency groupby
    (pre-aggregated per block; materialized once — three reductions read
    it, not three re-executions of the upstream DAGs), then three bounded
    scalar reductions (sum C(n_ij,2), sum C(a_i,2), sum C(b_j,2) — each a
    per-batch partial emitting one row). Pair-count partials travel as
    DECIMAL STRINGS and sum as Python big ints on the driver: C(n,2) of a
    mega-cluster exceeds int64 at the advertised 10^12-row scale, so an
    int64 wire type would overflow exactly on the corpora this report
    exists to flag. ARI is exact rational arithmetic on driver scalars
    (micro-scaled int64 out), partitioning-invariant bit-for-bit.

    Inputs are Datasets with (id_col, cluster_col). Rows whose id appears
    in only one side are dropped (inner join semantics) and REPORTED as
    ``only_a`` / ``only_b`` — an ARI of 1.0 over the intersection must not
    mask membership disagreement.
    """
    import numpy as np
    import pyarrow as pa

    import ray.data
    from ray.data.aggregate import Count, Sum

    from deduplication_ray.stages.join import shuffle_join

    def _ren(dst):
        # map_batches(pyarrow) rather than rename_columns: also normalizes
        # pandas-block datasets (from_pandas inputs) to Arrow
        def f(t: pa.Table) -> pa.Table:
            return pa.table({id_col: t[id_col], dst: t[cluster_col]})
        return f

    # materialize the (id, label) streams once: .count() below and the join
    # must not re-execute a lazy upstream clustering DAG per consumer
    ren_a = a.map_batches(_ren("_ca"), batch_format="pyarrow").materialize()
    ren_b = b.map_batches(_ren("_cb"), batch_format="pyarrow").materialize()
    rows_a, rows_b = ren_a.count(), ren_b.count()
    j = shuffle_join(ren_a, ren_b, on=[id_col], how="inner")
    cont = j.groupby(["_ca", "_cb"]).aggregate(Count(alias_name="n")) \
        .materialize()

    def _pair_partial(col: str):
        def f(t: pa.Table) -> pa.Table:
            n = t[col].to_numpy().astype(object)  # big-int safe
            s = int(sum(x * (x - 1) // 2 for x in n))
            return pa.table({"s": pa.array([str(s)], pa.string()),
                             "rows": pa.array([int(sum(n))], pa.int64())})
        return f

    def _reduce(ds) -> tuple[int, int]:
        df = ds.to_pandas()
        if df.empty or "s" not in df.columns:
            return 0, 0
        return (sum(int(x) for x in df["s"]), int(df["rows"].sum()))

    s_ab, n_rows = _reduce(cont.map_batches(_pair_partial("n"),
                                            batch_format="pyarrow"))
    s_a, _ = _reduce(cont.groupby("_ca").aggregate(Sum("n", alias_name="m"))
                     .map_batches(_pair_partial("m"), batch_format="pyarrow"))
    s_b, _ = _reduce(cont.groupby("_cb").aggregate(Sum("n", alias_name="m"))
                     .map_batches(_pair_partial("m"), batch_format="pyarrow"))

    # ARI = (S_ab - E) / (0.5*(S_a+S_b) - E), E = S_a*S_b / C(n,2): exact
    # rationals -> floor micro units (ARI == 1 iff identical pair sets)
    tot = n_rows * (n_rows - 1) // 2
    if tot == 0 or (s_a == 0 and s_b == 0):
        ari_micro = 1_000_000 if s_a == s_b else 0
    else:
        num = 2 * (s_ab * tot - s_a * s_b)    # both scaled by 2*tot: exact
        den = (s_a + s_b) * tot - 2 * s_a * s_b
        ari_micro = int(num * 1_000_000 // den) if den else 1_000_000
    return pd.DataFrame({
        "rows": [n_rows],
        "only_a": [rows_a - n_rows],
        "only_b": [rows_b - n_rows],
        "pairs_a": [s_a],
        "pairs_b": [s_b],
        "pairs_agree": [s_ab],
        "ari_micro": [ari_micro],
    })


def cluster_density_report(run_dir: str, cfg=None):
    """Per-cluster edge-density diagnostic over a finished run — the
    transitive-chaining audit every union-find dedup engine needs: a
    cluster whose verified-edge count is far below its all-pairs count
    was merged through CHAINS (a-b, b-c, ... with a and z never directly
    verified), the classic false-merge mode when near-dup thresholds are
    loose. Output per multi-member cluster: member count, verified edge
    count, and density in exact integer milli units
    (2E * 1000 // (n * (n - 1))). density_milli == 1000 -> every pair
    directly verified (a clique, safe); low density on a big cluster ->
    inspect the threshold.

    Plan: one lookup join labels the verified edge list by its src
    endpoint (src and dst share a cluster after convergence), then two
    bounded groupby-counts (edges per label, members per label) and one
    join — cost rides the edge list and the cluster table, never media."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Count
    from deduplication_ray.config import DedupConfig
    from deduplication_ray.sources import storage
    from deduplication_ray.stages.join import lookup_join

    cfg = cfg or DedupConfig()
    edges = storage.read_table(f"{run_dir}/verified_edges",
                               columns=["src", "dst"])
    clusters = storage.read_table(f"{run_dir}/clusters")

    labeled = lookup_join(
        edges.select_columns(["src"]),
        clusters.rename_columns({"image_id": "src"}),
        on=["src"], cfg=cfg)
    e_per = labeled.groupby("cluster_id").aggregate(
        Count(alias_name="n_edges"))
    m_per = clusters.groupby("cluster_id").aggregate(
        Count(alias_name="n_members"))
    j = lookup_join(m_per, e_per, on=["cluster_id"], cfg=cfg, how="left")

    def density(t: pa.Table) -> pa.Table:
        n = t["n_members"].to_numpy().astype(np.int64)
        e = pc.fill_null(t["n_edges"], 0).cast(pa.int64()).to_numpy()
        keep = n >= 2
        n, e = n[keep], e[keep]
        return pa.table({
            "cluster_id": t["cluster_id"].filter(pa.array(keep)),
            "n_members": pa.array(n),
            "n_edges": pa.array(e),
            "density_milli": pa.array(2 * e * 1000 // (n * (n - 1))),
        })

    return j.map_batches(density, batch_format="pyarrow")
