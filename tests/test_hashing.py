"""Unit tests: vectorized hashing kernels (no Ray needed)."""

import numpy as np
import pyarrow as pa
import pytest

from deduplication_ray.functions import hashing as H


def test_splitmix64_deterministic_and_mixing():
    x = np.arange(1000, dtype=np.uint64)
    h1, h2 = H.splitmix64(x), H.splitmix64(x)
    assert (h1 == h2).all()
    assert len(np.unique(h1)) == 1000
    # avalanche-ish: adjacent inputs differ in ~half the bits
    d = H.popcount64(h1[:-1] ^ h1[1:])
    assert 20 < d.mean() < 44


def test_popcount64():
    vals = np.array([0, 1, 3, 0xFF, 2**63, 2**64 - 1], dtype=np.uint64)
    assert H.popcount64(vals).tolist() == [0, 1, 2, 8, 1, 64]


def test_hash_bytes_array_identity_and_slices():
    texts = ["alpha", "alpha", "alphb", "", "x"]
    arr = pa.array(texts)
    h = H.hash_bytes_array(arr)
    assert h[0] == h[1] and h[0] != h[2]
    assert (H.hash_bytes_array(arr.slice(1, 3)) == h[1:4]).all()
    # order sensitivity
    assert H.hash_bytes_array(pa.array(["ab"]))[0] != H.hash_bytes_array(pa.array(["ba"]))[0]


def _per_row_copy(buf, offsets, lens, dst_starts, padded):
    """The per-row slice loop ``hash_bytes_array`` used before the scatter."""
    for i in range(len(lens)):
        length = lens[i]
        if length:
            d = dst_starts[i]
            padded[d : d + length] = buf[offsets[i] : offsets[i] + length]


def test_hash_bytes_array_scatter_matches_per_row_copy(monkeypatch):
    """The vectorized short-row copy gives bit-identical hashes to the
    per-row loop: empty rows, nulls (also one whose slot spans bytes),
    sliced, large_string and chunked input, rows on both sides of the
    cutoff, seeds 0 and 1."""
    rng = np.random.default_rng(5)
    cut = H._SCATTER_MAX_ROW_BYTES
    lengths = [0, 1, 7, 8, 9, 15, 16, 17, cut - 1, cut, cut + 1, 5000, 0, 3]
    lengths += rng.integers(0, 2 * cut, 200).tolist()
    rows = ["".join(chr(33 + c) for c in rng.integers(0, 90, n))
            for n in lengths]
    rows[4] = rows[20] = None
    base = pa.array(rows)
    # a null whose slot still spans 5 bytes (Arrow leaves them unspecified)
    raw = pa.array(["abc", "defgh", "ij"])
    null_span = pa.Array.from_buffers(
        pa.string(), 3, [pa.array([True, False, True]).buffers()[1],
                         *raw.buffers()[1:]])
    cases = [base, base.slice(3, 150), base.cast(pa.large_string()),
             base.cast(pa.large_string()).slice(1),
             pa.chunked_array([base.slice(0, 90), base.slice(90)]),
             pa.array([b"\x00" * n for n in lengths], pa.binary()),
             null_span, pa.array([], pa.string()), pa.array(["", ""])]
    for seed in (0, 1):
        got = [H.hash_bytes_array(c, seed=seed) for c in cases]
        with monkeypatch.context() as m:
            m.setattr(H, "_copy_rows_padded", _per_row_copy)
            want = [H.hash_bytes_array(c, seed=seed) for c in cases]
        for c, g, w in zip(cases, got, want):
            assert g.dtype == np.uint64 and len(g) == len(c)
            assert (g == w).all(), c.type


def test_shingles_and_minhash():
    arr = pa.array(["hello world", "hello world", "hello worldX", "hi", ""])
    sh, offs = H.shingle_window_hashes(arr, 5)
    assert (np.diff(offs) == [7, 7, 8, 1, 1]).all()
    assert (sh[offs[0]:offs[1]] == sh[offs[1]:offs[2]]).all()
    a, b = H.make_minhash_perms(64, 7)
    sig = H.minhash_signatures(sh, offs, a, b)
    assert sig.shape == (5, 64)
    assert (sig[0] == sig[1]).all()
    est = H.jaccard_estimate(sig[0:1], sig[2:3])[0]
    assert 0.5 < est < 1.0  # true jaccard 7/8


def test_minhash_jaccard_estimate_converges():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2**63, 200).astype(np.uint64)
    variant = base.copy()
    variant[:100] = rng.integers(0, 2**63, 100).astype(np.uint64)  # J = 1/3
    flat = np.concatenate([base, variant])
    offs = np.array([0, 200, 400])
    a, b = H.make_minhash_perms(256, 42)
    sig = H.minhash_signatures(flat, offs, a, b)
    est = H.jaccard_estimate(sig[0:1], sig[1:2])[0]
    assert abs(est - 1 / 3) < 0.12


def test_lsh_band_keys_match_iff_band_equal():
    rng = np.random.default_rng(1)
    sig = rng.integers(0, 2**63, (2, 128)).astype(np.uint64)
    sig[1, :4] = sig[0, :4]  # identical first band (r=4)
    keys = H.lsh_band_keys(sig, 32, 4)
    assert keys[0, 0] == keys[1, 0]
    assert (keys[0, 1:] != keys[1, 1:]).all()


def test_pack_unpack_u64_roundtrip():
    rng = np.random.default_rng(2)
    m = rng.integers(0, 2**63, (17, 128)).astype(np.uint64)
    col = H.pack_u64_rows(m)
    back = H.unpack_u64_rows(col, 128)
    assert (m == back).all()
    # survives slicing (non-zero offset)
    assert (H.unpack_u64_rows(col.slice(3, 5), 128) == m[3:8]).all()


def test_simhash_angular():
    planes = H.make_simhash_planes(64, 32, 42)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((8, 32)).astype(np.float32)
    near = f + rng.standard_normal((8, 32)).astype(np.float32) * 0.01
    far = rng.standard_normal((8, 32)).astype(np.float32)
    d_near = H.hamming_distance_u64(
        H.simhash_from_features(f, planes), H.simhash_from_features(near, planes))
    d_far = H.hamming_distance_u64(
        H.simhash_from_features(f, planes), H.simhash_from_features(far, planes))
    assert d_near.mean() < 5 and d_far.mean() > 20


def test_plan_lsh_params_s_curve():
    """Planner returns valid factorizations; the banding S-curve properties
    hold (recall at threshold, sharply lower candidate prob below it); the
    repo's default 32x4 config is what the planner picks for t=0.7."""
    from deduplication_ray.stages.lsh import plan_lsh_params

    for t in (0.5, 0.6, 0.7, 0.8, 0.9):
        p = plan_lsh_params(t, num_perm=128)
        assert p["bands"] * p["rows_per_band"] == 128
        assert p["recall_ok"] and p["p_at_threshold"] >= 0.99
        assert p["p_at_fp"] < p["p_at_threshold"]

    assert plan_lsh_params(0.7, 128) == {
        "bands": 32, "rows_per_band": 4,
        "p_at_threshold": 0.999847, "p_at_fp": 0.383588, "recall_ok": True}

    # an unreachable recall target reports itself instead of lying
    hopeless = plan_lsh_params(0.05, num_perm=4, min_recall=0.999)
    assert not hopeless["recall_ok"]


def test_icws_signatures_match_serial_reference():
    """Bitwise parity of the vectorized ICWS kernel vs a per-element,
    per-sample serial transcription of Ioffe 2010."""
    import numpy as np

    from deduplication_ray.functions import hashing as H

    rng = np.random.default_rng(5)
    rows = [
        {"toks": rng.integers(1, 2**63, 5).astype(np.uint64),
         "w": rng.integers(1, 40, 5).astype(np.int64)},
        {"toks": rng.integers(1, 2**63, 1).astype(np.uint64),
         "w": np.array([7], np.int64)},
        {"toks": rng.integers(1, 2**63, 12).astype(np.uint64),
         "w": rng.integers(1, 9, 12).astype(np.int64)},
    ]
    tok = np.concatenate([r["toks"] for r in rows])
    w = np.concatenate([r["w"] for r in rows])
    offs = np.cumsum([0] + [len(r["toks"]) for r in rows]).astype(np.int64)
    P, seed = 16, 11
    T, Q = H.icws_signatures(tok, w, offs, P, seed)

    def uni(h):
        return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    for i, r in enumerate(rows):
        for k in range(P):
            ck = H.splitmix64(np.asarray(
                [np.uint64(seed) * np.uint64(0x9E37) + np.uint64(k)
                 + np.uint64(1)], np.uint64))[0]
            best = (np.inf, None, None)
            for t, wt in zip(r["toks"], r["w"]):
                with np.errstate(over="ignore"):
                    h1 = H.splitmix64(np.asarray([t + ck], np.uint64))
                    h2 = H.splitmix64(h1)
                    h3 = H.splitmix64(h2)
                    h4 = H.splitmix64(h3)
                    h5 = H.splitmix64(h4)
                rr = -np.log(uni(h1) * uni(h2))[0]
                cc = -np.log(uni(h3) * uni(h4))[0]
                bb = uni(h5)[0]
                q = np.floor(np.log(np.float64(wt)) / rr + bb)
                a = cc / np.exp(rr * (q - bb) + rr)
                if a < best[0]:
                    best = (a, t, q)
            assert T[i, k] == best[1]
            assert Q[i, k] == np.int64(best[2])


def test_icws_collision_probability_is_weighted_jaccard():
    """The CWS property: P[sample collision] == sum(min)/sum(max). Checked
    at P=4096 within the 4.5-sigma binomial band on sets with overlapping
    tokens at different weights."""
    import numpy as np

    from deduplication_ray.functions import hashing as H

    toks = np.arange(1, 11, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    wa = np.array([5, 3, 1, 8, 2, 4, 1, 1, 6, 2], np.int64)
    wb = np.array([1, 3, 4, 2, 2, 9, 1, 5, 1, 1], np.int64)
    jw = np.minimum(wa, wb).sum() / np.maximum(wa, wb).sum()

    P = 4096
    tok = np.concatenate([toks, toks])
    w = np.concatenate([wa, wb])
    offs = np.array([0, 10, 20], np.int64)
    T, Q = H.icws_signatures(tok, w, offs, P, seed=3)
    est = ((T[0] == T[1]) & (Q[0] == Q[1])).mean()
    sigma = np.sqrt(jw * (1 - jw) / P)
    assert abs(est - jw) <= 4.5 * sigma + 1.0 / P


def test_oph_signatures_properties():
    """One-Permutation Hashing kernel invariants: identical sets match on
    every (densified) slot; estimates are unbiased within the binomial
    band; per-row signatures are partition-invariant; sparse rows densify
    fully; empty rows stay at u64 MAX."""
    import numpy as np

    from deduplication_ray.functions import hashing as H

    rng = np.random.default_rng(7)
    A = rng.integers(0, 2**63, 300, dtype=np.uint64)
    B = np.concatenate([A[:200], rng.integers(0, 2**63, 100, dtype=np.uint64)])
    J = len(np.intersect1d(A, B)) / len(np.union1d(A, B))
    P = 128
    offs = np.array([0, len(A), len(A) + len(B)], np.int64)

    # identical rows -> all slots equal, densified ones included
    s_eq = H.oph_signatures(np.concatenate([A, A]),
                            np.array([0, len(A), 2 * len(A)], np.int64), P, 17)
    assert (s_eq[0] == s_eq[1]).all()

    # partition invariance: per-row signatures don't depend on batch makeup
    both = H.oph_signatures(np.concatenate([A, B]), offs, P, 17)
    alone_a = H.oph_signatures(A, np.array([0, len(A)], np.int64), P, 17)
    alone_b = H.oph_signatures(B, np.array([0, len(B)], np.int64), P, 17)
    assert (alone_a[0] == both[0]).all() and (alone_b[0] == both[1]).all()

    # unbiased: mean estimate over independent seeds lands on J within the
    # standard error of the mean (std <= binomial sigma for OPH)
    n_seeds = 60
    ests = [(lambda s: (s[0] == s[1]).mean())(
        H.oph_signatures(np.concatenate([A, B]), offs, P, seed=s))
        for s in range(n_seeds)]
    sem = np.sqrt(J * (1 - J) / P / n_seeds)
    assert abs(np.mean(ests) - J) <= 4.5 * sem + 1.0 / P

    # sparse row densifies every slot; empty row stays MAX
    C = rng.integers(0, 2**63, 5, dtype=np.uint64)
    sC = H.oph_signatures(C, np.array([0, 5], np.int64), P, 17)
    assert (sC != np.iinfo(np.uint64).max).all()
    sE = H.oph_signatures(np.empty(0, np.uint64), np.array([0, 0], np.int64),
                          P, 17)
    assert (sE == np.iinfo(np.uint64).max).all()

    # power-of-two contract is loud
    import pytest

    with pytest.raises(ValueError):
        H.oph_signatures(A, np.array([0, len(A)], np.int64), 100, 17)


def test_plan_hamming_radius_operating_point():
    """Planner invariants: picks the smallest radius meeting target recall;
    separable planted distributions yield a radius between the modes; the
    F1 radius never exceeds the recall-1.0 radius; the default pHash config
    radius (10) meets 0.99 recall on a fixture-like positive distribution."""
    import numpy as np
    import pytest

    from deduplication_ray.stages.verify import plan_hamming_radius

    rng = np.random.default_rng(5)
    pos = rng.binomial(64, 0.04, 4000)   # dup pairs: ~2.6 bits differ
    neg = rng.binomial(64, 0.5, 4000)    # random pairs: ~32 bits
    plan = plan_hamming_radius(pos, neg, target_recall=0.99)
    assert plan["recall_ok"] and plan["recall"] >= 0.99
    assert plan["radius"] < 16            # well under the negative mode
    assert plan["fpr"] == 0.0             # fully separable sample
    # smallest-radius property: one bit less misses the target
    r = plan["radius"]
    assert (pos <= r - 1).mean() < 0.99
    # the F1 point never lies past the recall-1.0 cutoff (the sweep's end)
    assert plan["f1_radius"] <= plan["sweep"][-1][0]
    # the shipped default (phash_hamming_t=10) is consistent with this
    # positive distribution
    assert (pos <= 10).mean() >= 0.99

    # monotone sweep recall
    recalls = [m for _, m, _ in plan["sweep"]]
    assert recalls == sorted(recalls)

    with pytest.raises(ValueError):
        plan_hamming_radius([], [1, 2])


def test_cli_plan_verb(tmp_path, capsys):
    """`cli plan` prints JSON operating points without a Ray session."""
    import json

    from deduplication_ray import cli

    rc = cli.main(["plan", "--jaccard-threshold", "0.8"])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and out["lsh"]["recall_ok"]
    assert out["lsh"]["bands"] * out["lsh"]["rows_per_band"] == 128

    pos = tmp_path / "pos.txt"
    pos.write_text("2\n3\n1\n")
    rc = cli.main(["plan", "--hamming-pos", str(pos)])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and out["hamming"]["radius"] == 3

    assert cli.main(["plan"]) == 2
