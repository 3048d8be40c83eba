"""Unit tests: suffix array, LCP runs, L-gram rendezvous edges."""

import numpy as np
import pyarrow as pa

from deduplication_ray.config import DedupConfig
from deduplication_ray.stages.substring import SuffixArrayEdges, suffix_array


def test_suffix_array_banana():
    s = np.frombuffer(b"banana", dtype=np.uint8).copy()
    sa = suffix_array(s)
    assert [bytes(s[i:]).decode() for i in sa] == [
        "a", "ana", "anana", "banana", "na", "nana"]


def test_suffix_array_repetitive():
    s = np.frombuffer(b"aaaaaaaaaa", dtype=np.uint8).copy()
    sa = suffix_array(s)
    assert sa.tolist() == list(range(9, -1, -1))


def _cfg():
    return DedupConfig(substring_min_len=10)


def test_sa_edges_detect_embedded_caption():
    a = "the quick brown fox jumps over the lazy dog"
    b = "PREFIX words " + a + " SUFFIX words"
    c = "completely different caption with no overlap at all"
    t = pa.table({"image_id": ["A", "B", "C"], "caption": [a, b, c]})
    edges = SuffixArrayEdges(_cfg())(t).to_pandas()
    pairs = set(map(tuple, edges[["src", "dst"]].values))
    assert ("A", "B") in pairs
    assert not any("C" in p for p in pairs)


def test_sa_edges_no_cross_doc_span():
    """Separator must prevent matches spanning document boundaries."""
    t = pa.table({
        "image_id": ["A", "B", "C", "D"],
        "caption": ["xxxxxyyyyy", "yyyyyzzzzz", "aaabbbccc", "dddeeefff"],
    })
    edges = SuffixArrayEdges(DedupConfig(substring_min_len=8))(t).to_pandas()
    assert len(edges) == 0


def test_cross_batch_substring_at_lmin_window_gap(ray_session):
    """Regression: a shared substring just above Lmin, with the two docs in
    DIFFERENT suffix-array batches, must still link — through the L-gram
    rendezvous, which proves the >= Lmin overlap with no verification join
    (a sparser minimizer key set once missed lengths just above Lmin)."""
    import pandas as pd

    import ray.data

    from deduplication_ray.config import DedupConfig
    from deduplication_ray.stages import verify
    from deduplication_ray.stages.substring import substring_buckets

    cfg = DedupConfig(num_partitions=2, text_batch_size=4, sa_batch_size=4)
    s = "shared secret segment of exactly fortyfive"  # 42 normalized chars
    assert cfg.substring_min_len <= len(s)
    fillers = [f"completely unrelated filler text number {i} padding words xyz{i}"
               for i in range(6)]
    rows = pd.DataFrame({
        "image_id": [f"d{i}" for i in range(8)],
        "caption": (["prefix one " + s + " tail alpha"] + fillers[:3]
                    + ["prefix two " + s + " tail beta"] + fillers[3:]),
    })
    ds = ray.data.from_pandas(rows)
    # default accept over an id-only index: 'substr' pairs are trusted, so
    # no signature column is ever read
    edges = verify.pair_and_verify(
        substring_buckets(ds, cfg),
        verify.signature_index(ds.select_columns(["image_id"]), cfg),
        cfg).to_pandas()
    pairs = {tuple(sorted(p)) for p in zip(edges["src"], edges["dst"])}
    assert ("d0", "d4") in pairs, pairs
    assert all(k == "substr" for k in edges["kind"])
