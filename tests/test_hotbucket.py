"""Hot-bucket guard tests (VERDICT r2 top-next #1): a degenerate LSH band
key — thousands of boilerplate-identical docs sharing one signature, the
real shape of web corpora — must produce BOUNDED pair output (star pairs to
a representative, not O(n^2) all-pairs) in bounded wall-time, in all three
candidate generators. Plus an output-equivalence proof that the guarded
path is identical to the unguarded one whenever no identical-signature
collapse happens and the rep cap is not hit."""

import time

import numpy as np
import pandas as pd
import pytest


def _docs_with_identical_block(n_identical: int, n_distinct: int) -> pd.DataFrame:
    boiler = (
        "terms and conditions apply please read this boilerplate notice "
        "carefully before proceeding all rights reserved contact support"
    )
    texts = [boiler] * n_identical + [
        " ".join(f"tok{i}w{j}" for j in range(30)) for i in range(n_distinct)
    ]
    return pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype="int64"), "text": texts}
    )


def test_minhash_hot_bucket_bounded(ray_session):
    import ray.data

    from rayxtract.neardup import cluster_pairs, minhash_candidate_pairs

    n_ident = 5000
    df = _docs_with_identical_block(n_ident, 12)
    ds = ray.data.from_pandas(df)
    t0 = time.monotonic()
    pairs = minhash_candidate_pairs(ds, jaccard_threshold=0.5).to_pandas()
    elapsed = time.monotonic() - t0
    # unguarded: 16 bands x C(5000,2) ~ 2e8 pairs in one task; guarded:
    # one star pair per identical member (+ nothing for the distinct docs)
    assert len(pairs) < 3 * n_ident, f"pair explosion: {len(pairs)}"
    assert elapsed < 240, f"hot bucket stalled the pair stage: {elapsed:.0f}s"
    # connectivity is preserved: all identical docs form ONE cluster
    clusters = cluster_pairs(pairs)
    ident_clusters = clusters[clusters["doc_id"] < n_ident]["cluster"].unique()
    assert len(ident_clusters) == 1
    assert len(clusters[clusters["doc_id"] < n_ident]) == n_ident


def test_simhash_hot_bucket_bounded(ray_session):
    import ray.data

    from rayxtract.neardup import simhash_candidate_pairs

    n_ident = 5000
    df = _docs_with_identical_block(n_ident, 12)
    t0 = time.monotonic()
    pairs = simhash_candidate_pairs(ray.data.from_pandas(df)).to_pandas()
    elapsed = time.monotonic() - t0
    assert len(pairs) < 3 * n_ident, f"pair explosion: {len(pairs)}"
    assert elapsed < 240, f"hot bucket stalled the pair stage: {elapsed:.0f}s"
    # identical docs connect via hamming-0 star pairs
    ident = pairs[(pairs["doc_a"] < n_ident) & (pairs["doc_b"] < n_ident)]
    touched = set(ident["doc_a"]) | set(ident["doc_b"])
    assert len(touched) == n_ident
    assert (ident["hamming"] == 0).all()


def test_embedding_hot_bucket_bounded(ray_session):
    import ray.data

    from rayxtract.neardup import embedding_neardup_pairs

    n_ident = 3000
    rng = np.random.RandomState(3)
    base = np.zeros(16)
    base[0] = 1.0
    vecs = [base.copy() for _ in range(n_ident)] + [
        rng.randn(16) for _ in range(50)
    ]
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(vecs), dtype="int64"),
            "embedding": [v.astype(np.float64) for v in vecs],
        }
    )
    t0 = time.monotonic()
    pairs = embedding_neardup_pairs(
        ray.data.from_pandas(df), threshold=0.9
    ).to_pandas()
    elapsed = time.monotonic() - t0
    assert len(pairs) < 2 * n_ident, f"pair explosion: {len(pairs)}"
    assert elapsed < 240, f"hot bucket stalled the pair stage: {elapsed:.0f}s"
    ident = pairs[(pairs["vec_a"] < n_ident) & (pairs["vec_b"] < n_ident)]
    touched = set(ident["vec_a"]) | set(ident["vec_b"])
    assert len(touched) == n_ident
    assert (ident["cosine"] >= 0.999).all()


def _family_rows(kind: str):
    """One LSH family's exploded (band, band_key, id, ident) rows over
    inputs with pairwise-distinct idents, and its family. Identical idents
    WOULD legitimately change the pair set under the guard."""
    from rayxtract import neardup as nd

    # stride-10 sliding windows: adjacent docs share 30 of 40 words — high
    # enough for band collisions, low enough that no two docs share a full
    # signature or simhash
    words = [f"w{i}" for i in range(400)]
    texts = [" ".join(words[10 * i : 10 * i + 40]) for i in range(33)]
    ids = np.arange(len(texts), dtype="int64")
    if kind == "minhash":
        sigs = nd.MinHashBatch().signatures(texts)
        batch = pd.DataFrame({"doc_id": ids, "sig": sigs})
        return nd._explode_bands(batch, 16), nd._minhash_family()
    if kind == "simhash":
        batch = pd.DataFrame(
            {"doc_id": ids, "simhash": nd.SimHashBatch().signatures(texts)}
        )
        return nd._simhash_bands(batch), nd._simhash_family(24)
    rng = np.random.RandomState(5)
    vecs = np.ones(16) + 0.3 * rng.randn(40, 16)
    batch = pd.DataFrame(
        {"vec_id": np.arange(40, dtype="int64"), "embedding": list(vecs)}
    )
    rows = nd._embedding_bands(batch, 6, 8, 11, "vec_id", "embedding")
    return rows, nd._embedding_family(0.9)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    a, b = df.columns[:2]
    return (
        df.drop_duplicates([a, b]).sort_values([a, b]).reset_index(drop=True)
    )


@pytest.mark.parametrize("kind", ["minhash", "simhash", "embedding"])
def test_guarded_path_equivalent_on_distinct_sigs(kind):
    """With pairwise-distinct idents and fewer reps than the cap, the
    guarded path (size_cap=0 forces it for every group) must emit exactly
    the all-pairs result — the guard changes nothing on normal corpora."""
    from rayxtract.neardup import _bucket_pairs

    rows, fam = _family_rows(kind)
    assert rows.groupby("id")["ident"].first().is_unique  # precondition
    normal = _canon(_bucket_pairs(rows, fam))
    guarded = _canon(_bucket_pairs(rows, fam, size_cap=0))
    pd.testing.assert_frame_equal(normal, guarded)
    assert len(normal) > 0  # the inputs do collide in some band


@pytest.mark.parametrize("kind", ["minhash", "simhash", "embedding"])
def test_hot_bucket_rep_cap_logs_once(kind, caplog):
    """One group with more distinct idents than _BUCKET_MAX_REPS pairs only
    the first _BUCKET_MAX_REPS reps (by id) and logs ONE warning naming
    the family."""
    from rayxtract import neardup as nd

    n = nd._BUCKET_MAX_REPS + 40
    fam = {
        "minhash": nd._minhash_family(),
        "simhash": nd._simhash_family(3),
        "embedding": nd._embedding_family(-1.0),
    }[kind]
    if kind == "embedding":
        units = np.random.RandomState(2).randn(n, 4)
        units /= np.linalg.norm(units, axis=1)[:, None]
        idents = [u.tobytes() for u in units]
    else:
        idents = np.arange(n, dtype="int64") * 7
    rows = pd.DataFrame(
        {"band": 0, "band_key": 99, "id": np.arange(n, dtype="int64")[::-1],
         "ident": idents[::-1]}
    )
    with caplog.at_level("WARNING", logger="rayxtract.neardup"):
        out = nd._bucket_pairs(rows, fam)
    hot = [r for r in caplog.records if "hot LSH bucket" in r.getMessage()]
    assert len(hot) == 1 and f"({kind})" in hot[0].getMessage()
    a, b = list(fam.cols)[:2]
    assert len(out) > 0
    assert out[[a, b]].to_numpy().max() < nd._BUCKET_MAX_REPS
    assert (out[a] < out[b]).all()


def test_prefix_filter_hot_bucket_collapsed_and_exact(ray_session):
    """VERDICT r3 top-next #1: 5k identical docs must NOT go quadratic in
    the prefix-gram candidate stage. The signature collapse routes ONE
    representative through the prefix pipeline and expands verified rep
    pairs exactly; the full C(5000,2) output pair set (inherent to the
    exact-join contract) appears at jaccard 1.0 WITHOUT per-pair
    verification, in bounded wall-time."""
    import ray.data

    from rayxtract.neardup import prefix_filter_pairs

    n_ident = 5000
    boiler = " ".join(f"bw{j}" for j in range(15))
    near = boiler.split()
    near[7] = "CHANGED"  # 15 words, k=3: 13 grams; 3 flip -> J = 10/16
    texts = (
        [boiler] * n_ident
        + [" ".join(near)]
        # distinct docs on disjoint vocab: provably zero cross pairs
        + [" ".join(f"d{i}x{j}" for j in range(20)) for i in range(50)]
    )
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype="int64"), "text": texts}
    )
    t0 = time.monotonic()
    out = prefix_filter_pairs(
        ray.data.from_pandas(df).repartition(8), k=3, threshold=0.5
    )
    n_exact = out.map_batches(
        lambda b: pd.DataFrame(
            {
                "ones": np.ones(len(b), dtype="int64"),
                "full": (b["jaccard"].to_numpy() == 1.0).astype("int64"),
                "near": (
                    np.abs(b["jaccard"].to_numpy() - 10.0 / 16.0) < 1e-12
                ).astype("int64"),
            }
        ),
        batch_format="pandas",
    ).sum(["ones", "full", "near"])
    elapsed = time.monotonic() - t0
    want_within = n_ident * (n_ident - 1) // 2
    assert n_exact["sum(full)"] == want_within
    assert n_exact["sum(near)"] == n_ident  # near-dup doc pairs every member
    assert n_exact["sum(ones)"] == want_within + n_ident
    # unguarded all-pairs + per-pair verify of 12.5M candidates took
    # minutes; the collapsed path verifies O(n) star pairs + 1 rep pair
    assert elapsed < 180, f"identical-class corpus stalled: {elapsed:.0f}s"


def test_prefix_filter_exact_under_block_splitting(ray_session):
    """Ray's dynamic block splitting can slice one doc's exploded gram
    rows across blocks; a batch-local doc_sig dedup would then duplicate
    class_map rows and emit duplicate output pairs (code-review finding).
    Force tiny blocks and assert the pair MULTISET is still exact."""
    import ray
    import ray.data

    from rayxtract.neardup import prefix_filter_pairs

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024  # 64 KB — forces splits
    try:
        n_ident = 400
        boiler = " ".join(f"xw{j}" for j in range(40))
        texts = [boiler] * n_ident + [
            " ".join(f"q{i}y{j}" for j in range(25)) for i in range(30)
        ]
        df = pd.DataFrame(
            {"doc_id": np.arange(len(texts), dtype="int64"), "text": texts}
        )
        out = prefix_filter_pairs(
            ray.data.from_pandas(df).repartition(4), k=3, threshold=0.5
        ).to_pandas()
        want = n_ident * (n_ident - 1) // 2
        assert len(out) == want, f"{len(out)} pairs vs {want} expected"
        assert len(out.drop_duplicates(["doc_a", "doc_b"])) == want
        assert (out["jaccard"] == 1.0).all()
    finally:
        ctx.target_max_block_size = old
