"""Planted-input unit tests for the retrieval family (_bm25_topk) and
cross-corpus novelty — edge cases the corpus-level oracle parity can't
plant deliberately: score ties at the k boundary, docs without query
terms, exact window-overlap counts including within-doc duplicates.
"""

import numpy as np
import pandas as pd


def _from_pandas(df, blocks=3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def test_bm25_scores_match_bruteforce_and_tiebreak(ray_session):
    from rayxtract.queries import _bm25_topk

    # 6 docs; docs 4 and 5 are word-identical -> identical integer score,
    # tie broken by id ascending inside the top-k total order
    texts = [
        "alpha beta alpha gamma",
        "beta beta beta",
        "gamma alpha",
        "delta delta delta delta",
        "alpha beta gamma",
        "alpha beta gamma",
    ]
    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64), "text": texts})
    terms = ("alpha", "beta")
    out = (
        _bm25_topk(lambda: _from_pandas(df), "doc_id", terms, k=4)
        .to_pandas()
        .reset_index(drop=True)
    )

    # brute-force the same integer formula
    toks = [t.split() for t in texts]
    n = len(toks)
    t_tot = sum(len(w) for w in toks)
    dfs = [sum(1 for w in toks if term in w) for term in terms]
    SCALE = 1_000_000
    exp = []
    for did, w in enumerate(toks):
        tfs = [w.count(term) for term in terms]
        if not any(tfs):
            continue
        dl = len(w)
        s = 0
        for tf, dfreq in zip(tfs, dfs):
            if tf:
                s += (22 * tf * t_tot * (2 * (n - dfreq) + 1) * SCALE) // (
                    (10 * tf * t_tot + 3 * t_tot + 9 * dl * n) * (2 * dfreq + 1)
                )
        exp.append((did, dl, s))
    exp.sort(key=lambda r: (-r[2], r[0]))
    exp = exp[:4]

    assert list(out.columns) == ["doc_id", "n_tokens", "score"]
    assert [tuple(r) for r in out.to_numpy()] == exp
    # the tie pair (docs 4, 5) must appear in id order
    ids = out["doc_id"].tolist()
    assert ids.index(4) < ids.index(5)
    # doc 3 (no query terms) never surfaces
    assert 3 not in ids


def test_cross_corpus_novelty_planted_counts(ray_session):
    from rayxtract.dedup import cross_corpus_novelty

    # w=3 windows. Old corpus defines the seen set; new docs overlap in
    # controlled ways (including a repeated window inside one doc).
    old = pd.DataFrame(
        {
            "doc_id": np.array([100, 101], dtype=np.int64),
            "text": [
                "a b c d",        # windows: "a b c", "b c d"
                "x y z",           # window:  "x y z"
            ],
        }
    )
    new = pd.DataFrame(
        {
            "doc_id": np.array([1, 2, 3, 4], dtype=np.int64),
            "text": [
                "a b c d e",       # windows: abc*, bcd*, cde -> 3 windows, 2 seen
                "a b c a b c",     # abc*, bca, cab, abc* -> 4 windows, 2 seen
                "p q r s",         # 3 windows? no: p q r, q r s -> 0 seen
                "x y",             # < w -> no windows, no row
            ],
        }
    )
    out = (
        cross_corpus_novelty(_from_pandas(old), _from_pandas(new), w=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = {
        int(r.doc_id): (int(r.n_windows), int(r.n_seen))
        for r in out.itertuples()
    }
    assert got == {1: (3, 2), 2: (4, 2), 3: (2, 0)}


def test_bloom_prefilter_no_false_negatives(ray_session):
    """Every probe row whose key exists in the build side MUST survive
    the prefilter (bloom misses are guaranteed non-members); the
    composed inner join equals the unfiltered join exactly."""
    from rayxtract.joins import bloom_prefilter, bucketed_join

    rng = np.random.default_rng(7)
    probe = pd.DataFrame(
        {
            "k": rng.integers(0, 10_000, size=20_000).astype(np.int64),
            "v": np.arange(20_000, dtype=np.int64),
        }
    )
    build = pd.DataFrame(
        {"k2": np.arange(0, 400, dtype=np.int64), "w": np.arange(400, dtype=np.int64)}
    )  # 4% of the key space
    p_ds, b_ds = _from_pandas(probe, 4), _from_pandas(build, 2)

    pruned = bloom_prefilter(p_ds, b_ds, "k", "k2", n_bits=1 << 16)
    got = (
        bucketed_join(pruned, b_ds, "k", "k2")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        probe.merge(build, left_on="k", right_on="k2")
        .drop(columns=["k2"])
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)
    # the prefilter must actually prune (~96% of probe rows are misses;
    # a tiny false-positive rate is fine, keeping half is not)
    n_kept = bloom_prefilter(p_ds, b_ds, "k", "k2", n_bits=1 << 16).count()
    assert n_kept < 0.1 * len(probe)
    assert n_kept >= len(exp.drop_duplicates(subset=["k", "v"]))


def test_bloom_prefilter_string_keys(ray_session):
    from rayxtract.joins import bloom_prefilter

    probe = pd.DataFrame(
        {"u": [f"http://site{i}/p" for i in range(2000)]}
    )
    build = pd.DataFrame({"b": [f"http://site{i}/p" for i in range(0, 2000, 50)]})
    kept = (
        bloom_prefilter(
            _from_pandas(probe, 3), _from_pandas(build, 2), "u", "b",
            n_bits=1 << 14,
        )
        .to_pandas()["u"]
        .tolist()
    )
    required = set(build["b"])
    assert required <= set(kept)
    assert len(kept) < 0.2 * len(probe)


def test_bloom_prefilter_empty_build_side(ray_session):
    """An empty build side means no probe row can match: the prefilter
    must return an empty (schema-intact) probe, not crash."""
    from rayxtract.joins import bloom_prefilter

    probe = pd.DataFrame({"k": np.arange(100, dtype=np.int64)})
    build = pd.DataFrame({"k2": pd.Series([], dtype="int64")})
    out = bloom_prefilter(
        _from_pandas(probe, 2), _from_pandas(build, 1), "k", "k2",
        n_bits=1 << 12,
    ).to_pandas()
    assert len(out) == 0


def test_pq_adc_recall_floor(ray_session):
    """ADC recall diagnostic at production code width (8 subspaces x
    256 centroids -> 64-bit codes): the synthetic embeddings are
    uniform randoms — PQ's adversarial case (no cluster structure to
    exploit) — yet the wide codes hold a measured 5-8/10 raw-ADC
    recall at this tier (the 16-bit config sat at 2-3/10). Floor
    asserted with margin below the measured values."""
    from rayxtract.queries import QUERIES

    df = QUERIES["emb_pq_adc_recall"]("/root/testdata/sf0.001")
    assert list(df["k"]) == [10, 10]
    assert (df["n_overlap"] >= 4).all()


def test_ivfpq_rerank_recall_floor(ray_session):
    """IVFADC+R gate (coarse routing + residual-PQ ADC shortlist +
    exact re-rank): every query must recover >= 7 of the exact top-10.
    Measured: [10, 10] at sf0.001, [8, 9] at sf0.01, [7, 10] at sf0.1
    — deterministic per corpus (all fits are seeded + hash-sampled)."""
    from rayxtract.queries import QUERIES, _ivfpq_recall_detail

    det = _ivfpq_recall_detail("/root/testdata/sf0.001")
    assert (det["n_overlap"] >= 7).all()
    gate = QUERIES["emb_ivfpq_recall"]("/root/testdata/sf0.001")
    assert list(gate["floor_ok"]) == [1, 1]
    assert list(gate["recall_floor"]) == [7, 7]


def test_pq_kernel_matches_dense_reference(ray_session):
    """The joint multi-codebook Lloyd (one scan per round for ALL
    subspaces) must reach the same codebooks as the per-subspace dense
    replay from the same init — on a small synthetic table, exact to
    float-sum rounding."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rayxtract.ann import (
        pq_encode,
        pq_fit_codebooks,
        pq_init_codebooks,
        pq_reference_codebooks,
    )

    rng = np.random.RandomState(7)
    mat = rng.rand(300, 16)
    pdf = pd.DataFrame(
        {"vec_id": np.arange(300, dtype=np.int64),
         "embedding": list(mat)}
    )
    ds = ray.data.from_pandas(pdf).repartition(5)
    cbs = pq_fit_codebooks(ds, n_subs=4, width=4, k=8, n_iter=4, seed=3)
    init = pq_init_codebooks(ds, 4, 4, 8, seed=3)
    refs = pq_reference_codebooks(mat, init, width=4, n_iter=4)
    for c_d, c_r in zip(cbs, refs):
        assert np.allclose(c_d, c_r, atol=1e-9)
    # encode round-trip: packed int64 fields unpack to the argmins
    codes = pq_encode(ds, cbs, width=4).to_pandas().sort_values("vec_id")
    pq_int = codes["pq_code"].to_numpy(np.int64)
    for s in range(4):
        got = (pq_int >> np.int64(8 * s)) & 0xFF
        c = cbs[s]
        xs = mat[:, s * 4 : (s + 1) * 4]
        d2 = (
            (xs * xs).sum(axis=1)[:, None]
            - 2.0 * (xs @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        assert (got == np.argmin(d2, axis=1)).all()


def test_gate_slice_caps_and_is_layout_independent(ray_session):
    """_gate_slice: at-or-below the cap the input passes through; above
    it both kernels get the same md5-ranked slice regardless of block
    layout (VERDICT r4 next #6)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rayxtract.queries import _gate_slice

    pdf = pd.DataFrame(
        {"vec_id": np.arange(200, dtype=np.int64),
         "embedding": list(np.random.RandomState(1).rand(200, 4))}
    )
    ds2 = ray.data.from_pandas(pdf).repartition(2)
    ds9 = ray.data.from_pandas(pdf).repartition(9)
    out2, n2, capped2 = _gate_slice(ds2, "vec_id", cap=50)
    out9, n9, capped9 = _gate_slice(ds9, "vec_id", cap=50)
    assert capped2 and capped9 and n2 == n9 == 50
    ids2 = sorted(out2.to_pandas()["vec_id"])
    ids9 = sorted(out9.to_pandas()["vec_id"])
    assert ids2 == ids9
    full, n_full, capped_full = _gate_slice(ds2, "vec_id", cap=500)
    assert not capped_full and n_full == 200


def test_gate_slice_edges_caps(ray_session):
    """_gate_slice_edges: a synthetic oversized edge table is sliced to
    the cap deterministically (same subgraph at any block layout)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rayxtract.queries import _gate_slice_edges

    rng = np.random.RandomState(3)
    pdf = pd.DataFrame(
        {
            "src_url": [f"https://h{i % 37}.example/p{i}" for i in range(400)],
            "dst_url": [f"https://h{j}.example/" for j in rng.randint(0, 37, 400)],
            "n_links": np.ones(400, dtype=np.int64),
        }
    )
    e3 = ray.data.from_pandas(pdf).repartition(3)
    e7 = ray.data.from_pandas(pdf).repartition(7)
    s3, n3, c3 = _gate_slice_edges(e3, cap=100)
    s7, n7, c7 = _gate_slice_edges(e7, cap=100)
    assert c3 and c7 and n3 == n7 == 100
    k3 = sorted(zip(s3.to_pandas()["src_url"], s3.to_pandas()["dst_url"]))
    k7 = sorted(zip(s7.to_pandas()["src_url"], s7.to_pandas()["dst_url"]))
    assert k3 == k7
    _, n_full, capped = _gate_slice_edges(e3, cap=1000)
    assert not capped and n_full == 400
