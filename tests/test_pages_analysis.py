"""Text analysis over the pages corpus: language-ID accuracy vs labels."""


def test_pages_langid_accuracy(small_corpus):
    import ray.data

    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset
    from rayxtract.textops import LangIdBatch

    pages_dir, _ = small_corpus
    ds = extraction_dataset(pages_dir, ExtractConfig())
    df = (
        ds.map_batches(
            LangIdBatch, batch_format="pandas", batch_size=512, concurrency=2
        )
        .select_columns(["lang", "lang_pred", "is_parse_failure", "error"])
        .to_pandas()
    )
    ok = df[(~df["is_parse_failure"]) & (df["error"] == "")]
    acc = (ok["lang"] == ok["lang_pred"]).mean()
    assert acc >= 0.8, f"langid accuracy {acc:.3f}"


def test_minhash_finds_planted_page_neardups(small_corpus):
    """MinHash+LSH over extracted page text recovers the corpus's planted
    near-duplicates (perturbed-copy pages) with high recall and finds no
    pairs among unrelated pages."""
    import pandas as pd

    from rayxtract.neardup import minhash_candidate_pairs
    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset
    from rayxtract.synth import _kind, _url, neardup_source

    pages_dir, _ = small_corpus
    ds = extraction_dataset(pages_dir, ExtractConfig())
    # exclude sentinel rows ([ERRO: ...] texts are near-identical by design)
    ds = ds.filter(expr="error == ''")
    docs = ds.map_batches(
        lambda b: pd.DataFrame(
            {
                # minhash op wants (doc_id, text); derive doc_id from url idx
                "doc_id": b["url"].str.slice(-8).astype("int64"),
                "text": b["text"],
            }
        ),
        batch_format="pandas",
    )
    pairs = minhash_candidate_pairs(docs, jaccard_threshold=0.45).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}

    planted = set()
    for idx in range(1000):
        src = neardup_source(idx)
        if src is not None and _kind(idx, 42) == "neardup":
            planted.add((min(src, idx), max(src, idx)))
    assert planted, "corpus should contain planted near-dups"
    recall = len(planted & found) / len(planted)
    assert recall >= 0.75, f"recall {recall:.2f} over {len(planted)} planted"
    # precision: no pairs outside the planted set (word-soup pages are
    # pairwise dissimilar at this threshold)
    extras = found - planted
    assert len(extras) <= max(1, len(found) // 20), extras


def test_exact_jaccard_verify(small_corpus):
    """ngram_jaccard_verify confirms planted pairs with true Jaccard."""
    from rayxtract.queries import q_pages_neardup_exact

    pairs = q_pages_neardup_exact("/root/testdata/sf0.001").to_pandas()
    assert len(pairs) > 0
    assert (pairs["jaccard"] >= 0.5).all()
    from rayxtract.synth import _kind, neardup_source

    planted = set()
    for idx in range(1000):
        src = neardup_source(idx)
        if src is not None and _kind(idx, 42) == "neardup":
            planted.add((min(src, idx), max(src, idx)))
    found = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert len(planted & found) / len(planted) >= 0.7


def test_minhash_est_spill_cache_equivalence(small_corpus, tmp_path):
    """The cached path returns the SAME pairs as the direct computation,
    for a threshold different from the one that built the cache (the
    cached estimate table is threshold-independent)."""
    import pandas as pd

    from rayxtract.neardup import minhash_candidate_pairs
    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset

    pages_dir, _ = small_corpus
    ds = extraction_dataset(pages_dir, ExtractConfig()).filter(expr="error == ''")
    docs = ds.map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["url"].str.slice(-8).astype("int64"),
                "text": b["text"],
            }
        ),
        batch_format="pandas",
    )

    def canon(res):
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    cache = (str(tmp_path / "c"), [pages_dir])
    # build the cache at threshold 0.45 ...
    cold = canon(
        minhash_candidate_pairs(docs, jaccard_threshold=0.45, cache=cache)
    )
    direct = canon(minhash_candidate_pairs(docs, jaccard_threshold=0.45))
    pd.testing.assert_frame_equal(cold, direct)
    # ... and serve a DIFFERENT threshold from it
    warm_035 = canon(
        minhash_candidate_pairs(docs, jaccard_threshold=0.35, cache=cache)
    )
    direct_035 = canon(minhash_candidate_pairs(docs, jaccard_threshold=0.35))
    pd.testing.assert_frame_equal(warm_035, direct_035)
    assert len(warm_035) >= len(cold)


def test_minhash_est_spill_rejects_mismatched_params(small_corpus, tmp_path):
    """A cache built with one LSH parameter set must not serve a request
    with different parameters: those are another key, computed afresh."""
    import pandas as pd

    from rayxtract.neardup import minhash_candidate_pairs
    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset

    pages_dir, _ = small_corpus
    ds = extraction_dataset(pages_dir, ExtractConfig()).filter(expr="error == ''")
    docs = ds.map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["url"].str.slice(-8).astype("int64"),
                "text": b["text"],
            }
        ),
        batch_format="pandas",
    ).materialize()  # three runs below: extract once

    def canon(res):
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    cache = (str(tmp_path / "c"), [pages_dir])
    p64 = canon(minhash_candidate_pairs(docs, jaccard_threshold=0.45, cache=cache))
    p128 = canon(
        minhash_candidate_pairs(docs, jaccard_threshold=0.45, cache=cache, num_perm=128)
    )
    direct = canon(minhash_candidate_pairs(docs, jaccard_threshold=0.45, num_perm=128))
    pd.testing.assert_frame_equal(p128, direct)
    assert not p64.equals(p128)
