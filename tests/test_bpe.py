"""From-scratch BPE tokenizer (VERDICT r3 next #7): the incremental
driver kernel must equal a naive recount-every-round reference, the
distributed pair-count-round path must equal the driver kernel on the
same corpus regardless of block layout, and encoding must be lossless
(tokens concatenate back to the word)."""

import numpy as np
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def _naive_bpe(wc: dict, n_merges: int) -> list:
    """Textbook BPE: full pair recount every round; highest count wins,
    ties to the lexicographically smallest pair."""
    from collections import Counter

    syms = {w: list(w) for w in wc}
    merges = []
    for _ in range(n_merges):
        pc = Counter()
        for w, c in wc.items():
            s = syms[w]
            for p in zip(s, s[1:]):
                pc[p] += c
        pc = {p: n for p, n in pc.items() if n > 0}
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        from rayxtract.bpe import _apply_merge

        for w in syms:
            syms[w] = _apply_merge(syms[w], best[0], best[1])
    return merges


def _tiny_corpus() -> list:
    rng = np.random.default_rng(23)
    stems = ["walk", "talk", "jump", "run", "code", "data", "token", "pack"]
    sufs = ["", "s", "ed", "ing", "er"]
    return [
        " ".join(
            rng.choice(stems) + rng.choice(sufs)
            for _ in range(int(rng.integers(3, 12)))
        )
        for _ in range(120)
    ]


def test_incremental_kernel_matches_naive():
    from collections import Counter

    from rayxtract.bpe import bpe_train_from_counts

    wc = Counter()
    for t in _tiny_corpus():
        wc.update(t.split())
    wc = dict(wc)
    assert bpe_train_from_counts(wc, 40) == _naive_bpe(wc, 40)
    # exhausting the mergeable space terminates cleanly
    all_merges = bpe_train_from_counts(wc, 10_000)
    assert all_merges == _naive_bpe(wc, 10_000)
    assert len(all_merges) < 10_000


def test_distributed_rounds_match_driver_kernel(ray_session):
    """The per-round exchange argmax (tree aggregate + deterministic
    top-1) picks the same merges as the driver kernel, at any block
    layout."""
    import ray.data

    from rayxtract.bpe import (_bpe_train_distributed, bpe_train,
                               bpe_train_from_counts, word_count_table)

    texts = _tiny_corpus()
    df = pd.DataFrame({"text": pd.Series(texts, dtype="object")})
    from collections import Counter

    wc = Counter()
    for t in texts:
        wc.update(t.split())
    want = bpe_train_from_counts(dict(wc), 12)
    for parts in (2, 8):
        ds = ray.data.from_pandas(df).repartition(parts)
        wc_ds = word_count_table(ds).materialize()
        got = _bpe_train_distributed(wc_ds, 12)
        assert got == want, parts
    # the hybrid dispatcher: driver path below the threshold, distributed
    # above (threshold 0 forces it) — identical merge lists
    ds = ray.data.from_pandas(df).repartition(4)
    a = bpe_train(ds, n_merges=12)
    b = bpe_train(ds, n_merges=12, driver_threshold=0)
    pd.testing.assert_frame_equal(a, b)


def test_encode_lossless_and_counts():
    from collections import Counter

    from rayxtract.bpe import bpe_train_from_counts, encode_word, merge_ranks

    wc = Counter()
    for t in _tiny_corpus():
        wc.update(t.split())
    merges = bpe_train_from_counts(dict(wc), 60)
    mdf = pd.DataFrame(
        {"rank": range(len(merges)),
         "left": [m[0] for m in merges],
         "right": [m[1] for m in merges]}
    )
    ranks = merge_ranks(mdf)
    for w in list(wc) + ["zzzunseenword", "a", ""]:
        toks = encode_word(w, ranks)
        assert "".join(toks) == w  # lossless
        assert len(toks) <= max(1, len(w))
    # a frequent trained word compresses below its char length
    top_word = max(wc.items(), key=lambda kv: kv[1])[0]
    if len(top_word) > 1:
        assert len(encode_word(top_word, ranks)) < len(top_word)


def test_doc_token_counts_match_per_word_sum(ray_session):
    import ray.data

    from rayxtract.bpe import (bpe_doc_token_counts, bpe_train, encode_word,
                               merge_ranks)

    texts = _tiny_corpus()
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype="int64"),
         "text": pd.Series(texts, dtype="object")}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    merges = bpe_train(ds, n_merges=30)
    ranks = merge_ranks(merges)
    got = (
        bpe_doc_token_counts(ds, merges).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    want = [
        sum(len(encode_word(w, ranks)) for w in t.split()) for t in texts
    ]
    assert got["n_tokens"].tolist() == want
