"""Unit tests for the curation kernels (rayxtract/curation.py): planted-PII
redaction, chunking edges, Gopher rules, normalization, and the paragraph-
dedup winner semantics on a hand-built corpus."""

import hashlib

import pandas as pd
import pytest

from rayxtract.curation import (
    GOPHER_STOPWORDS,
    chunk_words,
    gopher_signals,
    line_boilerplate,
    normalize_text,
    paragraph_dedup,
    redact_pii,
    split_assign,
)


def test_redact_pii_planted():
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "mail bob.smith+x@sub.example.org twice: a@b.co end",
                "server at 192.168.0.1 and 10.0.0.255; call (41) 99876-5432",
                "no pii here at all",
            ],
        }
    )
    out = redact_pii(df)
    assert out["n_emails"].tolist() == [2, 0, 0]
    assert out["n_ips"].tolist() == [0, 2, 0]
    assert out["n_phones"].tolist() == [0, 1, 0]
    # redaction is total: no '@', digit-run or dotted-quad survives row 0/1
    assert out["redacted_md5"][2] == hashlib.md5(b"no pii here at all").hexdigest()


def test_redact_pii_order_email_shields_digits():
    # digits inside an email are consumed by the email stage, never counted
    # as a phone — the sequential-order contract
    df = pd.DataFrame({"doc_id": [0], "text": ["write 55501234567@phones.example ok"]})
    out = redact_pii(df)
    assert out["n_emails"][0] == 1
    assert out["n_phones"][0] == 0


def test_chunk_words_edges():
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": ["w " * 130, "one", "   "],  # 130 words / 1 word / empty
        }
    )
    out = chunk_words(df, chunk_words_n=64)
    assert out[out["doc_id"] == 0]["n_words_chunk"].tolist() == [64, 64, 2]
    assert out[out["doc_id"] == 1]["n_words_chunk"].tolist() == [1]
    assert (out["doc_id"] == 2).sum() == 0  # empty doc emits no chunks
    assert out[out["doc_id"] == 0]["chunk_id"].tolist() == [0, 1, 2]


def test_gopher_signals_bounds():
    good = " ".join(["the", "and"] + ["word"] * 60)  # 62 words, sane lengths
    short = "the and tiny"  # < 50 words
    no_stop = " ".join(["zzzz"] * 60)  # no stopword hits
    long_words = " ".join(["x" * 40] * 60)  # mean word len > 10
    df = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": [good, short, no_stop, long_words]}
    )
    out = gopher_signals(df)
    assert out["is_kept"].tolist() == [True, False, False, False]
    assert out.loc[0, "n_stop_hits"] == 2
    assert set(GOPHER_STOPWORDS) >= {"the", "and"}


def test_split_assign_deterministic_and_total():
    df = pd.DataFrame({"doc_id": range(64), "text": [f"doc {i}" for i in range(64)]})
    a = split_assign(df)
    b = split_assign(df.sample(frac=1.0, random_state=7))  # order-independent
    merged = a.merge(b, on="doc_id", suffixes=("_a", "_b"))
    assert (merged["split_a"] == merged["split_b"]).all()
    assert set(a["split"]) <= {"train", "val", "test"}


def test_normalize_text():
    assert normalize_text("  a\n\nb\tc  ") == "a b c"
    # NFC: e + combining acute composes to é
    assert normalize_text("é") == "é"


@pytest.mark.usefixtures("ray_session")
def test_paragraph_dedup_winner_semantics():
    import ray

    # doc A: [x, y]; doc B: [y, z, x]; doc C: [x] (loses everything)
    # winners: x@(A,0), y@(A,1), z@(B,1)
    rows = [
        {"url": "a", "text": "x\ny"},
        {"url": "b", "text": "y\nz\nx"},
        {"url": "c", "text": "x"},
    ]
    out = paragraph_dedup(ray.data.from_items(rows)).to_pandas()
    out = out.set_index("url")
    assert out.loc["a", "n_paras_kept"] == 2
    assert out.loc["a", "cleaned_md5"] == hashlib.md5(b"x\ny").hexdigest()
    assert out.loc["b", "n_paras_kept"] == 1
    assert out.loc["b", "n_paras_in"] == 3
    assert out.loc["b", "cleaned_md5"] == hashlib.md5(b"z").hexdigest()
    assert "c" not in out.index  # every paragraph lost to an earlier copy


@pytest.mark.usefixtures("ray_session")
def test_line_boilerplate_semantics():
    import ray

    # "nav" appears in 3 docs (boilerplate), "y" in 2 (boilerplate at
    # min_ids=2), "nav" twice within doc d alone would NOT count — distinct
    # docs, not occurrences, trip the threshold
    rows = [
        {"url": "a", "text": "nav\nalpha\ny"},
        {"url": "b", "text": "nav\nbeta"},
        {"url": "c", "text": "nav\ny"},
        {"url": "d", "text": "solo\nsolo\ngamma"},  # solo repeats in ONE doc
        {"url": "e", "text": "nav"},  # everything boilerplate -> empty
    ]
    out = (
        line_boilerplate(ray.data.from_items(rows))
        .to_pandas()
        .set_index("url")
    )
    assert len(out) == 5  # every doc emits a row, even the emptied one
    assert out.loc["a", "n_lines_kept"] == 1
    assert out.loc["a", "cleaned_md5"] == hashlib.md5(b"alpha").hexdigest()
    assert out.loc["c", "n_lines_kept"] == 0
    assert out.loc["c", "cleaned_md5"] == hashlib.md5(b"").hexdigest()
    assert out.loc["d", "n_lines_kept"] == 3  # within-doc repeat survives
    assert out.loc["e", "n_lines_kept"] == 0
    assert out.loc["e", "n_lines_in"] == 1


@pytest.mark.usefixtures("ray_session")
def test_line_boilerplate_modes_agree():
    import ray

    rows = [
        {"url": f"u{i}", "text": f"footer line\ncontent {i}\n{'ad' if i % 2 else 'unique ' + str(i)}"}
        for i in range(20)
    ]

    def run(**kw):
        return (
            line_boilerplate(ray.data.from_items(rows), **kw)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

    a = run()  # broadcast: two boiler lines, far under the default limit
    b = run(broadcast_limit=1)  # two boiler lines overflow: exchange path
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_range_prefix_sum_matches_numpy():
    import numpy as np
    import ray

    from rayxtract.agg import range_prefix_sum

    rng = np.random.default_rng(11)
    # non-dense, shuffled ids across range boundaries
    ids = rng.choice(np.arange(0, 5000, 3), size=700, replace=False)
    vals = rng.integers(0, 50, size=700)
    df = pd.DataFrame({"k": ids, "v": vals})
    out = (
        range_prefix_sum(
            ray.data.from_pandas(df.sample(frac=1.0, random_state=3)),
            "k",
            "v",
            range_size=97,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    ref = df.sort_values("k").reset_index(drop=True)
    ref["cum_before"] = ref["v"].cumsum() - ref["v"]
    assert out["cum_before"].tolist() == ref["cum_before"].tolist()


# ---------------------------------------------------------------------------
# duplicated-substring span dedup (dedup.dup_span_stats)


def _dup_corpus():
    import ray.data

    boiler = "terms of service apply to all visitors here"  # 8 tokens
    rows = [
        {"doc_id": 0, "text": f"alpha beta gamma {boiler} delta epsilon"},
        {"doc_id": 1, "text": f"{boiler} zeta eta theta iota kappa"},
        {"doc_id": 2, "text": "wholly original content with no repeats at all"},
        {"doc_id": 3, "text": "tiny doc"},  # < w tokens: no windows
        {"doc_id": 4, "text": ""},
    ]
    return ray.data.from_items(rows), rows


def test_dup_span_stats_planted():
    from rayxtract.dedup import dup_span_stats

    ds, rows = _dup_corpus()
    out = (
        dup_span_stats(ds, w=5)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # the 8-token boilerplate appears in docs 0 and 1: its 4 internal
    # 5-windows are cross-doc duplicated; surrounding unique context keeps
    # windows that straddle the boundary unique
    assert out.loc[0, "n_dup_windows"] == 4
    assert out.loc[1, "n_dup_windows"] == 4
    assert out.loc[0, "n_dup_tokens"] == 8
    assert out.loc[1, "n_dup_tokens"] == 8
    assert out.loc[2, "n_dup_windows"] == 0
    # span removal cuts exactly the boilerplate tokens
    kept0 = "alpha beta gamma delta epsilon"
    assert out.loc[0, "clean_md5"] == hashlib.md5(kept0.encode()).hexdigest()
    # edge docs: no windows, nothing removed
    assert out.loc[3, "n_windows"] == 0
    assert out.loc[3, "clean_md5"] == hashlib.md5(b"tiny doc").hexdigest()
    assert out.loc[4, "n_tokens"] == 0
    assert out.loc[4, "clean_md5"] == hashlib.md5(b"").hexdigest()
    assert (out["n_windows"] == (out["n_tokens"] - 4).clip(lower=0)).all()


def test_dup_span_stats_join_path_equivalent():
    from rayxtract.dedup import dup_span_stats

    ds, _ = _dup_corpus()
    cols = [
        "doc_id", "n_tokens", "n_windows",
        "n_dup_windows", "n_dup_tokens", "clean_md5",
    ]
    a = (
        dup_span_stats(ds, w=5)  # the dup set fits the broadcast limit
        .to_pandas()[cols]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        dup_span_stats(ds, w=5, broadcast_limit=0)  # join path
        .to_pandas()[cols]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_chunk_words_overlap_kernel():
    import pandas as pd

    from rayxtract.curation import chunk_words_overlap

    words = [f"w{i}" for i in range(150)]
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [" ".join(words), "a b", ""]})
    out = chunk_words_overlap(df)
    # 150 words, window 64, stride 48: ceil((150-64)/48)+1 = 3 windows
    d1 = out[out["doc_id"] == 1]
    assert d1["chunk_id"].tolist() == [0, 1, 2]
    assert d1["n_words_chunk"].tolist() == [64, 64, 150 - 96]
    # adjacent windows overlap by window - stride = 16 words
    import hashlib

    exp0 = hashlib.md5(" ".join(words[0:64]).encode()).hexdigest()
    exp1 = hashlib.md5(" ".join(words[48:112]).encode()).hexdigest()
    assert d1["chunk_md5"].tolist()[:2] == [exp0, exp1]
    # short doc: one ragged window; empty doc: no rows
    assert out[out["doc_id"] == 2]["n_words_chunk"].tolist() == [2]
    assert (out["doc_id"] == 3).sum() == 0
