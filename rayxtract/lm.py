"""Corpus-trained bigram language-model fluency scoring (CCNet-style
quality signal, arXiv:1911.00359 §4.3 — there a KenLM 5-gram; here a
bigram MLE trained on the corpus itself, integer-exact so the DuckDB
oracle can check the full train+score round trip).

Design (one payload pass, two narrow exchanges):

1. ``map_batches`` explodes each doc into per-doc bigram occurrence
   counts ``(doc_id, w1, w2, occ)`` — the only pass over text.
2. ONE exchange keyed on ``hash(w1)``: every bigram with the same first
   word lands in the same bucket, so the bucket computes BOTH model
   tables locally — ``c12 = sum(occ) per (w1, w2)`` and
   ``c1 = sum(occ) per w1`` (c1 is the marginal of c12, so no second
   aggregation pass is needed) — and scores each row in place:
   ``contrib = occ * (c12 * 1_000_000 // c1)``. The scaled-integer MLE
   ``P(w2|w1) ≈ c12/c1`` makes the sum order-independent (no
   float-summation hazard) exactly like queries.q_doc_tfidf_top.
3. Second exchange on ``doc_id`` sums contributions:
   ``fluency = sum(contrib) // n_bigrams``.

At 10^12-doc scale nothing corpus-sized ever sits on one node: the
bucket exchange carries per-doc-distinct bigram rows (pre-combined per
batch), and each bucket holds only its hash-slice of the vocabulary.
Docs with fewer than two tokens produce no bigrams and are absent from
the output (inner semantics; the oracle mirrors this).

The reference repo has no LM stage; this belongs to the mandated
training-data-pipeline family (text quality scoring).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

SCALE = 1_000_000


def explode_bigram_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-doc bigram occurrence counts ``(doc_id, w1, w2, occ)``."""
    ids: list[int] = []
    w1s: list[str] = []
    w2s: list[str] = []
    occs: list[int] = []
    for did, text in zip(batch["doc_id"].values, batch["text"].values):
        toks = text.split()
        if len(toks) < 2:
            continue
        c: dict = {}
        for a, b in zip(toks, toks[1:]):
            key = (a, b)
            c[key] = c.get(key, 0) + 1
        ids.extend([did] * len(c))
        for (a, b), n in c.items():
            w1s.append(a)
            w2s.append(b)
            occs.append(n)
    return pd.DataFrame(
        {
            "doc_id": pd.Series(ids, dtype="int64"),
            "w1": pd.Series(w1s, dtype="object"),
            "w2": pd.Series(w2s, dtype="object"),
            "occ": pd.Series(occs, dtype="int64"),
        }
    )


def score_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Within one w1-hash bucket: build c12/c1 locally, emit per-doc
    partial sums (narrow rows only leave the bucket)."""
    g = group
    c12 = g.groupby(["w1", "w2"])["occ"].transform("sum").to_numpy(np.int64)
    c1 = g.groupby("w1")["occ"].transform("sum").to_numpy(np.int64)
    if len(c12) and int(c12.max()) > (2**63 - 1) // SCALE:
        # c12*SCALE would wrap int64 (stopword bigrams past ~9.2e12 global
        # occurrences); fall back to arbitrary-precision Python ints for
        # the ratio — the ratio itself is <= SCALE so the product below
        # stays in range.
        ratio = np.fromiter(
            (int(a) * SCALE // int(b) for a, b in zip(c12, c1)),
            dtype=np.int64,
            count=len(c12),
        )
    else:
        ratio = c12 * SCALE // c1
    contrib = g["occ"].to_numpy(np.int64) * ratio
    part = pd.DataFrame(
        {
            "doc_id": g["doc_id"].values,
            "contrib": contrib,
            "n_bigrams": g["occ"].to_numpy(np.int64),
        }
    )
    return part.groupby("doc_id", as_index=False).agg(
        contrib=("contrib", "sum"), n_bigrams=("n_bigrams", "sum")
    )


def bigram_fluency(ds):
    """``(doc_id, n_bigrams, fluency)`` for every doc with >= 1 bigram;
    ``fluency = sum(occ * (c12 * SCALE // c1)) // n_bigrams`` — the
    scaled-integer mean MLE bigram probability under the corpus-trained
    model. Input needs columns ``doc_id`` and ``text``."""
    from .agg import bucketed_aggregate, exchange

    parts = exchange(
        ds.map_batches(explode_bigram_counts, batch_format="pandas"),
        "w1",
        score_bucket,
    )
    per_doc = bucketed_aggregate(
        parts,
        keys=["doc_id"],
        aggs={"contrib": ("contrib", "sum"), "n_bigrams": ("n_bigrams", "sum")},
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_bigrams"].to_numpy(np.int64)
        s = batch["contrib"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64").values,
                "n_bigrams": n,
                "fluency": s // n,
            }
        )

    return per_doc.map_batches(finish, batch_format="pandas")


def explode_global_bigrams(batch: pd.DataFrame) -> pd.DataFrame:
    """Batch-combined GLOBAL bigram counts (no doc dimension) — the
    partial/combiner step of the PMI exchange: only (w1, w2, occ)
    partials ever leave a read task."""
    c: dict = {}
    for text in batch["text"].values:
        toks = text.split()
        for a, b in zip(toks, toks[1:]):
            key = (a, b)
            c[key] = c.get(key, 0) + 1
    return pd.DataFrame(
        {
            "w1": pd.Series([k[0] for k in c], dtype="object"),
            "w2": pd.Series([k[1] for k in c], dtype="object"),
            "occ": pd.Series(list(c.values()), dtype="int64"),
        }
    )


def pmi_bigrams(ds, min_count: int = 5, k: int = 50):
    """Top-k bigram collocations by pointwise mutual information
    (Church & Hanks 1990) — the phrase-mining signal used to build
    phrase vocabularies for training corpora.

    Integer-exact ranking so the DuckDB oracle hash-matches: rather than
    the float ``log(p12 / (p1 * p2))`` (DuckDB ``ln`` differs from numpy
    at 1 ulp), rank by the scaled ODDS RATIO ``pmi_micro =
    c12 * N * SCALE // (c1 * c2)`` — ``exp(PMI)`` up to the fixed SCALE,
    monotone in PMI, so the ordering is identical and every value is an
    exact integer (arbitrary-precision Python ints; c12*N*SCALE overflows
    int64 on any real corpus).

    Marginals come from the bigram table itself: ``c1(w) = sum of c12
    where w is first``, ``c2(w) = sum of c12 where w is second``,
    ``N = sum of c12``. Two narrow keyed exchanges compute everything —
    bucket on hash(w1) builds c12 AND its w1-marginal in place (lm.py's
    score_bucket trick), re-bucket on hash(w2) attaches the w2-marginal —
    then ``min_count`` prunes the long tail BEFORE the Python-int ratio
    loop, and a local-top-k combiner tree picks the k winners. Nothing
    vocabulary-sized touches the driver.
    """
    from .agg import exchange, topk

    def reduce_w1(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["w1", "w2"], as_index=False).agg(c12=("occ", "sum"))
        g["c1"] = g.groupby("w1")["c12"].transform("sum").astype("int64")
        g["c12"] = g["c12"].astype("int64")
        return g[["w1", "w2", "c12", "c1"]]

    by_w1 = exchange(
        ds.map_batches(explode_global_bigrams, batch_format="pandas"),
        "w1",
        reduce_w1,
    )

    def attach_w2(group: pd.DataFrame) -> pd.DataFrame:
        g = group.copy()
        g["c2"] = g.groupby("w2")["c12"].transform("sum").astype("int64")
        return g[["w1", "w2", "c12", "c1", "c2"]]

    # materialized: consumed twice (scalar N + the ratio pass), and a lazy
    # Dataset re-executes per consumer (Ray 2.49 gotcha)
    full = exchange(by_w1, "w2", attach_w2).materialize()
    n_total = int(full.sum("c12") or 0)

    def ratio(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["c12"].to_numpy(np.int64) >= min_count]
        pmi = np.fromiter(
            (
                int(c12) * n_total * SCALE // (int(c1) * int(c2))
                for c12, c1, c2 in zip(b["c12"], b["c1"], b["c2"])
            ),
            dtype=np.int64,
            count=len(b),
        )
        return pd.DataFrame(
            {
                "w1": b["w1"].values,
                "w2": b["w2"].values,
                "c12": b["c12"].astype("int64").values,
                "pmi_micro": pmi,
            }
        )

    scored = full.map_batches(ratio, batch_format="pandas")
    return topk(
        scored,
        ["pmi_micro", "w1", "w2"],
        descending=[True, False, False],
        k=k,
    )
