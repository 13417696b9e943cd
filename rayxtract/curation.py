"""Training-data curation operators: splits, sampling, chunking, Gopher
quality rules, PII redaction, text normalization and C4-style paragraph
dedup.

These generalize the reference's single-document hygiene steps (size/type
validation, text cleanup during extraction — reference: utils.py:62-201,
main.py:180-220) into corpus-level curation stages a web-scale training-data
pipeline needs. All are ``map_batches`` / ``agg.exchange`` compositions
over Arrow/pandas batches:

* :func:`split_assign` / :func:`stratified_sample` — deterministic
  hash-based dataset partitioning (no RNG: resumable and oracle-checkable).
* :func:`chunk_words` — fixed-token-budget chunking ``flat_map`` (the
  pre-tokenization sharding step before sequence packing).
* :func:`gopher_signals` — integer quality-rule signals (Rae et al.,
  "Scaling Language Models" Gopher rules, arXiv:2112.11446 §A1.1) kept
  integer-valued so the DuckDB oracle is float-exact.
* :func:`redact_pii` — sequential regex redaction (email -> IPv4 -> phone)
  with per-stage match counts; RE2-compatible patterns (no lookarounds or
  backrefs) so Python ``re`` and the DuckDB oracle agree byte-for-byte.
* :func:`normalize_text` — NFC + whitespace collapse (the canonical form
  most dedup pipelines hash).
* :func:`paragraph_dedup` — C4-style global paragraph dedup (Raffel et
  al., arXiv:1910.10683 §2.2: keep the first occurrence of every repeated
  span): one fp-bucketed exchange resolves winners locally per bucket, one
  id-keyed exchange reassembles documents — paragraph text moves
  through exactly two exchanges and nothing is corpus-sized on the driver.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

import numpy as np
import pandas as pd


__all__ = [
    "split_assign",
    "stratified_sample",
    "weighted_sample",
    "chunk_words",
    "gopher_signals",
    "redact_pii",
    "normalize_text",
    "paragraph_dedup",
    "line_boilerplate",
    "PII_PATTERNS",
    "GOPHER_STOPWORDS",
]

_WS_RE = re.compile(r"\s+")


# ---------------------------------------------------------------------------
# deterministic splits / samples


def split_assign(
    batch: pd.DataFrame, col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """Deterministic train/val/test assignment from the first hex nibble of
    ``md5(text)``: '0' -> test (1/16), '1'|'2' -> val (2/16), else train.
    Hash-based (not RNG) so re-runs and resumed partitions agree."""
    nibbles = np.array(
        [hashlib.md5(t.encode("utf-8")).hexdigest()[0] for t in batch[col]],
        dtype=object,
    )
    split = np.where(
        nibbles == "0", "test", np.where(np.isin(nibbles, ("1", "2")), "val", "train")
    )
    return pd.DataFrame(
        {id_col: batch[id_col].values, "split": pd.Series(split, dtype="object")}
    )


def stratified_sample(ds, strat_col: str, order_cols: list[str], k: int):
    """Deterministic fixed-``k`` sample per stratum: order rows inside each
    stratum by ``order_cols`` (callers pass a hash column + unique id for a
    total order) and keep the first ``k``. Per-batch local head(k) combiner
    shrinks the exchange to <= k rows per (stratum, batch) before the
    stratum-keyed ``agg.exchange``, whose buckets run the same head(k) —
    the grouped-top-k pattern (agg.topk contract applies: the order must
    be total)."""
    from .agg import exchange

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values([strat_col] + order_cols, kind="mergesort")
            .groupby(strat_col, as_index=False)
            .head(k)
        )

    return exchange(ds.map_batches(local, batch_format="pandas"), strat_col, local)


# ---------------------------------------------------------------------------
# chunking


def chunk_words(
    batch: pd.DataFrame,
    col: str = "text",
    id_col: str = "doc_id",
    chunk_words_n: int = 64,
) -> pd.DataFrame:
    """Fixed-word-budget chunking flat-map: split on whitespace, emit one
    row per ``chunk_words_n``-word chunk (last chunk ragged). Empty docs
    emit no rows. The pre-tokenization sharding step before sequence
    packing; each output row carries the chunk digest so downstream exact
    dedup can run at chunk granularity."""
    ids, cids, nwords, digests = [], [], [], []
    for did, text in zip(batch[id_col].values, batch[col].values):
        words = text.split()
        for c in range(0, (len(words) + chunk_words_n - 1) // chunk_words_n):
            piece = words[c * chunk_words_n : (c + 1) * chunk_words_n]
            ids.append(did)
            cids.append(c)
            nwords.append(len(piece))
            digests.append(hashlib.md5(" ".join(piece).encode("utf-8")).hexdigest())
    return pd.DataFrame(
        {
            id_col: pd.Series(ids, dtype="int64"),
            "chunk_id": pd.Series(cids, dtype="int64"),
            "n_words_chunk": pd.Series(nwords, dtype="int64"),
            "chunk_md5": pd.Series(digests, dtype="object"),
        }
    )


def chunk_words_overlap(
    batch: pd.DataFrame,
    col: str = "text",
    id_col: str = "doc_id",
    window: int = 64,
    stride: int = 48,
) -> pd.DataFrame:
    """Sliding-window chunking flat-map (the overlapping-window variant
    RAG / embedding pipelines run so no passage is ever split across a
    retrieval boundary): windows of ``window`` words every ``stride``
    words (16-word overlap at the defaults). Window count is
    1 if n <= window else ceil((n - window) / stride) + 1 — the final
    window always reaches the document tail. Empty docs emit no rows."""
    import math

    ids, cids, nwords, digests = [], [], [], []
    for did, text in zip(batch[id_col].values, batch[col].values):
        words = text.split()
        n = len(words)
        if n == 0:
            continue
        n_win = 1 if n <= window else math.ceil((n - window) / stride) + 1
        for c in range(n_win):
            piece = words[c * stride : c * stride + window]
            ids.append(did)
            cids.append(c)
            nwords.append(len(piece))
            digests.append(hashlib.md5(" ".join(piece).encode("utf-8")).hexdigest())
    return pd.DataFrame(
        {
            id_col: pd.Series(ids, dtype="int64"),
            "chunk_id": pd.Series(cids, dtype="int64"),
            "n_words_chunk": pd.Series(nwords, dtype="int64"),
            "chunk_md5": pd.Series(digests, dtype="object"),
        }
    )


# ---------------------------------------------------------------------------
# Gopher quality rules (integer signals)

GOPHER_STOPWORDS = ("the", "a", "of", "to", "and", "in", "is", "that")

_NONWS_RE = re.compile(r"\S")


def gopher_signals(
    batch: pd.DataFrame, col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """Gopher-rule quality signals (arXiv:2112.11446 §A1.1), integer-valued:
    word count, total word chars (mean word length = chars/words, compared
    cross-multiplied so no floats), stopword hits, and the keep decision:
    50 <= n_words <= 100_000, 3 <= mean word len <= 10, >= 2 stopword hits.
    Vectorized str.count kernels; only the stopword membership walks
    tokens."""
    s = batch[col]
    n_words = s.str.count(r"\S+").astype("int64")
    n_word_chars = s.str.count(_NONWS_RE).astype("int64")
    stop = frozenset(GOPHER_STOPWORDS)
    n_stop = pd.Series(
        [sum(1 for w in t.split() if w in stop) for t in s.values],
        index=s.index,
        dtype="int64",
    )
    kept = (
        (n_words >= 50)
        & (n_words <= 100_000)
        & (3 * n_words <= n_word_chars)
        & (n_word_chars <= 10 * n_words)
        & (n_stop >= 2)
    )
    return pd.DataFrame(
        {
            id_col: batch[id_col].values,
            "n_words": n_words.values,
            "n_word_chars": n_word_chars.values,
            "n_stop_hits": n_stop.values,
            "is_kept": kept.values,
        }
    )


# ---------------------------------------------------------------------------
# PII redaction

# RE2-compatible (no lookaround/backrefs) so the DuckDB regexp_* oracle and
# Python re produce identical matches (both leftmost-greedy).
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9\-() ]{6,}[0-9]", "<PHONE>"),
)

_PII_COMPILED = [(name, re.compile(pat), repl) for name, pat, repl in PII_PATTERNS]


def redact_pii(
    batch: pd.DataFrame, col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """Sequential PII redaction with per-stage match counts. Order matters
    (email before ip before phone: an already-redacted span can't be
    re-matched by a later pattern) and is part of the operator contract —
    the oracle nests regexp_replace in the same order."""
    texts = list(batch[col].values)
    counts = {name: np.zeros(len(texts), dtype=np.int64) for name, _, _ in _PII_COMPILED}
    for name, rx, repl in _PII_COMPILED:
        for i, t in enumerate(texts):
            t2, n = rx.subn(repl, t)
            counts[name][i] = n
            texts[i] = t2
    return pd.DataFrame(
        {
            id_col: batch[id_col].values,
            "n_emails": counts["email"],
            "n_ips": counts["ip"],
            "n_phones": counts["phone"],
            "redacted_md5": [
                hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts
            ],
        }
    )


# ---------------------------------------------------------------------------
# normalization


def normalize_text(t: str) -> str:
    """NFC + collapse whitespace runs to single spaces + trim. After the
    collapse the only possible edge characters are plain spaces, so
    ``strip(' ')`` is byte-equivalent to SQL ``trim``."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", t)).strip(" ")


def normalize_batch(
    batch: pd.DataFrame, col: str = "text", id_col: str = "url"
) -> pd.DataFrame:
    norm = [normalize_text(t) for t in batch[col].values]
    return pd.DataFrame(
        {
            id_col: batch[id_col].values,
            "n_chars_norm": pd.Series([len(t) for t in norm], dtype="int64"),
            "norm_md5": [hashlib.md5(t.encode("utf-8")).hexdigest() for t in norm],
        }
    )


# ---------------------------------------------------------------------------
# C4-style paragraph dedup


def paragraph_dedup(
    ds,
    id_col: str = "url",
    text_col: str = "text",
    sep: str = "\n",
):
    """Global exact paragraph dedup, C4-style (arXiv:1910.10683 §2.2): every
    repeated paragraph survives only at its first occurrence — the globally
    minimal ``(id, para_idx)`` — and documents are reassembled from their
    kept paragraphs in order.

    Execution shape (one linear chain, two exchanges):

    1. ``map_batches`` explode: one row per paragraph with its md5 fp.
       No driver state.
    2. ``agg.exchange`` on fp: ALL occurrences of an fp share a
       bucket, so the winner (lexicographic min of ``(id, para_idx)``) is
       resolved locally with a sort + ``drop_duplicates`` — linear in the
       bucket, no pair blow-up even for degenerate fps (empty/boilerplate
       paragraphs), which are bounded by the bucket not a key.
    3. ``agg.exchange`` on id: reassemble kept paragraphs per document,
       every document of a bucket in one vectorized pass.

    Documents whose every paragraph lost to an earlier copy (exact-dup
    pages) emit no row — callers left-join against the id universe if they
    need explicit zeros. At corpus scale the exploded stage streams;
    nothing here materializes the dataset or holds per-corpus state."""
    from .agg import exchange

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, paras, n_ins = [], [], [], []
        for did, text in zip(batch[id_col].values, batch[text_col].values):
            parts = text.split(sep)
            ids.extend([did] * len(parts))
            idxs.extend(range(len(parts)))
            paras.extend(parts)
            n_ins.extend([len(parts)] * len(parts))
        fps = [hashlib.md5(p.encode("utf-8")).hexdigest() for p in paras]
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype="object"),
                "para_idx": pd.Series(idxs, dtype="int64"),
                "para": pd.Series(paras, dtype="object"),
                "n_in": pd.Series(n_ins, dtype="int64"),
                "fp": pd.Series(fps, dtype="object"),
            }
        )

    def keep_winners(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["fp", id_col, "para_idx"], kind="mergesort"
        ).drop_duplicates("fp")

    kept = exchange(
        ds.map_batches(explode, batch_format="pandas"), "fp", keep_winners
    )
    return exchange(
        kept,
        id_col,
        lambda b: _reassemble(
            b, id_col, "para_idx", "para", sep,
            ("n_paras_in", "n_paras_kept", "cleaned_md5"),
        ),
    )


def _reassemble(bucket, id_col, idx_col, piece_col, sep, out_cols):
    """One row per document from its kept pieces (paragraphs or lines):
    ``out_cols`` names the (pieces in, pieces kept, md5) outputs, and the
    md5 hashes the pieces ``sep``-joined in ``idx_col`` order. ``bucket``
    holds every kept row of each of its ids (an id-keyed exchange)."""
    g = bucket.sort_values([id_col, idx_col], kind="mergesort")
    by = g.groupby(id_col, sort=False, dropna=False)
    cleaned = by[piece_col].agg(sep.join)
    n_in, n_kept, md5 = out_cols
    return pd.DataFrame(
        {
            id_col: pd.Series(cleaned.index.to_numpy(), dtype="object"),
            n_in: by["n_in"].first().to_numpy(np.int64),
            n_kept: by.size().to_numpy(np.int64),
            md5: [hashlib.md5(c.encode("utf-8")).hexdigest() for c in cleaned],
        }
    )


def line_boilerplate(
    ds,
    min_ids: int = 2,
    id_col: str = "url",
    text_col: str = "text",
    sep: str = "\n",
    broadcast_limit: int = 2_000_000,
):
    """Frequency-based boilerplate-line removal (RefinedWeb / CCNet family,
    arXiv:2306.01116 §3.1 line-wise filtering): a line is boilerplate iff
    it occurs in at least ``min_ids`` DISTINCT documents (nav bars, cookie
    banners, footers — text that repeats across a site survives nowhere,
    unlike C4 first-occurrence dedup which keeps one copy). Documents are
    reassembled from their kept lines in order.

    Output per doc: ``(id, n_lines_in, n_lines_kept, cleaned_md5)`` where
    ``cleaned_md5`` hashes the ``sep``-joined kept lines ('' when every
    line was boilerplate — unlike :func:`paragraph_dedup`, every input doc
    emits a row, so the empty case is explicit, not absent).

    Scale shape — the text column never enters an exchange on the primary
    path:

    1. DETECT: per batch, DISTINCT ``(fp, id)`` pairs only (md5 of the
       line; within-batch repeats collapse first); one ``agg.exchange``
       on fp counts distinct ids per fp locally (all occurrences of an
       fp share a bucket) and keeps fps
       with ``>= min_ids``. The surviving set is bounded by BOILERPLATE
       cardinality, not the corpus.
    2. MARK: below ``broadcast_limit`` boiler fps, the set ships once via
       ``ray.put`` (one object, read per task) and the filter is a pure
       per-batch pass — zero further exchanges. Past the limit the job
       falls back to the
       :func:`paragraph_dedup` shape: lines re-bucket by fp, the bucket
       drops frequent fps locally, and one id-keyed exchange
       reassembles — line text moves through two exchanges, still nothing
       corpus-sized on the driver.
    """
    import ray

    from .agg import exchange

    def detect_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        fps, ids = [], []
        for did, text in zip(batch[id_col].values, batch[text_col].values):
            seen = {
                hashlib.md5(p.encode("utf-8")).hexdigest()
                for p in text.split(sep)
            }
            fps.extend(seen)
            ids.extend([did] * len(seen))
        return pd.DataFrame(
            {
                "fp": pd.Series(fps, dtype="object"),
                id_col: pd.Series(ids, dtype="object"),
            }
        )

    def frequent(group: pd.DataFrame) -> pd.DataFrame:
        cnt = group.groupby("fp")[id_col].nunique()
        return pd.DataFrame(
            {"fp": pd.Series(cnt.index[cnt >= min_ids], dtype="object")}
        )

    # bounded by boilerplate cardinality; materialize the small result
    # once (the detect DAG runs exactly once), count before gathering so a
    # degenerate corpus (every line shared) degrades to the exchange path
    # instead of a driver OOM
    boiler = exchange(
        ds.map_batches(detect_pairs, batch_format="pandas"), "fp", frequent
    ).materialize()
    use_broadcast = boiler.count() <= broadcast_limit

    def mark_row(did, text, boil: frozenset):
        parts = text.split(sep)
        kept = [
            p
            for p in parts
            if hashlib.md5(p.encode("utf-8")).hexdigest() not in boil
        ]
        cleaned = sep.join(kept)
        return (
            did,
            len(parts),
            len(kept),
            hashlib.md5(cleaned.encode("utf-8")).hexdigest(),
        )

    out_cols = {
        0: id_col,
        1: "n_lines_in",
        2: "n_lines_kept",
        3: "cleaned_md5",
    }

    def rows_frame(rows: list) -> pd.DataFrame:
        df = pd.DataFrame(rows).rename(columns=out_cols)
        return df.astype(
            {"n_lines_in": "int64", "n_lines_kept": "int64"}
        )

    if use_broadcast:

        fp_set = ray.put(frozenset(boiler.to_pandas()["fp"].tolist()))

        def mark(batch: pd.DataFrame) -> pd.DataFrame:
            boil = ray.get(fp_set)
            rows = [
                mark_row(did, text, boil)
                for did, text in zip(
                    batch[id_col].values, batch[text_col].values
                )
            ]
            return rows_frame(rows)

        return ds.map_batches(mark, batch_format="pandas")

    # exchange fallback: line text re-buckets by fp, frequent fps drop
    # locally per bucket, one id-keyed exchange reassembles
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, lines, n_ins = [], [], [], []
        for did, text in zip(batch[id_col].values, batch[text_col].values):
            parts = text.split(sep)
            ids.extend([did] * len(parts))
            idxs.extend(range(len(parts)))
            lines.extend(parts)
            n_ins.extend([len(parts)] * len(parts))
        fps = [hashlib.md5(p.encode("utf-8")).hexdigest() for p in lines]
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype="object"),
                "line_idx": pd.Series(idxs, dtype="int64"),
                "line": pd.Series(lines, dtype="object"),
                "n_in": pd.Series(n_ins, dtype="int64"),
                "fp": pd.Series(fps, dtype="object"),
            }
        )

    def drop_frequent(group: pd.DataFrame) -> pd.DataFrame:
        cnt = group.groupby("fp")[id_col].nunique()
        bad = set(cnt.index[cnt >= min_ids])
        return group[~group["fp"].isin(bad)][
            [id_col, "line_idx", "line", "n_in"]
        ]

    kept = exchange(
        exchange(
            ds.map_batches(explode, batch_format="pandas"), "fp", drop_frequent
        ),
        id_col,
        lambda b: _reassemble(
            b, id_col, "line_idx", "line", sep,
            ("n_lines_in", "n_lines_kept", "cleaned_md5"),
        ),
    )
    # docs whose every line was boilerplate emit no row from the exchange;
    # left-join against the id universe so both paths agree row-for-row
    universe = ds.map_batches(
        lambda b: pd.DataFrame(
            {
                id_col: pd.Series(b[id_col].values, dtype="object"),
                "n_lines_in": pd.Series(
                    [len(t.split(sep)) for t in b[text_col].values],
                    dtype="int64",
                ),
            }
        ),
        batch_format="pandas",
    )
    empty_md5 = hashlib.md5(b"").hexdigest()

    def fill(bucket: pd.DataFrame) -> pd.DataFrame:
        # kept holds <= 1 row per id, so all of an id's joined rows agree
        b = bucket.drop_duplicates(id_col)
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(),
                "n_lines_in": b["n_lines_in"].to_numpy(np.int64),
                "n_lines_kept": b["n_lines_kept"].fillna(0).to_numpy(np.int64),
                "cleaned_md5": b["cleaned_md5"].fillna(empty_md5).to_numpy(object),
            }
        )

    from .joins import bucketed_join

    joined = bucketed_join(
        universe,
        kept.map_batches(
            lambda b: b.rename(columns={"n_lines_in": "__n_in_k"}),
            batch_format="pandas",
        ),
        left_key=id_col,
        right_key=id_col,
        how="left",
    )
    return exchange(joined, id_col, fill)


def weighted_sample(
    ds,
    k: int,
    weight_col: str,
    id_col: str = "doc_id",
    out_cols: list[str] | None = None,
):
    """Weighted sampling without replacement — Efraimidis–Spirakis A-Res
    (Inf. Proc. Letters 97(5), 2006) with DETERMINISTIC hash uniforms.

    Each row draws u in (0,1) from md5(id) (not an RNG — re-runs, resumed
    partitions and the SQL oracle agree bit-for-bit) and scores
    key = u^(1/w); the global top-k keys are a weighted sample without
    replacement. The key is computed in LOG space — ln(u)/w, order-
    equivalent to u^(1/w) and immune to the pow underflow that would
    otherwise silently (and biasedly) drop tiny-weight rows whose
    u^(1/w) rounds to 0.0. Distributed cost is the agg.topk combiner:
    <= k rows per batch reach the final sort — nothing corpus-sized
    moves. Rows with w <= 0 are excluded. The training-data use is
    weighted mixture draws (sample proportional to token count / quality
    score) with resume-stable output.
    """
    from .agg import topk

    out_keep = list(out_cols or [id_col, weight_col])
    keep = list(out_keep)
    if id_col not in keep:  # topk's total-order tiebreak is mandatory
        keep.insert(0, id_col)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_col].astype("float64").to_numpy()
        ids = batch[id_col].astype("int64").to_numpy()
        v = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
                for i in ids
            ),
            dtype=np.uint64,
            count=len(ids),
        )
        # 16^13 = 2^52: u in (0, 1], never 0, representable exactly
        u = (v.astype(np.float64) + 1.0) / 4503599627370497.0
        out = batch[keep].copy()
        with np.errstate(divide="ignore"):
            out["__key"] = np.log(u) / np.where(w > 0, w, np.nan)
        return out[np.isfinite(out["__key"].to_numpy())]

    picked = topk(
        ds.map_batches(score, batch_format="pandas"),
        ["__key", id_col],
        descending=[True, False],
        k=k,
    )

    def strip(batch: pd.DataFrame) -> pd.DataFrame:
        # exactly the caller's requested columns — the injected id was
        # only ever topk's internal tiebreak
        return batch[out_keep]

    return picked.map_batches(strip, batch_format="pandas")
