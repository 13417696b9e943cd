"""Dedup-by-url: keep the latest crawl per url (SURVEY.md §2.6).

Common-Crawl-style tables contain recrawls; "byte-identical text per url"
presupposes one row per url, keyed by max ``warc_ts`` (tie-break: smallest
text crc, then smallest text — fully deterministic regardless of block
layout, SURVEY.md §7.4 item 1).

Scale notes:
  * Dedup runs AFTER extraction, so the all-to-all shuffle moves extracted
    text (small) instead of raw html (large) — at 100 TB the shuffled bytes
    dominate cost, and recrawl rate (~5%) makes the wasted duplicate
    extraction cheap by comparison.
  * A within-batch local combiner drops duplicates that landed in the same
    block before the shuffle (recrawls are usually adjacent in crawl order),
    shrinking the exchange further.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


__all__ = [
    "dedup_keep_latest",
    "decontaminate",
    "ngram_contamination",
    "dup_span_stats",
]


def _keep_latest_table(t: pa.Table) -> pa.Table:
    """One winner row per url within ``t`` (deterministic)."""
    if t.num_rows <= 1:
        return t
    # sort: url asc, warc_ts desc, then every remaining sortable column asc
    # — ties (equal url+ts) resolve identically regardless of block layout
    keys = [("url", "ascending"), ("warc_ts", "descending")]
    keyed = {"url", "warc_ts"}
    for name, typ in zip(t.column_names, t.schema.types):
        if name not in keyed and (
            pa.types.is_primitive(typ) or pa.types.is_string(typ)
        ):
            keys.append((name, "ascending"))
    idx = pc.sort_indices(t, sort_keys=keys)
    t = t.take(idx)
    import numpy as np

    urls = np.asarray(t["url"].to_pandas(), dtype=object)
    mask = np.empty(len(urls), dtype=bool)
    mask[0] = True
    mask[1:] = urls[1:] != urls[:-1]
    return t.filter(pa.array(mask))


def dedup_keep_latest(ds):
    """EXCHANGE-based dedup: local combine -> one url-keyed
    ``agg.exchange`` -> the same pick over each bucket (its table holds
    whole urls, many per bucket). This is the strict/general-purpose op;
    the flagship pipeline resolves recrawls WITHOUT moving payloads
    (pipeline.py pass A winner map) and does not call this. The
    within-block combine is a safe pre-exchange reduction: it drops
    recrawls that share a block.
    """
    from .agg import exchange

    ds = ds.map_batches(_keep_latest_table, batch_format="pyarrow")
    return exchange(
        ds,
        "url",
        lambda df: _keep_latest_table(
            pa.Table.from_pandas(df, preserve_index=False)
        ).to_pandas(),
    )


def decontaminate(
    ds,
    eval_ds,
    text_col: str = "text",
    eval_text_col: str = "text",
    broadcast_limit: int = 5_000_000,
    bloom_bits: int = 1 << 23,
    check_counts: bool = False,
):
    """Remove training rows whose EXACT text appears in a held-out /
    benchmark set — the decontamination step every serious training-data
    pipeline runs before a model ever sees the corpus (Dolma/RedPajama
    pattern; the reference has no notion of eval splits at all).

    Shape: md5 the eval side down to a fingerprint set. Below
    ``broadcast_limit`` fingerprints the set ships once via ``ray.put``
    and the training stream filters against it per batch (zero shuffle —
    eval sets are orders of magnitude smaller than the corpus, this is
    the path you run at any scale). Past the limit, a fixed-size
    Bloom filter of the eval fingerprints (folded by ``agg.tree_reduce``,
    broadcast once — ``bloom_bits`` bits regardless of eval
    cardinality) splits the stream: misses are guaranteed clean and
    bypass the exchange entirely; only hits (true matches + the
    bloom's false-positive sliver) enter the hash-bucketed anti-join
    for the exact check. The shuffle is O(hits), not O(corpus); both
    join sides move only (fp, id) — never text. The bloom path
    consumes ``ds`` twice — pass a cheaply re-computable dataset
    (a column-pruned read), same contract as sketch.exact_heavy_hitters.
    """
    import hashlib

    import numpy as np
    import pandas as pd
    import ray

    def fp_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "fp": [
                    hashlib.md5(t.encode("utf-8")).hexdigest()
                    for t in batch[eval_text_col]
                ]
            }
        )

    fps = set()
    small = True
    for b in eval_ds.map_batches(fp_batch, batch_format="pandas").iter_batches(
        batch_size=65536, batch_format="pandas"
    ):
        fps.update(b["fp"])
        if len(fps) > broadcast_limit:
            small = False
            break
    if small:
        fp_ref = ray.put(frozenset(fps))

        def keep(batch: pd.DataFrame) -> pd.DataFrame:
            bad = ray.get(fp_ref)
            mask = np.fromiter(
                (
                    hashlib.md5(t.encode("utf-8")).hexdigest() not in bad
                    for t in batch[text_col]
                ),
                dtype=bool,
                count=len(batch),
            )
            return batch[mask]

        return ds.map_batches(keep, batch_format="pandas")

    # corpus-sized eval side (rare): Bloom prefilter + bucketed anti-join
    # on the fingerprint — only bloom HITS enter the exchange
    from .agg import tree_reduce
    from .joins import bucketed_join
    from .sketch import BloomFilter

    def _fp_ints(texts) -> pd.Series:
        return pd.Series(
            [
                int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:8], "big", signed=True
                )
                for t in texts
            ],
            dtype="int64",
        )

    def bloom_partial(batch: pd.DataFrame) -> BloomFilter:
        bf = BloomFilter(bloom_bits)
        bf.add_many(_fp_ints(batch[eval_text_col]).to_numpy())
        return bf

    # past the broadcast limit, so the eval side is non-empty
    bloom_ref = ray.put(tree_reduce(eval_ds, bloom_partial, BloomFilter.merge))
    cols = list(ds.schema().names)

    def clean_only(batch: pd.DataFrame) -> pd.DataFrame:
        bf: BloomFilter = ray.get(bloom_ref)
        hit = bf.contains_many(_fp_ints(batch[text_col]).to_numpy())
        return batch[~hit]

    def suspects_only(batch: pd.DataFrame) -> pd.DataFrame:
        fps = _fp_ints(batch[text_col])
        bf: BloomFilter = ray.get(bloom_ref)
        hit = bf.contains_many(fps.to_numpy())
        out = batch[hit].copy()
        out["__fpi"] = fps[hit].to_numpy()
        return out

    def fp_eval(batch: pd.DataFrame) -> pd.DataFrame:
        fpe = _fp_ints(batch[eval_text_col]).drop_duplicates()
        # bucketed_join drops the right KEY column from its output, so the
        # hit signal must travel as a separate marker column
        return pd.DataFrame(
            {"__fpe": fpe, "__hit": pd.Series(1, index=fpe.index, dtype="int64")}
        )

    clean = ds.map_batches(clean_only, batch_format="pandas")
    suspects = ds.map_batches(suspects_only, batch_format="pandas")
    if check_counts:
        # The bloom path reads ``ds`` through two independent lazy passes;
        # a nondeterministic upstream (per-task sampling, batch-dependent
        # logic) would silently drop or duplicate rows in the union. This
        # opt-in debug probe pays two counting passes to enforce the
        # determinism contract: every input row lands in exactly one side.
        n_clean, n_susp, n_ds = clean.count(), suspects.count(), ds.count()
        if n_clean + n_susp != n_ds:
            raise RuntimeError(
                "decontaminate: nondeterministic input dataset — clean "
                f"({n_clean}) + suspects ({n_susp}) != total ({n_ds}); the "
                "bloom path requires a deterministic, re-computable ds"
            )
    evs = eval_ds.map_batches(fp_eval, batch_format="pandas")
    joined = bucketed_join(suspects, evs, "__fpi", "__fpe", how="left")

    def anti(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[batch["__hit"].isna()].drop(columns=["__fpi", "__hit"])
        # the join widened left columns to nullable Int64; surviving rows
        # are real left rows (no NAs possible) — restore plain int64 so
        # both decontaminate paths emit identical schemas
        for c in out.columns:
            if str(out[c].dtype) == "Int64":
                out[c] = out[c].astype("int64")
        return out[cols]

    return clean.union(joined.map_batches(anti, batch_format="pandas"))


def ngram_contamination(
    ds,
    eval_ds,
    w: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    eval_text_col: str = "text",
    broadcast_limit: int = 50_000_000,
):
    """N-gram-granularity benchmark contamination counts (the GPT-3
    appendix-C / PaLM 13-gram overlap check, parameterized ``w``): for
    every training document, count the w-token windows whose exact
    content appears anywhere in the eval set. Whole-doc
    ``decontaminate`` misses partial quote-level leakage; this is the
    standard finer gate a pre-training pipeline runs next.

    Shape: the eval side reduces to DISTINCT window hashes (vectorized
    polynomial rolling hash, same kernel as ``dup_span_stats``) — eval
    sets are tiny vs the corpus, so the sorted int64 hash array ships
    once via ``ray.put`` (8 B/window) and every training batch probes it
    with a vectorized ``searchsorted``: ZERO shuffle. A corpus-sized
    eval side would swap the broadcast for the BloomFilter-prefiltered
    bucketed join exactly as ``decontaminate`` does; this raises past
    ``broadcast_limit`` windows rather than silently ballooning.

    Output per doc: ``(id_col, n_windows, n_contaminated)`` int64 —
    window-position counts, so a DuckDB gram-unnest oracle checks it
    exactly (hash equality == string equality up to 64-bit collisions).
    """
    import numpy as np
    import pandas as pd
    import ray

    class EvalWindows:
        def __init__(self):
            self.kern = _WindowHashKernel(w)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            hs = [self.kern.doc_hashes(t)[0] for t in batch[eval_text_col]]
            cat = (
                np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
            )
            return pd.DataFrame({"win_h": np.unique(cat).view(np.int64)})

    fps: set = set()
    for b in eval_ds.map_batches(
        EvalWindows, batch_format="pandas", concurrency=(1, 4)
    ).iter_batches(batch_size=65536, batch_format="pandas"):
        fps.update(b["win_h"].tolist())
        if len(fps) > broadcast_limit:
            raise ValueError(
                "eval window set exceeds broadcast_limit; use a bloom-"
                "prefiltered bucketed join (see decontaminate) instead"
            )
    ev = np.fromiter(fps, dtype=np.int64, count=len(fps))
    ev.sort()
    ev_ref = ray.put(ev)

    class CountContam:
        def __init__(self):
            self.kern = _WindowHashKernel(w)
            self.ev = ray.get(ev_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ev = self.ev
            ids, n_w, n_c = [], [], []
            for did, t in zip(batch[id_col].values, batch[text_col].values):
                h, _ = self.kern.doc_hashes(t)
                hi = h.view(np.int64)
                hits = 0
                if len(ev) and len(hi):
                    idx = np.minimum(np.searchsorted(ev, hi), len(ev) - 1)
                    hits = int((ev[idx] == hi).sum())
                ids.append(did)
                n_w.append(len(hi))
                n_c.append(hits)
            return pd.DataFrame(
                {
                    id_col: pd.Series(ids, dtype="int64"),
                    "n_windows": pd.Series(n_w, dtype="int64"),
                    "n_contaminated": pd.Series(n_c, dtype="int64"),
                }
            )

    return ds.map_batches(CountContam, batch_format="pandas", concurrency=(1, 8))


# ---------------------------------------------------------------------------
# Duplicated-substring span dedup (Lee et al., "Deduplicating Training Data
# Makes Language Models Better", arXiv:2107.06499): find every W-token
# window whose exact content appears in >= 2 distinct documents, and mark /
# remove the covered token spans per document. The suffix-array formulation
# doesn't distribute; the hash-window two-pass below is the standard
# map-reduce re-expression (same duplicated-span semantics for spans of
# length >= W, at window granularity).

_DUP_P = 1099511628211  # polynomial base for the window combine (prime)
_M64 = 0xFFFFFFFFFFFFFFFF


def _win_coeffs(w: int):
    import numpy as np

    coeffs = [1] * w
    for j in range(w - 2, -1, -1):
        coeffs[j] = (coeffs[j + 1] * _DUP_P) & _M64
    return np.array(coeffs, dtype=np.uint64)


class _WindowHashKernel:
    """Per-actor warm state for tokenize -> word-hash -> W-window polynomial
    hash. Word hashes are FNV-1a 64 (cached across batches); the window hash
    is sum_j wh[i+j] * P^(w-1-j) mod 2^64 + avalanche — content-equality up
    to 64-bit collisions (negligible; deterministic if one ever occurs)."""

    def __init__(self, w: int):
        import numpy as np

        self.w = w
        self.coeffs = _win_coeffs(w)
        self.cache: dict = {}
        self._np = np

    def doc_hashes(self, text: str):
        """(win_h uint64[n-w+1], tokens list) for one document."""
        from .neardup import _hash_words_cached, _mix64

        np = self._np
        tokens = text.split()
        n = len(tokens)
        if n < self.w:
            return np.empty(0, dtype=np.uint64), tokens
        uniq, inv = np.unique(np.array(tokens, dtype=object), return_inverse=True)
        wh = _hash_words_cached(self.cache, list(uniq))[inv]
        m = n - self.w + 1
        h = np.zeros(m, dtype=np.uint64)
        for j in range(self.w):
            h = h + wh[j : j + m] * self.coeffs[j]
        return _mix64(h), tokens


def dup_span_stats(
    docs,
    w: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    broadcast_limit: int = 5_000_000,
):
    """Per-document duplicated-span statistics + cleaned-text digest.

    Two passes over the corpus, nothing corpus-sized on the driver:

    1. DETECT — per batch, emit one partial row per distinct window hash
       with (min_doc, max_doc); ``agg.bucketed_aggregate`` merges partials
       per hash bucket. A window is cross-doc duplicated iff its global
       ``min_doc < max_doc`` (appears in >= 2 distinct docs).
    2. MARK — re-hash windows per doc and test membership in the duplicated
       set. Below ``broadcast_limit`` dup hashes the set ships once as a
       sorted uint64 array via ``ray.put`` and membership is a vectorized
       ``searchsorted`` per doc (zero extra exchange — the path you run
       whenever boilerplate, not the corpus, bounds the dup set). Past the
       limit windows re-join the dup set
       with ``bucketed_join`` on the hash, dup START positions pack per doc
       into a bytes column (one doc-keyed ``agg.exchange``), and a left
       join brings them back to the text — only (hash, doc, pos) triples
       move, never token text.

    Output per doc: ``n_tokens``, ``n_windows`` (= max(n_tokens - w + 1,
    0)), ``n_dup_windows`` (duplicated window starts), ``n_dup_tokens``
    (token positions covered by >= 1 duplicated window) and ``clean_md5``
    (md5 of the space-joined tokens with covered spans removed — the
    Lee-et-al span cut at window granularity).
    """
    import hashlib

    import numpy as np
    import pandas as pd
    import ray

    from .agg import bucketed_aggregate, exchange

    def detect_partial_cls():
        kern = _WindowHashKernel(w)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            hs, ids = [], []
            for did, text in zip(batch[id_col].values, batch[text_col].values):
                h, _ = kern.doc_hashes(text)
                hs.append(h)
                ids.append(np.full(len(h), did, dtype=np.int64))
            cat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
            did = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
            u, inv = np.unique(cat, return_inverse=True)
            mn = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
            mx = np.full(len(u), np.iinfo(np.int64).min, dtype=np.int64)
            np.minimum.at(mn, inv, did)
            np.maximum.at(mx, inv, did)
            return pd.DataFrame(
                {
                    "win_h": u.view(np.int64),
                    "min_doc": mn,
                    "max_doc": mx,
                }
            )

        return fn

    merged = bucketed_aggregate(
        docs.map_batches(detect_partial_cls(), batch_format="pandas"),
        keys=["win_h"],
        aggs={"min_doc": ("min_doc", "min"), "max_doc": ("max_doc", "max")},
    )

    def only_dup(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["min_doc"] < batch["max_doc"]][["win_h"]]

    dup = merged.map_batches(only_dup, batch_format="pandas")

    def finalize_frame(batch_ids, texts, starts_per_doc):
        n_toks, n_wins, n_dws, n_dts, md5s = [], [], [], [], []
        for tokens, starts in zip(texts, starts_per_doc):
            n = len(tokens)
            m = max(n - w + 1, 0)
            # diff-array span union: covered[p] iff some start s <= p < s+w
            cover = np.zeros(n + w + 1, dtype=np.int64)
            if len(starts):
                np.add.at(cover, starts, 1)
                np.add.at(cover, starts + w, -1)
            covered = np.cumsum(cover[:n]) > 0 if n else np.zeros(0, dtype=bool)
            kept = [t for t, c in zip(tokens, covered) if not c]
            n_toks.append(n)
            n_wins.append(m)
            n_dws.append(len(starts))
            n_dts.append(int(covered.sum()))
            md5s.append(hashlib.md5(" ".join(kept).encode("utf-8")).hexdigest())
        return pd.DataFrame(
            {
                id_col: pd.Series(batch_ids, dtype="int64"),
                "n_tokens": pd.Series(n_toks, dtype="int64"),
                "n_windows": pd.Series(n_wins, dtype="int64"),
                "n_dup_windows": pd.Series(n_dws, dtype="int64"),
                "n_dup_tokens": pd.Series(n_dts, dtype="int64"),
                "clean_md5": pd.Series(md5s, dtype="object"),
            }
        )

    # gather dup hashes (bounded by boilerplate cardinality, not corpus);
    # past ``broadcast_limit`` fall through to the join path
    dup = dup.materialize()
    got: list = []
    total = 0
    for b in dup.iter_batches(batch_size=65536, batch_format="pandas"):
        a = b["win_h"].to_numpy().view(np.uint64)
        got.append(a)
        total += len(a)
        if total > broadcast_limit:
            break
    if total <= broadcast_limit:
        dup_sorted = np.sort(
            np.concatenate(got) if got else np.empty(0, dtype=np.uint64)
        )
        ref = ray.put(dup_sorted)

        def mark_cls():
            kern = _WindowHashKernel(w)

            def fn(batch: pd.DataFrame) -> pd.DataFrame:
                d = ray.get(ref)
                texts, starts_all = [], []
                for text in batch[text_col].values:
                    h, tokens = kern.doc_hashes(text)
                    if len(h) and len(d):
                        pos = np.searchsorted(d, h).clip(max=len(d) - 1)
                        member = d[pos] == h
                        starts = np.nonzero(member)[0]
                    else:
                        starts = np.empty(0, dtype=np.int64)
                    texts.append(tokens)
                    starts_all.append(starts)
                return finalize_frame(
                    batch[id_col].values, texts, starts_all
                )

            return fn

        return docs.map_batches(mark_cls(), batch_format="pandas")

    # join path: (doc, pos, win_h) triples re-join the dup set on the hash
    from .joins import bucketed_join

    def win_rows_cls():
        kern = _WindowHashKernel(w)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            ids, poss, hs = [], [], []
            for did, text in zip(batch[id_col].values, batch[text_col].values):
                h, _ = kern.doc_hashes(text)
                ids.append(np.full(len(h), did, dtype=np.int64))
                poss.append(np.arange(len(h), dtype=np.int64))
                hs.append(h)
            cat = lambda xs, dt: (
                np.concatenate(xs) if xs else np.empty(0, dtype=dt)
            )
            return pd.DataFrame(
                {
                    id_col: cat(ids, np.int64),
                    "pos": cat(poss, np.int64),
                    "win_h": cat(hs, np.uint64).view(np.int64),
                }
            )

        return fn

    def dup_marked(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["win_h"]].copy()
        out["__dupm"] = pd.Series(1, index=out.index, dtype="int64")
        out = out.rename(columns={"win_h": "win_hr"})
        return out

    wins = docs.map_batches(win_rows_cls(), batch_format="pandas")
    hits = bucketed_join(
        wins,
        dup.map_batches(dup_marked, batch_format="pandas"),
        "win_h",
        "win_hr",
        how="inner",
    )

    def pack_starts(bucket: pd.DataFrame) -> pd.DataFrame:
        # one row per doc: its sorted dup-window starts as one int64 blob
        b = bucket.sort_values([id_col, "pos"], kind="mergesort")
        ids = b[id_col].to_numpy(np.int64)
        pos = b["pos"].to_numpy(np.int64)
        first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        stop = np.r_[first[1:], len(ids)]
        return pd.DataFrame(
            {
                id_col: pd.Series(ids[first], dtype="int64"),
                "starts_bin": pd.Series(
                    [pos[a:e].tobytes() for a, e in zip(first, stop)],
                    dtype="object",
                ),
            }
        )

    packed = exchange(hits, id_col, pack_starts)
    docs_sel = docs.select_columns([id_col, text_col])
    joined = bucketed_join(docs_sel, packed, id_col, id_col, how="left")

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        texts, starts_all = [], []
        for text, sb in zip(batch[text_col].values, batch["starts_bin"].values):
            texts.append(text.split())
            starts_all.append(
                np.frombuffer(sb, dtype=np.int64)
                if isinstance(sb, (bytes, bytearray))
                else np.empty(0, dtype=np.int64)
            )
        return finalize_frame(batch[id_col].values, texts, starts_all)

    return joined.map_batches(finalize, batch_format="pandas")


def cross_corpus_novelty(
    old_ds,
    new_ds,
    w: int = 6,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """NOVELTY SCORING against an existing corpus: for every NEW
    document, how many of its w-token windows already occur anywhere in
    the OLD corpus (the memorization-risk / snapshot-overlap metric run
    when a new crawl joins an existing training set).

    Unlike :func:`ngram_contamination` (eval side bounded by design ->
    broadcast) BOTH sides here are corpus-sized, so the overlap is ONE
    hash(window)-bucketed exchange: old windows collapse to per-batch
    DISTINCT hashes before moving, new windows pre-combine to
    (doc, win_h, cnt) partials, and each bucket builds the old set and
    probes its new rows locally (sorted-unique + np.isin). Per-doc
    partial counts then sum through a second, doc-keyed exchange whose
    size is bounded by the NEW doc count — text never moves at all.

    Output per new doc with >= 1 window: (id_col, n_windows, n_seen),
    window-position counts (duplicate windows within a doc all count),
    so a DuckDB gram-unnest LEFT JOIN oracle checks it exactly.
    """
    import numpy as np
    import pandas as pd

    from .agg import bucketed_aggregate, exchange

    def old_rows_cls():
        kern = _WindowHashKernel(w)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            hs = []
            for text in batch[text_col].values:
                h, _ = kern.doc_hashes(text)
                hs.append(h)
            cat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
            u = np.unique(cat).view(np.int64)
            return pd.DataFrame(
                {
                    "win_h": u,
                    "doc": np.full(len(u), -1, dtype=np.int64),
                    "cnt": np.zeros(len(u), dtype=np.int64),
                    "side": np.zeros(len(u), dtype=np.int64),
                }
            )

        return fn

    def new_rows_cls():
        kern = _WindowHashKernel(w)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            hs, ids = [], []
            for did, text in zip(batch[id_col].values, batch[text_col].values):
                h, _ = kern.doc_hashes(text)
                hs.append(h)
                ids.append(np.full(len(h), did, dtype=np.int64))
            cat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
            did = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
            df = pd.DataFrame({"win_h": cat.view(np.int64), "doc": did})
            g = df.groupby(["win_h", "doc"], as_index=False).size()
            wh = g["win_h"].to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "win_h": wh,
                    "doc": g["doc"].to_numpy(np.int64),
                    "cnt": g["size"].to_numpy(np.int64),
                    "side": np.ones(len(g), dtype=np.int64),
                }
            )

        return fn

    rows = old_ds.map_batches(old_rows_cls(), batch_format="pandas").union(
        new_ds.map_batches(new_rows_cls(), batch_format="pandas")
    )

    def probe_bucket(group: pd.DataFrame) -> pd.DataFrame:
        new = group[group["side"] == 1]
        if len(new) == 0:
            return pd.DataFrame(
                {
                    "doc": pd.Series([], dtype="int64"),
                    "n_windows": pd.Series([], dtype="int64"),
                    "n_seen": pd.Series([], dtype="int64"),
                }
            )
        old = np.unique(
            group.loc[group["side"] == 0, "win_h"].to_numpy(np.int64)
        )
        wh = new["win_h"].to_numpy(np.int64)
        hit = (
            np.isin(wh, old) if len(old) else np.zeros(len(wh), dtype=bool)
        )
        part = pd.DataFrame(
            {
                "doc": new["doc"].to_numpy(np.int64),
                "n_windows": new["cnt"].to_numpy(np.int64),
                "n_seen": new["cnt"].to_numpy(np.int64) * hit,
            }
        )
        return part.groupby("doc", as_index=False).sum()

    partials = exchange(rows, "win_h", probe_bucket)
    out = bucketed_aggregate(
        partials,
        keys=["doc"],
        aggs={"n_windows": ("n_windows", "sum"), "n_seen": ("n_seen", "sum")},
    )

    def rename(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"doc": id_col})

    return out.map_batches(rename, batch_format="pandas")
