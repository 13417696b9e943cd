"""Combiner trees: fold per-batch partials without a sort.

Ray's sort-based groupby carries a large fixed exchange cost (measured ~20s
for a 100k-row two-column aggregate at 32 CPUs). For BOUNDED-CARDINALITY
results — result rows << input rows — the scale-correct pattern is the
classic combiner tree, in two forms:

  * frame partials (:func:`tree_aggregate`): a pandas groupby per batch,
    ``repartition(1)`` (only partial rows move), one merge groupby;
  * mergeable objects (:func:`tree_reduce`): one picklable summary per
    batch (moment tuples, Bloom/HLL/Misra-Gries sketches), folded with a
    caller ``merge`` through a two-level tree to ONE value on the driver.

When the result is corpus-sized (e.g. dedup by content hash) the shuffle
is the honest cost and no combiner can help: :func:`exchange` is the one
keyed hash exchange every such operator goes through (bucket placement by
``joins.bucket_of``, fan-out by ``scale.resolve``), and
:func:`bucketed_aggregate` is the combiner-then-exchange aggregate built
on it. Its users include the LSH band buckets, pair dedup, exact dedup,
min-label propagation and prefix-filter stages of ``neardup``; the
bucketed, interval and as-of joins of ``joins``; ``dedup``'s keep-latest
and dup-span packing; the node tables of ``graph``'s PageRank and HITS;
``curation``'s stratified sample and paragraph/line reassembly; and the
final top-k of ``ann``'s k-NN searches. Every per-key grouping whose key
count grows with the data runs here, never as Ray's own per-key
``groupby(key)``, whose cost grows with the number of distinct keys
against a flat cost per bucket here (ROADMAP item 4 has the
measurements).
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd

from . import scale as _scale
from .joins import bucket_of

__all__ = [
    "tree_aggregate",
    "tree_reduce",
    "exchange",
    "bucketed_aggregate",
    "topk",
    "range_prefix_sum",
    "select_kth",
    "grouped_select_kth",
]


def topk(ds, keys: list[str], descending: list[bool], k: int):
    """Global top-k without a full sort: per-batch local top-k combiner
    shrinks the exchange to <= k rows per batch, then the tiny global
    sort+limit. Exact (top-k is a monotone filter: any global top-k row is
    in its batch's top-k).

    CONTRACT: ``keys`` must be a TOTAL order over rows (include a unique
    tiebreak column). With ties at the k-th value, the per-batch head(k)
    prune legitimately drops rows tied with the boundary, so WHICH tied
    rows survive would vary with batching (ADVICE r2, agg.py:24)."""

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            keys, ascending=[not d for d in descending], kind="mergesort"
        ).head(k)

    return (
        ds.map_batches(local, batch_format="pandas")
        .sort(keys, descending=descending)
        .limit(k)
    )

_AGG_FUNCS = {"sum", "min", "max", "count"}


def _combiner(keys: list[str], aggs: dict[str, tuple[str, str]]):
    """The per-batch ``partial`` and the ``merge`` shared by
    :func:`tree_aggregate` and :func:`bucketed_aggregate`: ``partial``
    groups one batch into (keys, out columns) partial rows, ``merge``
    folds partial rows of the same keys (counts merge as sums)."""
    for out, (col, fn) in aggs.items():
        if fn not in _AGG_FUNCS:
            raise ValueError(f"unsupported agg fn {fn} for {out}")
    spec = {
        out: (out, "sum" if fn == "count" else fn) for out, (col, fn) in aggs.items()
    }

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = {k: batch[k].values for k in keys}
        for out, (col, fn) in aggs.items():
            cols[out] = 1 if fn == "count" else batch[col].values
        return pd.DataFrame(cols).groupby(keys, as_index=False).agg(**spec)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(keys, as_index=False).agg(**spec)

    return partial, merge


def tree_aggregate(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
):
    """Grouped aggregate via partial combine + single-block merge.

    ``aggs``: {out_col: (in_col, fn)} with fn in sum|min|max|count.
    The final merge runs in ONE block by design: a plain repartition(N>1)
    splits rows arbitrarily (not by key) and would emit duplicate key rows.
    The caller's contract is that the RESULT fits one block; the partial
    stage has already shrunk the data to <= keys x input-blocks rows.
    """
    partial, merge = _combiner(keys, aggs)
    return (
        ds.map_batches(partial, batch_format="pandas")
        .repartition(1)
        .map_batches(merge, batch_format="pandas", batch_size=None)
    )


def tree_reduce(ds, partial, merge):
    """Fold ONE mergeable summary per batch into one value on the driver.

    ``partial(batch) -> summary`` runs on every non-empty pandas batch;
    ``merge(a, b) -> summary`` folds two summaries (it may update ``a`` in
    place and return it, as the sketch classes' ``merge`` methods do).
    Summaries travel pickled through ``repartition(16)`` -> merge per
    block -> ``repartition(1)`` -> merge: the corpus never moves, only
    one summary per batch, and the driver gathers exactly one row. Each
    block folds its summaries in row order, so float sums keep a fixed
    association. Returns ``None`` when no batch had rows."""

    def to_blob(batch: pd.DataFrame) -> pd.DataFrame:
        value = partial(batch) if len(batch) else None
        return pd.DataFrame({"__m": pd.Series([pickle.dumps(value)], dtype="object")})

    def fold(batch: pd.DataFrame) -> pd.DataFrame:
        acc = None
        for blob in batch.get("__m", ()):
            value = pickle.loads(blob)
            if value is None:
                continue  # an empty batch's identity
            acc = value if acc is None else merge(acc, value)
        return pd.DataFrame({"__m": pd.Series([pickle.dumps(acc)], dtype="object")})

    rows = (
        ds.map_batches(to_blob, batch_format="pandas")
        .repartition(16)  # first-level merge tasks; the second level is one
        .map_batches(fold, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(fold, batch_format="pandas", batch_size=None)
        .take_all()
    )
    return pickle.loads(rows[0]["__m"]) if rows else None


def exchange(ds, key, per_bucket):
    """The one keyed hash exchange: every row whose ``key`` (a column
    name or a list of them) holds the same value lands in the same
    bucket, and ``per_bucket(frame) -> frame`` runs once per non-empty
    bucket on a pandas frame of that bucket's rows. ``per_bucket`` must be
    key-local: it sees whole keys, several keys per bucket, in no
    particular row order, and never the bucket column itself. It works over the whole bucket (a vectorized
    groupby, sort or ``drop_duplicates``), so the cost does not grow per
    distinct key the way a per-key ``groupby(key).map_groups`` does.

    The fan-out is ``scale.resolve()``, derived from the workload's
    input size when the exchange is built, and placement is
    ``joins.bucket_of``. The bucket column is added in a ``map_batches``
    that Ray fuses into the caller's upstream map, so only the
    ``groupby(...).map_groups`` shuffle is new work."""
    keys = [key] if isinstance(key, str) else list(key)
    n_buckets = _scale.resolve()

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy(deep=False)  # new column only; rows are not copied
        batch["__bucket"] = bucket_of(batch[keys], n_buckets)
        return batch

    def run(group: pd.DataFrame) -> pd.DataFrame:
        del group["__bucket"]  # each group frame is fresh; no copy needed
        return per_bucket(group)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas")
    )


def bucketed_aggregate(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
):
    """Grouped aggregate for LARGE-cardinality keys: partial combine, then
    one :func:`exchange` on the keys with one merge per bucket — no single
    block ever holds the whole result (the tree_aggregate contract breaks
    when results are corpus-sized, e.g. a web-scale vocabulary count).
    Only partial rows move through the exchange. Same ``aggs`` spec as
    tree_aggregate."""
    partial, merge = _combiner(keys, aggs)
    return exchange(ds.map_batches(partial, batch_format="pandas"), keys, merge)


def range_prefix_sum(ds, order_col, value_col, range_size, out_col="cum_before"):
    """Distributed EXCLUSIVE prefix sum (scan) over a range-partitionable
    integer order column — the classic two-phase parallel scan:

    1. tiny per-range sums via :func:`tree_aggregate` -> driver computes
       the O(n_ranges) prefix offsets (never row data);
    2. ``groupby(range).map_groups``: local sort + cumsum + range offset.

    The input is consumed twice (sum pass + scan pass); callers pass a
    cheaply re-computable pruned dataset (re-reading two integer columns
    beats materializing a corpus-sized intermediate). Only monotonicity of
    ``order_col // range_size`` is required — ids need not be dense.
    ``order_col`` must be unique (total order within a range)."""

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["__range"] = (
            batch[order_col].to_numpy().astype(np.int64) // range_size
        )
        return b

    tagged = ds.map_batches(tag, batch_format="pandas")
    sums = tree_aggregate(
        tagged, keys=["__range"], aggs={"__rsum": (value_col, "sum")}
    ).to_pandas()
    sums = sums.sort_values("__range")
    csum = np.cumsum(sums["__rsum"].to_numpy(dtype=np.int64))
    offsets = dict(
        zip(
            sums["__range"].astype("int64"),
            np.concatenate([[np.int64(0)], csum[:-1]]),
        )
    )

    def scan(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order_col, kind="mergesort")
        v = g[value_col].to_numpy(dtype=np.int64)
        base = np.int64(offsets[int(g["__range"].iloc[0])])
        g[out_col] = (base + np.cumsum(v) - v).astype("int64")
        return g.drop(columns="__range")

    return tagged.groupby("__range").map_groups(scan, batch_format="pandas")


def select_kth(ds, col: str, k: int, n_cells: int = 2048, collect_limit: int = 65536):
    """EXACT k-th smallest (1-based) of a numeric column WITHOUT a global
    sort: :func:`grouped_select_kth` over one group holding every row of
    ``col`` as float64. Each round is ONE full scan that bincounts the
    live [lo, hi] range into ``n_cells`` equal-width cells, the driver
    keeps only that histogram, descends into the cell containing rank k,
    and repeats until the survivor set fits ``collect_limit`` (then one
    bounded filter-and-pick). O(log) passes, O(n_cells) driver state,
    nothing corpus-sized ever leaves the executors — a 10^12-row median
    costs ~4 scans instead of an all-to-all sort.

    Returns the selected value as a Python float."""
    one = ds.map_batches(
        lambda b: pd.DataFrame(
            {"g": np.zeros(len(b), dtype="int64"), "v": b[col].to_numpy(np.float64)}
        ),
        batch_format="pandas",
    )
    return grouped_select_kth(one, "g", "v", {0: k}, n_cells, collect_limit)[0]


def grouped_select_kth(
    ds,
    key: str,
    col: str,
    ks: dict,
    n_cells: int = 256,
    collect_limit: int = 8192,
):
    """EXACT k-th smallest of ``col`` PER GROUP without any sort (and
    the one selection loop behind :func:`select_kth`): every scan round
    histograms ALL live (group, rank) targets simultaneously (per-batch
    partials emit (group, target, cell, count) rows — nothing else), the
    driver keeps one [lo, hi, k] triple per target and descends each
    target's histogram independently; targets converge in the SAME ~3
    rounds, so total cost is ~3 scans no matter how many groups OR how
    many ranks per group (quantile boundaries come out of one descent).
    One final scan collects every unfinished target's survivor cell at
    once. Deterministic: the count and collect passes place a value with
    the same searchsorted over the same np.linspace edges, so its cell
    never disagrees between them.

    ``ks``: {group_value: k} or {group_value: [k1, k2, ...]} (1-based).
    DRIVER-STATE CONTRACT: state is O(|targets| * n_cells) — right
    for bounded key domains (event types, languages, doc types);
    corpus-sized key domains belong on the exchange-based
    grouped-quantile path instead.

    Returns {group_value: float} for scalar ks, {group_value: [float,
    ...]} (rank order preserved) for list ks."""
    ds = ds.materialize()

    mm = (
        tree_aggregate(
            ds.map_batches(
                lambda b: b.groupby(key, as_index=False).agg(
                    lo=(col, "min"), hi=(col, "max"), n=(col, "count")
                ),
                batch_format="pandas",
            ),
            keys=[key],
            aggs={"lo": ("lo", "min"), "hi": ("hi", "max"), "n": ("n", "sum")},
        )
        .to_pandas()
        .set_index(key)
    )
    scalar_in = {g: not isinstance(k, (list, tuple)) for g, k in ks.items()}
    state = {}
    for g, k in ks.items():
        if g not in mm.index:
            raise ValueError(f"group {g!r} not present")
        n_g = int(mm.loc[g, "n"])
        klist = [k] if scalar_in[g] else list(k)
        for i, kk in enumerate(klist):
            if not (1 <= int(kk) <= n_g):
                raise ValueError(
                    f"k={kk} out of range for group {g!r} with n={n_g}"
                )
            state[(g, i)] = [
                float(mm.loc[g, "lo"]),
                float(mm.loc[g, "hi"]),
                int(kk),
            ]

    def cell_ids(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
        b = np.searchsorted(edges, v, side="right") - 1
        return np.clip(b, 0, len(edges) - 2)

    out: dict = {}
    live = {t for t in state if state[t][0] != state[t][1]}
    for t in set(state) - live:
        out[t] = state[t][0]

    while live:
        edges_of: dict = {}
        for (g, i) in live:
            edges_of.setdefault(g, {})[i] = np.linspace(
                state[(g, i)][0], state[(g, i)][1], n_cells + 1
            )

        def count_pass(batch: pd.DataFrame, edges_of=edges_of) -> pd.DataFrame:
            rows = []
            for g, grp in batch.groupby(key):
                targets = edges_of.get(g)
                if not targets:
                    continue
                vv = grp[col].to_numpy(np.float64)
                for i, e in targets.items():
                    v = vv[(vv >= e[0]) & (vv <= e[-1])]
                    c = np.bincount(cell_ids(v, e), minlength=n_cells)
                    rows.append(
                        pd.DataFrame(
                            {
                                key: g,
                                "t": np.int64(i),
                                "b": np.arange(n_cells, dtype="int64"),
                                "c": c.astype("int64"),
                            }
                        )
                    )
            if not rows:
                # empty frame with the batch's OWN key dtype (a hardcoded
                # object dtype mismatches numeric keys and triggers
                # per-batch schema-size errors in block unification)
                return pd.DataFrame(
                    {key: batch[key].iloc[:0],
                     "t": pd.Series(dtype="int64"),
                     "b": pd.Series(dtype="int64"),
                     "c": pd.Series(dtype="int64")}
                )
            return pd.concat(rows, ignore_index=True)

        hist = (
            tree_aggregate(
                ds.map_batches(count_pass, batch_format="pandas"),
                keys=[key, "t", "b"],
                aggs={"c": ("c", "sum")},
            )
            .to_pandas()
            .sort_values([key, "t", "b"])
        )
        collect_spec: dict = {}
        tie_spec: dict = {}
        for (g, i) in list(live):
            h = hist[(hist[key] == g) & (hist["t"] == i)]
            counts = np.zeros(n_cells, dtype=np.int64)
            counts[h["b"].to_numpy(np.int64)] = h["c"].to_numpy(np.int64)
            cum = np.cumsum(counts)
            lo, hi, k = state[(g, i)]
            b = int(np.searchsorted(cum, k, side="left"))
            in_cell = int(counts[b])
            k2 = k - (int(cum[b - 1]) if b else 0)
            e = edges_of[g][i]
            new_lo, new_hi = float(e[b]), float(e[b + 1])
            if new_lo == lo and new_hi == hi and in_cell > collect_limit:
                # non-shrinking range: lo/hi are (near-)adjacent doubles,
                # so at most two distinct values remain — one equality
                # count of the low value settles rank k2 (the duplicate-
                # heavy case, e.g. integer-valued columns with a single
                # dominant value)
                tie_spec.setdefault(g, {})[i] = (lo, hi, k2)
                live.discard((g, i))
            elif in_cell <= collect_limit:
                collect_spec.setdefault(g, {})[i] = (e, b, k2)
                live.discard((g, i))
            else:
                state[(g, i)] = [new_lo, new_hi, k2]

        if tie_spec:

            def tie_count(batch: pd.DataFrame, spec=tie_spec) -> pd.DataFrame:
                rows = []
                for g, grp in batch.groupby(key):
                    targets = spec.get(g)
                    if not targets:
                        continue
                    vv = grp[col].to_numpy(np.float64)
                    for i, (lo_t, _hi_t, _k) in targets.items():
                        rows.append(
                            pd.DataFrame(
                                {
                                    key: [g],
                                    "t": pd.Series([i], dtype="int64"),
                                    "c": pd.Series(
                                        [int(np.sum(vv == lo_t))],
                                        dtype="int64",
                                    ),
                                }
                            )
                        )
                if not rows:
                    return pd.DataFrame(
                        {key: batch[key].iloc[:0],
                         "t": pd.Series(dtype="int64"),
                         "c": pd.Series(dtype="int64")}
                    )
                return pd.concat(rows, ignore_index=True)

            tc = (
                tree_aggregate(
                    ds.map_batches(tie_count, batch_format="pandas"),
                    keys=[key, "t"],
                    aggs={"c": ("c", "sum")},
                )
                .to_pandas()
                .set_index([key, "t"])["c"]
            )
            for g, targets in tie_spec.items():
                for i, (lo_t, hi_t, k2) in targets.items():
                    out[(g, i)] = lo_t if k2 <= int(tc.loc[(g, i)]) else hi_t

        if collect_spec:

            def collect(batch: pd.DataFrame, spec=collect_spec) -> pd.DataFrame:
                rows = []
                for g, grp in batch.groupby(key):
                    targets = spec.get(g)
                    if not targets:
                        continue
                    vv = grp[col].to_numpy(np.float64)
                    for i, (e, b, _) in targets.items():
                        v = vv[(vv >= e[0]) & (vv <= e[-1])]
                        v = v[cell_ids(v, e) == b]
                        rows.append(
                            pd.DataFrame({key: g, "t": np.int64(i), "v": v})
                        )
                if not rows:
                    return pd.DataFrame(
                        {key: batch[key].iloc[:0],
                         "t": pd.Series(dtype="int64"),
                         "v": pd.Series(dtype="float64")}
                    )
                return pd.concat(rows, ignore_index=True)

            got = ds.map_batches(collect, batch_format="pandas").to_pandas()
            for g, targets in collect_spec.items():
                for i, (e, b, k2) in targets.items():
                    vals = np.sort(
                        got.loc[
                            (got[key] == g) & (got["t"] == i), "v"
                        ].to_numpy(np.float64),
                        kind="mergesort",
                    )
                    out[(g, i)] = float(vals[k2 - 1])

    result: dict = {}
    for g, k in ks.items():
        if scalar_in[g]:
            result[g] = out[(g, 0)]
        else:
            result[g] = [out[(g, i)] for i in range(len(k))]
    return result
