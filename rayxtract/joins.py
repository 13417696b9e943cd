"""Distributed joins: one keyed exchange, one broadcast merge.

The reference has NO relational joins (only point lookups by primary key,
reference: main.py:410-418, workers.py:45) — these are engine-first
operators for the training-data workloads this engine targets.

Every join runs on one of two private mechanisms:

  * the exchange (``_exchange_join``): each side's schema is read once,
    rows are aligned to both sides' columns (typed nulls for the other
    side's), tagged with their side and routed through ``agg.exchange`` —
    the same fan-out (``scale.resolve``) and placement (``bucket_of``) as
    every other keyed stage. Only the per-bucket merge differs:
    ``bucketed_join`` (pandas merge, inner|left|right|outer, hot-key
    salting), ``interval_join`` (merge, then the range filter) and
    ``asof_join`` (``pd.merge_asof`` by key).
  * the broadcast (``_small_side`` + ``_broadcast_join``): the right side
    is materialized once and, at or under a row limit, shipped with
    ``ray.put`` and merged into every left batch — no shuffle of the left
    side, whose columns come from each batch (it is never probed).
    ``auto_join`` (inner|left) and ``interval_join`` choose it by size;
    ``auto_join`` right/outer always runs the exchange.

Skew note: a hot key floods one bucket; ``bucketed_join(hot_keys=...)``
salts it (left rows spread over ``salt`` shards, right rows replicated
to every shard, the merge keyed on key + shard so replicas never meet
twice). A side with no schema (e.g. everything filtered out) raises a
ValueError naming the side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = [
    "auto_join",
    "bucketed_join",
    "asof_join",
    "interval_join",
    "bloom_prefilter",
    "find_hot_keys",
    "bucket_of",
]

_HOWS = ("inner", "left", "right", "outer")
# exchange-internal columns: the side tag, the int64 exchange key, the
# salt shard of a hot key, and interval_join's left-row number
_SIDE, _XKEY, _SHARD, _LROW = "__side", "__x", "__shard", "__lrow"


_NULL_KEYS = (
    "null join keys: the key column holds nulls; drop or fill them before "
    "the join"
)


def _key_ints(values) -> np.ndarray:
    """int64 HASHING representation of a key array: integer keys pass
    through; string/object keys (url, domain — the native keys of every
    pages-table workload) hash via ``pd.util.hash_array`` (deterministic
    across processes). Used only to pick a bucket or a Bloom bit — joins
    and groups run on the RAW key column, so a 64-bit hash collision
    merely co-locates two keys, never mis-joins them. Null keys (float64
    + NaN, as a nullable-Int64 column converts) raise a ValueError naming
    them."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64)
    if arr.dtype.kind in "OUS":
        return pd.util.hash_array(arr.astype("object")).view(np.int64)
    if arr.dtype.kind == "f" and np.isnan(arr).any():
        raise ValueError(_NULL_KEYS)
    raise TypeError(f"unsupported key dtype {arr.dtype} (int or string keys only)")


def bucket_of(keys, n_buckets: int) -> np.ndarray:
    """The bucket (0..n_buckets-1, int64) of every key — the one
    placement rule behind every hash exchange, join and shard map.

    ``keys`` is one key column (array or Series) or a DataFrame of key
    columns. A single column goes through :func:`_key_ints` (integers
    exact above 2**53, strings via ``pd.util.hash_array``); several
    columns hash their ``\x1f``-joined string form. A splitmix
    multiply-xorshift then spreads the int64 over the buckets. All of it
    is deterministic across processes, so every task of an exchange
    agrees on where a key goes."""
    if isinstance(keys, pd.DataFrame):
        if keys.shape[1] == 1:
            keys = keys.iloc[:, 0]
        else:
            joined = keys.iloc[:, 0].astype(str)
            for c in keys.columns[1:]:
                joined = joined + "\x1f" + keys[c].astype(str)
            keys = joined.to_numpy(dtype=object)
    z = _key_ints(keys).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(n_buckets)).astype(np.int64)


def _key_ints_seq(keys) -> np.ndarray:
    """_key_ints for a plain Python iterable (e.g. a hot-key set): integer
    elements keep their value (matching the int-column pass-through),
    anything else hashes like a string column would."""
    ks = list(keys)
    if not ks:
        return np.array([], dtype=np.int64)
    if all(isinstance(x, (int, np.integer)) for x in ks):
        return np.array(sorted(int(x) for x in ks), dtype=np.int64)
    return np.sort(_key_ints(np.array([str(x) for x in ks], dtype=object)))


def _pandas_dtype_of(typ) -> str:
    if isinstance(typ, pa.DataType):  # arrow-block dataset schema
        if pa.types.is_integer(typ):
            return "Int64"  # nullable: missing-side columns carry NA
        if pa.types.is_floating(typ):
            return "float64"
        if pa.types.is_timestamp(typ):
            return "datetime64[us]"
        return "object"
    # pandas-block dataset schema carries numpy/pandas dtypes instead
    dt = pd.api.types.pandas_dtype(typ)
    if pd.api.types.is_integer_dtype(dt):
        return "Int64"
    if pd.api.types.is_float_dtype(dt):
        return "float64"
    if pd.api.types.is_datetime64_any_dtype(dt):
        return "datetime64[us]"
    return "object"


def _int_nullable_mapper(t):
    """pyarrow->pandas types_mapper: integer columns become NULLABLE Int64.

    The default ``to_pandas`` converts an arrow int64 column WITH NULLS to
    float64 — silently corrupting integer values above 2**53 (the 60-bit
    url-hash doc ids of tools.neardup_prune hit this; every id <= ~1e15
    is float-exact, which is why the TPC-H/pages oracles never saw it).
    Joins route every pyarrow batch through :func:`_to_pandas_lossless`,
    which applies this mapper to int columns holding nulls."""
    if pa.types.is_integer(t):
        return pd.Int64Dtype()
    return None


def _to_pandas_lossless(block) -> pd.DataFrame:
    """A pandas frame of one block or batch: pandas frames as they are;
    arrow int columns holding nulls become nullable Int64, not float64."""
    if not isinstance(block, pa.Table):
        return block
    frame = block.to_pandas()
    holed = [
        f.name for f in block.schema
        if pa.types.is_integer(f.type) and block[f.name].null_count
    ]
    if holed:
        frame[holed] = block.select(holed).to_pandas(types_mapper=_int_nullable_mapper)
    return frame


def _null_for(dtype: str):
    if dtype == "float64":
        return np.nan
    if dtype == "datetime64[us]":
        return pd.NaT
    return pd.NA  # Int64 / object


def find_hot_keys(ds, key: str, min_frac: float = 0.05):
    """Distributed hot-key detector: bucketed per-key counts (partial
    combine first — only (key, count) partials move), then filter to keys
    holding >= ``min_frac`` of all rows. Returns a plain Python set of
    raw key values (int or string) — by construction at most
    ``1/min_frac`` keys, so always small enough to broadcast. The input
    is consumed twice (count + detect); pass a cheap pruned re-readable
    dataset."""
    from .agg import bucketed_aggregate

    total = ds.count()
    thresh = max(1, int(total * min_frac))
    counts = bucketed_aggregate(ds, keys=[key], aggs={"n": (key, "count")})
    hot = counts.map_batches(
        lambda b: b[b["n"] >= thresh][[key]], batch_format="pandas"
    ).to_pandas()
    vals = hot[key]
    if pd.api.types.is_integer_dtype(vals):
        return set(int(x) for x in vals)
    return set(vals.tolist())


def bloom_prefilter(
    probe,
    build,
    probe_key: str,
    build_key: str,
    n_bits: int = 1 << 23,
    k: int = 7,
):
    """Bloom-join prefilter (the classic shuffle-byte reducer for a
    LOW-match-rate inner/semi join where the build side is too big to
    broadcast raw but its KEY SET fits a fixed bit array): one streaming
    pass over ``build`` folds per-batch Bloom partials over the hashed
    key column, OR-merged through ``agg.tree_reduce``, the final
    bits ship ONCE via ``ray.put`` (n_bits/8 bytes regardless of build
    cardinality), and ``probe`` rows whose key misses are dropped BEFORE
    any exchange. A miss is a guaranteed non-match (no false negatives),
    so composing with any inner join is exact; false positives merely
    ride into the join and fall out there. Keys hash via ``_key_ints``
    (int passthrough / string hash — same convention as bucketing).

    Returns the filtered probe Dataset. Do NOT use before left/outer
    joins (pruned rows must survive those)."""
    import ray

    from .agg import tree_reduce
    from .sketch import BloomFilter

    def build_partial(batch: pd.DataFrame) -> BloomFilter:
        bf = BloomFilter(n_bits=n_bits, k=k)
        bf.add_many(_key_ints(batch[build_key].to_numpy()).view(np.uint64))
        return bf

    bf_final = tree_reduce(build, build_partial, BloomFilter.merge)
    if bf_final is None:
        # empty build side: nothing can match — emit an empty probe with
        # the schema intact rather than crashing on a missing bloom row
        return probe.map_batches(
            lambda b: b.iloc[0:0], batch_format="pandas"
        )
    bloom_ref = ray.put(bf_final)

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        bf: BloomFilter = ray.get(bloom_ref)
        hit = bf.contains_many(
            _key_ints(batch[probe_key].to_numpy()).view(np.uint64)
        )
        return batch[hit]

    return probe.map_batches(prune, batch_format="pandas")


def _side_dtypes(ds, side: str) -> dict[str, str | None]:
    """Column -> pandas dtype of one join side, read from its schema.

    Ray reports type ``None`` for pandas-extension block columns it cannot
    express (e.g. a nullable Int64 column); that dtype is UNKNOWN, so it
    maps to ``None`` and the column is left untouched rather than guessed:
    np.dtype(None) is float64, and that guess once silently corrupted
    integer keys above 2**53 (tools.neardup_prune's 60-bit url-hash ids)."""
    schema = ds.schema()
    if schema is None:
        raise ValueError(
            f"the {side} join side is empty and has no schema (every row was "
            "filtered out before its columns were known); skip the join or "
            "give that side typed columns"
        )
    return {
        name: None if typ is None else _pandas_dtype_of(typ)
        for name, typ in zip(schema.names, schema.types)
    }


def _nullable(frame: pd.DataFrame, cols) -> dict[str, str]:
    """The dtype each of ``cols`` keeps when padded with nulls."""
    return {c: _pandas_dtype_of(frame[c].dtype) for c in cols}


def _spread_shards(keys: np.ndarray, hot: np.ndarray, salt: int) -> np.ndarray:
    """Salt shard of every row on the SPREAD (left) side of a salted join:
    0 for cold keys; a hot key's rows round-robin over ``0..salt-1``.
    Which shard a hot row gets is arbitrary: the right side replicates
    hot rows to every shard, so it changes task load, never the result."""
    shard = np.zeros(len(keys), dtype=np.int64)
    m = np.isin(keys, hot)
    shard[m] = np.arange(int(m.sum()), dtype=np.int64) % np.int64(salt)
    return shard


def _exchange_join(left, right, left_key, right_key, merge, hot=(), salt=1):
    """The one two-sided exchange behind every non-broadcast join.

    Each side's schema is read once. Every row is aligned to the union of
    both sides' columns (the other side's as typed nulls, so block schemas
    agree), tagged with its side, and routed through ``agg.exchange`` on
    an int64 image of its key (``_key_ints``: exact ints, hashed strings;
    a null key raises). ``merge(l, r)`` runs once per bucket on that
    bucket's left rows (left columns) and right rows (right columns); a
    bucket may hold several keys.

    ``hot`` (keys as ``_key_ints_seq``) salts those keys: left rows
    spread over ``salt`` shards, right rows are replicated to all of
    them, and each row carries its shard in ``__shard``. The exchange key
    mixes in the shard so a hot key's shards spread over buckets; shards
    that share a bucket stay apart because ``merge`` joins on the key and
    ``__shard``."""
    from .agg import exchange

    ldt, rdt = _side_dtypes(left, "left"), _side_dtypes(right, "right")
    # a left dtype wins unless it is unknown
    dtypes = {**rdt, **{c: t for c, t in ldt.items() if t is not None or c not in rdt}}
    left_cols, right_cols = list(ldt), list(rdt)
    all_cols = left_cols + [c for c in right_cols if c not in ldt]
    salted = len(hot) > 0
    extra = [_SHARD] if salted else []

    def prep(side: int, key: str):
        def fn(tbl) -> pd.DataFrame:
            b = _to_pandas_lossless(tbl)
            for c in all_cols:
                dt = dtypes[c]
                if c not in b.columns:
                    b[c] = pd.Series(
                        _null_for(dt or "object"), index=b.index, dtype=dt or "object"
                    )
                elif dt is not None:
                    b[c] = b[c].astype(dt)
            x = _key_ints(b[key].to_numpy())
            b[_SIDE] = np.int8(side)
            if salted:
                if side == 0:
                    shard = _spread_shards(x, hot, salt)
                else:  # replicate hot rows once per shard
                    reps = np.where(np.isin(x, hot), salt, 1)
                    rows = np.repeat(np.arange(len(b)), reps)
                    b, x = b.iloc[rows].reset_index(drop=True), x[rows]
                    shard = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
                b[_SHARD] = shard.astype(np.int64)
                mix = shard.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
                x = (x.view(np.uint64) + mix).view(np.int64)
            b[_XKEY] = x
            return b[all_cols + [_SIDE, _XKEY] + extra]

        return fn

    both = left.map_batches(prep(0, left_key), batch_format="pyarrow").union(
        right.map_batches(prep(1, right_key), batch_format="pyarrow")
    )

    def run(group: pd.DataFrame) -> pd.DataFrame:
        side = group[_SIDE].to_numpy()
        return merge(
            group.loc[side == 0, left_cols + extra],
            group.loc[side == 1, right_cols + extra],
        )

    return exchange(both, _XKEY, run)


def _small_side(right, limit: int):
    """Materialize ``right`` (its one execution) and return it with, when
    it holds at most ``limit`` rows, the whole side as one pandas frame
    (else ``None``). The frame comes from the materialized blocks, so a
    zero-row side keeps its typed columns (``to_pandas`` drops them); the
    row count and schema are block metadata and run nothing."""
    import ray

    right = right.materialize()
    dtypes = _side_dtypes(right, "right")
    if right.count() > limit:
        return right, None
    parts = [
        _to_pandas_lossless(ray.get(ref))
        for bundle in right.iter_internal_ref_bundles()
        for ref, _ in bundle.blocks
    ]
    parts = [p for p in parts if len(p)]
    if not parts:
        return right, pd.DataFrame(
            {c: pd.Series(dtype=dt or "object") for c, dt in dtypes.items()}
        )
    return right, pd.concat(parts, ignore_index=True)


def _broadcast_join(left, frame: pd.DataFrame, merge):
    """Ship ``frame`` once with ``ray.put`` and run ``merge(batch, frame)``
    on every left batch: no shuffle of the left side, and its columns come
    from each batch, so it is never probed for a schema."""
    import ray

    ref = ray.put(frame)
    return left.map_batches(
        lambda batch: merge(batch, ray.get(ref)), batch_format="pandas"
    )


def _equi_merge(left_key: str, right_key: str, how: str):
    """The pandas merge of ``bucketed_join`` buckets and ``auto_join``
    broadcast batches. Output: the left columns, then the right columns
    minus ``right_key``. Columns of a null-padded side keep nullable
    dtypes; for right/outer the left key is coalesced from the right key
    so unmatched right rows keep their key. Salted rows also match on
    ``__shard``, so replicated right rows never meet a left row twice."""

    def merge(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        lk, rk = [left_key], [right_key]
        if _SHARD in l.columns:
            lk.append(_SHARD)
            rk.append(_SHARD)
        j = l.merge(r, left_on=lk, right_on=rk, how=how)
        if how in ("right", "outer") and right_key != left_key:
            j[left_key] = j[left_key].fillna(j[right_key])
        out_l = [c for c in l.columns if c != _SHARD]
        out_r = [c for c in r.columns if c not in (right_key, _SHARD)]
        padded = {}
        if how in ("right", "outer"):
            padded.update(_nullable(l, out_l))
        if how in ("left", "outer"):
            padded.update(_nullable(r, out_r))
        for c, dt in padded.items():
            j[c] = j[c].astype(dt)
        return j[out_l + out_r]

    return merge


def bucketed_join(
    left,
    right,
    left_key: str,
    right_key: str,
    how: str = "inner",
    hot_keys=None,
    salt: int = 8,
):
    """Explicit partitioned hash join on the two-sided exchange (its
    fan-out is ``scale.resolve()``, like every exchange's), one pandas
    merge per bucket. ``how`` in inner|left|right|outer (left
    preserves every left row; right preserves every right row; outer
    preserves both sides — for right/outer the left key column is
    coalesced from the right key so unmatched right rows keep their key);
    int OR string keys first-class (the merge runs on the raw column).
    Output: left columns, then right columns minus ``right_key``.

    SKEW SALTING (``hot_keys``): a hot key hashes every one of its rows
    into ONE bucket — one merge task carries the whole key. Passing
    ``hot_keys`` (an explicit set, e.g. from :func:`find_hot_keys`)
    splits each hot key's LEFT rows round-robin across ``salt`` shards
    and REPLICATES its right rows to all shards, bounding any merge task
    at ~|hot|/salt left rows. The merge matches on key + shard, so
    replicated right rows never meet twice, even where two shards share a
    bucket. Inner|left only: an outer join would emit one unmatched-right
    row per shard."""
    if how not in _HOWS:
        raise ValueError(f"unsupported join type {how!r}")
    hot = _key_ints_seq(hot_keys or ())
    if len(hot) and how in ("right", "outer"):
        raise ValueError("hot-key salting supports how='inner'|'left' only")
    if salt < 1:
        raise ValueError("salt must be >= 1")
    return _exchange_join(
        left, right, left_key, right_key, _equi_merge(left_key, right_key, how),
        hot, salt,
    )


def asof_join(
    left,
    right,
    key: str,
    ts_col: str,
    right_value_cols: list[str],
    suffix: str = "_r",
):
    """Per-key as-of join: for each left row, the latest right row with
    the same ``key`` and ``right.ts <= left.ts`` (exact matches allowed).
    Both inputs must carry ``key`` and ``ts_col``; right contributes
    ``right_value_cols`` renamed with ``suffix`` (typed nulls where no
    right row qualifies). Runs on the two-sided exchange keyed by ``key``:
    one ``pd.merge_asof(..., by=key)`` per bucket — the partitioned-log
    pattern for streaming-shaped data (events are complete, no
    watermarks)."""
    renamed = {c: c + suffix for c in right_value_cols}

    def merge(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        l = l.sort_values(ts_col, kind="mergesort")
        r = (
            r[[key, ts_col] + right_value_cols]
            .rename(columns=renamed)
            .sort_values(ts_col, kind="mergesort")
        )
        if len(l) and len(r):
            return pd.merge_asof(l, r, on=ts_col, by=key, direction="backward")
        out = l.copy()
        for c, dt in _nullable(r, renamed.values()).items():
            out[c] = pd.Series(_null_for(dt), index=out.index, dtype=dt)
        return out

    return _exchange_join(left, right, key, key, merge)


def interval_join(
    left,
    intervals,
    key: str,
    ts_col: str,
    start_col: str,
    end_col: str,
    how: str = "inner",
    broadcast_limit: int = 500_000,
):
    """Non-equi INTERVAL (range) join: each left row ``(key, ts)``
    matches every interval row ``(key, start, end)`` with
    ``start <= ts < end`` — the attribution-window / validity-window /
    slowly-changing-dimension shape equi-joins cannot express. A left
    row matching k overlapping intervals emits k output rows;
    ``how='left'`` keeps unmatched left rows with typed-null interval
    columns. Output columns: left's + the interval side's minus ``key``.

    Physical plan, same size-adaptive choice as :func:`auto_join`: an
    interval side at/under ``broadcast_limit`` rows takes the broadcast
    merge (zero shuffle); above it, the two-sided exchange on ``key``
    (int or string) merges-then-filters each bucket. Per-key candidate
    fan-out is |L_k| x |I_k| before the range filter — a key carrying
    many overlapping windows concentrates that product in one task, the
    same hot-key hazard bucketed_join salts; keep per-key interval
    counts bounded upstream."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")

    def merge(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        out_r = [c for c in r.columns if c != key]
        dtypes = {**_nullable(l, l.columns), **_nullable(r, out_r)}
        l = l.reset_index(drop=True)
        l[_LROW] = np.arange(len(l), dtype=np.int64)
        j = l.merge(r, on=key, how=how)
        ok = ((j[start_col] <= j[ts_col]) & (j[ts_col] < j[end_col])).fillna(False)
        if how == "left":
            # a left row with >= 1 range hit emits its hit rows; one with
            # none emits exactly ONE row with typed-null interval columns
            misses = j[~j[_LROW].isin(j.loc[ok, _LROW])].drop_duplicates(_LROW)
            misses = misses.assign(**{c: _null_for(dtypes[c]) for c in out_r})
            j = pd.concat([j[ok], misses])
        else:
            j = j[ok]
        return j.drop(columns=_LROW).astype(dtypes)[list(dtypes)]

    intervals, frame = _small_side(intervals, broadcast_limit)
    if frame is not None:
        return _broadcast_join(left, frame, merge)
    return _exchange_join(left, intervals, key, key, merge)


def auto_join(
    left,
    right,
    left_key: str,
    right_key: str,
    how: str = "inner",
    broadcast_limit: int = 500_000,
):
    """Size-adaptive join — the AQE-style physical-plan choice. For
    inner|left, the RIGHT side (callers pass the smaller/dimension side)
    is materialized once; at or under ``broadcast_limit`` rows it is
    shipped once and merged into every left batch (zero shuffle of the
    fact side), past the limit both sides take the bucketed exchange.
    right|outer always take the exchange: unmatched right rows are only
    visible there. Output contract (columns, dtypes, typed nulls for the
    outer sides, a ValueError for null keys) is identical on both paths —
    equivalence is randomized-tested."""
    if how not in _HOWS:
        raise ValueError(f"unsupported join type {how!r}")
    if how in ("right", "outer"):
        return bucketed_join(left, right, left_key, right_key, how)
    right, frame = _small_side(right, broadcast_limit)
    if frame is None:
        return bucketed_join(left, right, left_key, right_key, how)
    if frame[right_key].isna().any():
        raise ValueError(_NULL_KEYS)
    equi = _equi_merge(left_key, right_key, how)

    def merge(batch: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if batch[left_key].isna().any():  # same contract as the exchange
            raise ValueError(_NULL_KEYS)
        return equi(batch, r)

    return _broadcast_join(left, frame, merge)
