"""Join edge contracts shared by every path: empty sides, schema-less
sides, null as-of keys, and how many Ray Data executions a broadcast
join costs."""

import numpy as np
import pandas as pd
import pytest

from rayxtract.joins import asof_join, auto_join, bucketed_join, interval_join

_LEFT = pd.DataFrame(
    {
        "k": np.arange(10, dtype="int64"),
        "ts": np.arange(10, dtype="int64") * 10,
        "a": np.arange(100, 110, dtype="int64"),
    }
)
_EQUI_RIGHT = pd.DataFrame(
    {"rk": np.arange(5, 15, dtype="int64"), "b": np.arange(10, dtype="int64")}
)
_INTERVALS = pd.DataFrame(
    {
        "k": np.arange(10, dtype="int64"),
        "start": np.arange(10, dtype="int64") * 10 - 5,
        "end": np.arange(10, dtype="int64") * 10 + 5,
        "win": np.arange(10, dtype="int64"),
    }
)
_ASOF_RIGHT = pd.DataFrame(
    {
        "k": np.arange(10, dtype="int64"),
        "ts": np.arange(10, dtype="int64") * 10 - 1,
        "rv": np.arange(10, dtype="int64"),
    }
)

_CASES = (
    [
        (path, how)
        for path in ("bucketed", "auto_broadcast", "auto_exchange")
        for how in ("inner", "left", "right", "outer")
    ]
    + [
        (path, how)
        for path in ("interval_broadcast", "interval_exchange")
        for how in ("inner", "left")
    ]
    + [("asof", "left")]  # as-of keeps every left row
)
_BROADCAST = ("auto_broadcast", "interval_broadcast")


def _right_frame(path):
    if path.startswith("interval"):
        return _INTERVALS
    return _ASOF_RIGHT if path == "asof" else _EQUI_RIGHT


def _right_value_cols(path):
    if path == "asof":
        return ["rv_r"]  # the suffixed as-of value column
    return [c for c in _right_frame(path).columns if c not in ("k", "rk")]


def _join(path, how, left, right):
    limit = 500_000 if path in _BROADCAST else 0
    if path == "bucketed":
        return bucketed_join(left, right, "k", "rk", how=how)
    if path.startswith("auto"):
        return auto_join(left, right, "k", "rk", how=how, broadcast_limit=limit)
    if path.startswith("interval"):
        return interval_join(
            left, right, key="k", ts_col="ts", start_col="start", end_col="end",
            how=how, broadcast_limit=limit,
        )
    return asof_join(left, right, "k", "ts", ["rv"])


def _typed_empty(df):
    import ray.data

    return ray.data.from_pandas(df).map_batches(
        lambda b: b.iloc[0:0], batch_format="pandas"
    )


def _schemaless_empty(df):
    import ray.data

    return ray.data.from_pandas(df).filter(lambda row: False)


def _sides(path, empty_side, make_empty):
    import ray.data

    left, right = _LEFT, _right_frame(path)
    return (
        make_empty(left) if empty_side == "left" else ray.data.from_pandas(left),
        make_empty(right) if empty_side == "right" else ray.data.from_pandas(right),
    )


@pytest.mark.parametrize("empty_side", ["left", "right"])
@pytest.mark.parametrize("path,how", _CASES)
def test_typed_empty_side_gives_the_right_answer(ray_session, path, how, empty_side):
    """A zero-row side that still has typed columns joins like any other
    side: inner gives zero rows, and a preserved side keeps every row
    with typed-null columns for the empty one."""
    left, right = _sides(path, empty_side, _typed_empty)
    out = _join(path, how, left, right).to_pandas()
    kept = "left" if empty_side == "right" else "right"
    if how in (kept, "outer"):
        assert len(out) == 10, (path, how, empty_side)
        null_cols = (
            _right_value_cols(path) if empty_side == "right" else ["a"]
        )
        for c in null_cols:
            assert out[c].isna().all(), c
            assert str(out[c].dtype) == "Int64", (c, out[c].dtype)
        key = "k" if empty_side == "right" else "rk"
        assert sorted(out["k"].astype("int64")) == sorted(
            (_LEFT if empty_side == "right" else _EQUI_RIGHT)[key]
        )
    else:
        assert len(out) == 0, (path, how, empty_side)


@pytest.mark.parametrize("empty_side", ["left", "right"])
@pytest.mark.parametrize("path,how", _CASES)
def test_side_without_schema_is_named(ray_session, path, how, empty_side):
    """A side emptied by a filter has no schema. Every path that needs it
    fails with a ValueError naming that side. The broadcast merge never
    reads its left side's schema, and with no left rows an inner or left
    join is correctly empty."""
    left, right = _sides(path, empty_side, _schemaless_empty)
    if empty_side == "left" and path in _BROADCAST and how in ("inner", "left"):
        assert _join(path, how, left, right).count() == 0
        return
    with pytest.raises(
        ValueError, match=f"the {empty_side} join side is empty and has no schema"
    ):
        _join(path, how, left, right).materialize()


def test_asof_join_rejects_null_keys(ray_session):
    """A nullable-Int64 as-of key holding NA fails naming the null keys,
    like every equi-join path, whichever side holds it."""
    import ray.data

    keys = pd.array([2**60 + 7, None], dtype="Int64")
    clean = pd.Series([2**60 + 7, 5], dtype="int64")
    for null_side in ("left", "right"):
        left = pd.DataFrame(
            {"k": keys if null_side == "left" else clean, "ts": [1, 2], "a": [1, 2]}
        )
        right = pd.DataFrame(
            {"k": keys if null_side == "right" else clean, "ts": [0, 1], "rv": [3, 4]}
        )
        with pytest.raises(Exception, match="null join keys"):
            asof_join(
                ray.data.from_pandas(left), ray.data.from_pandas(right),
                "k", "ts", ["rv"],
            ).materialize()


@pytest.mark.parametrize("path", ["auto_broadcast", "interval_broadcast"])
def test_broadcast_side_keeps_large_ints_with_nulls_exact(ray_session, path):
    """A broadcast side held in arrow blocks whose int column has nulls
    reaches every left batch as exact nullable Int64; a float64 detour
    (what ``to_pandas`` gives such a column) would round 2**60 + 1."""
    import pyarrow as pa
    import ray.data

    big = [2**60 + 1, None] * 5
    right = pa.Table.from_pandas(_right_frame(path)).append_column(
        "big", pa.array(big, type=pa.int64())
    )
    out = _join(path, "inner", ray.data.from_pandas(_LEFT), ray.data.from_arrow(right))
    got = out.to_pandas().sort_values("k")
    assert str(got["big"].dtype) == "Int64"
    exp = big[:10] if path == "interval_broadcast" else big[:5]  # rk 5..9 match
    assert [None if pd.isna(v) else int(v) for v in got["big"]] == exp


def _auto_inner(l, r):
    return auto_join(l, r, "k", "rk", how="inner")


def _auto_left(l, r):
    return auto_join(l, r, "k", "rk", how="left")


def _interval_inner(l, r):
    return interval_join(
        l, r, key="k", ts_col="ts", start_col="start", end_col="end", how="inner"
    )


@pytest.mark.parametrize(
    "join,right,rows",
    [
        (_auto_inner, _EQUI_RIGHT, 5),
        (_auto_left, _EQUI_RIGHT, 10),
        (_interval_inner, _INTERVALS, 10),
    ],
    ids=["auto_inner", "auto_left", "interval_inner"],
)
def test_broadcast_join_runs_one_execution_per_side(
    ray_session, monkeypatch, join, right, rows
):
    """Building a broadcast join runs exactly one Ray Data execution (the
    right side's materialize) and consuming it exactly one more: the lazy
    left side is never probed for its schema."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)

    def lazy(df):  # a map keeps the schema unknown until the plan runs
        return ray.data.from_pandas(df).map_batches(lambda b: b, batch_format="pandas")

    plan = join(lazy(_LEFT), lazy(right))
    assert len(calls) == 1
    assert len(plan.to_pandas()) == rows
    assert len(calls) == 2
