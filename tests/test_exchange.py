"""Per-key groupings run on ``agg.exchange``: a guard over the library's
source, and multi-bucket equivalence of the exchange-backed operators
against pandas references (3 buckets, input spread over 4+ blocks, so
keys really do share buckets and cross blocks)."""

import ast
import hashlib
import pathlib

import pandas as pd
import pytest

import rayxtract
from rayxtract import scale

PKG = pathlib.Path(rayxtract.__file__).parent

# Dataset groupbys left on Ray's own per-key path: queries.py's own
# (mostly bounded keys: event_type, lang, day), ann.knn_graph_ivf's
# groupby("cell") over a fixed 8 cells and agg.range_prefix_sum's
# __range groups. agg.exchange is the exchange itself.
_MAP_GROUPS_OK_FILES = {"queries.py"}
_MAP_GROUPS_OK_FUNCS = {
    ("agg.py", "exchange"),
    ("agg.py", "range_prefix_sum"),
    ("ann.py", "knn_graph_ivf"),
}


def _violations(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "ray.data.aggregate" or (
                node.module == "ray.data" and "aggregate" in names
            ):
                bad.append(f"{path.name}:{node.lineno} imports ray.data.aggregate")
        elif isinstance(node, ast.Import):
            if any(a.name == "ray.data.aggregate" for a in node.names):
                bad.append(f"{path.name}:{node.lineno} imports ray.data.aggregate")
    if path.name in _MAP_GROUPS_OK_FILES:
        return bad
    for top in tree.body:
        name = getattr(top, "name", None)
        if (path.name, name) in _MAP_GROUPS_OK_FUNCS:
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                bad.append(
                    f"{path.name}:{node.lineno} calls .map_groups( in {name} "
                    "(use agg.exchange)"
                )
    return bad


def test_no_per_key_ray_groupby_in_library():
    bad = [v for p in sorted(PKG.glob("*.py")) for v in _violations(p)]
    assert not bad, "\n".join(bad)


def test_guard_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from ray.data.aggregate import Min\n"
        "def f(ds):\n"
        "    return ds.groupby('k').map_groups(len)\n"
    )
    assert len(_violations(src)) == 2


@pytest.fixture
def three_buckets(monkeypatch):
    monkeypatch.setattr(scale, "resolve", lambda: 3)


def _blocks(df: pd.DataFrame, n: int = 4):
    """``df`` as a Dataset of ``n`` blocks, rows dealt round-robin so
    equal keys land in different blocks."""
    import ray.data

    parts = [df.iloc[i::n].reset_index(drop=True) for i in range(n)]
    ds = ray.data.from_pandas(parts)
    assert ds.num_blocks() >= 4
    return ds


def test_exact_dedup_across_blocks(ray_session, three_buckets):
    from rayxtract.neardup import exact_dedup

    texts = [f"text {i % 7}" for i in range(40)] + ["solo", "", "text 3"]
    df = pd.DataFrame({"doc_id": range(100, 100 + len(texts)), "text": texts})
    df = df.sample(frac=1.0, random_state=5).reset_index(drop=True)
    got = (
        exact_dedup(_blocks(df))
        .to_pandas()
        .sort_values("fp")
        .reset_index(drop=True)
    )
    ref = (
        df.assign(fp=[hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]])
        .groupby("fp", as_index=False)["doc_id"]
        .min()
        .sort_values("fp")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["fp", "doc_id"]
    pd.testing.assert_frame_equal(got, ref.astype({"doc_id": "int64"}))


def test_dedup_keep_latest_across_blocks(ray_session, three_buckets):
    from rayxtract.dedup import dedup_keep_latest

    rows = []
    for u in range(12):
        for ts in range(1 + u % 4):  # 1-4 crawls per url
            rows.append({"url": f"u{u}", "warc_ts": 10 * ts, "text_crc": u + ts, "v": f"{u}-{ts}"})
    # an exact-timestamp tie at u5's latest crawl: the smaller crc wins
    rows.append({"url": "u5", "warc_ts": 10, "text_crc": -1, "v": "tie-winner"})
    df = pd.DataFrame(rows).sample(frac=1.0, random_state=3).reset_index(drop=True)
    got = (
        dedup_keep_latest(_blocks(df))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    ref = (
        df.sort_values(
            ["url", "warc_ts", "text_crc", "v"],
            ascending=[True, False, True, True],
        )
        .drop_duplicates("url")
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == 12
    assert got.loc[got["url"] == "u5", "v"].item() == "tie-winner"
    pd.testing.assert_frame_equal(got[ref.columns], ref)


def test_label_propagation_dataset_path_across_blocks(ray_session, three_buckets):
    from rayxtract.neardup import label_propagation_clusters, union_find_clusters

    edges = (
        [(i, i + 1) for i in range(300, 312)]  # chain: many rounds
        + [(40, n) for n in (41, 42, 43, 44, 45)]  # star
        + [(9, 8), (8, 7), (77, 70)]  # pairs stated high-to-low
        + [(311, 300)]  # cycle closure
    )
    pairs = pd.DataFrame(edges, columns=["doc_a", "doc_b"]).astype("int64")
    got = label_propagation_clusters(_blocks(pairs))
    assert not isinstance(got, pd.DataFrame)  # a Dataset in, a Dataset out
    got = got.to_pandas().sort_values("doc_id").reset_index(drop=True)
    uf = union_find_clusters(edges)
    ref = (
        pd.DataFrame({"doc_id": list(uf), "cluster": [uf[k] for k in uf]})
        .astype("int64")
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref)


@pytest.mark.parametrize("chunk_pairs", [1, 3, 7, 1 << 20])
def test_pair_chunks_expand_to_exact_pairs(monkeypatch, chunk_pairs):
    import numpy as np

    from rayxtract import neardup

    monkeypatch.setattr(neardup, "_CHUNK_PAIRS", chunk_pairs)
    rng = np.random.default_rng(11)
    # three segments (as gram_pairs / within_chunks build them): each hi
    # stays inside its own segment, some anchors pair with nothing
    ids = rng.permutation(1000)[:23].astype(np.int64)
    ends = np.repeat([6, 15, 23], [6, 9, 8])
    hi = np.minimum(ends, np.arange(23) + 1 + rng.integers(0, 7, 23))
    want = {
        (min(ids[i], ids[j]), max(ids[i], ids[j]))
        for i in range(23)
        for j in range(i + 1, hi[i])
    }
    chunks = neardup._pair_chunks(ids, hi)
    got = neardup._expand_pair_chunks(chunks)
    assert list(got.dtypes) == [np.int64, np.int64]
    pairs = list(zip(got["doc_a"], got["doc_b"]))
    assert len(pairs) == len(want) and set(pairs) == want
    if chunk_pairs < len(want):
        assert len(chunks) > 1
        # one chunk holds about chunk_pairs pairs: at most one anchor over
        sizes = [len(neardup._expand_pair_chunks(chunks.iloc[[i]])) for i in range(len(chunks))]
        assert max(sizes) <= chunk_pairs + 22
    none = neardup._pair_chunks(ids[:3], np.arange(1, 4))
    assert none.empty and list(none.columns) == ["ids", "hi"]
    assert neardup._expand_pair_chunks(none).empty
