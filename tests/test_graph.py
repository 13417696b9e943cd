"""Link-graph + PageRank: kernel equivalence and extraction parity."""

import numpy as np
import pandas as pd
import pytest


def _rand_edges(rng, n_nodes=40, n_edges=160):
    src = rng.randint(0, n_nodes, n_edges)
    dst = rng.randint(0, n_nodes, n_edges)
    m = src != dst
    return pd.DataFrame(
        {
            "src_url": [f"https://h{s}.example/p/{s}" for s in src[m]],
            "dst_url": [f"https://h{d}.example/p/{d}" for d in dst[m]],
            "n_links": rng.randint(1, 4, int(m.sum())).astype("int64"),
        }
    )


def test_pagerank_matches_dense_reference(ray_session):
    import ray.data

    from rayxtract.graph import pagerank, pagerank_reference

    edges = _rand_edges(np.random.RandomState(3))
    # driver_threshold=0 forces the Dataset-round loop — the default
    # driver path IS pagerank_reference, asserted separately below
    got = (
        pagerank(
            ray.data.from_pandas(edges),
            n_iter=8,
            weight_col="n_links",
            driver_threshold=0,
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        pagerank_reference(edges, n_iter=8, weight_col="n_links")
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert list(got["url"]) == list(exp["url"])
    np.testing.assert_allclose(got["rank"], exp["rank"], rtol=0, atol=1e-12)
    # probability mass is conserved (dangling handled)
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_star_graph_center_wins(ray_session):
    import ray.data

    from rayxtract.graph import pagerank

    # N spokes all link to the hub; hub is dangling
    edges = pd.DataFrame(
        {
            "src_url": [f"https://s.example/spoke/{i}" for i in range(20)],
            "dst_url": ["https://s.example/hub"] * 20,
        }
    )
    got = pagerank(ray.data.from_pandas(edges), n_iter=12).to_pandas()
    hub = got.loc[got["url"] == "https://s.example/hub", "rank"].iloc[0]
    spokes = got.loc[got["url"] != "https://s.example/hub", "rank"]
    assert hub > spokes.max() * 5
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-9)


def test_hrefs_tree_walk_matches_regex_on_malformed():
    import re

    from rayxtract.graph import _anchors_of

    for html in (
        '<!DOCTYPE html><html><body><nav><ul>'
        '<li><a href="/home/1">home</a></li>'
        '<li><a href="/about/2">about</a></li></ul></nav>'
        '<div class="content-body">'
        "<p>alpha <a href=\"/l/42\">beta</a> gamma"  # unclosed <p>
        '<p>delta</p></div>'
        '<footer><a href="/press/9">press</a></footer></body></html>',
        # sibling links: document order, not reversed
        '<p><a href="/1">one</a> and <a href="/2">two</a></p>'
        '<div><a href="/3">three</a></div>',
    ):
        got = [href for href, _ in _anchors_of(html)]
        exp = re.findall(r'href="([^"]*)"', html)
        assert got == exp


def test_resolve_edges_paths():
    from rayxtract.graph import _resolve

    assert (
        _resolve("https://site1.example/p/0001", "/l/5")
        == "https://site1.example/l/5"
    )
    assert (
        _resolve("https://site1.example/p/0001", "https://other.example/x")
        == "https://other.example/x"
    )
    assert _resolve("https://site1.example", "/l/5") == "https://site1.example/l/5"


def test_link_edges_parity_with_regex_oracle(ray_session, small_corpus):
    """Engine tree-walk extraction == DuckDB regex over decoded payloads
    on the full 1000-page synth corpus (gzip/garbage/PDFL rows excluded
    by the shared byte-prefix predicate)."""
    import duckdb
    import ray.data

    from rayxtract.graph import extract_link_edges

    pages_dir, _ = small_corpus
    ds = ray.data.read_parquet(pages_dir, columns=["url", "html"])
    got = (
        extract_link_edges(ds)
        .to_pandas()
        .sort_values(["src_url", "href"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""
        WITH raw AS (
          SELECT url,
                 CASE WHEN substr(hex(html), 1, 18) = '3C21444F4354595045'
                      THEN decode(html) END AS doc
          FROM read_parquet('{pages_dir}/*.parquet')
        ), links AS (
          SELECT url AS src_url,
                 unnest(regexp_extract_all(doc, 'href="([^"]*)"', 1)) AS href
          FROM raw WHERE doc IS NOT NULL
        )
        SELECT src_url, href, CAST(COUNT(*) AS BIGINT) AS n_links
        FROM links GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()
    pd.testing.assert_frame_equal(got, exp)


def test_triangle_count_random_int_graph(ray_session):
    """triangle_count == trace(A^3)/6 on a seeded Erdos-Renyi graph,
    fed with duplicate AND reversed edge rows (the dedup contract)."""
    import ray.data

    from rayxtract.graph import triangle_count

    rng = np.random.RandomState(7)
    n = 60
    A = (rng.rand(n, n) < 0.08).astype(np.int64)
    A = np.triu(A, 1)
    A = A + A.T
    ii, jj = np.nonzero(np.triu(A, 1))
    expected = int(np.trace(A @ A @ A) // 6)
    assert expected > 0  # the probe is vacuous otherwise
    # duplicates + reversed orientation + a self-loop must not change it
    a = np.concatenate([ii, jj, ii, [5]])
    b = np.concatenate([jj, ii, jj, [5]])
    ds = ray.data.from_pandas(
        pd.DataFrame({"a": a.astype("int64"), "b": b.astype("int64")})
    )
    assert triangle_count(ds, "a", "b") == expected


def test_triangle_count_string_nodes(ray_session):
    """String node ids exercise the raw-value tie-break path (lexicographic
    'n10' < 'n9' ordering must be CONSISTENT between orientation and wedge
    enumeration, not numerically reinterpreted)."""
    import ray.data

    from rayxtract.graph import triangle_count

    rng = np.random.RandomState(11)
    n = 40
    A = (rng.rand(n, n) < 0.12).astype(np.int64)
    A = np.triu(A, 1)
    A = A + A.T
    ii, jj = np.nonzero(np.triu(A, 1))
    expected = int(np.trace(A @ A @ A) // 6)
    assert expected > 0
    names = np.array([f"n{i}" for i in range(n)], dtype=object)  # no zero-pad
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {
                "a": pd.Series(names[ii], dtype="object"),
                "b": pd.Series(names[jj], dtype="object"),
            }
        )
    )
    assert triangle_count(ds, "a", "b") == expected


def test_hits_matches_dense_reference(ray_session):
    import ray.data

    from rayxtract.graph import hits, hits_reference

    edges = _rand_edges(np.random.RandomState(7))[["src_url", "dst_url"]]
    got = (
        hits(ray.data.from_pandas(edges), n_iter=6, driver_threshold=0)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        hits_reference(edges, n_iter=6)
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert list(got["url"]) == list(exp["url"])
    np.testing.assert_allclose(got["auth"], exp["auth"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got["hub"], exp["hub"], rtol=0, atol=1e-12)
    # L1 normalization: each score vector sums to 1
    assert got["auth"].sum() == pytest.approx(1.0, abs=1e-9)
    assert got["hub"].sum() == pytest.approx(1.0, abs=1e-9)


def test_hits_bipartite_roles(ray_session):
    import ray.data

    from rayxtract.graph import hits

    # classic hub/authority split: 3 hubs each link to the same 2
    # authorities; authorities link nowhere
    hubs = [f"https://s.example/hub/{i}" for i in range(3)]
    auths = [f"https://s.example/auth/{j}" for j in range(2)]
    edges = pd.DataFrame(
        {
            "src_url": [h for h in hubs for _ in auths],
            "dst_url": [a for _ in hubs for a in auths],
        }
    )
    # default driver path (dense kernel)
    got = hits(ray.data.from_pandas(edges), n_iter=5).to_pandas()
    s = got.set_index("url")
    for h in hubs:
        assert s.loc[h, "hub"] > 0.3 and s.loc[h, "auth"] == 0.0
    for a in auths:
        assert s.loc[a, "auth"] > 0.45 and s.loc[a, "hub"] == 0.0


def test_hits_multigraph_duplicate_edges_weighted(ray_session):
    import ray.data

    from rayxtract.graph import hits, hits_reference

    # duplicate (src, dst) rows must act as parallel edges in BOTH kernels
    edges = pd.DataFrame(
        {
            "src_url": ["u"] * 3 + ["v"],
            "dst_url": ["x"] * 3 + ["x"],
        }
    )
    got = (
        hits(ray.data.from_pandas(edges), n_iter=4, driver_threshold=0)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = hits_reference(edges, n_iter=4).sort_values("url").reset_index(drop=True)
    np.testing.assert_allclose(got["auth"], exp["auth"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got["hub"], exp["hub"], rtol=0, atol=1e-12)
    # u carries 3 of the 4 parallel edges -> the bigger hub
    s = got.set_index("url")
    assert s.loc["u", "hub"] > s.loc["v", "hub"]


def test_personalized_pagerank_matches_dense_and_concentrates(ray_session):
    """Seeded (personalized) PageRank: distributed kernel == dense
    reference to 1e-12 with the SAME seed set; mass conserved; rank
    concentrates on the seed neighborhood vs uniform PageRank."""
    import ray.data

    from rayxtract.graph import pagerank, pagerank_reference

    edges = _rand_edges(np.random.RandomState(11))
    seeds = [u for u in edges["src_url"].unique()[:3]]

    got = (
        pagerank(
            ray.data.from_pandas(edges),
            n_iter=6,
            weight_col="n_links",
            driver_threshold=0,
            seeds=seeds,
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        pagerank_reference(edges, n_iter=6, weight_col="n_links", seeds=seeds)
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert list(got["url"]) == list(exp["url"])
    np.testing.assert_allclose(got["rank"], exp["rank"], rtol=0, atol=1e-12)
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-9)

    # concentration: the seeds' total rank must exceed their uniform-PR
    # share (teleport lands only on them)
    uni = pagerank_reference(edges, n_iter=6, weight_col="n_links")
    seed_mass = got.set_index("url").loc[seeds, "rank"].sum()
    seed_mass_uni = uni.set_index("url").loc[seeds, "rank"].sum()
    assert seed_mass > 2 * seed_mass_uni

    # absent seeds raise on both kernels
    with pytest.raises(ValueError):
        pagerank_reference(edges, n_iter=2, seeds=["https://nowhere.example/"])
    with pytest.raises(ValueError):
        pagerank(
            ray.data.from_pandas(edges), n_iter=2, driver_threshold=0,
            seeds=["https://nowhere.example/"],
        )


def test_anchor_text_document_order_nested():
    """Anchor text concatenates text descendants in DOCUMENT order —
    mixed/multiple text children must not come out scrambled, and
    sibling anchors come out in document order."""
    from rayxtract.graph import _anchors_of

    html = (
        '<html><body>'
        '<a href="/x">foo<b>bar</b>baz</a>'
        '<p><a href="/y">A<i>B<b>C</b>D</i>E</a></p>'
        '</body></html>'
    )
    got = _anchors_of(html)
    assert ("/x", "foobarbaz") in got
    assert ("/y", "ABCDE") in got
    html = (
        '<p><a href="/1">one</a> and <a href="/2">two</a></p>'
        '<div><a href="/3">three</a></div>'
    )
    assert _anchors_of(html) == [("/1", "one"), ("/2", "two"), ("/3", "three")]


def test_anchors_match_tree_oracle_on_soup():
    """Seeded tag soup: the one-pass link scan equals the tree-walk
    oracle (tests/dom_oracle.py) exactly — hrefs, anchor text, order."""
    import random

    from dom_oracle import anchors_of_tree, build_tree_fast
    from rayxtract.graph import _anchors_of

    frags = [
        "<p>", "</p>", "<div>", "</div>", "<a href='u'>link</a>", "<a href=v>",
        "</a>", "<a>", "<a href=x/>", "<b>", "</b>", "text &amp; more ", "<",
        "<!-- c -->", "<script>x<a href=s>y</script>", "<li>", "<section>",
        "<br>", '<a href="q" class=ad>', "</ a>", "<A HREF=up>",
    ]
    rng = random.Random(7)
    for _ in range(3000):
        s = "".join(rng.choice(frags) for _ in range(rng.randint(1, 40)))
        assert _anchors_of(s) == anchors_of_tree(build_tree_fast(s)), s
