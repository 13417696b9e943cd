"""Link-graph operators: href extraction and distributed PageRank.

The reference extracts *text* from documents and never looks at links
(reference: utils.py:58-118 drops tags wholesale); a web-scale curation
pipeline additionally needs the LINK GRAPH — which pages point where — for
crawl frontier ranking, spam demotion and quality priors (PageRank-style
scores are a standard quality signal for training-data selection).

Two operators, both Ray-Data-native:

  * :func:`extract_link_edges` — per-batch one-pass scan (the engine's own
    tolerant tokenizer and stack rules, dom._events) collecting ``<a href>``
    targets in document order, aggregated to (src_url, href, n_links)
    weighted edges. Embarrassingly parallel; the only exchange is the
    bounded (src, href) count combine.
  * :func:`pagerank` — damped power iteration expressed as Dataset rounds:
    per-iteration bucketed hash join of ranks onto edges (src side),
    contribution sum per dst, dangling mass folded back uniformly. Nothing
    node- or edge-sized ever lands on the driver; per-round driver traffic
    is ONE scalar (the dangling-mass aggregate). Same shape as
    neardup.label_propagation_clusters — rounds of join + tiny aggregate.

Partitioning assumption (documented per the custom-operator contract):
edges are hash-bucketed on src / dst per round; a hot dst (a page every
page links to — guaranteed on real crawls) concentrates its contribution
SUM, which is an aggregate (combiner-friendly), not a pair explosion, so
skew degrades one task's input linearly, never quadratically.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from . import scale as _scale
from .dom import _OPEN, _TEXT, _events

__all__ = [
    "extract_link_edges",
    "pagerank",
    "pagerank_reference",
    "triangle_count",
    "url_node_id",
]

# href attribute in raw attr text — same lazy-parse pattern as
# dom._CLASS_ID_RE (quoted double/single/unquoted forms)
_HREF_RE = re.compile(
    r"(?<![\w-])href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)

_DOCTYPE_PREFIX = b"<!DOCTYPE"


def _anchors_of(html: str) -> list[tuple[str, str]]:
    """(href, anchor text) of every ``<a href>`` in document order, on the
    same tokenizer and stack rules as content extraction
    (:func:`rayxtract.dom._events`). Anchor text is every text run inside
    the ``<a>`` in document order — ``<a href>foo<b>bar</b>baz</a>``
    yields ``foobarbaz``; pruned tags count here (script text included,
    verbatim), and an ``<a>`` nested in another feeds both."""
    out: list[list] = []  # [href, text pieces], in start-tag order
    frames: list = [None]  # one placeholder per open element
    open_anchors: list = []  # (stack index, out entry) of the open <a href>s
    for kind, name, attrs, text in _events(html, frames):
        while open_anchors and len(frames) <= open_anchors[-1][0]:
            open_anchors.pop()
        if text:
            for _, entry in open_anchors:
                entry[1].append(text)
        if kind == _TEXT:
            continue
        entry = None
        if name == "a" and attrs:
            m = _HREF_RE.search(attrs)
            if m:
                entry = [m.group(1) or m.group(2) or m.group(3) or "", []]
                out.append(entry)
        if kind == _OPEN:
            if entry is not None:
                open_anchors.append((len(frames), entry))
            frames.append(None)
    return [(href, "".join(pieces)) for href, pieces in out]


class AnchorExtractBatch:
    """Actor-pool stage: (url, html) -> (href, anchor) rows — the
    anchor-text signal (what the linking web CALLS each target — a
    standard retrieval/quality feature attached to link targets). Same
    direct-HTML byte-prefix contract and tolerant scan as
    :class:`LinkExtractBatch`."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        hrefs: list[str] = []
        anchors: list[str] = []
        for payload in batch["html"]:
            raw = bytes(payload)
            if not raw.startswith(_DOCTYPE_PREFIX):
                continue
            try:
                html = raw.decode("utf-8")
            except UnicodeDecodeError:
                continue
            for href, text in _anchors_of(html):
                hrefs.append(href)
                anchors.append(text)
        return pd.DataFrame(
            {
                "href": pd.Series(hrefs, dtype="object"),
                "anchor": pd.Series(anchors, dtype="object"),
            }
        )


class LinkExtractBatch:
    """Actor-pool stage: (url, html) -> (src_url, href) link rows.

    Only DIRECT html payloads (raw bytes starting with ``<!DOCTYPE``) are
    parsed — the byte-prefix filter is deliberately the exact predicate a
    SQL oracle can replicate on the blob column (transport-gzip pages would
    need a gunzip the oracle side lacks; they are a bounded synth slice).
    The scan is the engine's own tolerant tokenizer and stack rules, so
    link extraction sees the SAME elements as content extraction."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        hrefs: list[str] = []
        for url, payload in zip(batch["url"], batch["html"]):
            raw = bytes(payload)
            if not raw.startswith(_DOCTYPE_PREFIX):
                continue
            try:
                html = raw.decode("utf-8")
            except UnicodeDecodeError:
                continue
            found = [href for href, _ in _anchors_of(html)]
            srcs.extend([url] * len(found))
            hrefs.extend(found)
        return pd.DataFrame(
            {
                "src_url": pd.Series(srcs, dtype="object"),
                "href": pd.Series(hrefs, dtype="object"),
            }
        )


def extract_link_edges(pages_ds):
    """Weighted link edges (src_url, href, n_links) from a pages Dataset.

    Input needs (url, html); pass a column-pruned read. The count combine
    is bucketed on hash(src_url) so no single block ever holds the whole
    edge set (large-cardinality groupby discipline, same as
    agg.bucketed_aggregate but keyed on a string pair)."""

    from .agg import exchange

    # (1, 32) x 256: the pool autoscales to the node (8-cap starved a
    # 32-CPU box), and 256 pages/task amortizes task overhead — measured
    # 17.8 -> 11.2 s on the 300k-page tier for the identical walk. HTML
    # stays small per batch (256 x ~100 KB worst case ~ 25 MB heap).
    links = pages_ds.map_batches(
        LinkExtractBatch,
        batch_format="pandas",
        concurrency=(1, 32),
        batch_size=256,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["src_url", "href"], as_index=False).size()
        g = g.rename(columns={"size": "n_links"})
        g["n_links"] = g["n_links"].astype("int64")
        return g

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["src_url", "href"], as_index=False)["n_links"].sum()
        out["n_links"] = out["n_links"].astype("int64")
        return out

    return exchange(links.map_batches(partial, batch_format="pandas"), "src_url", merge)


def url_node_id(urls) -> np.ndarray:
    """Stable 64-bit node id per url (blake2b-8; collision odds ~n^2/2^64 —
    negligible below ~10^8 nodes, and a collision only merges two nodes'
    rank mass, it cannot crash the iteration). Keeping ids integer lets
    every round reuse the engine's int-keyed bucketed_join."""
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(u.encode(), digest_size=8).digest(), "big"
            )
            - (1 << 63)
            for u in urls
        ),
        dtype=np.int64,
        count=len(urls),
    )


def _node_table(edges, src_col: str, dst_col: str):
    """(node, url) once per node id over both edge endpoints: per-batch
    distinct rows, then one node-keyed ``agg.exchange`` that drops the
    repeats across batches."""
    from .agg import exchange

    def node_rows(batch: pd.DataFrame) -> pd.DataFrame:
        urls = pd.concat(
            [batch[src_col].astype(str), batch[dst_col].astype(str)],
            ignore_index=True,
        )
        ids = url_node_id(urls.tolist())
        return pd.DataFrame({"node": ids, "url": urls}).drop_duplicates("node")

    return exchange(
        edges.map_batches(node_rows, batch_format="pandas"),
        "node",
        lambda b: b.drop_duplicates("node"),
    )


def _resolve(src: str, href: str) -> str:
    """Minimal URL resolution: absolute hrefs pass through; path-absolute
    hrefs resolve against the src scheme+host. (Synth links are always
    path-absolute; query/fragment handling deliberately out of scope.)"""
    if "://" in href:
        return href
    scheme_end = src.find("://")
    host_end = src.find("/", scheme_end + 3)
    base = src if host_end == -1 else src[:host_end]
    return base + (href if href.startswith("/") else "/" + href)


def pagerank(
    edges,
    damping: float = 0.85,
    n_iter: int = 10,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    weight_col: str | None = None,
    driver_threshold: int = 2_000_000,
    seeds=None,
):
    """Distributed PageRank over (src, dst[, weight]) string-url edges.

    ``seeds`` (optional url collection) switches to PERSONALIZED
    PageRank: teleport + dangling mass land uniformly on the seed nodes
    (a seed SET is small by definition — it broadcasts as hashed node
    ids inside the per-round update; nothing else changes shape). Same
    fixed-n_iter uniform-rank init as the dense reference, so the two
    kernels stay bit-comparable.

    Returns a Dataset (url, rank) over every node that appears as a src or
    dst. Fixed ``n_iter`` damped power iterations with uniform
    dangling-mass redistribution — the textbook formulation (Page et al.
    1999), validated against :func:`pagerank_reference` (dense numpy) in
    tests.

    Two execution paths, same contract as ``neardup.cluster_pairs``: at or
    below ``driver_threshold`` edges the graph trivially fits one machine,
    so the dense numpy kernel runs driver-side (a 10-round Dataset loop
    pays ~30 shuffle barriers of scheduling overhead to compute what numpy
    finishes in milliseconds — measured 207 s vs ~2 s at a 70k-edge synth
    graph). Above it, the Dataset-round loop below runs and nothing node-
    or edge-sized lands on the driver. The two paths agree to 1e-12
    (tests/test_graph.py exercises the distributed path explicitly with
    ``driver_threshold=0``).

    Shape: edge weights are normalized ONCE up front (w_norm = w/out_w(src),
    one join) so the loop state is just (node, rank). Per iteration: ranks
    bucket-join onto edges by src, each edge carries rank(src) * w_norm,
    contributions combine per dst (bucketed sum, MATERIALIZED — a lazy sums
    table would re-execute under the next join's schema probe), and the
    dangling mass falls out for free as 1 - sum(contributions) (per-round
    rank mass is exactly 1, and non-dangling nodes forward all of theirs).
    The per-round repartition caps block growth (union doubles it
    otherwise); driver traffic per round is ONE scalar.
    """
    import ray.data

    from .agg import bucketed_aggregate
    from .joins import bucketed_join

    if not isinstance(edges, pd.DataFrame):
        edges = edges.materialize()
        if edges.count() <= driver_threshold:
            edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        return ray.data.from_pandas(
            pagerank_reference(
                edges, damping=damping, n_iter=n_iter,
                src_col=src_col, dst_col=dst_col, weight_col=weight_col,
                seeds=seeds,
            )
        )

    w_expr = weight_col

    def to_ids(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "src": url_node_id(batch[src_col].tolist()),
                "dst": url_node_id(batch[dst_col].tolist()),
                "w": (
                    batch[w_expr].astype("float64").values
                    if w_expr
                    else np.ones(len(batch))
                ),
            }
        )
        return out

    raw_edges = edges.map_batches(to_ids, batch_format="pandas").materialize()
    out_w = bucketed_aggregate(raw_edges, keys=["src"], aggs={"out_w": ("w", "sum")})
    id_edges = (
        bucketed_join(raw_edges, out_w, "src", "src")
        .map_batches(
            lambda b: pd.DataFrame(
                {
                    "src": b["src"].astype("int64").values,
                    "dst": b["dst"].astype("int64").values,
                    "w_norm": (
                        b["w"].astype(float) / b["out_w"].astype(float)
                    ).values,
                }
            ),
            batch_format="pandas",
        )
        .materialize()
    )

    nodes = _node_table(edges, src_col, dst_col).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import ray.data

        return ray.data.from_pandas(
            pd.DataFrame(
                {"url": pd.Series(dtype="object"),
                 "rank": pd.Series(dtype="float64")}
            )
        )

    node_ids = nodes.select_columns(["node"]).materialize()
    state = node_ids.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].astype("int64").values,
                "rank": np.full(len(b), 1.0 / n_nodes),
            }
        ),
        batch_format="pandas",
    ).materialize()

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "dst": batch["dst"].astype("int64").values,
                "c": (
                    batch["rank"].astype(float) * batch["w_norm"].astype(float)
                ).values,
            }
        )

    if seeds is None:
        seed_arr = None
        n_seed_present = 0
    else:
        # the teleport target set: hashed node ids of the seed urls that
        # actually appear in the graph (a seed SET is small by
        # definition — the array rides into every update task closure)
        seed_arr = np.unique(
            np.asarray(
                url_node_id([str(s) for s in set(seeds)]), dtype=np.int64
            )
        )
        n_seed_present = (
            node_ids.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "n": [
                            int(
                                np.isin(
                                    b["node"].to_numpy(np.int64), seed_arr
                                ).sum()
                            )
                        ]
                    }
                ),
                batch_format="pandas",
            ).sum("n")
            or 0
        )
        if n_seed_present == 0:
            raise ValueError(
                "personalized pagerank: no seed url is in the graph"
            )

    base = (1.0 - damping) / n_nodes
    n = _scale.resolve()
    for _ in range(n_iter):
        joined = bucketed_join(id_edges, state, "src", "node")
        sums = bucketed_aggregate(
            joined.map_batches(contrib, batch_format="pandas"),
            keys=["dst"],
            aggs={"c": ("c", "sum")},
        ).materialize()
        # rank mass is exactly 1 per round; non-dangling nodes forward all
        # of theirs, so the dangling mass is the remainder — no extra pass
        dangling = max(0.0, 1.0 - (sums.sum("c") or 0.0))
        if seed_arr is None:
            uniform = base + damping * dangling / n_nodes

            def update(batch: pd.DataFrame, u=uniform) -> pd.DataFrame:
                c = batch["c"].astype("float64").fillna(0.0).values
                return pd.DataFrame(
                    {
                        "node": batch["node"].astype("int64").values,
                        "rank": u + damping * c,
                    }
                )
        else:
            seed_u = (1.0 - damping + damping * dangling) / n_seed_present

            def update(batch: pd.DataFrame, su=seed_u) -> pd.DataFrame:
                c = batch["c"].astype("float64").fillna(0.0).values
                node_np = batch["node"].to_numpy(np.int64)
                tele = np.where(np.isin(node_np, seed_arr), su, 0.0)
                return pd.DataFrame(
                    {"node": node_np, "rank": tele + damping * c}
                )

        # repartition caps the state's block count: the join's union emits
        # blocks(left)+blocks(right), so WITHOUT this the per-round block
        # count doubles (measured 3 -> 511 over 8 rounds, and sort cost
        # with it) — the iterative-Dataset analogue of lineage growth
        state = (
            bucketed_join(node_ids, sums, "node", "dst", how="left")
            .map_batches(update, batch_format="pandas")
            .repartition(n)
            .materialize()
        )

    ranked = bucketed_join(
        nodes, state.select_columns(["node", "rank"]), "node", "node"
    )
    return ranked.select_columns(["url", "rank"])


def pagerank_reference(
    edges: pd.DataFrame,
    damping: float = 0.85,
    n_iter: int = 10,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    weight_col: str | None = None,
    seeds=None,
) -> pd.DataFrame:
    """Dense numpy PageRank — the golden oracle for :func:`pagerank`
    (same formulation, same iteration count; driver-side kernel of the
    hybrid). np.unique(return_inverse) builds the sorted node index at C
    speed — same ordering as sorted(set(...)), measured several-fold
    faster on multi-million-edge url graphs.

    ``seeds``: optional url collection — PERSONALIZED PageRank (Page et
    al. 1999 §6; Haveliwala 2002): teleport AND dangling mass land
    uniformly on the seed nodes present in the graph instead of on all
    nodes (rank init stays uniform so a fixed-n_iter run is exactly
    reproducible distributed-vs-dense). Seeds absent from the graph are
    ignored; all-absent raises."""
    m = len(edges)
    both = np.concatenate(
        [edges[src_col].to_numpy(dtype=object), edges[dst_col].to_numpy(dtype=object)]
    )
    urls, inv = np.unique(both.astype(str), return_inverse=True)
    n = len(urls)
    if n == 0:
        return pd.DataFrame(
            {"url": pd.Series(dtype="object"),
             "rank": pd.Series(dtype="float64")}
        )
    w = (
        edges[weight_col].astype(float).to_numpy()
        if weight_col
        else np.ones(len(edges))
    )
    si = inv[:m]
    di = inv[m:]
    out_w = np.zeros(n)
    np.add.at(out_w, si, w)
    if seeds is None:
        p = np.full(n, 1.0 / n)
    else:
        mask = np.isin(urls, np.unique(np.asarray(list(seeds), dtype=object).astype(str)))
        if not mask.any():
            raise ValueError("personalized pagerank: no seed url is in the graph")
        p = mask.astype(np.float64) / mask.sum()
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dangling = r[out_w == 0].sum()
        c = np.zeros(n)
        np.add.at(c, di, r[si] * w / np.where(out_w[si] == 0, 1, out_w[si]))
        r = (1 - damping) * p + damping * (c + dangling * p)
    return pd.DataFrame({"url": urls, "rank": r})


def resolve_edges(edges_ds, src_col: str = "src_url", href_col: str = "href"):
    """(src_url, href[, n_links]) -> (src_url, dst_url[, n_links]) with
    path-absolute hrefs resolved against the src scheme+host."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["dst_url"] = [
            _resolve(s, h) for s, h in zip(batch[src_col], batch[href_col])
        ]
        return out.drop(columns=[href_col])

    return edges_ds.map_batches(fn, batch_format="pandas")


def triangle_count(edges_ds, a_col: str = "a", b_col: str = "b") -> int:
    """Exact GLOBAL TRIANGLE COUNT via degree-ordered orientation — the
    textbook distributed formulation (orient every undirected edge from
    its lower-(degree, id) endpoint, enumerate wedges only over
    out-neighborhoods, close them against the oriented edge set): total
    wedge work is bounded by sum-over-nodes of C(out_deg, 2) with
    out_deg <= O(sqrt(2m)), so a high-degree hub (guaranteed on real
    graphs) never explodes a single task quadratically the way naive
    neighbor-joins do.

    Input: undirected edges (any int or string node ids); self-loops
    dropped, duplicate/reversed edges collapse through a keyed exchange.
    Stages: canonicalize -> distinct (bucketed) -> degrees (bucketed) ->
    degree attach (size-adaptive auto_join x2) -> orient -> wedge
    enumeration inside a u-bucketed map_groups -> closing-edge probe via
    ONE string-keyed bucketed join. The only driver value is the final
    count. Tie-breaks compare RAW node values in both the orientation and
    the wedge ordering — the two must agree or triangles are missed."""
    from .agg import bucketed_aggregate, exchange
    from .joins import auto_join, bucketed_join

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[a_col].values
        b = batch[b_col].values
        keep = a != b
        a, b = a[keep], b[keep]
        swap = a > b
        return pd.DataFrame(
            {
                "a": np.where(swap, b, a),
                "b": np.where(swap, a, b),
                "one": np.ones(len(a), dtype="int64"),
            }
        )

    edges = bucketed_aggregate(
        edges_ds.map_batches(canon, batch_format="pandas"),
        keys=["a", "b"],
        aggs={"n": ("one", "sum")},
    ).materialize()  # distinct undirected edges; two consumers below

    deg = bucketed_aggregate(
        edges.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": np.concatenate([b["a"].values, b["b"].values]),
                    "one": np.ones(2 * len(b), dtype="int64"),
                }
            ),
            batch_format="pandas",
        ),
        keys=["node"],
        aggs={"deg": ("one", "sum")},
    ).materialize()  # node-dimension-sized; consumed twice (deg_a, deg_b)
    deg_a = deg.map_batches(
        lambda b: pd.DataFrame(
            {"node_a": b["node"].values, "deg_a": b["deg"].astype("int64").values}
        ),
        batch_format="pandas",
    )
    deg_b = deg.map_batches(
        lambda b: pd.DataFrame(
            {"node_b": b["node"].values, "deg_b": b["deg"].astype("int64").values}
        ),
        batch_format="pandas",
    )
    e = auto_join(edges, deg_a, "a", "node_a")
    e = auto_join(e, deg_b, "b", "node_b")

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["a"].values
        b = batch["b"].values
        da = batch["deg_a"].to_numpy(np.int64)
        db = batch["deg_b"].to_numpy(np.int64)
        swap = (da > db) | ((da == db) & (a > b))
        return pd.DataFrame(
            {
                "u": np.where(swap, b, a),
                "v": np.where(swap, a, b),
                "dv": np.where(swap, da, db).astype("int64"),
            }
        )

    oriented = e.map_batches(orient, batch_format="pandas").materialize()

    def wedges(group: pd.DataFrame) -> pd.DataFrame:
        cks: list[np.ndarray] = []
        for _, g in group.groupby("u", sort=False):
            if len(g) < 2:
                continue
            # order out-neighbors by the SAME (deg, raw id) total order the
            # orientation used, so each candidate (v, w) matches the stored
            # direction of a closing edge if one exists
            order = np.lexsort((g["v"].to_numpy(), g["dv"].to_numpy(np.int64)))
            vs = g["v"].to_numpy()[order].astype(str)
            i, jx = np.triu_indices(len(vs), 1)
            if len(i):
                cks.append(np.char.add(np.char.add(vs[i], "\x1f"), vs[jx]))
        ck = (
            np.concatenate(cks).astype(object)
            if cks
            else np.array([], dtype=object)
        )
        return pd.DataFrame({"ck": pd.Series(ck, dtype="object")})

    cands = exchange(oriented, "u", wedges)
    ekeys = oriented.map_batches(
        lambda b: pd.DataFrame(
            {
                "ek": (
                    b["u"].astype(str) + "\x1f" + b["v"].astype(str)
                ).astype(object)
            }
        ),
        batch_format="pandas",
    )
    closed = bucketed_join(cands, ekeys, "ck", "ek")
    return int(closed.count())


def hits(
    edges,
    n_iter: int = 10,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    driver_threshold: int = 2_000_000,
):
    """Distributed HITS (Kleinberg 1999) hubs-and-authorities over
    (src, dst) string-url edges — the link-quality signal that separates
    directory/hub pages from content/authority pages, complementing
    PageRank for crawl-frontier and training-data selection.

    Returns a Dataset ``(url, auth, hub)`` over every node appearing as a
    src or dst. Fixed ``n_iter`` mutual-reinforcement rounds with L1
    normalization after each half-step (auth := A^T hub then normalize;
    hub := A auth then normalize) — L1 instead of the textbook L2 so the
    normalizer is the same scalar ``sum`` the dangling-mass pass of
    :func:`pagerank` already ships to the driver (one float per
    half-round), and ranking order is identical under any positive
    rescaling.

    Same hybrid contract as :func:`pagerank`: at/below
    ``driver_threshold`` edges the dense numpy kernel runs driver-side
    (:func:`hits_reference`); above it the Dataset-round loop runs — per
    half-round ONE bucketed join (state onto edges) + ONE bucketed
    aggregate (contribution sum per far endpoint), nothing node- or
    edge-sized on the driver. The two paths are equivalence-gated in
    tests/test_graph.py and by the ``pages_hits_agreement`` query.
    Duplicate (src, dst) rows act as parallel edges (weight = occurrence
    count) in BOTH kernels, so the equivalence gate covers multigraphs.
    """
    import ray.data

    from .agg import bucketed_aggregate
    from .joins import bucketed_join

    if n_iter < 1:
        raise ValueError("hits: n_iter must be >= 1")
    if not isinstance(edges, pd.DataFrame):
        edges = edges.materialize()
        if edges.count() <= driver_threshold:
            edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        return ray.data.from_pandas(
            hits_reference(
                edges, n_iter=n_iter, src_col=src_col, dst_col=dst_col
            )
        )

    def to_ids(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": url_node_id(batch[src_col].tolist()),
                "dst": url_node_id(batch[dst_col].tolist()),
            }
        )

    id_edges = edges.map_batches(to_ids, batch_format="pandas").materialize()

    nodes = _node_table(edges, src_col, dst_col).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "url": pd.Series(dtype="object"),
                    "auth": pd.Series(dtype="float64"),
                    "hub": pd.Series(dtype="float64"),
                }
            )
        )

    node_ids = nodes.select_columns(["node"]).materialize()

    def init_state(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": batch["node"].astype("int64").values,
                "hub": np.full(len(batch), 1.0 / n_nodes),
            }
        )

    hub = node_ids.map_batches(init_state, batch_format="pandas").materialize()
    n = _scale.resolve()

    def half_step(state, from_col, via_key, to_key, out_col):
        """One HITS half-round: state[from_col] flows across every edge
        from the ``via_key`` endpoint to the ``to_key`` endpoint, sums per
        target, L1-normalizes (one scalar to the driver), and left-joins
        back onto the full node set (nodes with no inbound contribution
        get 0)."""
        joined = bucketed_join(
            id_edges, state.select_columns(["node", from_col]), via_key, "node"
        )
        sums = bucketed_aggregate(
            joined.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "t": b[to_key].astype("int64").values,
                        "c": b[from_col].astype("float64").values,
                    }
                ),
                batch_format="pandas",
            ),
            keys=["t"],
            aggs={"c": ("c", "sum")},
        ).materialize()
        total = sums.sum("c") or 0.0
        norm = total if total > 0 else 1.0

        def attach(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {"node": batch["node"].astype("int64").values}
            )
            out[out_col] = (
                batch["c"].astype("float64").fillna(0.0) / norm
            ).values
            return out

        return (
            bucketed_join(node_ids, sums, "node", "t", how="left")
            .map_batches(attach, batch_format="pandas")
            .repartition(n)
            .materialize()
        )

    # auth and hub only ever feed EACH OTHER alternately, so the loop
    # carries two single-column state tables and never pays a per-round
    # merge join; the half_step repartition caps block growth per round
    auth = None
    for _ in range(n_iter):
        # auth(v) = sum over u->v of hub(u), normalized
        auth = half_step(hub, "hub", "src", "dst", "auth")
        # hub(u) = sum over u->v of auth(v), normalized — uses the NEW auth
        hub = half_step(auth, "auth", "dst", "src", "hub")

    state = bucketed_join(auth, hub, "node", "node")
    ranked = bucketed_join(nodes, state, "node", "node")
    return ranked.select_columns(["url", "auth", "hub"])


def hits_reference(
    edges: pd.DataFrame,
    n_iter: int = 10,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
) -> pd.DataFrame:
    """Dense numpy HITS — the golden oracle for :func:`hits` (same
    formulation, same L1 normalization, same iteration count;
    driver-side kernel of the hybrid). np.unique(return_inverse) builds
    the sorted node index at C speed (a Python sorted(set)+dict map was
    the wall-time of the whole query on a 2.7M-edge graph)."""
    m = len(edges)
    both = np.concatenate(
        [edges[src_col].to_numpy(dtype=object), edges[dst_col].to_numpy(dtype=object)]
    )
    urls, inv = np.unique(both.astype(str), return_inverse=True)
    n = len(urls)
    if n == 0:
        return pd.DataFrame(
            {
                "url": pd.Series(dtype="object"),
                "auth": pd.Series(dtype="float64"),
                "hub": pd.Series(dtype="float64"),
            }
        )
    si = inv[:m]
    di = inv[m:]
    auth = np.full(n, 1.0 / n)
    hub = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        a = np.zeros(n)
        np.add.at(a, di, hub[si])
        tot = a.sum()
        auth = a / (tot if tot > 0 else 1.0)
        h = np.zeros(n)
        np.add.at(h, si, auth[di])
        tot = h.sum()
        hub = h / (tot if tot > 0 else 1.0)
    return pd.DataFrame({"url": urls, "auth": auth, "hub": hub})
