"""Nearest-neighbor search and vector quantizers over an embedding column.

  * ``knn_bruteforce`` — exact cosine top-k: the query matrix is broadcast
    once via ``ray.put`` and every batch does one numpy matmul against it;
    per-batch partial top-k rows are then reduced by one query_id-keyed
    exchange. This is the correctness baseline AND the honest
    small-query-set path at scale (compute is embarrassingly parallel;
    only q x k rows shuffle).
  * ``knn_ivf`` — IVF-style scale path: coarse centroids from a seeded
    sample (trained once, broadcast), every vector assigned to its nearest
    centroid partition; queries probe only ``nprobe`` partitions, so the
    scan touches a fraction of the corpus. Recall < 1.0 by design.
  * ``kmeans_fit`` and ``pq_fit_codebooks`` — one distributed Lloyd loop
    (``_lloyd``): codebooks broadcast once per round, one moment summary
    per batch folded by ``agg.tree_reduce``; k-means is the one-subspace
    case of product quantization. ``pca_fit`` folds its (n, sum x, X^T X)
    moments through the same reduce.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = [
    "knn_bruteforce",
    "knn_ivf",
    "pca_fit",
    "pca_project",
    "kmeans_fit",
    "kmeans_assign",
    "kmeans_reference",
    "pq_init_codebooks",
    "pq_fit_codebooks",
    "pq_reference_codebooks",
    "pq_encode",
]


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def knn_bruteforce(
    ds,
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Exact cosine top-k per query row. Returns (query_id, vec_id, cosine),
    k rows per query, ordered tie-break by vec_id asc."""
    import ray

    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q_unit)

    def partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        vecs = _unit(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        ids = batch[id_col].astype("int64").to_numpy()
        sims = vecs @ q.T  # (n, nq)
        kk = min(k, len(ids))
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            col = sims[:, qi]
            # top-k by (sim desc, vec_id asc) — deterministic
            order = np.lexsort((ids, -col))[:kk]
            out_q.extend([qi] * len(order))
            out_id.extend(ids[order])
            out_sim.extend(col[order])
        return pd.DataFrame(
            {
                "query_id": pd.Series(out_q, dtype="int64"),
                id_col: pd.Series(out_id, dtype="int64"),
                "cosine": pd.Series(out_sim, dtype="float64"),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pandas")
    return _final_topk(partials, k, id_col)


def _final_topk(partials, k: int, id_col: str):
    """k rows per query_id by (cosine desc, id asc) from per-batch partial
    top-k rows: one query_id-keyed ``agg.exchange``, one sort and a
    grouped head(k) per bucket."""
    from .agg import exchange

    def topk(bucket: pd.DataFrame) -> pd.DataFrame:
        return (
            bucket.sort_values(
                ["query_id", "cosine", id_col],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("query_id", sort=False)
            .head(k)
        )

    return exchange(partials, "query_id", topk)


def knn_ivf(
    ds,
    queries: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    train_sample: int = 2048,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """IVF-bucketed ANN: centroids from a seeded sample, probe top-nprobe
    centroid partitions per query. Returns (query_id, vec_id, cosine)."""
    import ray

    cents = _coarse_cells(ds, n_centroids, train_sample, seed, id_col, vec_col)
    cents_ref = ray.put(cents)

    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q_unit @ cents.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_sets = [set(map(int, row)) for row in probe]
    q_ref = ray.put((q_unit, probe_sets))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cents_ref)
        q, probes = ray.get(q_ref)
        vecs = _unit(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        ids = batch[id_col].astype("int64").to_numpy()
        assign = np.argmax(vecs @ c.T, axis=1)
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(assign, list(probes[qi]))
            if not mask.any():
                continue
            sub_ids = ids[mask]
            sims = vecs[mask] @ q[qi]
            order = np.lexsort((sub_ids, -sims))[: min(k, len(sub_ids))]
            out_q.extend([qi] * len(order))
            out_id.extend(sub_ids[order])
            out_sim.extend(sims[order])
        return pd.DataFrame(
            {
                "query_id": pd.Series(out_q, dtype="int64"),
                id_col: pd.Series(out_id, dtype="int64"),
                "cosine": pd.Series(out_sim, dtype="float64"),
            }
        )

    return _final_topk(ds.map_batches(partial, batch_format="pandas"), k, id_col)


def _hash_sample(ds, n: int, seed: int, id_col: str, columns: list[str]):
    """Bounded pseudo-random sample that does NOT depend on block/task
    layout: rank rows by md5(seed:id) and keep the n smallest (agg.topk
    combiner — <= n rows per batch reach the final sort). Ray's
    ``random_sample`` seeds per [task_idx, seed], so its sampled SET
    changes with read parallelism — unusable for results that must be
    identical across cluster sizes. Returns rows sorted by the hash rank
    (a deterministic shuffled order)."""
    import hashlib

    from .agg import topk

    def rank(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[columns].copy()
        # hash the id's string form — works for int AND string id columns
        out["__r"] = [
            int.from_bytes(
                hashlib.md5(f"{seed}:{i}".encode()).digest()[:8], "big"
            ) - (1 << 63)
            for i in batch[id_col]
        ]
        return out

    rows = topk(
        ds.map_batches(rank, batch_format="pandas"),
        ["__r", id_col],
        descending=[False, False],
        k=n,
    ).take_all()
    rows.sort(key=lambda r: (r["__r"], r[id_col]))
    return rows


def _sample_matrix(ds, n: int, seed: int, id_col: str, vec_col: str) -> np.ndarray:
    """The :func:`_hash_sample` vectors as one float64 (rows, d) matrix."""
    sample = _hash_sample(ds, n, seed, id_col, [id_col, vec_col])
    if not sample:
        raise ValueError("cannot train on an empty input: it has no vectors")
    return np.stack([np.asarray(r[vec_col]) for r in sample]).astype(np.float64)


def _coarse_cells(ds, n_cells: int, train_sample: int, seed: int,
                  id_col: str, vec_col: str) -> np.ndarray:
    """Coarse IVF quantizer: fixed-round cosine Lloyd on a driver-side
    sample (small by construction; hash-ranked so the sampled SET is
    block-layout independent — Ray's random_sample seeds per task and
    would return different rows at different read parallelism). Returns
    unit-norm centroids, float64[min(n_cells, sample), d]."""
    mat = _unit(_sample_matrix(ds, train_sample, seed, id_col, vec_col))
    rng = np.random.RandomState(seed)
    cents = mat[rng.choice(len(mat), size=min(n_cells, len(mat)), replace=False)]
    for _ in range(8):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared L2 distances (n, k) via the expansion ||x||^2 - 2 x.c + ||c||^2."""
    return (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * (x @ c.T)
        + (c * c).sum(axis=1)[None, :]
    )


def _kmeans_init(ds, k: int, seed: int, id_col: str, vec_col: str,
                 train_sample: int = 2048) -> np.ndarray:
    """Deterministic init: hash-ranked bounded sample (block-layout
    independent — see _hash_sample) -> k seeded picks."""
    mat = _sample_matrix(ds, train_sample, seed, id_col, vec_col)
    rng = np.random.RandomState(seed)
    idx = rng.choice(len(mat), size=min(k, len(mat)), replace=False)
    return mat[idx].copy()


def _train_input(ds, id_col: str, vec_col: str):
    """The (id, vector) input every Lloyd fitter samples and scans: the
    init sample and every round stream ``ds.select_columns([id, vector])``,
    so a wide caller dataset never moves its payload columns. The input
    is pinned only if the caller passes a materialized Dataset (each
    round then re-reads the object-store blocks); a lazy or disk-backed
    input (a spilled-parquet read) is re-read from its source per round
    and never held in the object store across rounds."""
    return ds.select_columns([id_col, vec_col])


def _lloyd(ds, codebooks: list, width: int, n_iter: int, vec_col: str):
    """Distributed Lloyd rounds over ``width``-column subspaces: subspace
    ``s`` is columns ``[s * width, (s + 1) * width)`` and has codebook
    ``codebooks[s]`` — one full-width codebook is plain k-means, several
    are product quantization (Jegou et al. 2011), all fit with ONE corpus
    scan per round.

    Per round: the codebooks broadcast ONCE via ``ray.put`` (never
    re-shipped per batch); every batch runs one (n, k) distance matmul
    per subspace and emits per-subspace moments (counts[k],
    sums[k, width], sse) — the vectors never leave their blocks; the
    moments fold through :func:`agg.tree_reduce`, and the driver updates
    the centroids. Empty clusters keep their previous centroid.

    Updates ``codebooks`` in place and returns ``(codebooks, inertia)``,
    the inertia being the last round's SSE summed over subspaces."""
    import ray

    from .agg import tree_reduce

    def add(a: list, b: list) -> list:
        return [tuple(u + v for u, v in zip(p, q)) for p, q in zip(a, b)]

    inertia = float("nan")
    for _ in range(n_iter):
        ref = ray.put(codebooks)

        def partial(batch: pd.DataFrame, _ref=ref) -> list:
            x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
            parts = []
            for s, c in enumerate(ray.get(_ref)):
                xs = x[:, s * width : (s + 1) * width]
                d2 = _sq_dists(xs, c)
                a = np.argmin(d2, axis=1)
                counts = np.bincount(a, minlength=c.shape[0]).astype(np.int64)
                sums = np.zeros_like(c)
                np.add.at(sums, a, xs)
                parts.append((counts, sums, float(d2[np.arange(len(xs)), a].sum())))
            return parts

        parts = tree_reduce(ds, partial, add)
        for cb, (counts, sums, _) in zip(codebooks, parts):
            nz = counts > 0
            cb[nz] = sums[nz] / counts[nz, None]
        inertia = sum(sse for _, _, sse in parts)
    return codebooks, float(inertia)


def kmeans_fit(
    ds,
    k: int = 8,
    n_iter: int = 10,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Distributed Lloyd k-means over an embedding column — the standard
    corpus-clustering primitive (topic bucketing, diversity sampling,
    quality stratification of training data).

    The one-subspace case of :func:`_lloyd`: per round one centroid
    broadcast and one (counts[k], sums[k, d], sse) moment summary per
    batch, so driver traffic per round is exactly one moment row.
    Empty clusters keep their previous centroid. The input is pinned only
    if the caller passes a materialized Dataset (:func:`_train_input`).
    Golden-tested against :func:`kmeans_reference` (dense numpy, same
    init).

    Returns ``(centroids: float64[k, d], inertia: float)``.
    """
    ds = _train_input(ds, id_col, vec_col)
    cents = _kmeans_init(ds, k, seed, id_col, vec_col)
    cbs, inertia = _lloyd(ds, [cents], cents.shape[1], n_iter, vec_col)
    return cbs[0], inertia


def kmeans_assign(
    ds,
    centroids: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Nearest-centroid assignment: one ``ray.put`` broadcast, one distance
    matmul per batch. Output: (id_col, cluster: int64, dist2: float64)."""
    import ray

    c_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(c_ref)
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        d2 = _sq_dists(x, c)
        a = np.argmin(d2, axis=1)
        return pd.DataFrame(
            {
                id_col: batch[id_col].astype("int64").values,
                "cluster": a.astype("int64"),
                "dist2": d2[np.arange(len(x)), a],
            }
        )

    return ds.map_batches(assign, batch_format="pandas")


def kmeans_reference(
    mat: np.ndarray, init: np.ndarray, n_iter: int = 10
) -> tuple[np.ndarray, float]:
    """Dense numpy Lloyd — the golden oracle for :func:`kmeans_fit` (same
    formulation, same update rule, driver-side, test scale)."""
    cents = init.astype(np.float64).copy()
    x = mat.astype(np.float64)
    inertia = float("nan")
    for _ in range(n_iter):
        d2 = _sq_dists(x, cents)
        assign = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(x)), assign].sum())
        for c in range(cents.shape[0]):
            members = x[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents, inertia


def pq_init_codebooks(
    ds,
    n_subs: int,
    width: int,
    k: int,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    train_sample: int = 2048,
) -> list:
    """Deterministic product-quantization codebook inits: ONE hash-ranked
    bounded sample of full vectors (block-layout independent — see
    ``_hash_sample``), then a seeded pick per subspace from its slice.
    Shared by :func:`pq_fit_codebooks` and the dense agreement replay so
    both sides start from byte-identical centroids."""
    mat = _sample_matrix(ds, train_sample, seed, id_col, vec_col)
    cbs = []
    for s in range(n_subs):
        sub = mat[:, s * width : (s + 1) * width]
        rng = np.random.RandomState(seed + s)
        idx = rng.choice(len(sub), size=min(k, len(sub)), replace=False)
        cbs.append(sub[idx].copy())
    return cbs


def pq_fit_codebooks(
    ds,
    n_subs: int = 8,
    width: int = 8,
    k: int = 256,
    n_iter: int = 5,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Fit ALL ``n_subs`` product-quantization codebooks (Jegou et al.
    2011) with ONE corpus scan per Lloyd round (:func:`_lloyd`): every
    batch slices its vectors locally and emits one summary of
    per-subspace moments, and the driver updates ``n_subs * k * width``
    floats per round. Fitting the subspaces jointly amortizes the scan:
    8 codebooks cost the same I/O as one (vs 8 independent
    ``kmeans_fit`` calls = 8x the corpus reads). Empty clusters keep
    their previous centroid — the same rule as the dense replay in
    :func:`pq_reference_codebooks`. The input is pinned only if the
    caller passes a materialized Dataset (:func:`_train_input`).

    Returns a list of ``float64[k, width]`` codebooks."""
    ds = _train_input(ds, id_col, vec_col)
    cbs = pq_init_codebooks(ds, n_subs, width, k, seed, id_col, vec_col)
    return _lloyd(ds, cbs, width, n_iter, vec_col)[0]


def pq_reference_codebooks(
    mat: np.ndarray, init_cbs: list, width: int, n_iter: int = 5
) -> list:
    """Dense numpy replay of :func:`pq_fit_codebooks` — per-subspace
    :func:`kmeans_reference` from the SAME init. The golden oracle for
    the PQ agreement gate."""
    return [
        kmeans_reference(
            mat[:, s * width : (s + 1) * width], init_cbs[s], n_iter=n_iter
        )[0]
        for s in range(len(init_cbs))
    ]


def pq_encode(
    ds,
    codebooks: list,
    width: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    extra_cols: tuple = (),
):
    """PQ encode pass: codebooks broadcast ONCE via ``ray.put``, each
    batch runs one (n, k) distance matmul per subspace and packs the
    8-bit codes little-endian into ONE int64 per vector (the top
    subspace may set the sign bit — two's-complement wrap is
    deterministic; unpack with ``(code >> (8 * s)) & 0xFF``, which is
    exact under numpy's arithmetic shift + mask). Output
    ``(id_col, pq_code, *extra_cols)``."""
    import ray

    ref = ray.put([np.asarray(c, dtype=np.float64) for c in codebooks])

    def code(batch: pd.DataFrame) -> pd.DataFrame:
        cl = ray.get(ref)
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        pq = np.zeros(len(x), dtype=np.int64)
        for s, c in enumerate(cl):
            d2 = _sq_dists(x[:, s * width : (s + 1) * width], c)
            pq |= np.argmin(d2, axis=1).astype(np.int64) << np.int64(8 * s)
        out = {
            id_col: batch[id_col].astype("int64").values,
            "pq_code": pq,
        }
        for col in extra_cols:
            out[col] = batch[col].values
        return pd.DataFrame(out)

    return ds.map_batches(code, batch_format="pandas")


def pca_fit(ds, vec_col: str = "embedding", n_components: int = 8):
    """Distributed PCA fit over an embedding column — the dimensionality
    reduction step before large-scale ANN indexing (OPQ/IVF preprocessing
    in Faiss-style stacks). Two-level moment reduction: every batch emits
    ONE (n, sum_x, X^T X) partial (d + d^2 floats — the corpus' vectors
    never leave their blocks), partials fold through ``agg.tree_reduce``,
    and the d x d covariance eigendecomposition runs on the driver where
    d is small by construction. Component signs are canonicalized
    (largest-|coordinate| positive) so output is reproducible across
    block layouts up to float-sum rounding.

    Returns ``(mean: float64[d], components: float64[n_components, d])``
    with components ordered by eigenvalue descending.
    """
    from .agg import tree_reduce

    def partial(batch: pd.DataFrame) -> tuple:
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        return len(x), x.sum(axis=0), x.T @ x

    moments = tree_reduce(
        ds, partial, lambda a, b: tuple(u + v for u, v in zip(a, b))
    )
    if moments is None or moments[0] < 2:
        raise ValueError("pca_fit needs at least 2 vectors")
    n, s, xtx = moments
    mean = s / n
    cov = (xtx - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T.copy()
    for i in range(comps.shape[0]):  # canonical sign
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return mean, comps


def pca_project(
    ds,
    mean: np.ndarray,
    components: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Project every vector onto fitted principal components: one
    broadcast of (mean, components) via ``ray.put``, one matmul per
    batch. Output: (id_col, pc0..pc{k-1}) float64."""
    import ray

    p_ref = ray.put((np.asarray(mean, dtype=np.float64),
                     np.asarray(components, dtype=np.float64)))
    k = int(np.asarray(components).shape[0])

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        mu, comps = ray.get(p_ref)
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        proj = (x - mu) @ comps.T
        out = {id_col: batch[id_col].astype("int64").values}
        for i in range(k):
            out[f"pc{i}"] = proj[:, i]
        return pd.DataFrame(out)

    return ds.map_batches(project, batch_format="pandas")


# ---------------------------------------------------------------------------
# kNN GRAPH construction — the all-vectors self-join that SemDeDup-style
# curation, cluster pruning and graph-based diversity sampling build on.
# Similarities are integer dot products of uint8 scalar-quantized codes
# (the emb_int8_quantize transform), so ranking is bit-deterministic in
# both engines and the exact variant has a DuckDB oracle.


def _dim_minmax(ds, vec_col: str = "embedding"):
    """Per-dimension global [min, max] via a d-row combiner tree (the only
    exchange — d rows, never vectors). Returns (mn, mx) float64[d]."""
    from .agg import tree_aggregate

    def dim_partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = np.stack(batch[vec_col].to_numpy())
        return pd.DataFrame(
            {
                "dim": np.arange(x.shape[1], dtype=np.int64),
                "mn": x.min(axis=0).astype(np.float64),
                "mx": x.max(axis=0).astype(np.float64),
            }
        )

    stats = (
        tree_aggregate(
            ds.map_batches(dim_partial, batch_format="pandas"),
            keys=["dim"],
            aggs={"mn": ("mn", "min"), "mx": ("mx", "max")},
        )
        .to_pandas()
        .sort_values("dim")
    )
    return (
        stats["mn"].to_numpy(np.float64),
        stats["mx"].to_numpy(np.float64),
    )


def _quantize_u8(x: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """uint8 scalar quantization codes as int64 — the IDENTICAL IEEE op
    sequence as emb_int8_quantize (and its proven DuckDB mirror)."""
    flat = mx == mn
    codes = np.floor(((x.astype(np.float64) - mn) * 255.0) / np.where(flat, 1.0, mx - mn))
    return np.where(flat, 0.0, codes).astype(np.int64)


def knn_graph_exact(
    ds,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    cap: int = 200_000,
):
    """EXACT top-k neighbor graph by integer code dot product: one stats
    combiner, then ONE broadcast of the (n, d) uint8 code matrix
    (``ray.put`` once, read per task) and an embarrassingly parallel
    (batch, n) int64 matmul per batch — the O(n^2/P) distributed
    brute-force baseline. The code matrix gather is the deliberate
    small-tier simplification (uint8: 200k x 64 = 12.8 MB broadcast);
    above ``cap`` vectors the caller belongs on :func:`knn_graph_ivf`
    (this raises rather than silently thrash). Returns
    (vec_id, nbr_id, sim), k rows per vector, ties by nbr_id asc."""
    import ray

    mn, mx = _dim_minmax(ds, vec_col)
    d = int(mn.shape[0])

    def to_codes(batch: pd.DataFrame) -> pd.DataFrame:
        codes = _quantize_u8(np.stack(batch[vec_col].to_numpy()), mn, mx).astype(
            np.uint8
        )
        return pd.DataFrame(
            {
                id_col: batch[id_col].astype("int64").values,
                "c": pd.Series(
                    [codes[i].tobytes() for i in range(len(batch))], dtype="object"
                ),
            }
        )

    # gather QUANTIZED codes, not raw float vectors: 8x smaller driver
    # gather (uint8 blobs), quantization stays distributed. The gather
    # streams and stops at cap + 1 rows, so an oversized input never lands
    # on the driver whole.
    try:
        rows = ds.map_batches(to_codes, batch_format="pandas").take_all(limit=cap)
    except ValueError as e:
        if isinstance(e, ray.exceptions.RayError):
            raise  # a failure inside to_codes, not the cap
        raise ValueError(
            f"knn_graph_exact is the <= {cap}-vector baseline "
            f"(got more than {cap}); use knn_graph_ivf at corpus scale"
        ) from e
    ids_all = np.array([int(r[id_col]) for r in rows], dtype=np.int64)
    codes_all = np.frombuffer(
        b"".join(r["c"] for r in rows), dtype=np.uint8
    ).reshape(-1, d)
    ref = ray.put((ids_all, codes_all))

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        aid, acode = ray.get(ref)
        call = acode.astype(np.int64)
        xb = _quantize_u8(np.stack(batch[vec_col].to_numpy()), mn, mx)
        bids = batch[id_col].astype("int64").to_numpy()
        sims = xb @ call.T  # (b, n) int64
        out_v, out_n, out_s = [], [], []
        for i in range(len(bids)):
            col = sims[i]
            mask = aid != bids[i]
            order = np.lexsort((aid[mask], -col[mask]))[:k]
            sel_ids = aid[mask][order]
            sel_sims = col[mask][order]
            out_v.extend([bids[i]] * len(order))
            out_n.extend(sel_ids)
            out_s.extend(sel_sims)
        return pd.DataFrame(
            {
                "vec_id": pd.Series(out_v, dtype="int64"),
                "nbr_id": pd.Series(out_n, dtype="int64"),
                "sim": pd.Series(out_s, dtype="int64"),
            }
        )

    return ds.map_batches(part, batch_format="pandas")


def knn_graph_ivf(
    ds,
    k: int = 5,
    n_cells: int = 8,
    nprobe: int = 4,
    train_sample: int = 2048,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """IVF-bucketed APPROXIMATE kNN graph — the corpus-scale path: every
    vector is a MEMBER of its nearest coarse cell and a QUERY in its
    ``nprobe`` nearest cells; one cell-keyed exchange computes local
    top-k inside each cell (group size ~ n/n_cells; neighbor candidates
    never leave their cell except as <= nprobe*k candidate rows per
    vector), one bucketed exchange (fan-out ``scale.resolve()``, like
    every exchange's) merges per-vector candidates. Recall vs the exact
    graph is gated by ``emb_knn_graph_recall``. Returns
    (vec_id, nbr_id, sim) with <= k rows per vector."""
    import ray

    from .agg import exchange

    mn, mx = _dim_minmax(ds, vec_col)
    cents = _coarse_cells(ds, n_cells, train_sample, seed, id_col, vec_col)
    cents_ref = ray.put(cents)
    d = int(mn.shape[0])

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cents_ref)
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        xu = _unit(x)
        order = np.argsort(-(xu @ c.T), axis=1)[:, : max(nprobe, 1)]
        codes = _quantize_u8(x, mn, mx).astype(np.uint8)
        bids = batch[id_col].astype("int64").to_numpy()
        blobs = [codes[i].tobytes() for i in range(len(bids))]
        cells, vids, blob_col, roles = [], [], [], []
        # member row: primary cell only
        cells.extend(order[:, 0].tolist())
        vids.extend(bids.tolist())
        blob_col.extend(blobs)
        roles.extend([0] * len(bids))
        # query rows: all probed cells
        for j in range(order.shape[1]):
            cells.extend(order[:, j].tolist())
            vids.extend(bids.tolist())
            blob_col.extend(blobs)
            roles.extend([1] * len(bids))
        return pd.DataFrame(
            {
                "cell": pd.Series(cells, dtype="int64"),
                "vec_id": pd.Series(vids, dtype="int64"),
                "codes": pd.Series(blob_col, dtype="object"),
                "is_query": pd.Series(roles, dtype="int64"),
            }
        )

    def local_knn(g: pd.DataFrame) -> pd.DataFrame:
        m = g[g["is_query"] == 0]
        q = g[g["is_query"] == 1]
        if m.empty or q.empty:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype="int64"),
                    "nbr_id": pd.Series([], dtype="int64"),
                    "sim": pd.Series([], dtype="int64"),
                }
            )
        mid = m["vec_id"].to_numpy(np.int64)
        mc = np.frombuffer(b"".join(m["codes"]), dtype=np.uint8).reshape(-1, d).astype(np.int64)
        qid = q["vec_id"].to_numpy(np.int64)
        qc = np.frombuffer(b"".join(q["codes"]), dtype=np.uint8).reshape(-1, d).astype(np.int64)
        sims = qc @ mc.T
        out_v, out_n, out_s = [], [], []
        for i in range(len(qid)):
            col = sims[i]
            mask = mid != qid[i]
            if not mask.any():
                continue
            order = np.lexsort((mid[mask], -col[mask]))[:k]
            out_v.extend([qid[i]] * len(order))
            out_n.extend(mid[mask][order])
            out_s.extend(col[mask][order])
        return pd.DataFrame(
            {
                "vec_id": pd.Series(out_v, dtype="int64"),
                "nbr_id": pd.Series(out_n, dtype="int64"),
                "sim": pd.Series(out_s, dtype="int64"),
            }
        )

    cand = (
        ds.map_batches(expand, batch_format="pandas")
        .groupby("cell")
        .map_groups(local_knn, batch_format="pandas")
    )

    def merge_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["vec_id", "nbr_id"]).sort_values(
            ["vec_id", "sim", "nbr_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return (
            g.groupby("vec_id", as_index=False, sort=False)
            .head(k)[["vec_id", "nbr_id", "sim"]]
            .reset_index(drop=True)
        )

    return exchange(cand, "vec_id", merge_topk)
