"""Driver contract for the graft builder (Ray Data target).

The driver initializes Ray itself before importing this module; nothing here
(or in the ``rayxtract`` library) calls ``ray.init()``/``ray.shutdown()``.

- ``entry()``     — flagship extraction pipeline over the sf0.001-tier synth
                    pages corpus (SURVEY.md §3.1 re-architecture).
- ``queries()``   — one callable per implemented operator/pipeline from
                    SURVEY.md §2 + the training-data operator set
                    (dedup / ANN / text-analysis / multimodal plumbing).
- ``oracle_sql()``— DuckDB-equivalent SQL for every SQL-expressible query;
                    non-relational ops (minhash/simhash/langid/ANN-approx/
                    extraction itself) are rows-only by design — their
                    correctness gates are the golden-fixture pytest suite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from rayxtract.queries import flagship_entry

    return flagship_entry()


def queries() -> dict[str, Callable[[str], Any]]:
    from rayxtract.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from rayxtract.queries import oracle_sql_for

    # pages_* oracles read the deterministic synth corpus parquet directly;
    # make sure the sf0.01-tier corpus exists before DuckDB needs it (no-op
    # when cached). ONLY when Ray is already initialized — generation is a
    # Ray Data job and running it here would otherwise implicitly auto-init
    # a local cluster, breaking this module's session-free contract. The
    # corresponding queries() entries ensure the corpus themselves anyway.
    try:
        import ray

        if ray.is_initialized():
            from rayxtract.multimodal import ensure_media_corpus
            from rayxtract.synth import ensure_corpus

            ensure_corpus(10_000)
            ensure_media_corpus(500)  # sf0.01 tier: 10_000 // 20
    except Exception:
        pass
    return oracle_sql_for("/root/testdata/sf0.01")
