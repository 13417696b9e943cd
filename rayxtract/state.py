"""Shared mutable state: a sharded distributed fingerprint index for
INCREMENTAL dedup — the streaming-ingestion case batch pipelines can't
express (`ray.data` has no cross-job mutable state; this is the
documented "drop to raw actors only for a shared mutable index" case).

Scenario: day-1 corpus is already deduped; a day-2 delta arrives and
must keep only docs whose content fingerprint is (a) absent from the
base index and (b) the first occurrence within the delta itself.

Design:

* ``n_shards`` actors, each owning the ``joins.bucket_of(fp, n_shards)`` slice of
  fingerprint space — the index scales horizontally and no actor ever
  holds more than its hash slice (at 10^12 docs: shard count scales
  with cluster size; each shard is a plain set/dict, spillable to a
  parquet-backed sideline if a shard outgrows RAM).
* Delta processing is a ``map_batches`` stage that groups each batch's
  fingerprints by owning shard and issues ONE ``offer()`` RPC per
  (batch, shard) — per-batch fan-out is bounded by n_shards, not rows.
* Determinism under concurrency: ``offer`` keeps the MIN doc_id per
  fingerprint (an order-independent reduction), and winners are read in
  a second pass after the full delta has been offered. First-come-wins
  would depend on task scheduling; min-wins does not, so the DuckDB
  oracle can check the result exactly (queries.q_doc_incremental_dedup).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .joins import bucket_of


@ray.remote
class FingerprintShard:
    """One hash-slice of the fingerprint index."""

    def __init__(self) -> None:
        self._base: set = set()
        self._owner: dict = {}

    def add_base(self, fps: list) -> int:
        self._base.update(fps)
        return len(self._base)

    def offer(self, fps: list, doc_ids: list) -> None:
        """Register delta candidates; min doc_id per fp wins (order-
        independent, so concurrent batches commute)."""
        base = self._base
        owner = self._owner
        for fp, did in zip(fps, doc_ids):
            if fp in base:
                continue
            cur = owner.get(fp)
            if cur is None or did < cur:
                owner[fp] = did

    def winners(self) -> dict:
        return dict(self._owner)

    def stats(self) -> tuple[int, int]:
        return len(self._base), len(self._owner)


class FingerprintIndex:
    """Driver-side handle over the shard actors."""

    def __init__(self, n_shards: int = 8):
        self.n_shards = int(n_shards)
        self.shards = [FingerprintShard.remote() for _ in range(self.n_shards)]

    def _shard_of(self, fps: pd.Series) -> np.ndarray:
        return bucket_of(fps, self.n_shards)

    def load_base(self, ds, fp_col: str = "fp") -> None:
        """Bulk-load base fingerprints from a Dataset (streaming — one
        RPC per (batch, shard), never a driver-side gather)."""
        shards = self.shards
        n = self.n_shards

        def send(batch: pd.DataFrame) -> pd.DataFrame:
            sh = self._shard_of(batch[fp_col])
            refs = [
                shards[s].add_base.remote(batch[fp_col].values[sh == s].tolist())
                for s in np.unique(sh)
            ]
            ray.get(refs)
            return pd.DataFrame({"n": [len(batch)]})

        # consume for effect; output is one int per batch
        ds.map_batches(send, batch_format="pandas", concurrency=4).count()

    def offer_delta(self, ds, fp_col: str = "fp", id_col: str = "doc_id") -> None:
        shards = self.shards

        def send(batch: pd.DataFrame) -> pd.DataFrame:
            sh = self._shard_of(batch[fp_col])
            ids = batch[id_col].astype("int64").to_numpy()
            refs = []
            for s in np.unique(sh):
                m = sh == s
                refs.append(
                    shards[s].offer.remote(
                        batch[fp_col].values[m].tolist(), ids[m].tolist()
                    )
                )
            ray.get(refs)
            return pd.DataFrame({"n": [len(batch)]})

        ds.map_batches(send, batch_format="pandas", concurrency=4).count()

    def winners(self) -> pd.DataFrame:
        """(doc_id, fp) of every delta fingerprint's winning doc —
        O(unique new fps) rows gathered shard by shard."""
        frames = []
        for w in ray.get([s.winners.remote() for s in self.shards]):
            if w:
                frames.append(
                    pd.DataFrame(
                        {
                            "fp": pd.Series(list(w.keys()), dtype="object"),
                            "doc_id": pd.Series(list(w.values()), dtype="int64"),
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(
                {
                    "fp": pd.Series(dtype="object"),
                    "doc_id": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
