"""Span recording from outside the program, plus the per-layer probes.

Spans are recorded around calls into the program's modules by swapping the
module attribute for a wrapper while a traced op runs; nothing inside
``rayxtract`` is edited. Spans live in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory spans: (id, name, start, end, parent, op)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.op: int | None = None
        self.op_span: int | None = None
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        # calls made on pool threads have no stack of their own: their
        # cause is the op the pool serves
        parent = stack[-1] if stack else self.op_span
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = {
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": self.op,
            }

    @contextmanager
    def op_scope(self, op: int, name: str):
        self.op = op
        with self.span(name) as sid:
            self.op_span = sid
            try:
                yield sid
            finally:
                self.op_span = None

    def count(self, key: str, value: float = 1.0, how: str = "add") -> None:
        with self._lock:
            old = self.counts.get(f"{self.op}:{key}")
            if old is None:
                new = value
            elif how == "max":
                new = max(old, value)
            else:
                new = old + value
            self.counts[f"{self.op}:{key}"] = new

    def op_count(self, op: int, key: str, default: float = 0.0) -> float:
        return self.counts.get(f"{op}:{key}", default)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Swap ``owner.attr`` for a span-recording wrapper until
        :meth:`unwrap_all`. ``after(recorder, result, args, kwargs)`` records
        counts from the call."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            self.count(f"{name}.calls")
            if after is not None:
                after(self, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def total(self, op: int, name: str) -> float:
        """Summed duration of every ``name`` span in ``op`` (busy time; pool
        threads overlap, so this can exceed wall time)."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s is not None and s["op"] == op and s["name"] == name
        )

    def self_time(self, sid: int) -> float:
        """Span duration minus the part its direct children cover."""
        parent = self.spans[sid]
        kids = sorted(
            (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            for s in self.spans
            if s is not None and s["parent"] == sid
        )
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in kids:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        return (parent["end"] - parent["start"]) - covered

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": [s for s in self.spans if s is not None],
                 "counts": self.counts, **extra},
                f,
            )


def install_program_wrappers(rec: Recorder) -> None:
    """Wrap the layer boundaries the per-layer metrics are measured at."""
    import ray.data

    from rayxtract import manifest, pipeline, scale

    def ties(r, result, args, kwargs):
        tie_map = args[1] if len(args) > 1 else kwargs.get("ties", {})
        r.count("pipeline.ties", len(tie_map))

    def wiped(r, result, args, kwargs):
        r.count("manifest.partitions_wiped", len(result))

    def buckets(r, result, args, kwargs):
        r.count("scale.resolve.buckets_max", int(result), how="max")

    rec.wrap(pipeline, "extraction_dataset", "pipeline.extraction_dataset")
    rec.wrap(pipeline, "resolve_tie_rows", "pipeline.resolve_tie_rows", ties)
    rec.wrap(ray.data.Dataset, "write_parquet", "pipeline.main_pass")
    rec.wrap(manifest, "shard_fingerprint", "manifest.shard_fingerprint")
    rec.wrap(manifest, "completed_partitions_for", "manifest.completed_partitions_for")
    rec.wrap(manifest, "clean_incomplete", "manifest.clean_incomplete", wiped)
    rec.wrap(manifest, "write_manifest", "manifest.write_manifest")
    rec.wrap(scale, "resolve", "scale.resolve", buckets)


# ---------------------------------------------------------------------------
# Ray Data's per-operator stats, as ``run_extraction`` writes them to
# ``_stats.txt``.

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0}
_TOTAL = re.compile(r"([\d.]+)\s*(us|ms|s|min) total")


def _total_seconds(line: str) -> float:
    m = _TOTAL.search(line)
    return float(m.group(1)) * _UNIT_S[m.group(2)] if m else 0.0


def parse_stats(text: str) -> dict[str, dict[str, float]]:
    """Remote wall/cpu/UDF totals summed per role: ``read`` is the parquet
    read operator, ``map_write`` every operator that ends in the write."""
    out = {
        role: {"wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0}
        for role in ("read", "map_write")
    }
    role = None
    for line in text.splitlines():
        if line.startswith("Operator "):
            head = line.split(":", 1)[0]
            if "Write" in head:
                role = "map_write"
            elif "ReadParquet" in head:
                role = "read"
            else:
                role = None
        elif role and line.startswith("* Remote wall time"):
            out[role]["wall_s"] += _total_seconds(line)
        elif role and line.startswith("* Remote cpu time"):
            out[role]["cpu_s"] += _total_seconds(line)
        elif role and line.startswith("* UDF time"):
            out[role]["udf_s"] += _total_seconds(line)
    return out


# ---------------------------------------------------------------------------
# Kernel throughput on one core, in this process, over the workload's own
# payloads.

KERNEL_MIN_S = 0.4


def _timed_passes(items: list, fn, nbytes: int) -> tuple[float, float]:
    """Run ``fn`` over ``items`` in whole passes until KERNEL_MIN_S has
    elapsed; returns (MB/s, items/s)."""
    if not items:
        return 0.0, 0.0
    done_items, done_bytes = 0, 0
    t0 = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        done_items += len(items)
        done_bytes += nbytes
        elapsed = time.perf_counter() - t0
        if elapsed >= KERNEL_MIN_S:
            return done_bytes / elapsed / 1e6, done_items / elapsed


def kernel_throughput(pages) -> dict[str, float]:
    """``pages``: a pyarrow table with url, warc_ts, html, lang."""
    from rayxtract.docl import DOCL_MAGIC, parse_docl
    from rayxtract.dom import DomConfig, extract_main_content
    from rayxtract.layout import PDFL_MAGIC, parse_pdfl
    from rayxtract.ops import ExtractConfig, detect_type, extract_batch
    from rayxtract.schema import DOC_TYPE_HTML
    from rayxtract.table import XLSL_MAGIC, parse_xlsl

    cfg = ExtractConfig()
    pages = pages.select(["url", "warc_ts", "html", "lang"])
    batches = [
        pages.slice(i, cfg.batch_size)
        for i in range(0, pages.num_rows, cfg.batch_size)
    ]
    payloads = [p for p in pages["html"].to_pylist() if p is not None]
    out: dict[str, float] = {}
    mb, _ = _timed_passes(
        batches, lambda b: extract_batch(b, cfg), sum(map(len, payloads))
    )
    out["ops.extract_batch.mb_per_s"] = mb

    def of_magic(magic: bytes) -> list[bytes]:
        return [p for p in payloads if p[: len(magic)] == magic]

    html = [
        p.decode("utf-8-sig") for p in payloads
        if detect_type(p) == DOC_TYPE_HTML
    ]
    dom_cfg = DomConfig()
    mb, docs = _timed_passes(
        html, lambda h: extract_main_content(h, dom_cfg),
        sum(len(h.encode("utf-8")) for h in html),
    )
    out["dom.extract_main_content.mb_per_s"] = mb
    out["dom.extract_main_content.docs_per_s"] = docs
    for key, magic, fn in (
        ("layout.parse_pdfl.mb_per_s", PDFL_MAGIC, parse_pdfl),
        ("table.parse_xlsl.mb_per_s", XLSL_MAGIC, parse_xlsl),
        ("docl.parse_docl.mb_per_s", DOCL_MAGIC, parse_docl),
    ):
        items = of_magic(magic)
        out[key] = _timed_passes(items, fn, sum(map(len, items)))[0]
    return out
