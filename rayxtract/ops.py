"""Batch operators for the extraction pipeline.

One stateless task stage (SURVEY.md §7.3): ``extract_batch`` sniffs each
payload and extracts it inline — DOM strip for HTML, the PDFL layout
decoder, the XLSL and DOCL parsers — into ``schema.EXTRACTED_SCHEMA``.
Deliberately task-based (not an actor pool) so Ray's streaming executor
schedules it elastically — a pool of N CPU-reserving actors starves the
read/write stages and caps scaling (measured: tasks 29.7s->9.4s for
8->32 CPUs vs actors 31.7s->27.4s on the same input). ``isolate_heavy``
runs just before it and gives every oversized payload its own batch.

The dispatch mirrors the reference's extension-based router
(utils.py:208-233) as content sniffing; failure rows become sentinel rows,
never dropped (workers.py:70-75,126-134).
"""

from __future__ import annotations

import zlib
from struct import error as struct_error

import pyarrow as pa

from .docl import DOCL_MAGIC, parse_docl
from .dom import DomConfig, extract_main_content
from .layout import PDFL_MAGIC, decode_pdfl, layout_text
from .schema import (
    DOC_TYPE_DOCL,
    DOC_TYPE_GARBAGE,
    DOC_TYPE_HTML,
    DOC_TYPE_PDFL,
    DOC_TYPE_XLSL,
    EXTRACTED_SCHEMA,
)
from .table import XLSL_MAGIC, parse_xlsl
from .synth import sentinel_error

__all__ = [
    "ExtractConfig",
    "extract_batch",
    "isolate_heavy",
    "detect_type",
]


def detect_type(payload: bytes) -> str:
    """Sniff payload type from magic bytes (the reference detects by file
    extension, main.py:269; content sniffing is the columnar equivalent)."""
    if payload[:4] == PDFL_MAGIC:
        return DOC_TYPE_PDFL
    if payload[:4] == XLSL_MAGIC:
        return DOC_TYPE_XLSL
    if payload[:4] == DOCL_MAGIC:
        return DOC_TYPE_DOCL
    head = payload[:256]
    if head[:3] == b"\xef\xbb\xbf":  # UTF-8 BOM (common in crawl data)
        head = head[3:]
    if head.lstrip()[:1] == b"<":
        return DOC_TYPE_HTML
    return DOC_TYPE_GARBAGE


class ExtractConfig:
    """Pipeline knobs (the reference's env-config analogue, utils.py:19-23)."""

    __slots__ = ("max_bytes", "batch_size", "heavy_bytes", "dom")

    def __init__(
        self,
        max_bytes: int = 50 * 1024 * 1024,  # reference MAX_FILE_SIZE, utils.py:23
        batch_size: int = 128,
        heavy_bytes: int | None = 4 * 1024 * 1024,
        dom: DomConfig | None = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.batch_size = batch_size
        # payloads >= heavy_bytes are isolated into single-row batches by
        # isolate_heavy (skew: a 50-MB blob must never share a 128-row
        # batch with 127 peers). None disables the stage.
        self.heavy_bytes = heavy_bytes
        self.dom = dom or DomConfig()


def isolate_heavy(batch: pa.Table, heavy_bytes: int):
    """Explicit skew stage: yield light rows together, each heavy payload
    (>= heavy_bytes) as its own single-row batch.

    The north rule names skew handling for "giant HTML blobs" explicitly;
    this is the in-stream half: downstream per-batch working sets are
    bounded by ~(batch_size x typical_row + one heavy row) instead of
    (batch_size x max_row). The per-task half is the 32-MiB
    target_max_block_size set in configure_context — Ray's dynamic block
    splitting then bounds p99 task payloads; a single row past the target
    is exactly one task. Generator output keeps the stage streaming (no
    buffering of the whole block)."""
    import pyarrow.compute as pc

    # null payloads count as size 0 (LIGHT): a null mask entry would be
    # dropped by BOTH filters below (Arrow null_selection_behavior='drop'),
    # silently losing the row whose 'payload missing' sentinel
    # _extract_one must emit
    sizes = pc.fill_null(pc.binary_length(batch["html"]), 0)
    heavy = pc.greater_equal(sizes, pa.scalar(heavy_bytes))
    n_heavy = pc.sum(pc.cast(heavy, pa.int64())).as_py() or 0
    if not n_heavy:
        yield batch
        return
    light = batch.filter(pc.invert(heavy))
    if light.num_rows:
        yield light
    hv = batch.filter(heavy)
    for i in range(hv.num_rows):
        yield hv.slice(i, 1)


def extract_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    """Stateless task stage: sniff + extract every row into
    ``EXTRACTED_SCHEMA``. ``partition_id`` (the input shard, tagged by the
    pipeline) is carried through; a batch without it gets nulls."""
    urls = batch["url"].to_pylist()
    payloads = batch["html"].to_pylist()
    names = batch.column_names
    n = len(urls)

    rows = {k: [] for k in EXTRACTED_SCHEMA.names}
    rows["url"] = urls
    rows["warc_ts"] = batch["warc_ts"].to_pylist()
    rows["lang"] = batch["lang"].to_pylist() if "lang" in names else [""] * n
    rows["partition_id"] = (
        batch["partition_id"].to_pylist() if "partition_id" in names else [None] * n
    )

    for url, payload in zip(urls, payloads):
        doc_type, text, spans, ocr, fail, err = _extract_one(url, payload, cfg)
        rows["doc_type"].append(doc_type)
        rows["text"].append(text)
        rows["spans"].append(spans)
        rows["is_ocr_fallback"].append(ocr)
        rows["is_parse_failure"].append(fail)
        rows["error"].append(err)
        rows["n_chars"].append(len(text))
        rows["text_crc"].append(zlib.crc32(text.encode("utf-8")))
    return pa.Table.from_pydict(rows, schema=EXTRACTED_SCHEMA)


GZIP_MAGIC = b"\x1f\x8b"


def _extract_one(url: str, payload, cfg: ExtractConfig):
    """(doc_type, text, spans, is_ocr, is_fail, error)"""
    if payload is None or len(payload) > cfg.max_bytes:
        return (
            DOC_TYPE_GARBAGE,
            sentinel_error(url),
            [],
            False,
            True,
            "payload missing or exceeds max_bytes",
        )
    if payload[:2] == GZIP_MAGIC:
        # transparent member decompression (Common-Crawl WARC payloads are
        # routinely gzipped); the inner bytes re-enter the normal sniff, so
        # doc_type reports the CONTENT type, not the transport encoding
        import gzip as _gzip

        try:
            payload = _gzip.decompress(payload)
        except (OSError, EOFError, zlib.error) as e:
            return (
                DOC_TYPE_GARBAGE,
                sentinel_error(url),
                [],
                False,
                True,
                f"gzip decompress failed: {str(e)[:150]}",
            )
        if len(payload) > cfg.max_bytes:
            return (
                DOC_TYPE_GARBAGE,
                sentinel_error(url),
                [],
                False,
                True,
                "decompressed payload exceeds max_bytes",
            )
    doc_type = detect_type(payload)
    if doc_type == DOC_TYPE_PDFL:
        try:
            text, spans = layout_text(decode_pdfl(payload))
            return doc_type, text, spans, True, False, ""
        except (ValueError, UnicodeDecodeError, struct_error) as e:
            return DOC_TYPE_GARBAGE, sentinel_error(url), [], False, True, str(e)[:200]
    try:
        if doc_type == DOC_TYPE_XLSL:
            # table payload: reference Excel join rules (utils.py:164-206)
            text, spans = parse_xlsl(payload)
            if not text:
                return doc_type, sentinel_error(url), [], False, False, "empty extraction"
            return doc_type, text, spans, False, False, ""
        if doc_type == DOC_TYPE_DOCL:
            # structured paragraph payload: reference DOCX join rules
            # (utils.py:145-156)
            text, spans = parse_docl(payload)
            if not text:
                return doc_type, sentinel_error(url), [], False, False, "empty extraction"
            return doc_type, text, spans, False, False, ""
        if doc_type == DOC_TYPE_HTML:
            # utf-8-sig: identical to utf-8 but strips a leading BOM
            text, spans = extract_main_content(
                payload.decode("utf-8-sig"), cfg.dom
            )
            if not text:
                # reference's empty-extraction sentinel, workers.py:70-75
                return doc_type, sentinel_error(url), [], False, False, "empty extraction"
            return doc_type, text, spans, False, False, ""
        raise ValueError("unrecognized payload")
    except (ValueError, UnicodeDecodeError, struct_error) as e:
        return DOC_TYPE_GARBAGE, sentinel_error(url), [], False, True, str(e)[:200]

