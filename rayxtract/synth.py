"""Deterministic synthetic Common-Crawl-style pages + golden extractions.

The reference ships two real fixture files and only structural HTTP
assertions (reference: comprehensive_api_test.py:1-555); this engine instead
synthesizes its corpus with a fixed seed so the expected extraction output is
known byte-exactly at generation time (FIXTURES.md F1-F3). No external data.

Every page is generated from ``(seed, idx, crawl)`` alone — independent of
batching/parallelism — so generation can run as a Ray Data job and still be
reproducible row-for-row.

Page mix (per mille of indices, stable hash of idx):
  * 20 PDFL positioned-text binaries  -> layout-parse ("OCR fallback") route
  * 15 XLSL table binaries            -> reference Excel join rules
  * 20 DOCL paragraph-run binaries    -> reference DOCX join rules
  * 15 gzip-wrapped HTML pages        -> transparent WARC transport decode
  * 20 near-dup perturbed copies      -> planted dedup targets
  * 10 garbage bytes                  -> parse-failure sentinel rows
  * 10 boilerplate-only HTML          -> empty-extraction sentinel rows
  * 30 malformed HTML (unclosed tags) -> still extractable
  * rest: normal HTML (nav/header/sidebar/ads/comments shell + one content
    container; ~1% pages get a huge body: the heavy tail that exercises
    skew handling)
Indices with ``idx % 20 == 7`` are recrawled (two rows, distinct warc_ts);
golden is the latest crawl (dedup-keep-latest contract, SURVEY.md §2.6).
"""

from __future__ import annotations

import html as _html
import os
import random

import pyarrow as pa

from .layout import encode_pdfl, layout_text
from .schema import GOLDEN_SCHEMA, PAGES_SCHEMA

__all__ = [
    "build_page",
    "build_golden",
    "pages_batch",
    "golden_batch",
    "ensure_corpus",
    "sf_dir_to_n_pages",
    "sentinel_error",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 42
_BASE_TS_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z in microseconds

EN_WORDS = (
    "the data stream engine batch table query sort merge join filter scan "
    "window partition shuffle block actor worker memory disk network page "
    "content article reader system design value result record column row "
    "index vector model text token language process cluster node task"
).split()
PT_WORDS = (
    "o dado fluxo motor lote tabela consulta ordenar juntar filtrar ler "
    "janela partição embaralhar bloco ator trabalho memória disco rede página "
    "conteúdo artigo leitor sistema projeto valor resultado registro coluna "
    "linha índice vetor modelo texto símbolo língua processo grupo nó tarefa"
).split()
_LINK_WORDS = "home about contact login archive tags sitemap press careers".split()


def sentinel_error(url: str) -> str:
    """The reference's empty/failed-extraction sentinel (workers.py:70-75)."""
    return f"[ERRO: Não foi possível extrair texto do arquivo {url}]"


def _stable_hash(idx: int, seed: int) -> int:
    # splitmix64-style mix — stable across processes (never Python hash()).
    z = (idx * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


GEN_VERSION = 5  # bump when page content rules change (cache key component)


def _kind(idx: int, seed: int) -> str:
    h = _stable_hash(idx, seed) % 1000
    if h < 20:
        return "pdfl"
    if h < 30:
        return "garbage"
    if h < 40:
        return "boilerplate_only"
    if h < 70:
        return "malformed"
    if h < 85:
        return "xlsl"
    if h < 105:
        return "neardup"  # perturbed copy of a neighbor page (dedup target)
    if h < 125:
        return "docl"  # structured paragraph-run payload (M7 analogue)
    if h < 140:
        return "gzip"  # gzip-wrapped html (WARC transport encoding)
    return "normal"


def neardup_source(idx: int, seed: int = DEFAULT_SEED) -> int | None:
    """For a 'neardup' page: the index it plagiarizes, or None when the
    neighbor isn't a plain-content page (then it renders as normal)."""
    if _kind(idx, seed) != "neardup":
        return None
    src = idx - 1 - (_stable_hash(idx ^ 0xD1CE, seed) % 5)
    if src < 0 or _kind(src, seed) not in ("normal", "malformed"):
        return None
    return src


def _rng(seed: int, idx: int, crawl: int) -> random.Random:
    return random.Random(_stable_hash(idx, seed) * 4 + crawl)


def _url(idx: int) -> str:
    return f"https://site{idx % 997:04d}.example/p/{idx:08d}"


def _warc_ts(idx: int, crawl: int) -> int:
    return _BASE_TS_US + idx * 1_000_000 + crawl * 500_000


def _words_for(idx: int) -> list[str]:
    return EN_WORDS if idx % 5 < 3 else PT_WORDS


def _lang_for(idx: int) -> str:
    return "en" if idx % 5 < 3 else "pt"


def _make_paragraph(rng: random.Random, words: list[str]) -> tuple[str, str]:
    """Return (plain_text, html) of one content paragraph.

    plain_text is exactly what the DOM stripper must recover (whitespace
    already normalized); html escapes entities and may wrap a word in an
    inline <a> (anchor text counts as content; link density stays low).
    """
    n = rng.randint(8, 60)
    toks = []
    for i in range(n):
        w = rng.choice(words)
        if rng.random() < 0.04:
            w = w + " & " + rng.choice(words)  # entity round-trip
        if rng.random() < 0.10 and i < n - 1:
            w += ","
        toks.append(w)
    plain = " ".join(toks)
    html_toks = [_html.escape(t) for t in toks]
    if n >= 12 and rng.random() < 0.3:
        j = rng.randrange(n)
        html_toks[j] = f'<a href="/l/{rng.randrange(9999)}">{html_toks[j]}</a>'
    return plain, " ".join(html_toks)


def _link_farm(rng: random.Random, n: int) -> tuple[str, str]:
    items = [
        f'<li><a href="/{w}/{rng.randrange(999)}">{w}</a></li>'
        for w in (rng.choice(_LINK_WORDS) for _ in range(n))
    ]
    html = "<ul>" + "".join(items) + "</ul>"
    visible = " ".join(i.split(">")[2].split("<")[0] for i in items)
    return visible, html


def _build_html_page(
    rng: random.Random,
    idx: int,
    malformed: bool,
    boilerplate_only: bool,
    paras: list[tuple[str, str]] | None = None,
) -> tuple[bytes, str, str, list[dict]]:
    """Return (html_bytes, wet_text, golden_text, golden_spans).

    ``paras`` overrides content generation (used by near-dup pages)."""
    words = _words_for(idx)
    title = " ".join(rng.choice(words) for _ in range(4))
    nav_vis, nav_html = _link_farm(rng, rng.randint(4, 10))
    side_vis, side_html = _link_farm(rng, rng.randint(5, 12))
    foot_vis, foot_html = _link_farm(rng, rng.randint(3, 6))
    ad_text = " ".join(rng.choice(words) for _ in range(rng.randint(2, 5)))

    # comment section: realistic-length paragraphs excluded by penalty class
    comment_plains, comment_htmls = [], []
    for _ in range(rng.randint(0, 3)):
        p, h = _make_paragraph(rng, words)
        comment_plains.append(p)
        comment_htmls.append(f"<p>{h}</p>")

    if paras is None:
        paras = []
        if not boilerplate_only:
            heavy = rng.random() < 0.01
            n_paras = rng.randint(1000, 4000) if heavy else rng.randint(3, 10)
            paras = [_make_paragraph(rng, words) for _ in range(n_paras)]

    parts = [
        "<!DOCTYPE html><html><head>",
        f"<title>{_html.escape(title)}</title>",
        "<style>body{margin:0} .x{color:red}</style>",
        f"<script>var t={rng.randrange(10**6)};</script>",
        "</head><body>",
        f"<nav>{nav_html}</nav>",
        f"<header><h1>{_html.escape(title)}</h1></header>",
        f'<div class="sidebar">{side_html}</div>',
        f'<div class="ad-banner"><p>{_html.escape(ad_text)}</p></div>',
        '<div class="content-body">',
    ]
    for k, (_, h) in enumerate(paras):
        if malformed and k % 2 == 0:
            parts.append(f"<p>{h}")  # unclosed — implicit-close path
        else:
            parts.append(f"<p>{h}</p>")
    if not (malformed and paras):
        parts.append("</div>")  # malformed pages may leave the container open
    if comment_htmls:
        parts.append(f'<div class="comments">{"".join(comment_htmls)}</div>')
    parts.append(f"<footer>{foot_html}</footer>")
    parts.append("</body></html>")
    html_doc = "".join(parts)

    golden_blocks = [p for p, _ in paras if len(p) >= 25]
    golden_text = "\n".join(golden_blocks).strip()
    spans = []
    pos = 0
    for b in golden_blocks:
        spans.append({"start": pos, "end": pos + len(b), "kind": "p"})
        pos += len(b) + 1

    wet_pieces = [title, nav_vis, title, side_vis, ad_text]
    wet_pieces += [p for p, _ in paras]
    wet_pieces += comment_plains
    wet_pieces.append(foot_vis)
    wet_text = " ".join(" ".join(wet_pieces).split())
    return html_doc.encode("utf-8"), wet_text, golden_text, spans


def _build_xlsl_page(
    rng: random.Random, idx: int
) -> tuple[bytes, str, str, list[dict]]:
    from .table import encode_xlsl, table_text_spans

    words = _words_for(idx)
    sheets = []
    for s in range(rng.randint(1, 3)):
        name = f"{rng.choice(words)}{s}"
        rows = []
        for _ in range(rng.randint(2, 25)):
            if rng.random() < 0.08:
                rows.append([None] * rng.randint(1, 4))  # blank row -> skipped
                continue
            row = []
            for _ in range(rng.randint(2, 8)):
                r = rng.random()
                if r < 0.15:
                    row.append(None)
                elif r < 0.5:
                    row.append(str(rng.randint(0, 99999)))
                else:
                    row.append(rng.choice(words))
            rows.append(row)
        sheets.append((name, rows))
    data = encode_xlsl(sheets)
    text, spans = table_text_spans(sheets)
    return data, " ".join(text.split()), text, spans


def _source_paragraphs(src: int, seed: int) -> list[str]:
    """The plain content paragraphs of page ``src`` (latest crawl)."""
    rng = _rng(seed, src, n_crawls(src))
    _, _, golden, _ = _build_html_page(
        rng, src, _kind(src, seed) == "malformed", False
    )
    return golden.split("\n") if golden else []


def _build_neardup_page(
    rng: random.Random, idx: int, src: int, seed: int
) -> tuple[bytes, str, str, list[dict]]:
    """~8% word-substituted copy of src's content in fresh boilerplate —
    the planted target for MinHash/SimHash near-dup detection."""
    words = _words_for(idx)
    paras: list[tuple[str, str]] = []
    for p in _source_paragraphs(src, seed):
        toks = p.split(" ")
        toks = [
            rng.choice(words) if rng.random() < 0.08 else t for t in toks
        ]
        plain = " ".join(toks)
        paras.append((plain, " ".join(_html.escape(t) for t in toks)))
    return _build_html_page(rng, idx, False, False, paras=paras)


def _build_docl_page(
    rng: random.Random, idx: int
) -> tuple[bytes, str, str, list[dict]]:
    from .docl import docl_text_spans, encode_docl

    words = _words_for(idx)
    paras: list[list[str]] = []
    n_paras = rng.randint(3, 15)
    for k in range(n_paras):
        if 0 < k < n_paras - 1 and rng.random() < 0.15:
            paras.append([])  # empty paragraph -> interior empty line
            continue
        runs = []
        for r in range(rng.randint(1, 4)):
            seg = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
            runs.append((" " + seg) if r else seg)
        paras.append(runs)
    data = encode_docl(paras)
    text, spans = docl_text_spans(paras)
    return data, " ".join(text.split()), text, spans


def _build_pdfl_page(
    rng: random.Random, idx: int
) -> tuple[bytes, str, str, list[dict]]:
    words = _words_for(idx)
    pages = []
    for _ in range(rng.randint(1, 5)):
        n_runs = rng.randint(5, 40)
        runs = [
            (
                rng.randrange(0, 60000),
                rng.randrange(0, 60000),
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))),
            )
            for _ in range(n_runs)
        ]
        pages.append(runs)
    data = encode_pdfl(pages)
    text, spans = layout_text(pages)
    return data, text, text, spans


def build_page(idx: int, crawl: int, seed: int = DEFAULT_SEED) -> dict:
    """One pages-table row. Deterministic in (seed, idx, crawl)."""
    kind = _kind(idx, seed)
    rng = _rng(seed, idx, crawl)
    url = _url(idx)
    if kind == "pdfl":
        payload, wet, _, _ = _build_pdfl_page(rng, idx)
    elif kind == "xlsl":
        payload, wet, _, _ = _build_xlsl_page(rng, idx)
    elif kind == "docl":
        payload, wet, _, _ = _build_docl_page(rng, idx)
    elif kind == "gzip":
        import gzip as _gzip

        payload, wet, _, _ = _build_html_page(rng, idx, False, False)
        payload = _gzip.compress(payload, compresslevel=6, mtime=0)
    elif kind == "garbage":
        payload = b"\xff\xfe\x00" + bytes(rng.randrange(256) for _ in range(40))
        wet = ""
    elif kind == "neardup" and (src := neardup_source(idx, seed)) is not None:
        payload, wet, _, _ = _build_neardup_page(rng, idx, src, seed)
    else:
        payload, wet, _, _ = _build_html_page(
            rng, idx, kind == "malformed", kind == "boilerplate_only"
        )
    return {
        "url": url,
        "warc_ts": _warc_ts(idx, crawl),
        "html": payload,
        "text": wet,
        "lang": _lang_for(idx),
    }


def n_crawls(idx: int) -> int:
    return 2 if idx % 20 == 7 else 1


def build_golden(idx: int, seed: int = DEFAULT_SEED) -> dict:
    """Golden extraction for idx's url — from its LATEST crawl."""
    kind = _kind(idx, seed)
    crawl = n_crawls(idx)
    rng = _rng(seed, idx, crawl)
    url = _url(idx)
    if kind == "pdfl":
        _, _, golden, spans = _build_pdfl_page(rng, idx)
        ocr, fail, doc_type = True, False, "pdfl"
    elif kind == "xlsl":
        _, _, golden, spans = _build_xlsl_page(rng, idx)
        ocr, fail, doc_type = False, False, "xlsl"
    elif kind == "docl":
        _, _, golden, spans = _build_docl_page(rng, idx)
        ocr, fail, doc_type = False, False, "docl"
    elif kind == "gzip":
        # golden is the INNER html page's extraction; doc_type reports the
        # content type (transport gzip is transparent)
        _, _, golden, spans = _build_html_page(rng, idx, False, False)
        ocr, fail, doc_type = False, False, "html"
        if not golden:
            golden, spans = sentinel_error(url), []
    elif kind == "garbage":
        golden, spans, ocr, fail = sentinel_error(url), [], False, True
        doc_type = "garbage"
    else:
        if kind == "neardup" and (src := neardup_source(idx, seed)) is not None:
            _, _, golden, spans = _build_neardup_page(rng, idx, src, seed)
        else:
            _, _, golden, spans = _build_html_page(
                rng, idx, kind == "malformed", kind == "boilerplate_only"
            )
        ocr, fail, doc_type = False, False, "html"
        if not golden:
            golden, spans = sentinel_error(url), []
    return {
        "url": url,
        "golden_text": golden,
        "golden_spans": spans,
        "doc_type": doc_type,
        "expect_ocr_fallback": ocr,
        "expect_parse_failure": fail,
    }


# ---------------------------------------------------------------------------
# Ray-Data-friendly batch builders (map_batches over ray.data.range(n)).


def pages_batch(batch: pa.Table, seed: int = DEFAULT_SEED) -> pa.Table:
    rows = []
    for idx in batch["id"].to_pylist():
        for crawl in range(1, n_crawls(idx) + 1):
            rows.append(build_page(idx, crawl, seed))
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def golden_batch(batch: pa.Table, seed: int = DEFAULT_SEED) -> pa.Table:
    rows = [build_golden(idx, seed) for idx in batch["id"].to_pylist()]
    return pa.Table.from_pylist(rows, schema=GOLDEN_SCHEMA)


# ---------------------------------------------------------------------------
# Corpus cache on disk (generation is itself a Ray Data job).

_CACHE_ROOT = os.environ.get("RAYXTRACT_CACHE", "/tmp/rayxtract_corpus")


def sf_dir_to_n_pages(sf_dir: str) -> int:
    """Map the driver's sf-dir convention to a page count.

    sf0.001 -> 1_000, sf0.01 -> 10_000, sf0.1 -> 100_000 (TESTDATA.md tiers).
    """
    base = os.path.basename(os.path.normpath(sf_dir))
    sf = float(base.replace("sf", "")) if base.startswith("sf") else 0.001
    return max(100, int(round(sf * 1_000_000)))


def _newest_mtime(path: str) -> float:
    """Newest mtime anywhere under ``path`` (the top-level dir's own mtime
    does NOT update while files are written into subdirectories — judging
    liveness by it would sweep an in-flight generation mid-write)."""
    newest = os.path.getmtime(path)
    for dirpath, dirnames, filenames in os.walk(path):
        for name in dirnames + filenames:
            try:
                newest = max(
                    newest, os.path.getmtime(os.path.join(dirpath, name))
                )
            except OSError:
                pass
    return newest


def _sweep_stale_scratch(max_age_sec: float = 3600.0) -> None:
    """Remove orphaned per-pid scratch dirs (``.tmp.<pid>`` / ``.claim.<pid>``
    from crashed generators, plus artifact tmp dirs one level down in
    ``{root}.{op}/``) whose NEWEST content is older than ``max_age_sec`` —
    a live competitor still writing files anywhere in the tree is never
    touched (ADVICE r2, synth.py:524)."""
    import glob
    import shutil
    import time

    cutoff = time.time() - max_age_sec
    for path in glob.glob(os.path.join(_CACHE_ROOT, "*")) + glob.glob(
        os.path.join(_CACHE_ROOT, "*.*", "*.tmp.*")
    ):
        name = os.path.basename(path)
        if ".tmp." not in name and ".claim." not in name:
            continue
        try:
            if _newest_mtime(path) < cutoff:
                shutil.rmtree(path, ignore_errors=True)
        except OSError:
            pass  # raced with its owner — leave it


def ensure_corpus(n_pages: int, seed: int = DEFAULT_SEED) -> tuple[str, str]:
    """Generate (once, cached) the pages + golden parquet dirs for n_pages.

    Runs as a Ray Data job (range -> map_batches -> write_parquet); output is
    deterministic row-wise regardless of parallelism. Returns
    (pages_dir, golden_dir).
    """
    import ray.data

    _sweep_stale_scratch()
    root = os.path.join(_CACHE_ROOT, f"n{n_pages}_s{seed}_v{GEN_VERSION}")
    pages_dir = os.path.join(root, "pages")
    golden_dir = os.path.join(root, "golden")
    marker = os.path.join(root, "_COMPLETE")
    if os.path.exists(marker):
        return pages_dir, golden_dir

    import shutil

    # concurrency-safe publish: per-process tmp dir (two processes — e.g.
    # pytest and bench — may race on the same tier), marker written INSIDE
    # tmp before the atomic rename, loser cleans up after itself
    tmp_root = f"{root}.tmp.{os.getpid()}"
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(os.path.join(tmp_root, "pages"), exist_ok=True)
    os.makedirs(os.path.join(tmp_root, "golden"), exist_ok=True)
    n_blocks = max(8, n_pages // 1000)
    (
        ray.data.range(n_pages, override_num_blocks=n_blocks)
        .map_batches(lambda b: pages_batch(b, seed), batch_format="pyarrow")
        .write_parquet(os.path.join(tmp_root, "pages"))
    )
    (
        ray.data.range(n_pages, override_num_blocks=n_blocks)
        .map_batches(lambda b: golden_batch(b, seed), batch_format="pyarrow")
        .write_parquet(os.path.join(tmp_root, "golden"))
    )
    with open(os.path.join(tmp_root, "_COMPLETE"), "w") as f:
        f.write("ok\n")
    # Publish loop. A stale (marker-less) root is never rmtree'd in place:
    # it is first CLAIMED via atomic rename, so a competitor's
    # just-published complete corpus can't be deleted out from under a
    # reader — a claimed dir that turns out complete is renamed back.
    for _ in range(3):
        if os.path.exists(marker):  # someone published a complete corpus
            shutil.rmtree(tmp_root, ignore_errors=True)
            return pages_dir, golden_dir
        try:
            os.rename(tmp_root, root)  # atomic; fails if root exists
            return pages_dir, golden_dir
        except OSError:
            pass
        claimed = f"{root}.claim.{os.getpid()}"
        try:
            os.rename(root, claimed)  # atomic claim of whatever root is
        except OSError:
            continue  # lost the claim race; re-check the marker
        if os.path.exists(os.path.join(claimed, "_COMPLETE")):
            try:
                os.rename(claimed, root)  # complete — put it back
            except OSError:  # a third process republished meanwhile
                shutil.rmtree(claimed, ignore_errors=True)
            shutil.rmtree(tmp_root, ignore_errors=True)
            return pages_dir, golden_dir
        shutil.rmtree(claimed, ignore_errors=True)  # genuinely stale partial
    if os.path.exists(marker):
        shutil.rmtree(tmp_root, ignore_errors=True)
        return pages_dir, golden_dir
    try:
        os.rename(tmp_root, root)  # pathological contention exhausted retries
    except OSError:
        # never leak the per-pid tmp dir: clean up, then trust a competitor's
        # published corpus if one appeared — otherwise surface the contention
        shutil.rmtree(tmp_root, ignore_errors=True)
        if not os.path.exists(marker):
            raise RuntimeError(
                f"corpus publish contention unresolved for {root}"
            ) from None
    return pages_dir, golden_dir
