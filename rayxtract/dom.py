"""From-scratch DOM boilerplate stripper in one streaming pass.

Readability-style main-content extraction: prune non-content tags and
penalty-classed subtrees, score candidate paragraphs by length +
punctuation, aggregate scores into their nearest container element, pick
the best container, and emit its paragraphs joined with ``"\n"`` with a
final ``.strip()``.

No tree is built. :func:`_events` runs the tokenizer regex and the stack
rules (pop-to-match end tags, implicit ``</p>``, void and self-closed tags,
rawtext) over the input once; :func:`extract_main_content` keeps one small
frame per open element (dead or live, nearest container, inside a link)
and the text of the one candidate paragraph open at a time, and scores
each paragraph as it closes. Link and anchor extraction
(``graph._anchors_of``) reads the same events, so the library has one
HTML path. ``tests/dom_oracle.py`` keeps the tree-building extractor this
replaced, and the html.parser tree, as the test oracles.

The join/strip conventions (``"\n"`` between text units, strip the final
result, whitespace collapsed inside a unit) deliberately mirror the
reference's extraction conventions for PDF pages / DOCX paragraphs / Excel
rows (reference: utils.py:110,122,148,185-201) — those conventions are the
byte-identical contract this engine carries over to the HTML payload.

Pure per-row deterministic function: output depends only on the input bytes,
never on block boundaries, actor identity or parallelism (SURVEY.md §7.4).
"""

from __future__ import annotations

import re

__all__ = ["extract_main_content", "normalize_ws", "DomConfig"]


def normalize_ws(s: str) -> str:
    """Collapse whitespace runs to single spaces and strip."""
    # Every str.isspace() character except ' ' is non-printable (checked
    # over all code points in tests/test_dom.py), so a printable string
    # with no double, leading or trailing space is already normalized —
    # one C scan instead of a split + join.
    if s.isprintable() and "  " not in s and s[:1] != " " and s[-1:] != " ":
        return s
    # " ".join(split()) == re.sub(r"\s+", " ", s).strip() for all \s
    # chars, via C string machinery (~2.5x faster than the regex)
    return " ".join(s.split())


# Tags whose subtrees are never content.
PRUNE_TAGS = frozenset(
    {
        "script",
        "style",
        "noscript",
        "nav",
        "header",
        "footer",
        "aside",
        "form",
        "iframe",
        "svg",
        "head",
        "button",
        "select",
        "option",
        "template",
        "object",
        "embed",
    }
)

# class/id tokens marking unlikely-content subtrees (readability's
# "unlikely candidates" idea, re-derived from scratch). Short ambiguous
# tokens (ad, ads, nav, menu) require token boundaries so 'heading',
# 'shadow', 'gradient', 'navigate-content' etc. don't prune real content;
# long distinctive stems match as substrings.
PENALTY_RE = re.compile(
    r"(?:^|[\s_-])(?:ad|ads|nav(?:bar|igation)?|menu)(?=$|[\s_-])"
    r"|advert|promo|banner|side-?bar|comment|share|social"
    r"|sponsor|related|widget|breadcrumb|cookie|popup|subscribe",
    re.IGNORECASE,
)

# Elements that can be elected as the main-content container.
CONTAINER_TAGS = frozenset({"article", "main", "section", "div", "body", "td"})

# Text units that become output blocks.
PARAGRAPH_TAGS = frozenset({"p", "blockquote", "pre"})

# Void elements — no closing tag.
VOID_TAGS = frozenset(
    {
        "area",
        "base",
        "br",
        "col",
        "embed",
        "hr",
        "img",
        "input",
        "link",
        "meta",
        "param",
        "source",
        "track",
        "wbr",
    }
)

# Tags that implicitly close an open <p> (HTML5 paragraph auto-close subset —
# enough to survive the ~3% malformed pages with unclosed tags).
_P_CLOSERS = frozenset(
    {"p", "div", "section", "article", "aside", "footer", "header", "nav",
     "ul", "ol", "li", "table", "blockquote", "pre", "h1", "h2", "h3", "h4",
     "h5", "h6", "main", "form"}
)


# --------------------------------------------------------------------------
# Tokenizer: one regex alternation scanned left to right. At each '<' the
# alternatives are tried in the order html.parser would decide: a tag, a
# comment, a declaration or processing instruction, a bogus end tag, and
# otherwise a stray '<' that stays text. html.parser spends most time in
# its generic state machine; the page shapes here need only tags, text,
# comments, doctype and rawtext (script/style) handling.
#
# The tag's attr scan is GREEDY-linear (unquoted runs / quoted strings, no
# lazy backtracking): 2-3.5x faster than the lazy form on attr-heavy tags,
# equal semantics (a trailing '/' lands in the attr group and is split
# off in code as the self-close flag; unterminated quotes fail the match
# and fall to the stray-'<' path). Name charset mirrors html.parser's
# TOLERANT mode: a letter followed by anything but whitespace / '/' / '>'
# — so soup like `<p<td>` parses as one unknown element named "p<td"
# (exactly what the stdlib reference does), not as a paragraph with
# garbage attrs (quote characters in names included). `</ div>`-style
# space-after-slash end tags are accepted like the stdlib too. Known
# residual divergence from the stdlib (documented, adversarial-only):
# quoted '>' inside end-tag junk. Unterminated comments, declarations and
# processing instructions run to the end of input.
_TOKEN_RE = re.compile(
    r"([^<]*)"  # 1: text up to the next '<'
    r"(?:<(?:(/)\s*)?([a-zA-Z][^\t\n\r\f />]*)"  # 2: end-tag slash, 3: name
    r"([^>\"']*(?:\"[^\"]*\"[^>\"']*|'[^']*'[^>\"']*)*)>"  # 4: raw attrs
    r"|<!--(?:.*?-->|.*)"
    r"|<[!?][^>]*>?"
    r"|</[^>]*>"
    r"|(<)"  # 5: stray '<'
    r"|\Z)",
    re.DOTALL,
)
_RAWTEXT = {"script", "style", "textarea"}
# case-insensitive close-tag scanners for rawtext content
_RAWTEXT_CLOSE = {t: re.compile(f"</{t}", re.IGNORECASE) for t in _RAWTEXT}

from html import unescape as _html_unescape  # noqa: E402

# Event kinds of _events.
_TEXT = 0  # character data only
_OPEN = 1  # an element opens: the caller appends its frame
_VOID = 2  # a void or self-closed element: it holds nothing


def _events(html: str, frames: list):
    """Tokenize ``html`` and apply the stack rules in one pass, yielding
    ``(kind, name, attrs, text)``.

    ``frames`` is the caller's per-element state, one item per open
    element with the root's at index 0: the caller appends one item on
    each ``_OPEN`` event, and this generator truncates the list whenever
    elements close, so ``frames[-1]`` is always the innermost open
    element's. An element at index ``i`` has closed once
    ``len(frames) <= i``.

    ``text`` is the character data seen since the previous event and
    belongs to ``frames[-1]`` as it stands when the event arrives, before
    the event's element is appended; text is always delivered before the
    elements it sits in close. Entities are unescaped per text run;
    script/style/textarea content is verbatim. ``attrs`` is the raw
    attribute text when it holds an ``=`` (only class/id/href values are
    ever read), else ``""``.

    Stack rules: an end tag closes up to the nearest open element of its
    name, and a stray one is dropped; an opening ``_P_CLOSERS`` tag first
    closes the ``<p>`` open since the nearest container; void tags and
    self-closed tags (``<p/>``) open nothing; the end of input closes
    everything but the root.
    """
    tags = ["#root"]
    # per frame: stack index of the <p> open since the nearest container,
    # 0 when none — the implicit </p> is one lookup, not an upward walk
    popen = [0]
    text = ""
    pos = 0
    n = len(html)
    while True:
        for m in _TOKEN_RE.finditer(html, pos):
            data, closing, name, rawattrs, stray = m.groups()
            if data:
                text += _html_unescape(data) if "&" in data else data
            if name is None:
                if stray:
                    text += "<"
                continue
            name = name.lower()
            if closing:
                i = len(tags) - 1
                while i and tags[i] != name:
                    i -= 1
                if i:
                    if text:
                        yield _TEXT, None, "", text
                        text = ""
                    del tags[i:], popen[i:], frames[i:]
                continue
            # trailing '/' is a SELF-CLOSE only when it cannot be the tail
            # of an unquoted attribute value — i.e. preceded by whitespace,
            # a quote, another '/', or nothing (probed stdlib semantics:
            # <br/> <p a='v'/> <p a=v /> <p //> self-close; <p a=/> and
            # <img src=x/> do NOT — the slash belongs to the value)
            selfclose = rawattrs.endswith("/") and (
                len(rawattrs) == 1 or rawattrs[-2] in " \t\n\r\f\"'/"
            )
            if selfclose:
                rawattrs = rawattrs[:-1]
            attrs = rawattrs if "=" in rawattrs else ""
            if selfclose or name in VOID_TAGS:
                yield _VOID, name, attrs, text
                text = ""
                continue
            if name in _P_CLOSERS:
                i = popen[-1]
                if i:
                    if text:
                        yield _TEXT, None, "", text
                        text = ""
                    del tags[i:], popen[i:], frames[i:]
            popen.append(
                len(tags) if name == "p"
                else 0 if name in CONTAINER_TAGS else popen[-1]
            )
            tags.append(name)
            yield _OPEN, name, attrs, text
            text = ""
            if name in _RAWTEXT:
                pos = m.end()
                cm = _RAWTEXT_CLOSE[name].search(html, pos)
                close = cm.start() if cm else n
                if close > pos:
                    yield _TEXT, None, "", html[pos:close]
                i = len(tags) - 1
                del tags[i:], popen[i:], frames[i:]
                # skip past the closing tag, then rescan from there
                gt = html.find(">", close)
                pos = (gt + 1) if gt != -1 else n
                break
        else:
            if text:
                yield _TEXT, None, "", text
            del frames[1:]
            return


class DomConfig:
    """Extraction thresholds (the engine's ExtractConfig surface,
    reference's env-knob analogue, reference: utils.py:19-23)."""

    __slots__ = ("min_par_chars", "max_link_density", "score_cap")

    def __init__(
        self,
        min_par_chars: int = 25,
        max_link_density: float = 0.33,
        score_cap: int = 500,
    ) -> None:
        self.min_par_chars = min_par_chars
        self.max_link_density = max_link_density
        self.score_cap = score_cap


_DEFAULT_CFG = DomConfig()


# (?<![\w-]) anchors the attribute NAME start: plain \b would also match the
# tail of data-id= / item-id= / data-class=, penalizing subtrees the
# stdlib-parser path (exact key match on 'class'/'id') keeps.
_CLASS_ID_RE = re.compile(
    r"(?<![\w-])(?:class|id)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)


def _is_penalized(attrs: str) -> bool:
    """Whether raw attribute text carries a penalty class/id token."""
    if "class" not in attrs and "id" not in attrs:
        return False
    for m in _CLASS_ID_RE.finditer(attrs):
        v = m.group(1) or m.group(2) or m.group(3)
        if v and PENALTY_RE.search(v):
            return True
    return False


# Extractor frame: (dead, container id, in link). A frame is dead inside a
# pruned tag or a penalty-classed element; "in link" counts only <a>
# elements inside the open candidate paragraph.
_DEAD = (True, 0, False)


def _score(pieces: list, link_pieces: list, cid: int, cfg: DomConfig,
           candidates: list) -> None:
    """Score one closed candidate paragraph into ``candidates``."""
    text = normalize_ws("".join(pieces))
    if text and link_pieces:
        link_density = len(normalize_ws("".join(link_pieces))) / len(text)
    else:
        link_density = 0.0
    if len(text) >= cfg.min_par_chars and link_density <= cfg.max_link_density:
        score = min(len(text), cfg.score_cap) / 100.0 + text.count(",")
        candidates.append((cid, text, score))


def extract_main_content(
    html: str, cfg: DomConfig = _DEFAULT_CFG
) -> tuple[str, list[dict]]:
    """Extract main-content text + spans from an HTML string.

    Returns ``(text, spans)`` where ``spans`` is a list of
    ``{"start": int, "end": int, "kind": "p"}`` char ranges into ``text``.
    Empty text means no content survived the heuristics (caller emits the
    reference's empty-extraction sentinel, reference: workers.py:70-75).

    One pass over :func:`_events`. A candidate paragraph is a
    ``PARAGRAPH_TAGS`` element outside every pruned or penalized subtree
    and outside another candidate. Its live text is kept while it is open;
    it is scored once it has closed (end tag, implicit close or end of
    input) and credited to the nearest container open around it.
    """
    candidates: list[tuple[int, str, float]] = []  # (container id, text, score)
    frames = [(False, 0, False)]  # the root: live, container 0
    n_containers = 0
    cand = 0  # stack index of the open candidate paragraph, 0 = none
    cand_cid = 0
    pieces: list = []
    link_pieces: list = []
    for kind, name, attrs, text in _events(html, frames):
        if cand:
            if len(frames) <= cand:
                _score(pieces, link_pieces, cand_cid, cfg, candidates)
                cand = 0
            elif text:
                top = frames[-1]
                if not top[0]:
                    pieces.append(text)
                    if top[2]:
                        link_pieces.append(text)
        if kind == _OPEN:
            top = frames[-1]
            if top[0]:
                frames.append(top)
            elif name in PRUNE_TAGS or (attrs and _is_penalized(attrs)):
                frames.append(_DEAD)
            elif name in PARAGRAPH_TAGS and not cand:
                cand = len(frames)
                cand_cid = top[1]
                pieces = []
                link_pieces = []
                frames.append((False, cand_cid, False))
            elif name in CONTAINER_TAGS:
                n_containers += 1
                frames.append((False, n_containers, top[2]))
            elif name == "a" and not top[2]:
                frames.append((False, top[1], True))
            else:
                frames.append(top)
        elif (
            kind == _VOID
            and name in PARAGRAPH_TAGS
            and not cand
            and not frames[-1][0]
            and not (attrs and _is_penalized(attrs))
        ):
            # a live self-closed paragraph (<p/>) is an empty candidate
            _score([], [], frames[-1][1], cfg, candidates)
    if cand:
        _score(pieces, link_pieces, cand_cid, cfg, candidates)
    if not candidates:
        return "", []

    # Elect best container: max total score, tie -> earliest in document
    # order (totals keep first-candidate order, and only a strictly higher
    # total displaces the leader).
    totals: dict[int, float] = {}
    for cid, _, score in candidates:
        totals[cid] = totals.get(cid, 0.0) + score
    best, best_total = 0, float("-inf")
    for cid, total in totals.items():
        if total > best_total:
            best, best_total = cid, total

    blocks = [text for cid, text, _ in candidates if cid == best]
    out_text = "\n".join(blocks).strip()
    spans: list[dict] = []
    pos = 0
    for b in blocks:
        spans.append({"start": pos, "end": pos + len(b), "kind": "p"})
        pos += len(b) + 1
    return out_text, spans
