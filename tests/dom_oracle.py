"""Tree-building reference for the one-pass DOM extractor and link walks.

``rayxtract.dom`` scores paragraphs while it tokenizes and never builds a
tree. This module keeps the two-pass design it replaced, as the oracle the
tests compare it against:

  * :class:`_TreeBuilder` — a tag tree from stdlib ``html.parser`` (the
    semantic reference for the tokenizer regexes);
  * :func:`build_tree_fast` — the same tree from the tokenizer regexes
    the library's one alternation is made of (the reference for the stack rules);
  * :func:`extract_main_content` — walk the tree, score each candidate
    paragraph, elect the best container;
  * :func:`anchors_of_tree` — every ``<a href>`` and its anchor text, in
    document order.

Both trees share the implicit-close rules: void tags have no children, an
opening ``_P_CLOSERS`` tag closes the open ``<p>`` up to the nearest
container, and an end tag pops to the nearest open tag of its name.
"""

from __future__ import annotations

import re
from html import unescape as _html_unescape
from html.parser import HTMLParser

from rayxtract.dom import (
    _CLASS_ID_RE,
    _DEFAULT_CFG,
    _P_CLOSERS,
    _RAWTEXT,
    _RAWTEXT_CLOSE,
    CONTAINER_TAGS,
    PARAGRAPH_TAGS,
    PENALTY_RE,
    PRUNE_TAGS,
    VOID_TAGS,
    DomConfig,
    normalize_ws,
)
from rayxtract.graph import _HREF_RE

# The tokenizer regexes of the tree-building extractor, kept verbatim: the
# library scans one alternation of them instead (rayxtract.dom._TOKEN_RE).
_TAG_RE = re.compile(
    r"<(?:(/)\s*)?([a-zA-Z][^\t\n\r\f />]*)"
    r"([^>\"']*(?:\"[^\"]*\"[^>\"']*|'[^']*'[^>\"']*)*)>",
    re.DOTALL,
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_DECL_RE = re.compile(r"<![^>]*>", re.DOTALL)


class _Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs, parent) -> None:
        self.tag = tag
        self.attrs = attrs  # raw attr text (fast builder) | (k, v) pairs
        self.children: list = []  # str (text) | _Node
        self.parent = parent


class _TreeBuilder(HTMLParser):
    """Tolerant tag-tree builder (auto-closes mismatched tags)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", (), None)
        self.cur = self.root

    def handle_starttag(self, tag, attrs):
        if tag in VOID_TAGS:
            self.cur.children.append(_Node(tag, tuple(attrs), self.cur))
            return
        # implicit </p>
        if tag in _P_CLOSERS:
            node = self.cur
            while node is not self.root:
                if node.tag == "p":
                    self.cur = node.parent
                    break
                if node.tag in CONTAINER_TAGS or node.tag == "#root":
                    break
                node = node.parent
        child = _Node(tag, tuple(attrs), self.cur)
        self.cur.children.append(child)
        self.cur = child

    def handle_startendtag(self, tag, attrs):
        self.cur.children.append(_Node(tag, tuple(attrs), self.cur))

    def handle_endtag(self, tag):
        # pop to the nearest matching open tag; ignore stray closers
        node = self.cur
        while node is not self.root:
            if node.tag == tag:
                self.cur = node.parent
                return
            node = node.parent

    def handle_data(self, data):
        if data:
            self.cur.children.append(data)


def build_tree_stdlib(html: str) -> _Node:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def build_tree_fast(html: str) -> _Node:
    """The tag tree from the library's tokenizer regexes, with the same
    implicit-close rules as :class:`_TreeBuilder`."""
    root = _Node("#root", (), None)
    cur = root
    pos = 0
    n = len(html)
    while pos < n:
        lt = html.find("<", pos)
        if lt == -1:
            text = html[pos:]
            if text:
                cur.children.append(
                    _html_unescape(text) if "&" in text else text
                )
            break
        if lt > pos:
            text = html[pos:lt]
            cur.children.append(_html_unescape(text) if "&" in text else text)
        m = _TAG_RE.match(html, lt)
        if m is None:
            if html.startswith("<!--", lt):
                c = _COMMENT_RE.match(html, lt)
                pos = c.end() if c else n
                continue
            if html.startswith("<!", lt):
                d = _DECL_RE.match(html, lt)
                pos = d.end() if d else n
                continue
            if html.startswith("<?", lt):
                gt = html.find(">", lt)
                pos = (gt + 1) if gt != -1 else n
                continue
            if html.startswith("</", lt):
                gt = html.find(">", lt)
                if gt != -1:
                    pos = gt + 1
                    continue
            cur.children.append("<")
            pos = lt + 1
            continue
        closing, name, rawattrs = m.groups()
        if rawattrs.endswith("/") and (
            len(rawattrs) == 1 or rawattrs[-2] in " \t\n\r\f\"'/"
        ):
            selfclose = True
            rawattrs = rawattrs[:-1]
        else:
            selfclose = False
        name = name.lower()
        pos = m.end()
        if closing:
            node = cur
            while node is not root:
                if node.tag == name:
                    cur = node.parent
                    break
                node = node.parent
            continue
        attrs = rawattrs if rawattrs and "=" in rawattrs else ()
        if name in VOID_TAGS or selfclose:
            cur.children.append(_Node(name, attrs, cur))
            continue
        if name in _P_CLOSERS:
            node = cur
            while node is not root:
                if node.tag == "p":
                    cur = node.parent
                    break
                if node.tag in CONTAINER_TAGS or node.tag == "#root":
                    break
                node = node.parent
        child = _Node(name, attrs, cur)
        cur.children.append(child)
        cur = child
        if name in _RAWTEXT:
            cm = _RAWTEXT_CLOSE[name].search(html, pos)
            close = cm.start() if cm else n
            if close > pos:
                child.children.append(html[pos:close])
            gt = html.find(">", close)
            pos = (gt + 1) if gt != -1 else n
            cur = child.parent
    return root


def _is_penalized(node: _Node) -> bool:
    attrs = node.attrs
    if isinstance(attrs, str):
        if "class" not in attrs and "id" not in attrs:
            return False
        for m in _CLASS_ID_RE.finditer(attrs):
            v = m.group(1) or m.group(2) or m.group(3)
            if v and PENALTY_RE.search(v):
                return True
        return False
    for k, v in attrs:
        if v and k in ("class", "id") and PENALTY_RE.search(v):
            return True
    return False


def _collect_text(node: _Node, out: list, link_out: list, in_link: bool) -> None:
    for ch in node.children:
        if isinstance(ch, str):
            out.append(ch)
            if in_link:
                link_out.append(ch)
        else:
            if ch.tag in PRUNE_TAGS or _is_penalized(ch):
                continue
            _collect_text(ch, out, link_out, in_link or ch.tag == "a")


def _paragraph_text(node: _Node) -> tuple[str, float]:
    """(normalized text, link_density) of a candidate block."""
    pieces: list = []
    link_pieces: list = []
    _collect_text(node, pieces, link_pieces, False)
    text = normalize_ws("".join(pieces))
    if not text:
        return "", 0.0
    link_chars = len(normalize_ws("".join(link_pieces)))
    return text, link_chars / len(text)


def _nearest_container(node: _Node) -> _Node:
    p = node.parent
    while p is not None and p.tag not in CONTAINER_TAGS and p.tag != "#root":
        p = p.parent
    return p if p is not None else node


def extract_main_content(
    html: str, cfg: DomConfig = _DEFAULT_CFG, stdlib: bool = False
) -> tuple[str, list[dict]]:
    """Two-pass reference for ``rayxtract.dom.extract_main_content``;
    ``stdlib`` builds the tree with html.parser instead of the library's
    tokenizer regexes."""
    root = build_tree_stdlib(html) if stdlib else build_tree_fast(html)

    candidates: list[tuple[_Node, str, float]] = []  # (container, text, score)
    order: dict[int, int] = {}

    def walk(node: _Node) -> None:
        for ch in node.children:
            if isinstance(ch, str):
                continue
            if ch.tag in PRUNE_TAGS or _is_penalized(ch):
                continue
            if ch.tag in PARAGRAPH_TAGS:
                text, link_density = _paragraph_text(ch)
                if (
                    len(text) >= cfg.min_par_chars
                    and link_density <= cfg.max_link_density
                ):
                    score = min(len(text), cfg.score_cap) / 100.0 + text.count(",")
                    container = _nearest_container(ch)
                    cid = id(container)
                    if cid not in order:
                        order[cid] = len(order)
                    candidates.append((container, text, score))
                # paragraphs never nest content paragraphs
                continue
            walk(ch)

    walk(root)
    if not candidates:
        return "", []

    totals: dict[int, float] = {}
    for container, _, score in candidates:
        totals[id(container)] = totals.get(id(container), 0.0) + score
    best = max(totals, key=lambda cid: (totals[cid], -order[cid]))

    blocks = [text for container, text, _ in candidates if id(container) == best]
    out_text = "\n".join(blocks).strip()
    spans: list[dict] = []
    pos = 0
    for b in blocks:
        spans.append({"start": pos, "end": pos + len(b), "kind": "p"})
        pos += len(b) + 1
    return out_text, spans


def _href_of(node: _Node):
    attrs = node.attrs
    if isinstance(attrs, str):
        m = _HREF_RE.search(attrs)
        if m:
            return m.group(1) or m.group(2) or m.group(3) or ""
        return None
    for k, v in attrs:
        if k == "href" and v is not None:
            return v
    return None


def _preorder(root: _Node):
    """Element nodes in document order (iterative; children pushed in
    reverse so the first child pops first)."""
    stack = list(reversed([c for c in root.children if not isinstance(c, str)]))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([c for c in node.children if not isinstance(c, str)]))


def _text_of(node: _Node) -> str:
    """Every text descendant, in document order."""
    texts: list[str] = []
    stack: list = list(reversed(node.children))
    while stack:
        ch = stack.pop()
        if isinstance(ch, str):
            texts.append(ch)
        else:
            stack.extend(reversed(ch.children))
    return "".join(texts)


def anchors_of_tree(root: _Node) -> list[tuple[str, str]]:
    """All (href, anchor_text) pairs in document order."""
    out = []
    for node in _preorder(root):
        if node.tag == "a":
            href = _href_of(node)
            if href is not None:
                out.append((href, _text_of(node)))
    return out
