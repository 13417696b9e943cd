"""Unit tests for the DOCL paragraph-run payload (reference DOCX rules,
utils.py:130-162): encode/decode roundtrip, byte-exact text rule, spans,
truncation sentinels, dispatch."""

import pytest

from rayxtract.docl import (
    decode_docl,
    docl_text,
    docl_text_spans,
    encode_docl,
    parse_docl,
)


def test_roundtrip():
    paras = [["Hello ", "world"], [], ["second paragraph"], ["a", "", "b"]]
    assert decode_docl(encode_docl(paras)) == paras


def test_text_rule_matches_reference_semantics():
    # reference: text += paragraph.text + "\n" for EVERY paragraph, then
    # .strip() — interior empty paragraphs become empty lines
    paras = [["First ", "para"], [], ["Third para"]]
    assert docl_text(paras) == "First para\n\nThird para"

    # paragraph.text concatenates runs with no separator
    assert docl_text([["a", "b", "c"]]) == "abc"

    # all-empty document strips to ""
    assert docl_text([[], [""]]) == ""


def test_spans_cover_nonblank_paragraphs():
    paras = [["alpha beta"], [], ["gamma delta epsilon"]]
    text, spans = docl_text_spans(paras)
    assert text == "alpha beta\n\ngamma delta epsilon"
    assert [text[s["start"] : s["end"]] for s in spans] == [
        "alpha beta",
        "gamma delta epsilon",
    ]
    assert all(s["kind"] == "par" for s in spans)


def test_unicode_runs():
    paras = [["conteúdo ", "ação"], ["língua símbolo"]]
    text, _ = docl_text_spans(paras)
    assert text == "conteúdo ação\nlíngua símbolo"


def test_truncation_raises():
    data = encode_docl([["hello world paragraph"]])
    with pytest.raises(ValueError):
        decode_docl(data[:-3])
    with pytest.raises(ValueError):
        decode_docl(b"NOPE" + data[4:])
    with pytest.raises(ValueError):
        decode_docl(data + b"x")  # trailing bytes


def test_detect_and_extract_route():
    from rayxtract.ops import ExtractConfig, _extract_one, detect_type
    from rayxtract.schema import DOC_TYPE_DOCL

    payload = encode_docl([["routed through the docl extractor correctly"]])
    assert detect_type(payload) == DOC_TYPE_DOCL
    doc_type, text, spans, ocr, fail, err = _extract_one(
        "https://x.example/d", payload, ExtractConfig()
    )
    assert doc_type == DOC_TYPE_DOCL
    assert text == "routed through the docl extractor correctly"
    assert not ocr and not fail and err == ""

    # empty docl document -> the reference's empty-extraction sentinel
    doc_type, text, _, _, fail, err = _extract_one(
        "https://x.example/e", encode_docl([[]]), ExtractConfig()
    )
    assert text.startswith("[ERRO:") and not fail and err == "empty extraction"


def test_parse_docl_spans_with_leading_empty():
    # leading empty paragraphs shift the strip offset; spans stay in bounds
    paras = [[], ["real content paragraph"], []]
    text, spans = parse_docl(encode_docl(paras))
    assert text == "real content paragraph"
    assert spans == [{"start": 0, "end": 22, "kind": "par"}]
