from __future__ import annotations

import re

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lingobf.annotations import (
    MARKERS,
    AnnotatedDocument,
    MarkerError,
    NameTag,
    PlainText,
    ProblemeseSpan,
    RemovedContext,
    escape_markers,
    parse,
    render,
    serialize,
    unescape,
)
from lingobf.obfuscate import CompiledTexts, CoverageError, CoverageGap
from lingobf.rulesets import PermutationMap, Ruleset

# Annotated extracts in the documented style: name tags, removed context,
# a Problemese span, and a stripped grading-guideline line.
EXTRACTS = [
    "This problem is about the way in which $$$Language X$$$ speakers build "
    "sentences out of a verb V.",
    "$$$Language X$$$ &&& &&& contains quite a few loanwords from English &&& &&&.",
    "@@@dinaldalusanda@@@ they were cleaning it",
    "tinaktakawda ida",
]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_name_tag():
    doc = parse("$$$Language X$$$ speakers build sentences")
    assert doc.segments == (
        NameTag("Language X"),
        PlainText(" speakers build sentences"),
    )


def test_parse_problemese_span():
    doc = parse("@@@dinaldalusanda@@@ they were cleaning it")
    assert doc.segments == (
        ProblemeseSpan("dinaldalusanda"),
        PlainText(" they were cleaning it"),
    )


def test_parse_unbalanced_marker():
    with pytest.raises(MarkerError) as exc:
        parse("@@@abc")
    assert exc.value.byte_offset == 0
    assert "unbalanced" in str(exc.value)


def test_parse_unbalanced_marker_offset_later():
    with pytest.raises(MarkerError) as exc:
        parse("ok $$$x$$$ then @@@broken")
    assert exc.value.char_offset == 16


def test_parse_nested_marker_rejected():
    with pytest.raises(MarkerError) as exc:
        parse("@@@abc$$$x$$$@@@")
    assert "nested" in str(exc.value)
    assert exc.value.char_offset == 6


def test_byte_offset_counts_utf8_bytes():
    with pytest.raises(MarkerError) as exc:
        parse("é@@@x")  # é is 2 bytes in UTF-8
    assert exc.value.char_offset == 1
    assert exc.value.byte_offset == 2


def test_parse_empty_span():
    assert parse("@@@@@@").segments == (ProblemeseSpan(""),)


def test_escaped_markers_are_plain_text():
    doc = parse(r"costs \$$$ a lot")
    assert doc.segments == (PlainText(r"costs \$$$ a lot"),)
    assert render(doc) == "costs $$$ a lot"


def test_segment_constructor_rejects_bare_markers():
    with pytest.raises(ValueError):
        PlainText("oops @@@ inside")
    PlainText(r"fine \@@@ escaped")


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("text", EXTRACTS)
def test_extract_round_trips(text):
    assert serialize(parse(text)) == text


def test_round_trip_with_escapes():
    text = r"a \@@@ b @@@span@@@ c"
    assert serialize(parse(text)) == text


_plain = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40).map(
    escape_markers
)


@st.composite
def documents(draw):
    kinds = st.sampled_from([PlainText, NameTag, RemovedContext, ProblemeseSpan])
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        segments.append(draw(kinds)(draw(_plain)))
    return AnnotatedDocument(segments=tuple(segments))


# Documents parse never returns: segment joints that form a triple or an
# escape.  The first reparses as a different document, the others not at all.
_NOT_PARSED = [
    AnnotatedDocument((PlainText("&&"), RemovedContext("x"))),
    AnnotatedDocument((PlainText("&"),) * 3),
    AnnotatedDocument((*(PlainText("&"),) * 3, NameTag(""))),
    AnnotatedDocument((PlainText("a\\"), ProblemeseSpan("x"))),
]


@pytest.mark.parametrize("doc", _NOT_PARSED)
def test_serialize_refuses_a_document_parse_never_returns(doc):
    with pytest.raises(ValueError, match="document (does not reparse|reparses) from"):
        serialize(doc)


@example(_NOT_PARSED[0])
@example(_NOT_PARSED[1])
@example(_NOT_PARSED[2])
@example(_NOT_PARSED[3])
@given(documents())
def test_serialize_parse_round_trip(doc):
    try:
        text = serialize(doc)
    except ValueError:
        return  # refused: parse would not return doc from any text
    assert parse(text) == doc


@given(_plain)
def test_plain_text_round_trips(text):
    assert serialize(parse(text)) == text


@given(st.text(max_size=60))
def test_parse_never_hangs_or_misroundtrips(text):
    try:
        doc = parse(text)
    except MarkerError:
        return
    assert serialize(doc) == text


# Text drawn from the marker characters and a backslash, so that triples,
# escapes and their overlaps are common rather than vanishingly rare.
_marker_heavy = st.text(alphabet="$&@\\a ", max_size=40)


@given(_marker_heavy)
def test_marker_heavy_text_round_trips(text):
    try:
        doc = parse(text)
    except MarkerError:
        return
    assert serialize(doc) == text


@given(_marker_heavy)
def test_escaped_text_parses_as_plain(text):
    assert all(type(seg) is PlainText for seg in parse(escape_markers(text)).segments)


@given(_marker_heavy)
def test_unescape_inverts_escape_markers(text):
    # A backslash directly before a triple is already an escape, which
    # escape_markers keeps and unescape drops.
    assume(not any("\\" + marker in text for marker in MARKERS))
    assert unescape(escape_markers(text)) == text


@pytest.mark.parametrize(
    "text, segments",
    [
        (r"\\$$$", (PlainText(r"\\$$$"),)),  # the second backslash escapes
        (r"$$\$$$", (PlainText(r"$$\$$$"),)),
        (r"@@@a\@@@b@@@", (ProblemeseSpan(r"a\@@@b"),)),
    ],
)
def test_escape_precedence(text, segments):
    assert parse(text).segments == segments


@pytest.mark.parametrize(
    "text, error, offset",
    [
        ("$$$$", "unbalanced marker $$$", 0),  # the fourth "$" is span text
        ("$$$x&&&", "nested marker &&& inside $$$ span", 4),
    ],
)
def test_marker_precedence_errors(text, error, offset):
    with pytest.raises(MarkerError, match=re.escape(f"{error} at offset {offset}")):
        parse(text)


def test_escaped_escape_renders_one_backslash():
    assert render(parse(r"\\$$$")) == r"\$$$"


# ---------------------------------------------------------------------------
# Rendering


# The compiled render (CompiledTexts) agrees with the grammar's plain render.

AE_RULESET = Ruleset(sets=(("a", "e"),), fixed=("k", "r"))
AE_SWAP = PermutationMap(pairs={"a": "e", "e": "a"}, ruleset_id=AE_RULESET.ident)


def test_render_identity_strips_markers():
    doc = parse("@@@aker@@@ to steal")
    identity = PermutationMap.identity(AE_RULESET)
    assert render(doc) == "aker to steal"
    compiled = CompiledTexts({"d": doc}, AE_RULESET)
    assert compiled.render(identity) == {"d": "aker to steal"}


def test_render_removed_context_is_single_space():
    doc = parse("$$$Language X$$$ &&&spoken in Nicaragua&&& contains loanwords")
    assert render(doc) == "Language X   contains loanwords"


def test_render_applies_map_to_problemese_only():
    doc = parse("@@@aker@@@ area")
    compiled = CompiledTexts({"d": doc}, AE_RULESET)
    assert compiled.render(AE_SWAP) == {"d": "ekar area"}


def test_render_identity_equals_render_absent(corpus):
    for problem in corpus.problems:
        identity = PermutationMap.identity(problem.ruleset)
        docs = {"preamble": problem.preamble, "context": problem.context}
        for j, q in enumerate(problem.questions):
            docs[f"q{j}.body"] = q.body
            for s in q.subquestions:
                docs[f"q{j}.sub.{s.key}"] = s.text
                docs[f"answer:q{j}.{s.key}"] = s.answer
        assert CompiledTexts(docs, problem.ruleset).render(identity) == {
            name: render(doc) for name, doc in docs.items()
        }


def test_unescape_and_escape_are_inverse():
    assert unescape(r"\@@@") == "@@@"
    assert escape_markers("@@@") == r"\@@@"
    assert unescape(escape_markers("x@@@y$$$z")) == "x@@@y$$$z"


# ---------------------------------------------------------------------------
# Coverage, as CompiledTexts decides it


AKER_RULESET = Ruleset(sets=(("a", "k", "e", "r"),))


def _gaps(text: str) -> list[CoverageGap]:
    """The coverage gaps CompiledTexts finds in one annotated document."""
    try:
        CompiledTexts({"doc": parse(text)}, AKER_RULESET)
    except CoverageError as exc:
        return exc.gaps["doc"]
    return []


def test_coverage_fully_covered():
    assert _gaps("@@@aker@@@") == []


def test_coverage_passthrough_punctuation():
    assert _gaps("@@@aker!@@@") == []


def test_coverage_gap_reported_with_offset():
    assert _gaps("@@@axer@@@") == [CoverageGap(span_index=0, offset=1, text="x")]


def test_coverage_merges_adjacent_gaps():
    assert _gaps("@@@axxer@@@") == [CoverageGap(span_index=0, offset=1, text="xx")]


def test_coverage_ignores_plain_text():
    assert _gaps("xyzzy @@@aker@@@") == []
