from __future__ import annotations

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lingobf.annotations import (
    MARKERS,
    AnnotatedDocument,
    MarkerError,
    NameTag,
    PlainText,
    ProblemeseSpan,
    RemovedContext,
    parse,
    render,
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
# Round trips: parse is lossless, and an escape survives it.

_MARKER_OF = {NameTag: "$$$", RemovedContext: "&&&", ProblemeseSpan: "@@@"}
_BARE_OR_ESCAPED = re.compile(r"\\?(" + "|".join(map(re.escape, MARKERS)) + ")")


def source(doc: AnnotatedDocument) -> str:
    """The text ``doc`` was parsed from: each segment's text in its kind's marker."""
    wrapped = ((_MARKER_OF.get(type(seg), ""), seg.text) for seg in doc.segments)
    return "".join(marker + text + marker for marker, text in wrapped)


def escaped(text: str) -> str:
    """``text`` with each bare marker triple escaped; an escaped one is kept as it is."""
    return _BARE_OR_ESCAPED.sub(lambda m: "\\" + m[1], text)


@pytest.mark.parametrize("text", EXTRACTS)
def test_extract_round_trips(text):
    assert source(parse(text)) == text


def test_round_trip_with_escapes():
    text = r"a \@@@ b @@@span@@@ c"
    assert source(parse(text)) == text


_plain = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40).map(escaped)


@given(_plain)
def test_plain_text_round_trips(text):
    assert source(parse(text)) == text


@given(st.text(max_size=60))
def test_parse_never_hangs_or_misroundtrips(text):
    try:
        doc = parse(text)
    except MarkerError:
        return
    assert source(doc) == text


# Text drawn from the marker characters and a backslash, so that triples,
# escapes and their overlaps are common rather than vanishingly rare.
_marker_heavy = st.text(alphabet="$&@\\a ", max_size=40)


@given(_marker_heavy)
def test_marker_heavy_text_round_trips(text):
    try:
        doc = parse(text)
    except MarkerError:
        return
    assert source(doc) == text


@given(_marker_heavy)
def test_escaped_text_parses_as_plain(text):
    assert all(type(seg) is PlainText for seg in parse(escaped(text)).segments)


@given(_marker_heavy)
def test_unescape_inverts_escape_markers(text):
    # A backslash directly before a triple is already an escape, which
    # escaped keeps and unescape drops.
    assume(not any("\\" + marker in text for marker in MARKERS))
    assert unescape(escaped(text)) == text


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
    assert escaped("@@@") == r"\@@@"
    assert unescape(escaped("x@@@y$$$z")) == "x@@@y$$$z"
    assert unescape(r"\\@@@ \@@ $$$") == r"\@@@ \@@ $$$"


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
