from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf.annotations import (
    AnnotatedDocument,
    CoverageGap,
    MarkerError,
    NameTag,
    PlainText,
    ProblemeseSpan,
    RemovedContext,
    coverage_report,
    escape_markers,
    parse,
    render,
    serialize,
    unescape,
)
from lingobf.rulesets import MapMismatchError, PermutationMap, Ruleset

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


# A trailing backslash would fuse with the next segment's marker into an
# escape on reparse; that corner is documented as unsupported.
_plain = (
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
    .map(escape_markers)
    .filter(lambda t: not t.endswith("\\"))
)


@st.composite
def documents(draw):
    kinds = st.sampled_from([PlainText, NameTag, RemovedContext, ProblemeseSpan])
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        segments.append(draw(kinds)(draw(_plain)))
    return AnnotatedDocument(segments=tuple(segments))


@given(documents())
def test_serialize_parse_round_trip(doc):
    parsed = parse(serialize(doc))
    # Adjacent plain segments merge on reparse; compare via rendered kinds.
    assert serialize(parsed) == serialize(doc)


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


# ---------------------------------------------------------------------------
# Rendering


AE_RULESET = Ruleset(sets=(("a", "e"),), fixed=("k", "r"))
AE_SWAP = PermutationMap(pairs={"a": "e", "e": "a"}, ruleset_id=AE_RULESET.ident)


def test_render_identity_strips_markers():
    doc = parse("@@@aker@@@ to steal")
    identity = PermutationMap.identity(AE_RULESET)
    assert render(doc, identity, AE_RULESET) == "aker to steal"


def test_render_removed_context_is_single_space():
    doc = parse("$$$Language X$$$ &&&spoken in Nicaragua&&& contains loanwords")
    assert render(doc) == "Language X   contains loanwords"


def test_render_applies_map_to_problemese_only():
    doc = parse("@@@aker@@@ area")
    assert render(doc, AE_SWAP, AE_RULESET) == "ekar area"


def test_render_identity_equals_render_absent(corpus):
    for problem in corpus.problems:
        identity = PermutationMap.identity(problem.ruleset)
        docs = [problem.preamble, problem.context]
        for q in problem.questions:
            docs.append(q.body)
            docs.extend(s.text for s in q.subquestions)
        for doc in docs:
            assert render(doc, identity, problem.ruleset) == render(doc)


def test_render_rejects_foreign_map_without_problemese():
    with pytest.raises(MapMismatchError):
        render(parse("no Problemese here"), AE_SWAP, Ruleset(sets=(("s", "h"),)))


def test_render_requires_ruleset_with_map():
    with pytest.raises(ValueError):
        render(parse("@@@a@@@"), AE_SWAP, None)


def test_unescape_and_escape_are_inverse():
    assert unescape(r"\@@@") == "@@@"
    assert escape_markers("@@@") == r"\@@@"
    assert unescape(escape_markers("x@@@y$$$z")) == "x@@@y$$$z"


# ---------------------------------------------------------------------------
# Coverage


AKER_RULESET = Ruleset(sets=(("a", "k", "e", "r"),))


def test_coverage_fully_covered():
    assert coverage_report(parse("@@@aker@@@"), AKER_RULESET) == []


def test_coverage_passthrough_punctuation():
    assert coverage_report(parse("@@@aker!@@@"), AKER_RULESET) == []


def test_coverage_gap_reported_with_offset():
    gaps = coverage_report(parse("@@@axer@@@"), AKER_RULESET)
    assert gaps == [CoverageGap(span_index=0, offset=1, text="x")]


def test_coverage_merges_adjacent_gaps():
    gaps = coverage_report(parse("@@@axxer@@@"), AKER_RULESET)
    assert gaps == [CoverageGap(span_index=0, offset=1, text="xx")]


def test_coverage_ignores_plain_text():
    assert coverage_report(parse("xyzzy @@@aker@@@"), AKER_RULESET) == []
