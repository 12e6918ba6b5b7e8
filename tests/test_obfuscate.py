from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf import annotations
from lingobf.obfuscate import (
    CompiledTexts,
    CoverageError,
    apply,
    is_passthrough_char,
    segment,
)
from lingobf.rulesets import (
    MapMismatchError,
    PermutationMap,
    Ruleset,
    Table,
    invert,
    sample_permutation,
)

from .conftest import reference_render

SH_RULESET = Ruleset(sets=(("s", "h", "a", "sh"),))
NAME_RULESET = Ruleset(fixed=("Kazune",), sets=(("a", "z", "e", "l"),))


def texts(units):
    return [u.text for u in units]


# ---------------------------------------------------------------------------
# Segmentation


def test_greedy_prefers_longest_match():
    assert texts(segment("shash", SH_RULESET)) == ["sh", "a", "sh"]


def test_segment_empty():
    assert segment("", SH_RULESET) == []


def test_fixed_name_is_one_unit():
    units = segment("Kazune azzel", NAME_RULESET)
    assert texts(units) == ["Kazune", " ", "a", "z", "z", "e", "l"]
    assert units[0].kind == "fixed"
    assert units[1].kind == "passthrough"


def test_fixed_wins_equal_length_tie():
    rs = Ruleset(fixed=("sh",), sets=(("s", "h", "a"),))
    units = segment("sh", rs)
    assert len(units) == 1 and units[0].kind == "fixed"


def test_inventory_grapheme_beats_passthrough_class():
    # An apostrophe can be a real grapheme (guttural consonant notation);
    # inventory membership outranks the punctuation passthrough class.
    rs = Ruleset(sets=(("'", "q", "c", "x"),))
    kinds = [u.kind for u in segment("qa'!", rs)]
    assert kinds == ["grapheme", "passthrough", "grapheme", "passthrough"]


def test_digits_whitespace_punctuation_pass_through():
    units = segment("12,  !", SH_RULESET)
    assert all(u.kind == "passthrough" for u in units)
    assert all(is_passthrough_char(u.text) for u in units)


@given(st.text(max_size=80))
def test_segmentation_total_on_arbitrary_text(text):
    assert "".join(texts(segment(text, SH_RULESET))) == text


@given(st.text(alphabet="shazelKǃ💡 .'3", max_size=60))
def test_segmentation_total_on_inventory_heavy_text(text):
    assert "".join(texts(segment(text, NAME_RULESET))) == text


# ---------------------------------------------------------------------------
# Applying maps


AE_RULESET = Ruleset(sets=(("a", "e"),), fixed=("k", "r"))
AE_SWAP = PermutationMap(pairs={"a": "e", "e": "a"}, ruleset_id=AE_RULESET.ident)


def test_apply_identity():
    identity = PermutationMap.identity(AE_RULESET)
    assert apply(identity, "aker", AE_RULESET) == "aker"


def test_apply_swaps_vowels_keeps_fixed():
    assert apply(AE_SWAP, "aker", AE_RULESET) == "ekar"


def test_apply_rejects_foreign_map():
    with pytest.raises(MapMismatchError):
        apply(AE_SWAP, "aker", SH_RULESET)


# Round-trip properties need a recombination-safe ruleset: no grapheme may
# be spellable by images of adjacent units, or the greedy re-scan of the
# obfuscated text segments differently.  Real rulesets are designed that
# way (a digraph whose parts are live gets pinned in the fixed set); the
# {s, h, a, sh} inventory above deliberately is not, so it only appears in
# totality tests.
SAFE_DIGRAPHS = Ruleset(sets=(("sh", "ch"), ("a", "e")), fixed=("m",))


def test_round_trip_through_inverse():
    text = "mesha chame mash"
    for seed in range(10):
        pm = sample_permutation(SAFE_DIGRAPHS, seed)
        assert apply(invert(pm), apply(pm, text, SAFE_DIGRAPHS), SAFE_DIGRAPHS) == text


def test_unit_count_preserved_under_map():
    pm = sample_permutation(SAFE_DIGRAPHS, 3)
    text = "mesha cham"
    assert len(segment(apply(pm, text, SAFE_DIGRAPHS), SAFE_DIGRAPHS)) == len(
        segment(text, SAFE_DIGRAPHS)
    )


def test_fixed_strings_survive_every_map():
    for seed in range(25):
        pm = sample_permutation(NAME_RULESET, seed)
        assert apply(pm, "Kazune", NAME_RULESET) == "Kazune"


# ---------------------------------------------------------------------------
# Case handling


CASE_RULESET = Ruleset(sets=(("sh", "th"), ("a", "e")))
CASE_SWAP = PermutationMap(
    pairs={"sh": "th", "th": "sh", "a": "e", "e": "a"}, ruleset_id=CASE_RULESET.ident
)


def test_initial_capital_recased():
    # Sh(title) -> Th, a -> e, p passthrough, e -> a
    assert apply(CASE_SWAP, "Shape", CASE_RULESET) == "Thepa"


def test_all_caps_recased():
    assert apply(CASE_SWAP, "SHAPE", CASE_RULESET) == "THEPA"


def test_recasing_round_trips():
    inverse = invert(CASE_SWAP)
    for text in ("Shape", "SHAPE", "shape", "A", "Sha"):
        assert apply(inverse, apply(CASE_SWAP, text, CASE_RULESET), CASE_RULESET) == text


def test_fold_case_off_needs_exact_match():
    # "Sh" no longer matches; only the lowercase letters map.
    assert apply(CASE_SWAP, "Shape", CASE_RULESET, fold_case=False) == "Shepa"
    assert [u.kind for u in segment("Sh", CASE_RULESET, fold_case=False)] == [
        "passthrough",
        "passthrough",
    ]


# ---------------------------------------------------------------------------
# Vowel-harmony equivariance: the suffix rule survives obfuscation


HARMONY_COLUMNS = (("e", "i"), ("o", "u"), ("ö", "ü"), ("a", "ı"))
HARMONY_RULESET = Ruleset(
    fixed=("g", "l", "s", "z"), tables=(Table(columns=HARMONY_COLUMNS),)
)


def _suffix(word: str, columns) -> str:
    """-sVz suffix: V is the second-row vowel of the last vowel's column."""
    last_vowel = next(c for c in reversed(word) if any(c in col for col in columns))
    column = next(col for col in columns if last_vowel in col)
    return f"s{column[1]}z"


def test_suffix_rule_on_original():
    assert _suffix("göl", HARMONY_COLUMNS) == "süz"


def test_suffix_rule_is_equivariant_under_pair_swap():
    pm = next(
        sample_permutation(HARMONY_RULESET, seed)
        for seed in range(100)
        if sample_permutation(HARMONY_RULESET, seed).pairs["ö"] == "o"
    )
    assert apply(pm, "göl", HARMONY_RULESET) == "gol"
    image_columns = tuple(tuple(pm.pairs[g] for g in col) for col in HARMONY_COLUMNS)
    # Deriving the suffix from the obfuscated rule table agrees with
    # obfuscating the original gold suffix.
    assert _suffix("gol", image_columns) == apply(pm, "süz", HARMONY_RULESET) == "suz"


# ---------------------------------------------------------------------------
# Whole-variant obfuscation


def test_variant_renders_documents_and_answers_with_one_map():
    texts = {
        "context": annotations.parse("@@@aker@@@ to steal"),
        "answer:q0.1": annotations.parse("@@@aker@@@"),
        "answer:q0.2": annotations.parse("42"),
    }
    assert CompiledTexts(texts, AE_RULESET).render(AE_SWAP) == {
        "context": "ekar to steal",
        "answer:q0.1": "ekar",
        "answer:q0.2": "42",
    }


def test_variant_identity_strips_markers_only():
    docs = {"context": annotations.parse("@@@kahmanama@@@ your iguana")}
    rs = Ruleset(sets=(("k", "h", "m", "n"), ("a", "u")))
    answers = CompiledTexts({"a": annotations.parse("@@@kahmanama@@@")}, rs).render(
        PermutationMap.identity(rs)
    )
    assert answers == {"a": "kahmanama"}


def test_variant_refuses_partial_coverage():
    docs = {"context": annotations.parse("@@@aker@@@ @@@axer@@@")}
    with pytest.raises(CoverageError) as exc:
        CompiledTexts(docs, AE_RULESET)
    assert "x" in str(exc.value)


def test_variant_coverage_checks_answers_too():
    with pytest.raises(CoverageError) as exc:
        CompiledTexts({"answer:1": annotations.parse("@@@quux@@@")}, AE_RULESET)
    assert "answer:1" in str(exc.value)


def test_variant_rejects_foreign_map():
    docs = {"context": annotations.parse("@@@shash@@@ to steal")}
    with pytest.raises(MapMismatchError):
        docs["answer:q0.1"] = annotations.parse("@@@has@@@")
        CompiledTexts(docs, SH_RULESET).render(AE_SWAP)
    # The map is checked even when no Problemese needs it.
    with pytest.raises(MapMismatchError):
        CompiledTexts({"answer:q0.1": annotations.parse("42")}, SH_RULESET).render(AE_SWAP)


def test_identity_keeps_source_text():
    # Identity rendering re-applies no casing pattern: the source survives as is.
    rs = Ruleset(sets=(("ab", "c"),))
    identity = PermutationMap.identity(rs)
    assert apply(identity, "aBc", rs) == "aBc"
    sharp = Ruleset(sets=(("ß", "a"),))
    assert apply(PermutationMap.identity(sharp), "ẞa", sharp) == "ẞa"
    answers = CompiledTexts({"1": annotations.parse("@@@aBc@@@")}, rs).render(identity)
    assert answers == {"1": "aBc"}


# ---------------------------------------------------------------------------
# The compiled render agrees with a per-span reference renderer


GRAPHEME_POOL = ("a", "e", "i", "o", "u", "p", "t", "k", "s", "h", "sh", "ch", "ng", "é", "ʼ")
ESCAPED = ("\\@@@", "\\$$$", "\\&&&")
PLAIN_ALPHABET = "abcxyzQ ,.!?\n0123"


@st.composite
def rulesets_and_maps(draw):
    pool = draw(st.lists(st.sampled_from(GRAPHEME_POOL), min_size=4, max_size=12, unique=True))
    n_fixed = draw(st.integers(0, 2))
    fixed = (*pool[:n_fixed], *draw(st.sampled_from([(), ("Tamika",)])))
    rest = pool[n_fixed:]
    sets = []
    while len(rest) >= 2:
        size = draw(st.integers(2, len(rest)))
        if len(rest) - size == 1:
            size += 1
        sets.append(tuple(rest[:size]))
        rest = rest[size:]
    ruleset = Ruleset(fixed=fixed, sets=tuple(sets))
    if draw(st.booleans()):
        pmap = PermutationMap.identity(ruleset)
    else:
        pmap = sample_permutation(ruleset, draw(st.integers(0, 2**32)))
    return ruleset, pmap


def _cased(draw, text: str) -> str:
    style = draw(st.sampled_from(("lower", "upper", "title", "mixed", "random")))
    if style == "upper":
        return text.upper()
    if style == "title":
        return text[:1].upper() + text[1:]
    if style == "mixed":  # neither initial nor all caps, e.g. "sH"
        return text[:1] + text[1:].upper()
    if style == "random":
        flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
        return "".join(c.upper() if flip else c for c, flip in zip(text, flips))
    return text


@st.composite
def annotated_texts(draw, ruleset: Ruleset):
    """Annotated source with every segment kind, escapes and cased Problemese."""
    words = (*ruleset.inventory, *ruleset.fixed)
    plain = st.lists(
        st.one_of(st.sampled_from(PLAIN_ALPHABET), st.sampled_from(ESCAPED)), max_size=6
    ).map("".join)
    parts = []
    for kind in draw(st.lists(st.sampled_from("ptrs"), max_size=6)):
        if kind == "s":
            tokens = []
            for _ in range(draw(st.integers(0, 8))):
                choice = draw(st.integers(0, 9))
                if choice < 7:
                    tokens.append(_cased(draw, draw(st.sampled_from(words))))
                elif choice == 7:
                    tokens.append(draw(st.sampled_from(" ,'3-")))
                elif choice == 8:
                    tokens.append(draw(st.sampled_from(ESCAPED)))
                else:
                    tokens.append(draw(st.sampled_from("qß")))  # never covered
            parts.append("@@@" + "".join(tokens) + "@@@")
        else:
            marker = {"p": "", "t": "$$$", "r": "&&&"}[kind]
            parts.append(marker + draw(plain) + marker)
    return "".join(parts)


@given(st.data(), st.booleans())
def test_compiled_render_matches_per_span_reference(data, fold_case):
    ruleset, pmap = data.draw(rulesets_and_maps())
    documents = {
        f"d{i}": annotations.parse(data.draw(annotated_texts(ruleset))) for i in range(2)
    }
    answers = {f"a{i}": data.draw(annotated_texts(ruleset)) for i in range(2)}
    texts = {**documents, **{f"answer:{k}": annotations.parse(raw) for k, raw in answers.items()}}
    expected = {
        name: reference_render(doc, pmap, ruleset, fold_case) for name, doc in texts.items()
    }
    uncovered = {name for name, text in expected.items() if text is None}
    if pmap == PermutationMap.identity(ruleset):
        # The identity map reproduces every covered text as the grammar renders it.
        for name, doc in texts.items():
            if name not in uncovered:
                compiled = CompiledTexts({name: doc}, ruleset, fold_case=fold_case)
                assert compiled.render(pmap) == {name: annotations.render(doc)}
    if uncovered:
        with pytest.raises(CoverageError) as exc:
            CompiledTexts(texts, ruleset, fold_case=fold_case)
        assert set(exc.value.gaps) == uncovered
    else:
        compiled = CompiledTexts(texts, ruleset, fold_case=fold_case)
        assert compiled.render(pmap) == expected
