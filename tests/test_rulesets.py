from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingobf import jsonio
from lingobf.rulesets import (
    FreeTable,
    PermutationMap,
    Ruleset,
    RulesetError,
    Table,
    count_cycle_permutations,
    count_permutations,
    invert,
    load_ruleset,
    map_issues,
    sample_distinct,
    sample_permutation,
    validate_ruleset,
)

PLOSIVE_TABLE = Ruleset(tables=(Table(columns=(("p", "b"), ("t", "d"), ("k", "g"))),))
TWO_SETS = Ruleset(sets=(("p", "t", "k"), ("b", "d", "g")))
NASAL_FREE_TABLE = Ruleset(
    free_tables=(
        FreeTable(columns=((("m",), ("p", "b", "f")), (("n",), ("t", "d", "s")))),
    )
)


# ---------------------------------------------------------------------------
# Validation


def test_valid_rulesets_have_empty_reports():
    for rs in (PLOSIVE_TABLE, TWO_SETS, NASAL_FREE_TABLE, Ruleset(fixed=("x",))):
        assert validate_ruleset(rs) == []


def _issues(**fields):
    """The issues of the RulesetError that ``Ruleset(**fields)`` raises."""
    with pytest.raises(RulesetError) as refused:
        Ruleset(**fields)
    return refused.value.issues


def test_duplicate_grapheme_across_sets():
    report = _issues(sets=(("a", "b"), ("a", "c")))
    assert any(i.code == "duplicate" and i.grapheme == "a" for i in report)


def test_duplicate_between_fixed_and_set():
    report = _issues(fixed=("a",), sets=(("a", "b"),))
    assert any(i.code == "duplicate" for i in report)


def test_singleton_set_rejected():
    report = _issues(sets=(("q",),))
    assert any(i.code == "set_too_small" for i in report)


def test_single_column_table_rejected():
    report = _issues(tables=(Table(columns=(("p", "b"),)),))
    assert any(i.code == "table_too_narrow" for i in report)


def test_ragged_table_rejected():
    report = _issues(tables=(Table(columns=(("p", "b"), ("t",))),))
    assert any(i.code == "ragged_table" for i in report)


def test_ragged_free_table_cells_rejected():
    report = _issues(free_tables=(FreeTable(columns=((("m",), ("p", "b")), (("n",), ("t",)))),))
    assert any(i.code == "ragged_cells" for i in report)


def test_ragged_free_table_rejected():
    report = _issues(free_tables=(FreeTable(columns=((("m",), ("p",)), (("n",),))),))
    assert [(i.code, i.collection, i.message) for i in report] == [
        ("ragged_table", "free_table", "column lengths differ: [1, 2]")
    ]


@pytest.mark.parametrize(
    "rs",  # the fields of a ruleset
    [
        {"tables": (Table(columns=((), ())),)},
        {"free_tables": (FreeTable(columns=((), ())),)},
    ],
)
def test_empty_column_rejected(rs):
    assert [i.code for i in _issues(**rs)] == ["empty_column"]


def test_marker_characters_rejected():
    report = _issues(sets=(("a", "@"),))
    assert any(i.code == "marker_char" for i in report)


def test_empty_grapheme_rejected():
    report = _issues(fixed=("",))
    assert any(i.code == "empty_grapheme" for i in report)


# ---------------------------------------------------------------------------
# Counting


def test_count_plosive_table():
    assert count_permutations(PLOSIVE_TABLE) == 6


def test_count_two_sets():
    assert count_permutations(TWO_SETS) == 36


def test_count_free_table():
    assert count_permutations(NASAL_FREE_TABLE) == 72


def test_count_fixed_only_is_identity():
    assert count_permutations(Ruleset(fixed=("a", "b"))) == 1
    assert count_permutations(Ruleset()) == 1


def test_count_rejects_invalid():
    # Counting never sees an invalid ruleset: constructing one is refused.
    assert [i.code for i in _issues(sets=(("q",),))] == ["set_too_small"]


def _brute_force_cycle_count(rs: Ruleset) -> int:
    """Count structure-preserving bijections whose collection arrangements
    are single full cycles, by direct enumeration."""

    def cycles(n):
        count = 0
        for perm in itertools.permutations(range(n)):
            seen, node = 1, perm[0]
            while node != 0:
                node = perm[node]
                seen += 1
            if seen == n:
                count += 1
        return count

    total = 1
    for s in rs.sets:
        total *= cycles(len(s))
    for t in rs.tables:
        total *= cycles(len(t.columns))
    for ft in rs.free_tables:
        total *= cycles(len(ft.columns))
        for col in ft.columns:
            for cell in col:
                total *= math.factorial(len(cell))
    return total


@pytest.mark.parametrize(
    "rs",
    [
        PLOSIVE_TABLE,
        TWO_SETS,
        NASAL_FREE_TABLE,
        Ruleset(sets=(("a", "b"), ("c", "d", "e"))),
        Ruleset(sets=(("a", "b", "c", "d", "e", "f"),)),
    ],
)
def test_cycle_count_matches_enumeration_and_bounds(rs):
    cycle_count = count_cycle_permutations(rs)
    assert cycle_count == _brute_force_cycle_count(rs)
    assert cycle_count <= count_permutations(rs) - 1


# ---------------------------------------------------------------------------
# Sampling


def test_two_element_set_always_swaps():
    rs = Ruleset(sets=(("a", "b"),))
    for seed in range(20):
        assert sample_permutation(rs, seed).pairs == {"a": "b", "b": "a"}


def test_table_sampling_hits_exactly_the_two_column_cycles():
    maps = {sample_permutation(PLOSIVE_TABLE, seed).key() for seed in range(200)}
    expected = {
        (("b", "d"), ("d", "g"), ("g", "b"), ("k", "p"), ("p", "t"), ("t", "k")),
        (("b", "g"), ("d", "b"), ("g", "d"), ("k", "t"), ("p", "k"), ("t", "p")),
    }
    assert maps == expected


def test_free_table_sampling_structure():
    for seed in range(1000):
        pm = sample_permutation(NASAL_FREE_TABLE, seed)
        assert pm.pairs["m"] == "n" and pm.pairs["n"] == "m"
        assert {pm.pairs[g] for g in ("p", "b", "f")} == {"t", "d", "s"}
        assert {pm.pairs[g] for g in ("t", "d", "s")} == {"p", "b", "f"}
        assert map_issues(NASAL_FREE_TABLE, pm) == []


def test_sampled_maps_are_pinned_per_seed():
    # A table samples as a free table of one-grapheme cells: same draws per seed.
    def images_of_p(rs):
        return "".join(sample_permutation(rs, seed).pairs["p"] for seed in range(8))

    assert images_of_p(PLOSIVE_TABLE) == "ttkkttkt"
    assert images_of_p(NASAL_FREE_TABLE) == "ttdtttdd"


def test_sampled_maps_satisfy_invariants(somali, stodsde):
    for rs in (somali, stodsde):
        for seed in range(50):
            pm = sample_permutation(rs, seed)
            assert map_issues(rs, pm) == []


def test_sampling_deterministic():
    a = sample_permutation(TWO_SETS, 123)
    b = sample_permutation(TWO_SETS, 123)
    assert a.pairs == b.pairs


def test_sample_distinct_exhausts_small_support():
    one_swap = Ruleset(sets=(("a", "b"),))
    assert len(sample_distinct(one_swap, 6, seed=0)) == 1
    assert len(sample_distinct(PLOSIVE_TABLE, 6, seed=0)) == 2


def test_sample_distinct_zero():
    assert sample_distinct(PLOSIVE_TABLE, 0, seed=0) == []


def test_sample_distinct_pairwise_distinct_and_deterministic():
    rs = Ruleset(sets=(("a", "b", "c", "d", "e"),))  # support (5-1)! = 24
    maps_a = sample_distinct(rs, 6, seed=5)
    maps_b = sample_distinct(rs, 6, seed=5)
    assert [m.pairs for m in maps_a] == [m.pairs for m in maps_b]
    assert len({m.key() for m in maps_a}) == len(maps_a) == 6


def test_sample_distinct_caps_at_support():
    # Two 3-sets admit 2! * 2! = 4 distinct full-cycle maps.
    maps = sample_distinct(TWO_SETS, 6, seed=5)
    assert len(maps) == 4
    assert len({m.key() for m in maps}) == 4


def test_exhaustive_sampling_reaches_whole_support():
    # Small enough to collect everything: support sizes 4 and 2.
    for rs in (TWO_SETS, PLOSIVE_TABLE):
        support = count_cycle_permutations(rs)
        maps = sample_distinct(rs, support + 10, seed=1)
        assert len(maps) == support


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=3))
def test_invert_composes_to_identity(seed, which):
    rs = [PLOSIVE_TABLE, TWO_SETS, NASAL_FREE_TABLE, Ruleset(sets=(("a", "b", "c"),))][which]
    pm = sample_permutation(rs, seed)
    inverse = invert(pm)
    for g in rs.inventory:
        assert inverse.pairs[pm.pairs[g]] == g


def test_invert_examples():
    rs = Ruleset(sets=(("a", "b"),))
    swap = sample_permutation(rs, 0)
    assert invert(swap).pairs == swap.pairs  # involution
    ident = PermutationMap.identity(rs)
    assert invert(ident).pairs == ident.pairs
    three = PermutationMap(pairs={"p": "t", "t": "k", "k": "p"}, ruleset_id="x")
    assert invert(three).pairs == {"t": "p", "k": "t", "p": "k"}


def test_invert_rejects_non_bijection():
    with pytest.raises(ValueError):
        invert(PermutationMap(pairs={"a": "b", "b": "b"}, ruleset_id="x"))


def test_map_issues_flags_violations():
    pm = PermutationMap(pairs={"p": "p", "b": "b", "t": "t", "d": "d", "k": "k", "g": "g"},
                        ruleset_id=PLOSIVE_TABLE.ident)
    issues = map_issues(PLOSIVE_TABLE, pm, sampled=True)
    assert any("fixed point" in issue for issue in issues)
    assert map_issues(PLOSIVE_TABLE, pm, sampled=False) == []

    broken = PermutationMap(
        pairs={"p": "t", "b": "d", "t": "p", "d": "g", "k": "k", "g": "b"},
        ruleset_id=PLOSIVE_TABLE.ident,
    )
    assert any("column" in issue for issue in map_issues(PLOSIVE_TABLE, broken))


def test_map_issues_names_the_cell_of_a_broken_table():
    broken = PermutationMap(
        pairs={"p": "t", "b": "d", "t": "p", "d": "g", "k": "k", "g": "b"},
        ruleset_id=PLOSIVE_TABLE.ident,
    )
    assert map_issues(PLOSIVE_TABLE, broken, sampled=False) == [
        "table[0] column 1 rows map to different columns",
        "table[0] column 2 rows map to different columns",
    ]
    row_swap = PermutationMap(
        pairs={"p": "b", "b": "p", "t": "t", "d": "d", "k": "k", "g": "g"},
        ruleset_id=PLOSIVE_TABLE.ident,
    )
    assert map_issues(PLOSIVE_TABLE, row_swap, sampled=False) == [
        "table[0] column 0 row 0 cell image is not a cell",
        "table[0] column 0 row 1 cell image is not a cell",
    ]


# ---------------------------------------------------------------------------
# Identity


def test_ident_is_digest_of_serialized_form(somali):
    for rs in (somali, PLOSIVE_TABLE, NASAL_FREE_TABLE):
        payload = json.dumps(rs.to_dict(), ensure_ascii=False, sort_keys=True)
        assert rs.ident == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def test_ident_follows_content_under_replace():
    changed = dataclasses.replace(TWO_SETS, sets=(("p", "t", "k"), ("b", "d")))
    assert changed.ident != TWO_SETS.ident
    assert dataclasses.replace(changed, sets=TWO_SETS.sets).ident == TWO_SETS.ident


# ---------------------------------------------------------------------------
# Serialization


def test_json_round_trip(somali, stodsde):
    for rs in (somali, stodsde, NASAL_FREE_TABLE):
        assert Ruleset.from_dict(json.loads(json.dumps(rs.to_dict()))) == rs


def test_save_load_round_trip_keeps_tables_and_free_tables_apart(tmp_path):
    table = Table(columns=(("p", "b"), ("t", "d")))
    singletons = FreeTable(columns=((("m",), ("f",)), (("n",), ("s",))))
    rs = Ruleset(fixed=("x",), tables=(table,), free_tables=(singletons,))
    jsonio.write_json(tmp_path / "mixed.json", rs.to_dict())
    again = load_ruleset(tmp_path / "mixed.json")
    assert again.tables == (table,) and again.free_tables == (singletons,)
    assert again == rs and again.ident == rs.ident


def test_free_table_cells_accept_bare_strings():
    rs = Ruleset.from_dict(
        {"free_tables": [{"columns": [["m", ["p", "b"]], ["n", ["t", "d"]]]}]}
    )
    assert rs.free_tables[0].columns[0] == (("m",), ("p", "b"))


def test_nfc_normalization_on_ingest():
    decomposed = "é"  # e + combining acute
    rs = Ruleset.from_dict({"sets": [[decomposed, "a"]]})
    assert rs.sets[0][0] == "é"


def test_fixture_rulesets_are_valid(somali, stodsde):
    assert validate_ruleset(somali) == []
    assert validate_ruleset(stodsde) == []
    # Shapes documented for these two languages.
    assert len(somali.fixed) == 4 and len(somali.sets) == 4
    assert len(stodsde.sets) == 6 and len(stodsde.tables) == 2
