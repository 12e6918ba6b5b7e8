"""Permutation rulesets: the per-problem grammar of valid grapheme bijections.

A ruleset partitions a problem's grapheme inventory into four collection
kinds, each constraining how its members may be permuted:

* ``sets``        -- any bijection of the members onto themselves;
* ``tables``      -- equal-length columns of graphemes; columns permute
                     wholesale, row indices are preserved;
* ``free_tables`` -- columns whose rows are *cells* (sets of graphemes,
                     same cardinality across a row); columns permute
                     wholesale and each source cell is then mapped by an
                     arbitrary bijection onto the same-row cell of its
                     image column;
* ``fixed``       -- graphemes and whole protected strings (names,
                     loanwords) every valid permutation leaves unchanged.

A table is checked, counted and sampled as a free table whose cells each
hold one grapheme: a bijection of a one-grapheme cell is the identity and
shuffling it draws nothing, so both kinds share one code path and only
their JSON form and substream label differ.  A column with no rows is
refused in both.

Counting and sampling deliberately differ.  :func:`count_permutations`
counts *all* structure-preserving bijections, identity included, which is
the arithmetic behind the documented worked examples (a 3-column table
admits 3! = 6, a pair of 3-sets 36, the 2-column free-table with cell
size 3 admits 2!*(3!)^2 = 72).  :func:`sample_permutation` generates only
full-cycle arrangements, which guarantees no fixed points outside the
fixed set; its support is the smaller :func:`count_cycle_permutations`.
"""

from __future__ import annotations

import hashlib
import math
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

from . import jsonio
from .rng import derive_seed, stream

SCHEMA_VERSION = 1

# Characters reserved by the annotation grammar; graphemes must not use them.
MARKER_CHARS = frozenset("$&@")


class RulesetError(ValueError):
    """Raised by ``Ruleset(...)``; ``issues`` lists every violation, never none."""

    def __init__(self, issues: Sequence["ValidationIssue"]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class MapMismatchError(ValueError):
    """Raised when a PermutationMap is applied against the wrong ruleset."""


def _norm(text: str) -> str:
    """Canonical composed form; all comparisons are codepoint-exact after this."""
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class Table:
    """Equal-length grapheme columns; permutations rearrange whole columns."""

    columns: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FreeTable:
    """Columns of cells; a cell is an ordered group of graphemes treated as a set."""

    columns: tuple[tuple[tuple[str, ...], ...], ...]


@dataclass(frozen=True)
class Ruleset:
    fixed: tuple[str, ...] = ()
    sets: tuple[tuple[str, ...], ...] = ()
    tables: tuple[Table, ...] = ()
    free_tables: tuple[FreeTable, ...] = ()

    def __post_init__(self):
        issues = validate_ruleset(self)
        if issues:
            raise RulesetError(issues)

    @property
    def inventory(self) -> tuple[str, ...]:
        """All permutable graphemes, in declaration order."""
        out = [g for s in self.sets for g in s]
        for _, _, columns in self.column_groups:
            for col in columns:
                for cell in col:
                    out.extend(cell)
        return tuple(out)

    @cached_property
    def ident(self) -> str:
        """Content digest identifying this ruleset in PermutationMaps.

        Computed once per instance; the dataclass is frozen, so the content
        it digests cannot change.
        """
        payload = jsonio.dumps(self.to_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @cached_property
    def column_groups(self) -> tuple[tuple[str, int, tuple], ...]:
        """(kind, index, columns of cells) of every table, then every free table.

        A table column becomes a column of one-grapheme cells (``zip`` of one
        sequence yields 1-tuples).
        """
        tables = (
            ("table", i, tuple(tuple(zip(col)) for col in t.columns))
            for i, t in enumerate(self.tables)
        )
        free_tables = (("free_table", i, ft.columns) for i, ft in enumerate(self.free_tables))
        return (*tables, *free_tables)

    @cached_property
    def matchers(self) -> dict[bool, tuple[tuple[int, ...], dict[str, str], dict[str, str]]]:
        """Lookup tables of ``obfuscate.segment``, keyed by ``fold_case``.

        Each holds the candidate match lengths (longest first) and the fixed
        and inventory keys (lower-cased when folding) mapped to canonical text.
        """
        out = {}
        for fold_case in (False, True):
            fixed = {g.lower() if fold_case else g: g for g in self.fixed}
            graphemes: dict[str, str] = {}
            for g in self.inventory:
                graphemes.setdefault(g.lower() if fold_case else g, g)
            lengths = sorted({len(k) for k in (*fixed, *graphemes)}, reverse=True)
            out[fold_case] = (tuple(lengths), fixed, graphemes)
        return out


@dataclass(frozen=True)
class PermutationMap:
    """A structure-preserving grapheme bijection, identity on the fixed set.

    ``pairs`` covers exactly the ruleset's non-fixed inventory; fixed
    strings are never listed (they map to themselves by construction).
    ``seed`` records the generating draw; None for identity and inverses.
    """

    pairs: dict[str, str]
    ruleset_id: str
    seed: int | None = field(default=None, compare=False)

    def __call__(self, grapheme: str) -> str:
        return self.pairs.get(grapheme, grapheme)

    def key(self) -> tuple[tuple[str, str], ...]:
        """Canonical content key, independent of generation seed."""
        return tuple(sorted(self.pairs.items()))

    @classmethod
    def identity(cls, ruleset: Ruleset) -> "PermutationMap":
        return cls(pairs={g: g for g in ruleset.inventory}, ruleset_id=ruleset.ident)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    collection: str  # "fixed" | "set" | "table" | "free_table"
    index: int | None
    grapheme: str | None
    message: str

    def __str__(self) -> str:
        where = self.collection if self.index is None else f"{self.collection}[{self.index}]"
        return f"{where}: {self.message}"


# ---------------------------------------------------------------------------
# Validation


def validate_ruleset(ruleset: Ruleset) -> list[ValidationIssue]:
    """Every violated invariant, with collection index and offending grapheme.

    ``Ruleset.__post_init__`` is the one caller: it raises
    :class:`RulesetError` with this list when it is not empty, so every
    ``Ruleset`` object is valid and nothing that takes one checks it again.
    """
    issues: list[ValidationIssue] = []
    seen: dict[str, str] = {}

    def claim(text: str, collection: str, index: int | None) -> None:
        if not text:
            message = "empty grapheme"
            issues.append(ValidationIssue("empty_grapheme", collection, index, text, message))
        elif any(c in MARKER_CHARS for c in text):
            message = f"grapheme {text!r} contains an annotation marker character"
            issues.append(ValidationIssue("marker_char", collection, index, text, message))
        if text in seen:
            message = f"duplicate grapheme {text} (also in {seen[text]})"
            issues.append(ValidationIssue("duplicate", collection, index, text, message))
        else:
            where = collection if index is None else f"{collection}[{index}]"
            seen[text] = where

    for g in ruleset.fixed:
        claim(g, "fixed", None)

    for i, s in enumerate(ruleset.sets):
        if len(s) < 2:
            issues.append(
                ValidationIssue(
                    "set_too_small", "set", i, None, f"set of size {len(s)} cannot be deranged"
                )
            )
        for g in s:
            claim(g, "set", i)

    for kind, i, columns in ruleset.column_groups:
        shape: list[tuple[str, str]] = []  # (code, message)
        if len(columns) < 2:
            noun = kind.replace("_", "-")
            message = f"{noun} with {len(columns)} column(s) cannot be deranged"
            shape.append(("table_too_narrow", message))
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            shape.append(("ragged_table", f"column lengths differ: {sorted(lengths)}"))
        if 0 in lengths:
            shape.append(("empty_column", "empty column"))
        if len(lengths) == 1:
            for row in range(len(columns[0])):
                sizes = {len(col[row]) for col in columns}
                if len(sizes) > 1:
                    shape.append(("ragged_cells", f"row {row} cell sizes differ: {sorted(sizes)}"))
                if 0 in sizes:
                    shape.append(("empty_cell", f"row {row} has an empty cell"))
        issues.extend(ValidationIssue(code, kind, i, None, message) for code, message in shape)
        for col in columns:
            for cell in col:
                for g in cell:
                    claim(g, kind, i)

    return issues


# ---------------------------------------------------------------------------
# Counting


def count_permutations(ruleset: Ruleset) -> int:
    """Number of structure-preserving bijections, identity included.

    sets contribute |S|!, tables and free-tables
    (#columns)! * prod over source cells |cell|! (1 for a table's cells).
    """
    return _count(ruleset, cycles=False)


def count_cycle_permutations(ruleset: Ruleset) -> int:
    """Size of the sampler's support: full-cycle arrangements only.

    Sets and column groups contribute (n-1)! instead of n!; within-cell
    bijections of free-tables are unconstrained so still contribute |cell|!.
    """
    return _count(ruleset, cycles=True)


def _count(ruleset: Ruleset, *, cycles: bool) -> int:
    """Product of the collection factors of a ruleset: (n-1)! per cycle, else n!."""
    shift = 1 if cycles else 0
    total = 1
    for s in ruleset.sets:
        total *= math.factorial(len(s) - shift)
    for _, _, columns in ruleset.column_groups:
        total *= math.factorial(len(columns) - shift)
        for col in columns:
            for cell in col:
                total *= math.factorial(len(cell))
    return total


# ---------------------------------------------------------------------------
# Sampling


def sample_permutation(ruleset: Ruleset, seed: int) -> PermutationMap:
    """Deterministic structure-preserving derangement of the inventory.

    Each collection draws from its own named substream of ``seed``
    ("set"/"table"/"free_table" plus collection index), so adding a
    collection never perturbs the draws of the others.  Sets and column
    groups are arranged in one uniformly chosen full cycle; free-table
    cells then receive independent uniform bijections onto the same-row
    cell of the image column.  Full cycles guarantee no fixed points
    outside the fixed set; every collection of a ``Ruleset`` can be
    deranged, since it is valid by construction.
    """
    pairs: dict[str, str] = {}

    for idx, s in enumerate(ruleset.sets):
        rng = stream(seed, "set", idx)
        pairs.update(rng.cycle(s))

    for kind, idx, columns in ruleset.column_groups:
        rng = stream(seed, kind, idx)
        image = rng.cycle(range(len(columns)))
        for src, src_col in enumerate(columns):
            for cell, img_cell in zip(src_col, columns[image[src]]):
                img = list(img_cell)
                rng.shuffle(img)
                pairs.update(zip(cell, img))

    return PermutationMap(pairs=pairs, ruleset_id=ruleset.ident, seed=seed)


def sample_distinct(ruleset: Ruleset, n: int, seed: int) -> list[PermutationMap]:
    """Up to ``n`` pairwise-distinct sampled maps, deterministic in inputs.

    Draws sample_permutation under derived sub-seeds and drops duplicates
    by content.  Returns min(n, support size) maps; a short list signals
    that the ruleset admits fewer distinct permutations than requested.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    target = min(n, _count(ruleset, cycles=True))
    out: list[PermutationMap] = []
    seen: set[tuple[tuple[str, str], ...]] = set()
    attempt = 0
    while len(out) < target:
        pm = sample_permutation(ruleset, derive_seed(seed, "variant", attempt))
        attempt += 1
        if pm.key() in seen:
            continue
        seen.add(pm.key())
        out.append(pm)
    return out


def invert(pmap: PermutationMap) -> PermutationMap:
    """Inverse bijection; invert(m) composed with m is the identity."""
    if set(pmap.pairs.values()) != set(pmap.pairs.keys()):
        raise ValueError("map is not a bijection: image set differs from domain set")
    return PermutationMap(
        pairs={img: src for src, img in pmap.pairs.items()},
        ruleset_id=pmap.ruleset_id,
    )


def map_issues(ruleset: Ruleset, pmap: PermutationMap, *, sampled: bool = True) -> list[str]:
    """Violations of the PermutationMap invariants against ``ruleset``.

    Checks bijectivity over the inventory, structure preservation for
    every collection, identity on the fixed set, and (for sampled maps)
    the absence of fixed points outside the fixed set.  The ruleset itself
    is valid by construction, so every issue is the map's.
    """
    problems: list[str] = []
    inventory = set(ruleset.inventory)
    domain = set(pmap.pairs.keys())
    if domain != inventory:
        problems.append("domain does not equal the non-fixed inventory")
    if set(pmap.pairs.values()) != domain:
        problems.append("not a bijection: image set differs from domain set")

    for g in ruleset.fixed:
        if g in pmap.pairs and pmap.pairs[g] != g:
            problems.append(f"fixed string {g!r} is not mapped to itself")

    for i, s in enumerate(ruleset.sets):
        if {pmap(g) for g in s} != set(s):
            problems.append(f"set[{i}] is not closed under the map")

    for kind, i, columns in ruleset.column_groups:
        # Image of each cell must be exactly the same-row cell of a single
        # column, identical across all rows of the source column.
        for c, col in enumerate(columns):
            targets = set()
            for row, cell in enumerate(col):
                image = {pmap(g) for g in cell}
                matches = [tc for tc, other in enumerate(columns) if set(other[row]) == image]
                if not matches:
                    problems.append(f"{kind}[{i}] column {c} row {row} cell image is not a cell")
                else:
                    targets.add(matches[0])
            if len(targets) > 1:
                problems.append(f"{kind}[{i}] column {c} rows map to different columns")

    if sampled:
        for g, img in pmap.pairs.items():
            if g == img:
                problems.append(f"fixed point outside the fixed set: {g!r}")

    return problems


# ---------------------------------------------------------------------------
# Serialization


def _graphemes(values: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(_norm, values))


# Every grapheme is NFC-normalized on ingest.  A free-table cell is a list
# of graphemes or, for one grapheme, may be (and is written as) a string.
jsonio.codec(Table, columns=jsonio.Member(decode=lambda columns: tuple(map(_graphemes, columns))))
jsonio.codec(
    FreeTable,
    columns=jsonio.Member(
        json_type=tuple[tuple[str | tuple[str, ...], ...], ...],
        decode=lambda columns: tuple(
            tuple(_graphemes([c] if isinstance(c, str) else c) for c in cs) for cs in columns
        ),
        encode=lambda columns: [[c[0] if len(c) == 1 else list(c) for c in col] for col in columns],
    ),
)
jsonio.codec(
    Ruleset,
    schema_version=SCHEMA_VERSION,
    fixed=jsonio.Member(decode=_graphemes),
    sets=jsonio.Member(decode=lambda sets: tuple(map(_graphemes, sets))),
)


def load_ruleset(path: str | Path) -> Ruleset:
    """The ruleset at ``path``; ``ValueError`` naming the file if it is malformed."""
    return jsonio.read_json(path, Ruleset.from_dict)
