"""Grapheme segmentation and permutation application.

The matcher scans left to right and at each position consumes the longest
string among the ruleset's fixed strings and inventory graphemes that
matches there; a fixed string wins an exact-length tie, since protection
(names, loanwords) is the stronger contract.  A grapheme may be a
substring of another ("h" inside "sh"): greedy longest-match resolves
this the way the data was designed to be read.  Positions where nothing
matches consume one character as passthrough; whitespace, ASCII
punctuation and digits are legitimate passthrough, anything else is a
coverage violation.

:class:`CompiledTexts` is the one place that decides coverage: it
segments every Problemese span of one table of named, already parsed
documents a single time, takes the coverage gaps from that same
segmentation and refuses the table on any gap.  ``corpus.load_corpus``
compiles each problem this way once, its documents and answers in one
table, in the case mode of the load, and keeps the compiled form on the
problem; a ``corpus.Dataset`` renders every variant from it with dict
lookups and ``join``.

Matching is case-folded by default and the replacement re-applies the
original unit's casing pattern (initial capital -> capitalize the
replacement's first codepoint; all-caps -> upper-case the replacement).
A grapheme the map sends to itself keeps its source text, so the
identity map reproduces the source exactly.  Pass ``fold_case=False`` for
codepoint-exact matching.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Mapping

from . import annotations
from .rulesets import MapMismatchError, PermutationMap, Ruleset

_ASCII_PUNCT = frozenset(string.punctuation)


def is_passthrough_char(ch: str) -> bool:
    return ch.isspace() or ch.isdigit() or ch in _ASCII_PUNCT


@dataclass(frozen=True)
class Unit:
    """One consumed chunk of text.

    ``kind`` is "grapheme", "fixed" or "passthrough".  ``text`` is the
    surface form; ``matched`` is the canonical inventory entry it matched
    (equal to ``text`` up to case), None for passthrough.
    """

    kind: str
    text: str
    matched: str | None = None


def segment(text: str, ruleset: Ruleset, *, fold_case: bool = True) -> list[Unit]:
    """Total greedy segmentation: unit texts concatenate back to ``text``."""
    lengths, fixed, graphemes = ruleset.matchers[fold_case]
    units: list[Unit] = []
    i = 0
    n = len(text)
    while i < n:
        for length in lengths:
            if length > n - i:
                continue
            chunk = text[i : i + length]
            key = chunk.lower() if fold_case else chunk
            if key in fixed:
                units.append(Unit("fixed", chunk, fixed[key]))
                break
            if key in graphemes:
                units.append(Unit("grapheme", chunk, graphemes[key]))
                break
        else:
            units.append(Unit("passthrough", text[i]))
            i += 1
            continue
        i += len(units[-1].text)
    return units


def _recase(replacement: str, original: str) -> str:
    if not replacement or original == original.lower():
        return replacement
    if len(original) > 1 and original.isupper():
        return replacement.upper()
    if original[0].isupper():
        return replacement[0].upper() + replacement[1:]
    return replacement


def _image(pairs: Mapping[str, str], unit: Unit, fold_case: bool) -> str:
    """The text a grapheme unit renders to under a map: its image, recased.

    A grapheme the map sends to itself keeps its source text.
    """
    image = pairs[unit.matched]
    if image == unit.matched:
        return unit.text
    return _recase(image, unit.text) if fold_case else image


def _check_map(pmap: PermutationMap, ruleset: Ruleset) -> None:
    if pmap.ruleset_id != ruleset.ident:
        raise MapMismatchError(
            f"map was generated for ruleset {pmap.ruleset_id}, not {ruleset.ident}"
        )


def apply(
    pmap: PermutationMap, text: str, ruleset: Ruleset, *, fold_case: bool = True
) -> str:
    """Replace every matched grapheme by its image; fixed and passthrough stay."""
    _check_map(pmap, ruleset)
    return "".join(
        [
            _image(pmap.pairs, unit, fold_case) if unit.kind == "grapheme" else unit.text
            for unit in segment(text, ruleset, fold_case=fold_case)
        ]
    )


@dataclass(frozen=True)
class CoverageGap:
    """A maximal run of Problemese the ruleset cannot segment."""

    span_index: int  # index among the document's Problemese spans
    offset: int  # codepoint offset inside the (unescaped) span text
    text: str

    def __str__(self) -> str:
        return f"span {self.span_index} offset {self.offset}: {self.text!r}"


def span_gaps(span_index: int, units: list[Unit]) -> list[CoverageGap]:
    """Maximal uncovered runs in the segmentation of one Problemese span."""
    gaps: list[CoverageGap] = []
    pos = 0
    run: list[str] = []
    for unit in units:
        if unit.kind == "passthrough" and not is_passthrough_char(unit.text):
            if not run:
                run_start = pos
            run.append(unit.text)
        elif run:
            gaps.append(CoverageGap(span_index, run_start, "".join(run)))
            run = []
        pos += len(unit.text)
    if run:
        gaps.append(CoverageGap(span_index, run_start, "".join(run)))
    return gaps


class CoverageError(ValueError):
    """A named document contains Problemese the ruleset cannot segment."""

    def __init__(self, gaps: Mapping[str, list[CoverageGap]]):
        self.gaps = dict(gaps)
        detail = "; ".join(
            f"{name}: {', '.join(str(g) for g in gap_list)}" for name, gap_list in self.gaps.items()
        )
        super().__init__(f"coverage gaps: {detail}")


class CompiledTexts:
    """Named documents, segmented once, renderable under any map.

    Every document becomes a tuple of slot indices.  The first slots stand
    for the distinct grapheme units of all the documents; the rest hold
    literal text: unescaped plain text and name tags, the single space of
    removed context, and the fixed and passthrough units of Problemese
    spans, with neighbours merged.  A render computes each grapheme unit's
    image once and joins the slots of each document.

    The names are the caller's; an answer key is one more document (a
    free-response key is usually one ``@@@...@@@`` span, a numeric or
    yes/no key has none and renders unchanged).  Construction raises
    :class:`CoverageError`, its gaps in the order of ``documents``, on any
    coverage gap, so a variant is either fully obfuscated or not produced.
    """

    def __init__(
        self,
        documents: Mapping[str, annotations.AnnotatedDocument],
        ruleset: Ruleset,
        *,
        fold_case: bool = True,
    ):
        self.ruleset = ruleset
        self.fold_case = fold_case
        self._units: dict[Unit, int] = {}
        gaps: dict[str, list[CoverageGap]] = {}
        docs = {}
        for name, doc in documents.items():
            docs[name], found = self._compile(doc)
            if found:
                gaps[name] = found
        if gaps:
            raise CoverageError(gaps)

        literals: dict[str, int] = {}

        def slots(pieces: list[int | str]) -> tuple[int, ...]:
            return tuple(
                piece
                if isinstance(piece, int)
                else literals.setdefault(piece, len(self._units) + len(literals))
                for piece in pieces
            )

        self._docs = {name: slots(pieces) for name, pieces in docs.items()}
        self._literals = list(literals)

    def _compile(
        self, doc: annotations.AnnotatedDocument
    ) -> tuple[list[int | str], list[CoverageGap]]:
        """Grapheme-unit slots and literal strings of one document, and its gaps."""
        pieces: list[int | str] = []
        literal: list[str] = []
        gaps: list[CoverageGap] = []
        span_index = 0
        for seg in doc.segments:
            if isinstance(seg, annotations.RemovedContext):
                literal.append(" ")
                continue
            text = annotations.unescape(seg.text)
            if not isinstance(seg, annotations.ProblemeseSpan):
                literal.append(text)
                continue
            units = segment(text, self.ruleset, fold_case=self.fold_case)
            gaps.extend(span_gaps(span_index, units))
            span_index += 1
            for unit in units:
                if unit.kind != "grapheme":
                    literal.append(unit.text)
                    continue
                if literal:
                    pieces.append("".join(literal))
                    literal.clear()
                pieces.append(self._units.setdefault(unit, len(self._units)))
        if literal:
            pieces.append("".join(literal))
        return pieces, gaps

    def render(self, pmap: PermutationMap) -> dict[str, str]:
        """Every document rendered with ``pmap``, keyed as at construction."""
        _check_map(pmap, self.ruleset)
        table = [_image(pmap.pairs, unit, self.fold_case) for unit in self._units]
        table += self._literals
        lookup = table.__getitem__
        return {name: "".join(map(lookup, slots)) for name, slots in self._docs.items()}

