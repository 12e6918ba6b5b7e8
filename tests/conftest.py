from __future__ import annotations

import string
import warnings
from pathlib import Path

import pytest

# Hypothesis imports its failing-example patch writer only after a @given
# test fails, inside pytest's report hook.  That module imports libcst, whose
# import warns; under -W error the warning becomes an INTERNALERROR and the
# falsifying example is never printed.  Importing it here, with the warning
# ignored, leaves the hook's later import nothing to raise.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from lingobf import annotations
from lingobf.corpus import Corpus, build_dataset, load_corpus
from lingobf.obfuscate import segment
from lingobf.rulesets import load_ruleset

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def corpus(corpus_dir) -> Corpus:
    loaded, report = load_corpus(corpus_dir)
    assert report.ok, [f.errors for f in report.failures]
    return loaded


@pytest.fixture(scope="session")
def dataset(corpus):
    return build_dataset(corpus, per_problem=6, seed=7)


@pytest.fixture(scope="session")
def somali():
    return load_ruleset(FIXTURES / "rulesets" / "somali.json")


@pytest.fixture(scope="session")
def stodsde():
    return load_ruleset(FIXTURES / "rulesets" / "stodsde.json")


def _reference_recase(replacement: str, original: str) -> str:
    if not replacement or original == original.lower():
        return replacement
    if len(original) > 1 and original.isupper():
        return replacement.upper()
    if original[0].isupper():
        return replacement[0].upper() + replacement[1:]
    return replacement


def reference_render(doc, pmap, ruleset, fold_case=True):
    """Render one document span by span; None if any span has a coverage gap.

    Independent of ``obfuscate.CompiledTexts``: each grapheme unit becomes
    its image, recased under ``fold_case``; a unit the map sends to itself
    keeps its source text.
    """
    out = []
    for seg in doc.segments:
        if isinstance(seg, annotations.RemovedContext):
            out.append(" ")
        elif isinstance(seg, annotations.ProblemeseSpan):
            for unit in segment(annotations.unescape(seg.text), ruleset, fold_case=fold_case):
                if unit.kind == "grapheme":
                    image = pmap.pairs[unit.matched]
                    if image == unit.matched:
                        out.append(unit.text)
                    else:
                        out.append(_reference_recase(image, unit.text) if fold_case else image)
                elif unit.kind == "passthrough" and not (
                    unit.text.isspace() or unit.text.isdigit() or unit.text in string.punctuation
                ):
                    return None
                else:
                    out.append(unit.text)
        else:
            out.append(annotations.unescape(seg.text))
    return "".join(out)
