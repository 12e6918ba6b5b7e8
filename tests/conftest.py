from __future__ import annotations

from pathlib import Path

import pytest

from lingobf.corpus import Corpus, build_dataset, load_corpus
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
