"""The claims registry (:mod:`repro.experiments.claims`), judged.

Entries are data, discovered once and parametrized with their ids as
test ids. Tier-1 judges every entry marked ``fixture`` on 8-processor
small traces and pins the others as failing there (their ``note`` says
why); ``-m tier2`` judges every entry at 16 processors and each app's
default scale for seeds 0-4. The meta-tests keep the registry, its
consumers and EXPERIMENTS.md in step.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import pytest

from repro.apps import generate
from repro.experiments.claims import BUILDERS, CLAIMS
from tests.conftest import small_trace

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = functools.partial(small_trace, n_procs=8)
FIXTURE_SEED = 1
PAPER_SEEDS = range(5)

ON_FIXTURE = [claim for claim in CLAIMS if claim.fixture]
OFF_FIXTURE = [claim for claim in CLAIMS if not claim.fixture]


def _ids(claims):
    return [claim.id for claim in claims]


@functools.lru_cache(maxsize=None)
def fixture_evidence(key: str):
    return BUILDERS[key](FIXTURE, FIXTURE_SEED)


# Entries sharing evidence are adjacent in CLAIMS, so one key's seeds
# are all the cache has to hold.
@functools.lru_cache(maxsize=len(PAPER_SEEDS))
def paper_evidence(key: str, seed: int):
    return BUILDERS[key](generate, seed)


@pytest.mark.parametrize("claim", ON_FIXTURE, ids=_ids(ON_FIXTURE))
def test_claim_holds_on_fixture(claim):
    assert claim.predicate(fixture_evidence(claim.evidence)), claim.text


@pytest.mark.parametrize("claim", OFF_FIXTURE, ids=_ids(OFF_FIXTURE))
def test_claim_marked_off_fixture_fails_there(claim):
    assert claim.note, f"{claim.id}: say why it does not hold on the fixtures"
    assert not claim.predicate(fixture_evidence(claim.evidence)), (
        f"{claim.id} now holds on the fixtures: mark it fixture=True"
    )


@pytest.mark.tier2
@pytest.mark.parametrize("claim", CLAIMS, ids=_ids(CLAIMS))
def test_claim_holds_at_paper_scale(claim):
    failing = [
        seed for seed in PAPER_SEEDS if not claim.predicate(paper_evidence(claim.evidence, seed))
    ]
    assert failing == [], f"{claim.text}: fails at seeds {failing}"


def _parametrized(test):
    (mark,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
    return list(mark.args[1])


def _is_tier2(test) -> bool:
    return any(mark.name == "tier2" for mark in test.pytestmark)


class TestRegistry:
    def test_ids_are_unique(self):
        assert len(set(_ids(CLAIMS))) == len(CLAIMS)

    def test_every_evidence_key_has_a_builder_and_every_builder_is_used(self):
        assert {claim.evidence for claim in CLAIMS} == set(BUILDERS)

    def test_every_claim_runs_in_tier2(self):
        assert _is_tier2(test_claim_holds_at_paper_scale)
        assert _parametrized(test_claim_holds_at_paper_scale) == list(CLAIMS)

    def test_tier1_subset_is_exactly_the_fixture_entries(self):
        assert not _is_tier2(test_claim_holds_on_fixture)
        assert _parametrized(test_claim_holds_on_fixture) == [c for c in CLAIMS if c.fixture]
        assert _parametrized(test_claim_marked_off_fixture_fails_there) == [
            c for c in CLAIMS if not c.fixture
        ]


class TestDocsDrift:
    def test_every_claim_id_is_in_experiments_md(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert [claim.id for claim in CLAIMS if f"`{claim.id}`" not in text] == []

    def test_no_bench_file_is_named_in_the_docs(self):
        docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
        docs += sorted((ROOT / "docs").glob("*.md"))
        named = {
            path.name: re.findall(r"bench_\w+\.py", path.read_text(encoding="utf-8"))
            for path in docs
        }
        assert {name: found for name, found in named.items() if found} == {}
