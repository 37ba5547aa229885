"""The selftest report as a pure function of (seed, scale), pinned draw by draw.

``data/selftest_faults.json`` holds two recordings:

- ``rng_states``: for two (seed, scale) runs, every ``random.Random`` the run
  makes, in creation order, as its seed and a hash of its final state, so a
  property that draws one value more or less fails here;
- ``faults``: the full ``run_selftest(3, 0.05)`` report under each of seven
  injected faults.  Together they fail a property in every suite and pin all
  three kinds of counterexample: shrunken words, shrunken elements and
  property-specific dicts.

Run this file as a script to re-record the data after a deliberate change.
"""

import hashlib
import importlib
import itertools
import json
import random
from pathlib import Path

import pytest

from goldmanab.abelian import exponent_vector
from goldmanab.selftest import run_selftest

# The package re-exports functions under some module names (goldmanab.bracket).
bracket, chain, rat_ideals, selftest, words = (
    importlib.import_module(f"goldmanab.{name}")
    for name in ("bracket", "chain", "rat_ideals", "selftest", "words")
)

DATA = Path(__file__).parent / "data" / "selftest_faults.json"
RUNS = [(42, 0.05), (7, 0.2)]
FAULT_RUN = (3, 0.05)


def _flip_pairing(true_product):
    # <a1, a2> changes sign, <a2, a1> does not: the form is no longer antisymmetric.
    return lambda sig, x, y: true_product(sig, x, y) - 2 * x[0] * y[1]


def _flip_row(true_row):
    # The same flip in the pairing row: row[1] = <x, a2> loses 2 * x[0].
    def row(genus, x):
        row = true_row(genus, x)
        row[1] -= 2 * x[0]
        return row
    return row


def _drop_last_pair(raw, n):
    raw = list(raw)
    return words.reduce_word(raw[:-1] if len(raw) > 3 else raw, n)


def _drop_last_letter(w, n=None):
    if n is None:
        w = words.reduce_word([(l.gen, l.exp) for l in w.letters[:-1]], w.n)
    return exponent_vector(w, n)


def _drop_central_basis(true_closure):
    return lambda sig, gens: rat_ideals.RationalIdeal(true_closure(sig, gens).labels, [])


FAULTS = {
    # Named for the pairing the bracket uses; its seam is the pairing row.
    "bracket.symplectic_product": (bracket, "_pairing_row", _flip_row(bracket._pairing_row)),
    "selftest.symplectic_product": (selftest, "symplectic_product",
                                    _flip_pairing(selftest.symplectic_product)),
    "selftest.conjugacy_canonical": (selftest, "conjugacy_canonical", lambda w: w),
    "selftest.reduce_word": (selftest, "reduce_word", _drop_last_pair),
    "selftest.exponent_vector": (selftest, "exponent_vector", _drop_last_letter),
    "rat_ideals.ideal_closure": (rat_ideals, "ideal_closure",
                                 _drop_central_basis(rat_ideals.ideal_closure)),
    "chain.conjugate_in_quotient": (chain, "conjugate_in_quotient", lambda x, y: x == y),
}


def rng_states(seed, scale):
    """[seed, sha256 of the final state] of every Random a run creates."""
    made = []

    class Recording(random.Random):
        def __init__(self, x=None):
            super().__init__(x)
            made.append((x, self))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", Recording)
        run_selftest(seed, scale)
    return [[x, hashlib.sha256(repr(r.getstate()).encode()).hexdigest()] for x, r in made]


def fault_report(name):
    module, attr, replacement = FAULTS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, attr, replacement)
        return run_selftest(*FAULT_RUN)


def record() -> dict:
    return {
        "rng_states": {f"{seed}:{scale}": rng_states(seed, scale) for seed, scale in RUNS},
        "faults": {name: fault_report(name) for name in FAULTS},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed, scale", RUNS)
def test_rng_end_states(recorded, seed, scale):
    assert rng_states(seed, scale) == recorded["rng_states"][f"{seed}:{scale}"]


def test_one_generator_per_property_plus_criterion_seeds(recorded):
    # At scale 0.05 strict_chain has no samples, so 32 of the 33 properties
    # make one generator each; the gcd-rule criterion checks of
    # family_distinct_ideals are decided by proof and seed none.
    seeds = [x for x, _ in recorded["rng_states"]["42:0.05"]]
    assert len(seeds) == 32
    assert all(isinstance(x, str) for x in seeds)


def test_each_property_is_one_row_and_suites_are_contiguous():
    keys = [(p.suite, p.name) for p in selftest.PROPERTIES]
    assert len(keys) == len(set(keys)) == 33
    # run_selftest groups consecutive rows, so a stray row would split its suite.
    suites = [suite for suite, _ in itertools.groupby(suite for suite, _ in keys)]
    assert len(suites) == len(set(suites)) == 7
    assert [s["suite"] for s in run_selftest(0, 0)["suites"]] == suites


@pytest.mark.parametrize("scale", [1e9, 1e308])
def test_scale_over_the_sample_cap_runs_nothing(monkeypatch, scale):
    made = []
    monkeypatch.setattr(random, "Random", made.append)
    with pytest.raises(ValueError, match=f"cap of {selftest.MAX_SELFTEST_SAMPLES}"):
        run_selftest(1, scale)
    assert made == []


def test_sample_cap_admits_the_default_scale():
    assert sum(p.base for p in selftest.PROPERTIES) <= selftest.MAX_SELFTEST_SAMPLES


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault_report(recorded, name):
    report = fault_report(name)
    assert report["all_passed"] is False
    assert json.dumps(report) == json.dumps(recorded["faults"][name])


def test_faults_cover_every_suite_and_payload_kind(recorded):
    failures = [
        (suite["suite"], failure)
        for report in recorded["faults"].values()
        for suite in report["suites"]
        for failure in suite["failures"]
    ]
    assert {suite for suite, _ in failures} == {
        s["suite"] for s in run_selftest(0, 0)["suites"]
    }
    kinds = {
        "words" if "word_0" in f["counterexample"]
        else "elements" if "element_0" in f["counterexample"]
        else "dict"
        for _, f in failures
    }
    assert kinds == {"words", "elements", "dict"}


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
