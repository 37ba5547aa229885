"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line.  Run with ``pytest -s`` to see the
lines while the suite executes.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.bracket import bracket
from goldmanab.chain import (
    QuotientWord,
    conjugate_in_quotient,
    kernel_element,
    project_word,
    separation_level,
    total_c_exponent,
)
from goldmanab.int_ideals import (
    GcdSubmodule,
    TableSubmodule,
    bracket_closure_check,
    divides,
    gcd_divisibility_check,
    gcd_submodule_family,
)
from goldmanab.rat_ideals import (
    PrimitiveLabel,
    RationalIdeal,
    closed_surface_classification_check,
    ideal_closure,
    ideal_contains,
    label_bracket_identity_holds,
)
from goldmanab.sampling import (
    random_chain_word,
    random_element,
    random_fraction,
    random_label,
    random_monomial,
    random_noncentral_monomial,
    random_word,
)
from goldmanab.symplectic import (
    SurfaceSignature,
    intersection_pairing,
    symplectic_product,
)
from goldmanab.words import Word, are_conjugate, reduce_word

CLOSED_1 = SurfaceSignature.closed(1)
CLOSED_2 = SurfaceSignature.closed(2)
BOUNDARY_12 = SurfaceSignature.with_boundary(1, 2)
BOUNDARY_13 = SurfaceSignature.with_boundary(1, 3)

LIE_SIGS = (CLOSED_1, CLOSED_2, BOUNDARY_12)


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.1f}s)")


def test_criterion_01_lie_axioms():
    with criterion(1, "antisymmetry (10^4 pairs) and Jacobi (10^3 triples) per signature, exact"):
        started = time.monotonic()
        for sig in LIE_SIGS:
            rng = random.Random(f"acc1:{sig.n}:{sig.boundary}")
            for i in range(10_000):
                ring = "Z" if i % 2 == 0 else "Q"
                u = random_element(rng, sig.n, ring)
                v = random_element(rng, sig.n, ring)
                assert (bracket(sig, u, v) + bracket(sig, v, u)).is_zero()
            for i in range(1_000):
                ring = "Z" if i % 2 == 0 else "Q"
                u, v, w = (random_element(rng, sig.n, ring) for _ in range(3))
                total = (
                    bracket(sig, u, bracket(sig, v, w))
                    + bracket(sig, v, bracket(sig, w, u))
                    + bracket(sig, w, bracket(sig, u, v))
                )
                assert total.is_zero()
        assert time.monotonic() - started < 10.0


def test_criterion_02_intersection_number_bilinearity():
    with criterion(2, "four-term splitting of the intersection number, plus the generator table"):
        for sig in LIE_SIGS:
            rng = random.Random(f"acc2:{sig.n}:{sig.boundary}")
            for _ in range(10_000):
                u1, u2, v1, v2 = (random_word(rng, sig.n) for _ in range(4))
                whole = intersection_pairing(sig, u1 * u2, v1 * v2)
                parts = sum(
                    intersection_pairing(sig, a, b)
                    for a in (u1, u2)
                    for b in (v1, v2)
                )
                assert whole == parts
            # Generator base case: symplectic pairs meet once, positively.
            for t in range(1, sig.genus + 1):
                odd = Word(sig.n, ((2 * t - 1, 1),))
                even = Word(sig.n, ((2 * t, 1),))
                assert intersection_pairing(sig, odd, even) == 1
            for i in range(1, sig.n + 1):
                for j in range(i, sig.n + 1):
                    expected = 1 if (i % 2 == 1 and j == i + 1 and j <= 2 * sig.genus) else 0
                    wi = Word(sig.n, ((i, 1),))
                    wj = Word(sig.n, ((j, 1),))
                    assert intersection_pairing(sig, wi, wj) == expected


def test_criterion_03_gcd_rule_ideals_and_corrupted_table():
    with criterion(3, "20 random exception sets pass on closed g=1,2; corrupted table refuted"):
        for sig in (CLOSED_1, CLOSED_2):
            rng = random.Random(f"acc3:{sig.genus}")
            for trial in range(20):
                exceptions = {
                    tuple(rng.randint(-10, 10) for _ in range(sig.n))
                    for _ in range(rng.randint(0, 4))
                }
                sub = GcdSubmodule(sig.n, exceptions)
                report = bracket_closure_check(
                    sig, sub, 10, samples=10_000, seed=rng.randint(0, 2**32)
                )
                assert report.ok, report.counterexample
                assert report.checked == 10_000
        corrupted = TableSubmodule(2, 2, {(1, 0): 2, (1, 1): 3})
        report = bracket_closure_check(CLOSED_1, corrupted, 2, samples=None)
        assert not report.ok
        cx = report.counterexample
        assert cx is not None
        v, w = Monomial(tuple(cx["v"])), Monomial(tuple(cx["w"]))
        pairing = symplectic_product(CLOSED_1, v, w)
        assert not divides(
            corrupted.min_multiple(v * w), pairing * corrupted.min_multiple(v)
        )


# --- criterion 4 -----------------------------------------------------------
# With rule values restricted to {1, 2}, a table fails either criterion
# exactly when some implication "value 2 here forces value 2 there" is
# violated, so the two criteria agree on ALL 2^25 tables over the box if
# and only if the reachability closures of their implication relations
# coincide.  That closure comparison is the exhaustive check; a direct
# sweep over sampled tables cross-checks the reduction itself.

_BOX2 = [t for t in itertools.product(range(-2, 3), repeat=2)]


def _closure_relation(edges):
    index = {t: i for i, t in enumerate(_BOX2)}
    size = len(_BOX2)
    reach = [[False] * size for _ in range(size)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for i in range(size):
        reach[i][i] = True
    for k in range(size):
        row_k = reach[k]
        for a in range(size):
            if reach[a][k]:
                row_a = reach[a]
                for b in range(size):
                    if row_k[b]:
                        row_a[b] = True
    return reach


def _bracket_closure_implications():
    edges = []
    for v in _BOX2:
        for w in _BOX2:
            u = (v[0] + w[0], v[1] + w[1])
            if abs(u[0]) <= 2 and abs(u[1]) <= 2:
                if symplectic_product(CLOSED_1, Monomial(v), Monomial(w)) % 2 != 0:
                    edges.append((u, v))
    return edges


def _gcd_divisibility_implications():
    import math

    edges = []
    for k in _BOX2:
        for i in _BOX2:
            if (math.gcd(*k) * math.gcd(*i)) % 2 != 0:
                edges.append((k, i))
    return edges


def test_criterion_04_criteria_equivalent_on_box():
    with criterion(4, "the two ideal criteria agree on every {1,2} table over [-2,2]^2"):
        started = time.monotonic()
        # Exhaustive part: identical implication closures cover all 2^25 tables.
        assert _closure_relation(_bracket_closure_implications()) == _closure_relation(
            _gcd_divisibility_implications()
        )
        # Cross-check of the reduction: direct agreement on sampled tables.
        rng = random.Random("acc4")
        for _ in range(300):
            values = {t: rng.choice([1, 2]) for t in _BOX2}
            sub = TableSubmodule(2, 2, values)
            assert (
                bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
                == gcd_divisibility_check(CLOSED_1, sub, 2, samples=None).ok
            )
        for constant in (1, 2):
            sub = TableSubmodule(2, 2, default=constant)
            assert bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
            assert gcd_divisibility_check(CLOSED_1, sub, 2, samples=None).ok
        assert time.monotonic() - started < 60.0


def test_criterion_05_growing_family_of_ideals():
    with criterion(5, "families of five distinct gcd-rule ideals containing the seeded span"):
        for sig in (CLOSED_1, CLOSED_2):
            rng = random.Random(f"acc5:{sig.genus}")
            for trial in range(6):
                k0 = {
                    tuple(rng.randint(-5, 5) for _ in range(sig.n))
                    for _ in range(rng.randint(1, 3))
                }
                family = gcd_submodule_family(k0, 5)
                assert len({sub.exceptions for sub in family}) == 5
                for sub in family:
                    # Z-span of the seeded monomials stays inside.
                    combo = ModuleElement(
                        "Z", [(Monomial(t), rng.randint(-9, 9)) for t in k0]
                    )
                    assert sub.contains(combo)
                    report = bracket_closure_check(
                        sig, sub, 8, samples=2_000, seed=rng.randint(0, 2**32)
                    )
                    assert report.ok, report.counterexample
                for prev, nxt in zip(family, family[1:]):
                    added = set(nxt.exceptions - prev.exceptions)
                    assert len(added) == 1
                    tup = Monomial(added.pop())
                    assert prev.min_multiple(tup) > 1 and nxt.min_multiple(tup) == 1


def test_criterion_06_label_identity_and_saturation():
    with criterion(6, "label bracket identity (10^3) and single-generator saturation (10^3)"):
        rng = random.Random("acc6")
        sigs = (BOUNDARY_12, BOUNDARY_13, CLOSED_1)
        for i in range(1_000):
            sig = sigs[i % len(sigs)]
            label = random_label(rng, sig)
            x = random_noncentral_monomial(rng, sig)
            y = random_monomial(rng, sig.n)
            assert label_bracket_identity_holds(sig, label, x, y)
        for i in range(1_000):
            sig = sigs[i % len(sigs)]
            label = random_label(rng, sig)
            seed_ideal = ideal_closure(
                sig, [label.element_at(random_noncentral_monomial(rng, sig))]
            )
            y = random_noncentral_monomial(rng, sig)
            scaled = label.element_at(y).scaled(random_fraction(rng, 7))
            assert ideal_contains(sig, seed_ideal, scaled)


def test_criterion_07_closed_surface_classification():
    with criterion(7, "single-monomial closures on closed surfaces land in the three forms"):
        for sig in (CLOSED_1, CLOSED_2):
            rng = random.Random(f"acc7:{sig.genus}")
            assert closed_surface_classification_check(sig, rng, samples=400)
            identity = Monomial.identity(sig.n)
            other = Monomial((1,) + (0,) * (sig.n - 1))
            e_only = ideal_closure(sig, [ModuleElement.single("Q", identity, Fraction(3))])
            assert not e_only.labels and len(e_only.central_basis) == 1
            punctured = ideal_closure(sig, [ModuleElement.single("Q", other, Fraction(1, 2))])
            assert punctured.labels == frozenset({PrimitiveLabel.trivial(sig)})
            assert punctured.central_basis == ()
            whole = ideal_closure(
                sig,
                [
                    ModuleElement.single("Q", identity, Fraction(1)),
                    ModuleElement.single("Q", other, Fraction(1)),
                ],
            )
            assert whole.labels == frozenset({PrimitiveLabel.trivial(sig)})
            assert len(whole.central_basis) == 1


def test_criterion_08_ideal_round_trip():
    with criterion(8, "200 random (labels, central basis) ideals reconstruct exactly per surface"):
        for sig in (BOUNDARY_12, BOUNDARY_13):
            rng = random.Random(f"acc8:{sig.boundary}")
            for _ in range(200):
                labels = {random_label(rng, sig) for _ in range(rng.randint(0, 3))}
                central_rows = [
                    ModuleElement(
                        "Q",
                        [
                            (
                                Monomial(
                                    tuple([0] * 2 * sig.genus)
                                    + tuple(
                                        rng.randint(-4, 4)
                                        for _ in range(sig.n - 2 * sig.genus)
                                    )
                                ),
                                random_fraction(rng, 5),
                            )
                            for _ in range(rng.randint(1, 2))
                        ],
                    )
                    for _ in range(rng.randint(0, 2))
                ]
                ideal = RationalIdeal(labels, central_rows)
                generators = list(ideal.central_basis)
                for label in ideal.sorted_labels():
                    generators.append(
                        label.element_at(random_noncentral_monomial(rng, sig)).scaled(
                            random_fraction(rng, 7)
                        )
                    )
                rebuilt = ideal_closure(sig, generators)
                assert rebuilt == ideal


def test_criterion_09_chain_properties():
    with criterion(9, "chain homomorphism, nesting, kernel witnesses, strictness, separation"):
        started = time.monotonic()
        n, c = 3, 1
        rng = random.Random("acc9")

        def chain_word(max_runs=5):
            ordinary = lambda r: r.choice([-3, -2, -1, 1, 2, 3])
            return random_chain_word(rng, n, c, max_runs, ordinary)

        # Homomorphism and kernel nesting across levels 0..6.
        for _ in range(10_000):
            u, v = chain_word(), chain_word()
            level = rng.randint(0, 6)
            assert project_word(u * v, level, c) == project_word(u, level, c) * project_word(v, level, c)
            finer = project_word(u, level + 1, c)
            assert project_word(finer.to_word(), level, c) == project_word(u, level, c)
            if finer.is_identity():
                assert project_word(u, level, c).is_identity()

        # Kernel witnesses project to the identity at their level.
        for _ in range(1_000):
            level = rng.randint(0, 6)
            k = rng.randint(1, 3)
            exps = [rng.randint(level, level + 4) for _ in range(k)]
            xs = [chain_word(3) for _ in range(k)]
            witness = kernel_element(level, exps, xs, chain_word(3), c)
            assert project_word(witness, level, c).is_identity()

        # Strictness: the 2^n wrap dies at level n and survives at n+1.
        for level in range(7):
            wrap = reduce_word([(c, 1 << level)], n)
            assert project_word(wrap, level, c).is_identity()
            assert not conjugate_in_quotient(
                project_word(wrap, level + 1, c),
                QuotientWord.identity(level + 1, c, n),
            )

        # Separation within the exponent-budget bound.
        done = 0
        while done < 1_000:
            a, b = chain_word(), chain_word()
            budget = total_c_exponent(a, c) + total_c_exponent(b, c)
            if budget > 32 or are_conjugate(a, b):
                continue
            done += 1
            bound = 0
            while (1 << bound) <= 2 * budget:
                bound += 1
            level = separation_level(a, b, c, bound)
            assert level is not None, (str(a), str(b))
            assert level == 0 or (1 << (level - 1)) <= max(2 * budget, 1)
        assert time.monotonic() - started < 60.0


def test_criterion_10_selftest_determinism():
    with criterion(10, "selftest --seed 42 emits byte-identical reports on repeated runs"):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "goldmanab", "selftest", "--seed", "42"],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stdout.decode()[:2000]
        assert runs[0].stdout == runs[1].stdout
        report = json.loads(runs[0].stdout)
        assert report["all_passed"] is True
        assert report["seed"] == 42
