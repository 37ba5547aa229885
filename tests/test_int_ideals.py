import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from goldmanab import int_ideals
from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.bracket import bracket
from goldmanab.int_ideals import (
    MAX_EXHAUSTIVE_PAIRS,
    CheckReport,
    GcdSubmodule,
    TableSubmodule,
    bracket_closure_check,
    divides,
    gcd_divisibility_check,
    gcd_submodule_family,
)
from goldmanab.symplectic import SurfaceSignature, symplectic_product

TORUS = SurfaceSignature.closed(1)


class TestDivides:
    def test_zero_convention(self):
        assert divides(0, 0)
        assert not divides(0, 5)
        assert divides(5, 0)

    def test_ordinary(self):
        assert divides(2, 6)
        assert not divides(2, 3)
        assert divides(3, -9)


class TestGcdRule:
    def test_exception_tuple(self):
        sub = GcdSubmodule(2, {(1, 0)})
        assert sub.min_multiple(Monomial((1, 0))) == 1

    def test_gcd_elsewhere(self):
        sub = GcdSubmodule(2, {(1, 0)})
        assert sub.min_multiple(Monomial((2, 4))) == 2

    def test_zero_tuple_has_no_multiple(self):
        sub = GcdSubmodule(2, {(1, 0)})
        assert sub.min_multiple(Monomial((0, 0))) == 0

    def test_has_no_instance_dict(self):
        assert not hasattr(GcdSubmodule(2), "__dict__")

    def test_zero_tuple_in_exceptions(self):
        sub = GcdSubmodule(2, {(0, 0)})
        assert sub.min_multiple(Monomial((0, 0))) == 1

    def test_membership(self):
        sub = GcdSubmodule(2, {(1, 0)})
        assert sub.contains(ModuleElement("Z", [(Monomial((2, 4)), 6)]))
        assert not sub.contains(ModuleElement("Z", [(Monomial((2, 4)), 3)]))
        assert sub.contains(ModuleElement.zero("Z"))

    def test_identity_needs_zero_coefficient(self):
        sub = GcdSubmodule(2)
        assert not sub.contains(ModuleElement("Z", [(Monomial((0, 0)), 1)]))

    def test_rational_input_rejected(self):
        sub = GcdSubmodule(2)
        with pytest.raises(ValueError, match="integer"):
            sub.contains(ModuleElement.zero("Q"))

    def test_wrong_length_exception(self):
        with pytest.raises(ValueError, match="length"):
            GcdSubmodule(2, {(1, 0, 0)})

    def test_fractional_exception_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            GcdSubmodule(2, {(1.5, 0)})


class TestTableRule:
    def test_lookup_and_default(self):
        sub = TableSubmodule(2, 2, {(1, 0): 2}, default=1)
        assert sub.min_multiple(Monomial((1, 0))) == 2
        assert sub.min_multiple(Monomial((0, 1))) == 1

    def test_outside_box_raises(self):
        sub = TableSubmodule(2, 2)
        with pytest.raises(ValueError, match="outside"):
            sub.min_multiple(Monomial((3, 0)))

    def test_key_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TableSubmodule(2, 1, {(2, 0): 1})

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TableSubmodule(2, 1, {(1, 0): -1})

    def test_fractional_key_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            TableSubmodule(2, 1, {(0.5, 0): 2})

    def test_fractional_radius_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            TableSubmodule(2, 1.9)

    def test_fractional_value_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            TableSubmodule(2, 1, {(1, 0): 2.5})

    def test_fractional_default_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            TableSubmodule(2, 1, default=1.5)

    def test_equal_tables_compare_and_hash_equal(self):
        # Entries equal to the default are not stored, so they do not count.
        a, b = TableSubmodule(2, 1), TableSubmodule(2, 1, {(0, 0): 1, (1, -1): 1})
        assert a == b and hash(a) == hash(b)
        assert a != TableSubmodule(2, 1, {(1, -1): 2}) and a != TableSubmodule(2, 1, default=2)
        with pytest.raises(AttributeError):
            a.radius = 5

    def test_repr_tells_unequal_tables_apart(self):
        a, b = TableSubmodule(2, 1), TableSubmodule(2, 1, {(1, 0): 2})
        assert repr(a) == "TableSubmodule(n=2, radius=1, values={}, default=1)"
        assert repr(b) == "TableSubmodule(n=2, radius=1, values={(1, 0): 2}, default=1)"
        assert eval(repr(b)) == b


class TestTableSizeCap:
    def test_table_over_the_cap_is_refused_before_allocation(self):
        assert 25 ** 4 > int_ideals.MAX_TABLE_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {int_ideals.MAX_TABLE_ENTRIES}"):
                TableSubmodule(4, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_huge_n_is_refused_without_computing_the_power(self):
        with pytest.raises(ValueError, match=r"3\^10000000 entries"):
            TableSubmodule(10_000_000, 1)

    def test_largest_bench_table_fits(self):
        # Radius 2 on n = 5: the largest table the benchmark builds.
        assert 5 ** 5 <= int_ideals.MAX_TABLE_ENTRIES
        assert TableSubmodule(5, 2).min_multiple((2, -2, 2, -2, 2)) == 1


class TestBracketClosureCheck:
    def test_gcd_rule_always_passes(self):
        for k in ({(1, 0)}, set(), {(2, 3), (0, 1)}):
            report = bracket_closure_check(TORUS, GcdSubmodule(2, k), 10, samples=500, seed=11)
            assert report.ok and report.counterexample is None

    def test_all_ones_table_is_whole_algebra(self):
        report = bracket_closure_check(TORUS, TableSubmodule(2, 2), 2, samples=None)
        assert report.ok

    def test_corrupted_table_rejected_with_counterexample(self):
        sub = TableSubmodule(2, 2, {(1, 0): 2, (1, 1): 3})
        report = bracket_closure_check(TORUS, sub, 2, samples=None)
        assert not report.ok
        cx = report.counterexample
        v = Monomial(tuple(cx["v"]))
        w = Monomial(tuple(cx["w"]))
        assert not divides(sub.min_multiple(v * w), cx["pairing"] * cx["rule_v"])

    def test_requires_seed_when_sampling(self):
        with pytest.raises(ValueError, match="seed"):
            bracket_closure_check(TORUS, GcdSubmodule(2), 5, samples=10, seed=None)

    def test_deterministic_given_seed(self):
        sub = GcdSubmodule(2, {(1, 1)})
        a = bracket_closure_check(TORUS, sub, 8, samples=200, seed=3)
        b = bracket_closure_check(TORUS, sub, 8, samples=200, seed=3)
        assert (a.ok, a.checked, a.skipped) == (b.ok, b.checked, b.skipped)

    def test_skips_products_outside_table_box(self):
        report = bracket_closure_check(TORUS, TableSubmodule(2, 1), 1, samples=None)
        assert report.skipped > 0

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_negative_samples_rejected(self, check):
        with pytest.raises(ValueError, match="samples"):
            check(TORUS, GcdSubmodule(2), 5, samples=-5, seed=1)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    @pytest.mark.parametrize("samples", [None, 10])
    def test_negative_radius_rejected(self, check, samples):
        with pytest.raises(ValueError, match="radius"):
            check(TORUS, GcdSubmodule(2), -1, samples=samples, seed=1)

    def test_zero_samples_check_nothing(self):
        report = bracket_closure_check(TORUS, GcdSubmodule(2), 5, samples=0, seed=1)
        assert report.ok and report.checked == report.skipped == 0


class TestArgumentTypes:
    # One argument check serves every path: the gcd-rule proof, the table
    # sweep and the pair loop.
    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    @pytest.mark.parametrize("sub", [GcdSubmodule(2), TableSubmodule(2, 2)], ids=["gcd", "table"])
    @pytest.mark.parametrize("samples", [None, 10])
    @pytest.mark.parametrize("radius", [1.5, 2.0])
    def test_float_radius_refused(self, check, sub, samples, radius):
        with pytest.raises(TypeError, match="exact integer"):
            check(TORUS, sub, radius, samples=samples, seed=1)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    @pytest.mark.parametrize("sub", [GcdSubmodule(2), TableSubmodule(2, 2)], ids=["gcd", "table"])
    def test_float_samples_refused(self, check, sub):
        with pytest.raises(TypeError, match="exact integer"):
            check(TORUS, sub, 2, samples=10.0, seed=1)


class TestGcdDivisibilityCheck:
    def test_pure_gcd_rule_passes(self):
        report = gcd_divisibility_check(TORUS, GcdSubmodule(2), 6, samples=400, seed=5)
        assert report.ok

    def test_all_ones_passes(self):
        assert gcd_divisibility_check(TORUS, TableSubmodule(2, 2), 2, samples=None).ok

    def test_corrupted_table_rejected(self):
        sub = TableSubmodule(2, 2, {(1, 0): 2, (1, 1): 3})
        report = gcd_divisibility_check(TORUS, sub, 2, samples=None)
        assert not report.ok

    def test_genus_zero_always_ideal(self):
        sig = SurfaceSignature.with_boundary(0, 3)
        sub = TableSubmodule(2, 2, {(1, 0): 7, (0, 1): 5})
        assert gcd_divisibility_check(sig, sub, 2, samples=None).ok
        assert bracket_closure_check(sig, sub, 2, samples=None).ok


def _exhaustive_bracket_containment(sig, sub, radius):
    for v_exps in itertools.product(range(-radius, radius + 1), repeat=sig.n):
        v = Monomial(v_exps)
        mult = sub.min_multiple(v)
        if mult == 0:
            continue
        gen = ModuleElement.single("Z", v, mult)
        for w_exps in itertools.product(range(-radius, radius + 1), repeat=sig.n):
            w = Monomial(w_exps)
            if not sub.in_domain(v * w):
                continue
            if not sub.contains(bracket(sig, gen, ModuleElement.single("Z", w, 1))):
                return False
    return True


class TestCriterionAgainstBracketOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_table_verdicts_match_direct_bracket_closure(self, seed):
        rng = random.Random(seed)
        values = {
            (i, j): rng.choice([0, 1, 1, 2, 3])
            for i in range(-2, 3)
            for j in range(-2, 3)
        }
        sub = TableSubmodule(2, 2, values)
        assert bracket_closure_check(TORUS, sub, 2, samples=None).ok == \
            _exhaustive_bracket_containment(TORUS, sub, 2)

    def test_gcd_rule_membership_closed_under_bracket(self):
        rng = random.Random(99)
        sub = GcdSubmodule(2, {(1, 0), (3, 3)})
        for _ in range(300):
            mono = Monomial((rng.randint(-8, 8), rng.randint(-8, 8)))
            mult = sub.min_multiple(mono)
            if mult == 0:
                continue
            member = ModuleElement.single("Z", mono, mult * rng.randint(1, 5))
            v = Monomial((rng.randint(-8, 8), rng.randint(-8, 8)))
            assert sub.contains(bracket(TORUS, member, ModuleElement.single("Z", v, 1)))


class TestFamily:
    def test_singleton(self):
        family = gcd_submodule_family({(1, 0)}, 1)
        assert len(family) == 1 and family[0].exceptions == frozenset({(1, 0)})

    def test_enumeration_order(self):
        family = gcd_submodule_family({(1, 0)}, 3)
        assert sorted(family[1].exceptions - family[0].exceptions) == [(-2, -2)]
        assert sorted(family[2].exceptions - family[1].exceptions) == [(-2, 0)]

    def test_added_tuples_have_gcd_above_one(self):
        family = gcd_submodule_family({(1, 0)}, 6)
        base = family[0]
        for prev, nxt in zip(family, family[1:]):
            added = set(nxt.exceptions - prev.exceptions)
            assert len(added) == 1
            tup = added.pop()
            assert base.min_multiple(Monomial(tup)) > 1
            assert nxt.min_multiple(Monomial(tup)) == 1

    def test_pairwise_distinct(self):
        family = gcd_submodule_family({(2, 0, 0)}, 5, n=3)
        assert len({sub.exceptions for sub in family}) == 5

    def test_empty_base_needs_n(self):
        with pytest.raises(ValueError, match="n is required"):
            gcd_submodule_family(set(), 2)
        family = gcd_submodule_family(set(), 2, n=2)
        assert len(family) == 2

    def test_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            gcd_submodule_family({(1, 0)}, 0)

    def test_fractional_base_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            gcd_submodule_family({(1.5, 0)}, 2)

    @pytest.mark.parametrize("k0, n, count", [
        ((), -1, 1), ((), 0, 1), ((), 0, 2), ({()}, None, 1), ({()}, None, 2),
    ])
    def test_tuple_length_below_one_rejected(self, k0, n, count):
        with pytest.raises(ValueError, match="tuple length"):
            gcd_submodule_family(k0, count, n=n)

    def test_family_over_the_cap(self):
        # A family of `count` members over K0 holds count*|K0| + count*(count-1)/2
        # tuples: 500 members over one tuple hold 125,250.
        with pytest.raises(ValueError, match=f"125250 exception tuples, more than the cap of "
                                             f"{int_ideals.MAX_FAMILY_TUPLES}"):
            gcd_submodule_family({(1, 0)}, 500)

    def test_family_cap_boundary(self):
        assert 446 * 447 // 2 <= int_ideals.MAX_FAMILY_TUPLES < 447 * 448 // 2
        assert len(gcd_submodule_family({(1, 0)}, 446)) == 446
        with pytest.raises(ValueError, match="cap"):
            gcd_submodule_family({(1, 0)}, 447)

    def test_huge_family_refused_before_any_member(self):
        with pytest.raises(ValueError, match="cap"):
            gcd_submodule_family({(1, 0), (0, 1)}, 10**12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_enumeration_equals_the_scan_from_radius_one(self, n):
        k0 = {(1,) + (0,) * (n - 1), (2,) * n}
        family = gcd_submodule_family(k0, 12, n)
        stream, expected = _eligible_from_radius_one(n, frozenset(k0)), [frozenset(k0)]
        for _ in range(11):
            expected.append(expected[-1] | {next(stream)})
        assert [sub.exceptions for sub in family] == expected

    def test_long_tuples_return_at_once(self):
        # The radius-1 shell holds 3^40 tuples, none of them eligible.
        script = ("import json\n"
                  "from goldmanab.int_ideals import gcd_submodule_family as f\n"
                  "print(json.dumps([sorted(s.exceptions) for s in f([(1,) + (0,) * 39], 3)]))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        base, added = [1] + [0] * 39, [[-2] * 40, [-2] * 39 + [0]]
        assert json.loads(proc.stdout) == [sorted([base, *added[:j]]) for j in range(3)]

    def test_gcd_submodule_needs_positive_length(self):
        for n in (0, -2):
            with pytest.raises(ValueError, match="tuple length"):
                GcdSubmodule(n)


def _eligible_from_radius_one(n, excluded):
    """The family's tuple order, scanned from the shell of radius 1 up."""
    radius = 1
    while True:
        for t in itertools.product(range(-radius, radius + 1), repeat=n):
            if max(map(abs, t)) == radius and math.gcd(*t) > 1 and t not in excluded:
                yield t
        radius += 1


def _oracle_pairs(n, radius, samples, seed):
    if samples is None:
        box = [Monomial(t) for t in itertools.product(range(-radius, radius + 1), repeat=n)]
        return [(v, w) for v in box for w in box]
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        v = Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))
        w = Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))
        pairs.append((v, w))
    return pairs


def _bracket_criterion_oracle(sig, sub, radius, samples=None, seed=None):
    """bracket_closure_check as a per-pair loop over the public rule API."""
    checked = skipped = 0
    for v, w in _oracle_pairs(sig.n, radius, samples, seed):
        if not (sub.in_domain(v) and sub.in_domain(w) and sub.in_domain(v * w)):
            skipped += 1
            continue
        checked += 1
        pairing = symplectic_product(sig, v, w)
        a_v, a_vw = sub.min_multiple(v), sub.min_multiple(v * w)
        if not divides(a_vw, pairing * a_v):
            cx = {"v": list(v), "w": list(w), "pairing": pairing, "rule_v": a_v, "rule_vw": a_vw}
            return CheckReport(False, cx, checked, skipped)
    return CheckReport(True, None, checked, skipped)


def _gcd_criterion_oracle(sig, sub, radius, samples=None, seed=None):
    """gcd_divisibility_check as a per-pair loop over the public rule API."""
    checked = skipped = 0
    for k, i in _oracle_pairs(sig.n, radius, samples, seed):
        if not (sub.in_domain(k) and sub.in_domain(i)):
            skipped += 1
            continue
        checked += 1
        factors = [
            math.gcd(k[2 * t], k[2 * t + 1]) * math.gcd(i[2 * t], i[2 * t + 1])
            for t in range(sig.genus)
        ]
        factor = math.gcd(*factors) if factors else 0
        a_k, a_i = sub.min_multiple(k), sub.min_multiple(i)
        if not divides(a_k, a_i * factor):
            cx = {"k": list(k), "i": list(i), "rule_k": a_k, "rule_i": a_i, "gcd_factor": factor}
            return CheckReport(False, cx, checked, skipped)
    return CheckReport(True, None, checked, skipped)


def _gcd_table(n, radius, seed):
    """The gcd rule on the box, left alone for seeds divisible by 3, else perturbed."""
    rng = random.Random(seed)
    box = list(itertools.product(range(-radius, radius + 1), repeat=n))
    values = {t: math.gcd(*t) for t in box}
    for _ in range(0 if seed % 3 == 0 else rng.randint(1, 2)):
        values[rng.choice(box)] = rng.choice([0, 1, 2, 3])
    return TableSubmodule(n, radius, values)


CRITERIA = [
    (bracket_closure_check, _bracket_criterion_oracle),
    (gcd_divisibility_check, _gcd_criterion_oracle),
]
# (surface, table radius, sweep radius): unequal radii make the sweep skip pairs.
SWEEPS = [
    (TORUS, 2, 2),
    (TORUS, 1, 2),
    (TORUS, 3, 2),
    (SurfaceSignature.with_boundary(1, 2), 1, 1),
    (SurfaceSignature.with_boundary(1, 2), 2, 1),
    (SurfaceSignature.with_boundary(0, 3), 1, 2),
    (SurfaceSignature.closed(2), 1, 1),
]


class TestCriteriaAgainstPairLoop:
    @pytest.mark.parametrize("check, oracle", CRITERIA)
    @pytest.mark.parametrize("sig, table_radius, radius", SWEEPS)
    def test_exhaustive_tables(self, check, oracle, sig, table_radius, radius):
        verdicts = set()
        for seed in range(6):
            sub = _gcd_table(sig.n, table_radius, seed)
            report = check(sig, sub, radius, samples=None)
            assert report == oracle(sig, sub, radius)
            verdicts.add(report.ok)
        if sig.genus:
            assert verdicts == {True, False}

    @pytest.mark.parametrize("check, oracle", CRITERIA)
    @pytest.mark.parametrize("sig, table_radius, radius", SWEEPS)
    def test_sampled_tables(self, check, oracle, sig, table_radius, radius):
        for seed in range(6):
            sub = _gcd_table(sig.n, table_radius, seed)
            report = check(sig, sub, radius + 1, samples=300, seed=seed)
            assert report == oracle(sig, sub, radius + 1, samples=300, seed=seed)

    @pytest.mark.parametrize("check, oracle", CRITERIA)
    @pytest.mark.parametrize("sig", [TORUS, SurfaceSignature.closed(2)])
    def test_gcd_rule(self, check, oracle, sig):
        sub = GcdSubmodule(sig.n, {(1,) * sig.n, (0, 2) + (0,) * (sig.n - 2)})
        assert check(sig, sub, 8, samples=400, seed=9) == oracle(sig, sub, 8, samples=400, seed=9)
        assert check(sig, sub, 1, samples=None) == oracle(sig, sub, 1)
        # A rule of another tuple length is outside the domain everywhere.
        other = GcdSubmodule(sig.n + 1)
        report = check(sig, other, 2, samples=50, seed=1)
        assert report == oracle(sig, other, 2, samples=50, seed=1)
        assert report.skipped == 50

    @pytest.mark.parametrize("check, oracle", CRITERIA)
    @pytest.mark.parametrize("sig", [TORUS, SurfaceSignature.with_boundary(1, 2),
                                     SurfaceSignature.with_boundary(0, 3),
                                     SurfaceSignature.closed(2)])
    def test_radius_zero(self, check, oracle, sig):
        # One pair, or one draw of width 1 per exponent, which rejects half
        # of its random bits.
        for seed in range(3):
            sub = _gcd_table(sig.n, 1, seed)
            assert check(sig, sub, 0, samples=None) == oracle(sig, sub, 0)
            report = check(sig, sub, 0, samples=25, seed=seed)
            assert report == oracle(sig, sub, 0, samples=25, seed=seed)
            assert report.checked + report.skipped == 25

    @pytest.mark.parametrize("check, oracle", CRITERIA)
    def test_first_violation_after_skips(self, check, oracle):
        # Sweeps wider than the table skip whole rows of v and single w
        # before the first violation; its pair and both counts must match.
        seen = []
        for sig, table_radius, radius in [(TORUS, 1, 2), (SurfaceSignature.with_boundary(1, 2), 1, 2)]:
            for seed in (1, 2, 4, 5, 7, 8):
                sub = _gcd_table(sig.n, table_radius, seed)
                exhaustive = check(sig, sub, radius, samples=None)
                assert exhaustive == oracle(sig, sub, radius)
                sampled = check(sig, sub, radius, samples=400, seed=seed)
                assert sampled == oracle(sig, sub, radius, samples=400, seed=seed)
                seen += [exhaustive, sampled]
        violations = [r for r in seen if not r.ok]
        assert any(r.skipped and r.checked > 1 for r in violations)

    def test_table_domain_is_the_box(self):
        sub = TableSubmodule(2, 2)
        for t in itertools.product(range(-4, 5), repeat=2):
            assert sub.in_domain(Monomial(t)) == (max(map(abs, t)) <= 2)
        assert not sub.in_domain(Monomial((0, 0, 0)))
        assert not sub.in_domain(Monomial((1,)))


ORACLE_SURFACES = [TORUS, SurfaceSignature.with_boundary(0, 3),
                   SurfaceSignature.with_boundary(1, 2), SurfaceSignature.closed(2)]


def _sweep_radius(n, radius):
    """radius, lowered so that an exhaustive oracle visits at most 6561 pairs."""
    return min(radius, 2 if n <= 2 else 1)


@st.composite
def _rule_lengths(draw, sig):
    # Mostly the surface's rank; sometimes one more or one less, where the
    # rule's domain holds no point of the sweep.
    return max(1, sig.n + draw(st.sampled_from([0, 0, 0, 1, -1])))


@st.composite
def gcd_rule_cases(draw):
    sig = draw(st.sampled_from(ORACLE_SURFACES))
    n = draw(_rule_lengths(sig))
    exceptions = draw(st.sets(st.tuples(*[st.integers(-3, 3)] * n), max_size=4))
    if draw(st.booleans()):
        exceptions.add((0,) * n)
    return sig, GcdSubmodule(n, exceptions)


@st.composite
def table_cases(draw):
    sig = draw(st.sampled_from(ORACLE_SURFACES))
    n = draw(_rule_lengths(sig))
    table_radius = draw(st.integers(0, 2 if n <= 3 else 1))
    box = list(itertools.product(range(-table_radius, table_radius + 1), repeat=n))
    values = {t: math.gcd(*t) for t in box}
    # The gcd rule on its box is an ideal; changed values may break it.
    for index, value in draw(st.lists(st.tuples(st.integers(0, len(box) - 1),
                                                st.integers(0, 3)), max_size=3)):
        values[box[index]] = value
    return sig, TableSubmodule(n, table_radius, values)


def _refuse_generators(monkeypatch):
    def refuse(*args):
        raise AssertionError("a gcd-rule check needs no random generator")

    monkeypatch.setattr(int_ideals.random, "Random", refuse)


class _Swept(GcdSubmodule):
    """The gcd rule, which the criterion checks sweep pair by pair."""


class TestGcdRuleProof:
    @settings(max_examples=200, deadline=None)
    @given(gcd_rule_cases(), st.integers(0, 10), st.one_of(st.none(), st.integers(0, 400)),
           st.integers(0, 2**32 - 1))
    def test_reports_equal_the_pair_loop(self, case, radius, samples, seed):
        sig, sub = case
        if samples is None:
            radius = _sweep_radius(sig.n, radius)
        for check, oracle in CRITERIA:
            report = check(sig, sub, radius, samples, seed)
            assert report == oracle(sig, sub, radius, samples, seed)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_no_generator_is_made(self, check, monkeypatch):
        _refuse_generators(monkeypatch)
        sub = GcdSubmodule(2, {(1, 0), (0, 0)})
        assert check(TORUS, sub, 10, samples=500, seed=3) == CheckReport(True, None, 500, 0)
        assert check(TORUS, sub, 3, samples=None) == CheckReport(True, None, 7 ** 4, 0)
        other = GcdSubmodule(3)
        assert check(TORUS, other, 10, samples=500, seed=3) == CheckReport(True, None, 0, 500)
        assert check(TORUS, other, 3, samples=None) == CheckReport(True, None, 0, 7 ** 4)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_argument_checks_run_first(self, check, monkeypatch):
        _refuse_generators(monkeypatch)
        sig, sub = SurfaceSignature.closed(2), GcdSubmodule(4)
        with pytest.raises(ValueError, match=f"{61 ** 8} pairs"):
            check(sig, sub, 30, samples=None)
        with pytest.raises(ValueError, match="samples exceed the cap"):
            check(sig, sub, 3, samples=MAX_EXHAUSTIVE_PAIRS + 1, seed=1)
        with pytest.raises(ValueError, match="seed"):
            check(sig, sub, 3, samples=10)
        with pytest.raises(ValueError, match="samples"):
            check(sig, sub, 3, samples=-1, seed=1)
        with pytest.raises(ValueError, match="radius"):
            check(sig, sub, -1, samples=None)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_random_exception_sets_hold_pair_by_pair(self, genus):
        # The scale of acceptance criterion 3, whose gcd rules the checks
        # now decide by proof: 20 random exception sets, 10,000 sampled
        # pairs at radius 10 each, swept pair by pair for both criteria.
        sig = SurfaceSignature.closed(genus)
        rng = random.Random(f"pairs:{genus}")
        for _ in range(20):
            exceptions = {tuple(rng.randint(-10, 10) for _ in range(sig.n))
                          for _ in range(rng.randint(0, 4))}
            seed = rng.randint(0, 2**32)
            for check, _ in CRITERIA:
                swept = check(sig, _Swept(sig.n, exceptions), 10, 10_000, seed)
                assert swept == CheckReport(True, None, 10_000, 0)
                assert check(sig, GcdSubmodule(sig.n, exceptions), 10, 10_000, seed) == swept

    @pytest.mark.parametrize("genus", [1, 2])
    def test_families_hold_pair_by_pair(self, genus):
        # The scale of acceptance criterion 5: six families of five members,
        # 2,000 sampled pairs at radius 8 per member and criterion.
        sig = SurfaceSignature.closed(genus)
        rng = random.Random(f"families:{genus}")
        for _ in range(6):
            k0 = {tuple(rng.randint(-5, 5) for _ in range(sig.n))
                  for _ in range(rng.randint(1, 3))}
            for sub in gcd_submodule_family(k0, 5):
                seed = rng.randint(0, 2**32)
                for check, _ in CRITERIA:
                    swept = check(sig, _Swept(sub.n, sub.exceptions), 8, 2_000, seed)
                    assert swept == CheckReport(True, None, 2_000, 0)

    def test_subclass_still_sweeps(self):
        class Perturbed(GcdSubmodule):
            def min_multiple(self, x):
                return 3 if x == (1, 1) else super().min_multiple(x)

        sub = Perturbed(2)
        for check, oracle in CRITERIA:
            report = check(TORUS, sub, 2, samples=None)
            assert not report.ok and report == oracle(TORUS, sub, 2)


class TestTableSweep:
    @settings(max_examples=80, deadline=None)
    @given(table_cases(), st.integers(0, 2))
    def test_reports_equal_the_pair_loop(self, case, radius):
        sig, sub = case
        radius = _sweep_radius(sig.n, radius)
        for check, oracle in CRITERIA:
            assert check(sig, sub, radius, samples=None) == oracle(sig, sub, radius)


class TestExhaustiveWorkCap:
    def test_cap_names_the_pair_count(self):
        sig = SurfaceSignature.closed(2)
        pairs = 61 ** 8
        for check in (bracket_closure_check, gcd_divisibility_check):
            with pytest.raises(ValueError, match=f"{pairs} pairs"):
                check(sig, GcdSubmodule(4), 30, samples=None)

    def test_cap_names_a_huge_sweep_without_writing_its_count(self):
        # 2001^200000 pairs: about 2.2 million bits, too long to print in decimal.
        sig = SurfaceSignature.closed(50_000)
        for check in (bracket_closure_check, gcd_divisibility_check):
            with pytest.raises(ValueError, match=(
                    rf"visits 2001\^200000 pairs, more than the cap of {MAX_EXHAUSTIVE_PAIRS}")):
                check(sig, GcdSubmodule(sig.n), 1000, samples=None)

    def test_sampling_is_not_capped(self):
        sig = SurfaceSignature.with_boundary(2, 2)
        assert 7 ** 10 > MAX_EXHAUSTIVE_PAIRS
        with pytest.raises(ValueError, match="cap"):
            bracket_closure_check(sig, GcdSubmodule(5), 3, samples=None)
        assert bracket_closure_check(sig, GcdSubmodule(5), 30, samples=10, seed=1).ok


class TestSampledWorkCap:
    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_samples_over_the_cap_are_refused_before_any_draw(self, check, monkeypatch):
        drawn = []

        class Spy(random.Random):
            def getrandbits(self, k):
                drawn.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(int_ideals.random, "Random", Spy)
        with pytest.raises(ValueError, match=f"10000001 samples exceed the cap of {MAX_EXHAUSTIVE_PAIRS}"):
            check(TORUS, GcdSubmodule(2), 3, samples=MAX_EXHAUSTIVE_PAIRS + 1, seed=1)
        with pytest.raises(ValueError, match="cap"):
            check(TORUS, GcdSubmodule(2), 3, samples=10**12, seed=1)
        assert drawn == []

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_cap_boundary(self, check, monkeypatch):
        # The cap is read when a check starts, so a small one shows the boundary.
        monkeypatch.setattr(int_ideals, "MAX_EXHAUSTIVE_PAIRS", 40)
        report = check(TORUS, GcdSubmodule(2), 3, samples=40, seed=1)
        assert report.checked + report.skipped == 40
        with pytest.raises(ValueError, match="41 samples exceed the cap of 40"):
            check(TORUS, GcdSubmodule(2), 3, samples=41, seed=1)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_draw_cap_boundary(self, check, monkeypatch):
        # 2*n coordinates per sample: 4 on the torus.
        monkeypatch.setattr(int_ideals, "MAX_SAMPLED_DRAWS", 40)
        report = check(TORUS, TableSubmodule(2, 1), 3, samples=10, seed=1)
        assert report.checked + report.skipped == 10
        _refuse_generators(monkeypatch)
        for sub in (TableSubmodule(2, 1), GcdSubmodule(2)):
            with pytest.raises(ValueError, match="11 samples on n = 2 draw 44 coordinates, "
                                                 "more than the cap of 40"):
                check(TORUS, sub, 3, samples=11, seed=1)

    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    def test_draw_cap_admits_the_sample_cap_up_to_n_10(self, check):
        # The gcd rule is decided by proof, so the largest admitted check runs at once.
        samples = MAX_EXHAUSTIVE_PAIRS
        assert check(SurfaceSignature.closed(5), GcdSubmodule(10), 3, samples, 1).checked == samples
        with pytest.raises(ValueError, match=f"cap of {int_ideals.MAX_SAMPLED_DRAWS}"):
            check(SurfaceSignature.with_boundary(5, 2), GcdSubmodule(11), 3, samples, 1)


class TestSampledDraws:
    @pytest.mark.parametrize("check", [bracket_closure_check, gcd_divisibility_check])
    @pytest.mark.parametrize("radius", [0, 1, 8, 2**40])
    def test_each_sample_draws_2n_coordinates(self, check, radius, monkeypatch):
        # Width 1 still consumes random bits; widths above 32 bits take
        # several words.  Points outside the table box are drawn and skipped.
        sig, samples = SurfaceSignature.with_boundary(1, 2), 50
        reference = random.Random(17)
        for _ in range(2 * sig.n * samples):
            reference.randrange(-radius, radius + 1)
        made = []

        class Recorder(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(int_ideals.random, "Random", Recorder)
        report = check(sig, TableSubmodule(sig.n, 1), radius, samples=samples, seed=17)
        assert report.ok and report.checked + report.skipped == samples
        assert [r.getstate() for r in made] == [reference.getstate()]
