"""Integer numerators over one denominator, checked against Fraction arithmetic.

Module elements store integer numerators over one denominator in lowest
terms, and labels a primitive integer weight vector.  Each reference here
works term by term on the Fractions the public API returns, one Fraction
per term.
"""

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from goldmanab.abelian import ModuleElement
from goldmanab.bracket import bracket
from goldmanab.rat_ideals import PrimitiveLabel, decompose_by_center
from goldmanab.symplectic import symplectic_product

from conftest import SIGNATURES, elements, int_coeffs, rational_coeffs

RINGS = ["Z", "Q"]


def _assert_lowest(u):
    """The stored form: nonzero int numerators over den >= 1, gcd 1, den 1 in ring Z."""
    nums = list(u._terms.values())
    assert all(type(c) is int and c for c in nums)
    assert u._den >= 1 and gcd(u._den, *nums) == 1
    assert u.ring == "Q" or u._den == 1


def _fractions(u):
    return {m: Fraction(c) for m, c in u.terms()}


def _sum(*term_lists):
    """Fraction sums of equal monomials, zero sums dropped."""
    acc = {}
    for terms in term_lists:
        for m, c in terms:
            acc[m] = acc.get(m, 0) + Fraction(c)
    return {m: c for m, c in acc.items() if c}


def _assert_matches(u, expected):
    _assert_lowest(u)
    assert _fractions(u) == expected
    assert all(isinstance(c, int if u.ring == "Z" else Fraction) for _, c in u.terms())


def _draw(data, ring, max_terms=6, radius=5):
    sig = data.draw(st.sampled_from(SIGNATURES))
    return sig, data.draw(elements(sig.n, ring, max_terms=max_terms, radius=radius))


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_matches_fraction_loop(ring, data):
    sig, u = _draw(data, ring)
    v = data.draw(elements(sig.n, ring, max_terms=6))
    expected = _sum((x * y, Fraction(c) * Fraction(d) * symplectic_product(sig, x, y))
                    for x, c in u.terms() for y, d in v.terms())
    _assert_matches(bracket(sig, u, v), expected)


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_maps(ring, data):
    sig, u = _draw(data, ring)
    v = data.draw(elements(sig.n, ring, max_terms=6))
    k = data.draw(st.one_of(st.just(0), int_coeffs() if ring == "Z" else rational_coeffs()))
    fu, fv = _fractions(u), _fractions(v)
    _assert_matches(u + v, _sum(fu.items(), fv.items()))
    _assert_matches(u - v, _sum(fu.items(), ((m, -c) for m, c in fv.items())))
    _assert_matches(-u, {m: -c for m, c in fu.items()})
    _assert_matches(u.scaled(k), {m: c * k for m, c in fu.items() if k})
    promoted = u.to_rational()
    _assert_matches(promoted, fu)
    assert promoted.ring == "Q"
    assert all(type(c) is Fraction for _, c in promoted.terms())


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_equal_elements_built_different_ways(ring, data):
    sig, u = _draw(data, ring)
    # Each coefficient split in two terms, and the element summed term by term.
    cuts = [data.draw(int_coeffs() if ring == "Z" else rational_coeffs()) for _ in range(len(u))]
    split = ModuleElement(ring, [t for (m, c), a in zip(u.terms(), cuts)
                                 for t in ((m, a), (m, c - a))])
    summed = ModuleElement.zero(ring)
    for m, c in u.terms():
        summed = summed + ModuleElement.single(ring, m, c)
    others = [split, summed]
    if ring == "Q":
        k = data.draw(rational_coeffs())
        others.append(u.scaled(k).scaled(1 / k))
    for w in others:
        _assert_lowest(w)
        assert w == u and hash(w) == hash(u)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_class_labels_match_from_pairs(data):
    sig, u = _draw(data, "Q", max_terms=10, radius=2)
    parts, central = decompose_by_center(sig, u)
    classes = {}
    for m, c in u.terms():
        classes.setdefault(m[:2 * sig.genus], []).append((m, c))
    _assert_matches(central, dict(classes.pop((0,) * 2 * sig.genus, [])))
    assert len(parts) == len(classes)
    for (label, base, coeff), key in zip(parts, sorted(classes)):
        members = classes[key]
        assert type(coeff) is Fraction and (base, coeff) == members[0]
        shift = base.inverse()
        assert label == PrimitiveLabel.from_pairs(sig, [(m * shift, c) for m, c in members])
        assert label._weights[0] > 0 and gcd(*label._weights) == 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decomposition_reassembles(data):
    sig, u = _draw(data, "Q", max_terms=10, radius=2)
    assert decompose_by_center(sig, u).reassemble() == u
