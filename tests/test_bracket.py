from fractions import Fraction

import pytest
from hypothesis import given, settings

from goldmanab.abelian import ModuleElement, Monomial, exponent_vector
from goldmanab.bracket import bracket, bracket_monomials
from goldmanab.symplectic import SurfaceSignature, intersection_pairing, is_central

from conftest import elements, monomials, words

TORUS = SurfaceSignature.closed(1)
PAIR_OF_PANTS = SurfaceSignature.with_boundary(0, 3)
ONE_HOLED_TORUS = SurfaceSignature.with_boundary(1, 2)


class TestMonomialBracket:
    def test_generators(self):
        out = bracket_monomials(TORUS, Monomial((1, 0)), Monomial((0, 1)))
        assert out.terms() == [(Monomial((1, 1)), 1)]

    def test_self_bracket_zero(self):
        x = Monomial((2, -5))
        assert bracket_monomials(TORUS, x, x).is_zero()

    def test_pairing_and_exponent_sum(self):
        out = bracket_monomials(TORUS, Monomial((2, 1)), Monomial((1, 3)))
        assert out.terms() == [(Monomial((3, 4)), 5)]

    def test_rational_ring(self):
        out = bracket_monomials(TORUS, Monomial((1, 0)), Monomial((0, 1)), ring="Q")
        assert out.ring == "Q"
        assert out.coefficient(Monomial((1, 1))) == Fraction(1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            bracket_monomials(TORUS, Monomial((1,)), Monomial((0, 1)))


class TestBilinearBracket:
    def test_scaled_generators(self):
        u = ModuleElement("Z", [(Monomial((1, 0)), 2)])
        v = ModuleElement("Z", [(Monomial((0, 1)), 3)])
        assert bracket(TORUS, u, v).terms() == [(Monomial((1, 1)), 6)]

    def test_zero_argument(self):
        u = ModuleElement("Z", [(Monomial((1, 0)), 2)])
        assert bracket(TORUS, u, ModuleElement.zero("Z")).is_zero()

    def test_antisymmetry_on_sum(self):
        u = ModuleElement("Z", [(Monomial((1, 0)), 1), (Monomial((0, 1)), 1)])
        assert bracket(TORUS, u, u).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            bracket(TORUS, ModuleElement.zero("Z"), ModuleElement.zero("Q"))

    @given(elements(2, "Z"), elements(2, "Z"))
    def test_antisymmetry_integer(self, u, v):
        assert (bracket(TORUS, u, v) + bracket(TORUS, v, u)).is_zero()

    @given(elements(3, "Q"), elements(3, "Q"))
    def test_antisymmetry_rational(self, u, v):
        sig = ONE_HOLED_TORUS
        assert (bracket(sig, u, v) + bracket(sig, v, u)).is_zero()

    @given(elements(2, "Z", max_terms=4), elements(2, "Z", max_terms=4),
           elements(2, "Z", max_terms=4))
    @settings(max_examples=200)
    def test_jacobi_integer(self, u, v, w):
        total = (
            bracket(TORUS, u, bracket(TORUS, v, w))
            + bracket(TORUS, v, bracket(TORUS, w, u))
            + bracket(TORUS, w, bracket(TORUS, u, v))
        )
        assert total.is_zero()

    @given(elements(3, "Q", max_terms=4), elements(3, "Q", max_terms=4),
           elements(3, "Q", max_terms=4))
    @settings(max_examples=200)
    def test_jacobi_rational(self, u, v, w):
        sig = ONE_HOLED_TORUS
        total = (
            bracket(sig, u, bracket(sig, v, w))
            + bracket(sig, v, bracket(sig, w, u))
            + bracket(sig, w, bracket(sig, u, v))
        )
        assert total.is_zero()

    @given(words(2), words(2))
    def test_coefficient_is_intersection_number(self, u, v):
        xm = exponent_vector(u, 2)
        ym = exponent_vector(v, 2)
        out = bracket_monomials(TORUS, xm, ym)
        assert out.coefficient(xm * ym) == intersection_pairing(TORUS, u, v)

    @given(monomials(3), monomials(3))
    def test_central_monomials_annihilate(self, c, y):
        sig = ONE_HOLED_TORUS
        central = Monomial((0, 0, c[2]))
        assert is_central(sig, central)
        assert bracket_monomials(sig, central, y).is_zero()

    def test_genus_zero_bracket_vanishes(self):
        u = ModuleElement("Z", [(Monomial((1, 2)), 3)])
        v = ModuleElement("Z", [(Monomial((2, -1)), 5)])
        assert bracket(PAIR_OF_PANTS, u, v).is_zero()
