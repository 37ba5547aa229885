import json
from fractions import Fraction

import pytest
from hypothesis import given

from goldmanab.abelian import (
    ModuleElement,
    Monomial,
    abelianize,
    exponent_vector,
    generator_exponent_sum,
)
from goldmanab.words import Word, parse_word, reduce_word

from conftest import elements, words


class TestMonomial:
    def test_componentwise_product(self):
        assert Monomial((1, 2)) * Monomial((0, -2)) == Monomial((1, 0))

    def test_inverse(self):
        assert Monomial((2, -3)).inverse() == Monomial((-2, 3))

    def test_product_with_inverse(self):
        x = Monomial((4, -7))
        assert x * x.inverse() == Monomial.identity(2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Monomial((1,)) * Monomial((1, 2))

    def test_exact_integers_required(self):
        with pytest.raises(TypeError):
            Monomial((1.5, 2))

    def test_is_a_tuple_of_exponents(self):
        x = Monomial((2, -3))
        assert x == (2, -3) and hash(x) == hash((2, -3)) and x[1] == -3
        assert sorted([Monomial((1, 0)), Monomial((0, 5))]) == [(0, 5), (1, 0)]

    def test_no_tuple_concatenation_or_repetition(self):
        with pytest.raises(TypeError):
            Monomial((1, 2)) + Monomial((1, 2))
        with pytest.raises(TypeError):
            3 * Monomial((1, 2))


class TestExponentVector:
    def test_identity(self):
        assert exponent_vector(Word.identity(3)) == Monomial((0, 0, 0))

    def test_sums_per_generator(self):
        assert exponent_vector(parse_word("a1^2 a2^-3", 2)) == Monomial((2, -3))

    def test_conjugation_cancels(self):
        assert exponent_vector(parse_word("a1 a2 a1^-1", 2)) == Monomial((0, 1))

    def test_wider_alphabet(self):
        assert exponent_vector(parse_word("a1", 1), n=3) == Monomial((1, 0, 0))

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="out of range"):
            exponent_vector(parse_word("a2", 2), n=1)

    @given(words(), words())
    def test_homomorphism(self, u, v):
        assert exponent_vector(u * v) == exponent_vector(u) * exponent_vector(v)


class TestGeneratorExponentSum:
    def test_mixed_runs(self):
        w = reduce_word([(1, 3), (2, 1), (1, -1)], 2)
        assert generator_exponent_sum(w, 1) == 2

    def test_absent_generator(self):
        assert generator_exponent_sum(parse_word("a2", 2), 1) == 0

    def test_huge_exponent(self):
        w = reduce_word([(1, 2**64)], 1)
        assert generator_exponent_sum(w, 1) == 2**64

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            generator_exponent_sum(parse_word("a1", 1), 2)


class TestAbelianize:
    def test_conjugate_difference_vanishes(self):
        out = abelianize([(1, parse_word("a1 a2 a1^-1", 2)), (-1, parse_word("a2", 2))], 2)
        assert out.is_zero()

    def test_single_generator(self):
        out = abelianize([(3, parse_word("a1", 2))], 2)
        assert out.terms() == [(Monomial((1, 0)), 3)]

    def test_merge(self):
        w = parse_word("a1", 2)
        assert abelianize([(1, w), (2, w)], 2).terms() == [(Monomial((1, 0)), 3)]

    def test_mixed_rings_rejected(self):
        w = parse_word("a1", 1)
        with pytest.raises(ValueError, match="mixed rings"):
            abelianize([(1, w), (Fraction(1, 2), w)], 1)

    def test_rational_ring_inferred(self):
        out = abelianize([(Fraction(1, 2), parse_word("a1", 1))], 1)
        assert out.ring == "Q"

    @given(words(), words())
    def test_conjugation_invariant(self, g, w):
        assert abelianize([(1, g * w * g.inverse())], 3) == abelianize([(1, w)], 3)


class TestModuleElement:
    def test_zero_coefficients_dropped(self):
        u = ModuleElement("Z", [(Monomial((1,)), 2), (Monomial((1,)), -2)])
        assert u.is_zero()

    def test_sorted_iteration(self):
        u = ModuleElement("Z", [(Monomial((1, 0)), 1), (Monomial((0, 5)), 2)])
        assert [m for m, _ in u.terms()] == [(0, 5), (1, 0)]

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            ModuleElement.zero("Z") + ModuleElement.zero("Q")

    def test_integer_coefficients_enforced(self):
        with pytest.raises(TypeError):
            ModuleElement("Z", [(Monomial((1,)), Fraction(1, 2))])

    def test_explicit_promotion(self):
        u = ModuleElement("Z", [(Monomial((1,)), 2)])
        q = u.to_rational()
        assert q.ring == "Q" and q.coefficient(Monomial((1,))) == Fraction(2)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            ModuleElement("Z", [(Monomial((1,)), 1), (Monomial((1, 2)), 1)])

    def test_sum_of_mixed_lengths_rejected(self):
        u = ModuleElement.single("Z", Monomial((1, 0)))
        v = ModuleElement.single("Z", Monomial((1, 0, 0)))
        with pytest.raises(ValueError, match="lengths"):
            u + v
        with pytest.raises(ValueError, match="lengths"):
            u - v

    def test_scaling_by_zero_gives_zero(self):
        u = ModuleElement("Q", [(Monomial((1,)), Fraction(1, 2))])
        assert u.scaled(0).is_zero()
        assert u.scaled(0) == ModuleElement.zero("Q")

    @given(elements(2, "Z"), elements(2, "Z"))
    def test_addition_commutes(self, u, v):
        assert u + v == v + u

    @given(elements(2, "Q"))
    def test_negation(self, u):
        assert (u + (-u)).is_zero()


class TestJson:
    def test_documented_shape(self):
        u = ModuleElement("Q", [(Monomial((1, 0)), Fraction(3, 2))])
        assert u.to_json_obj() == {
            "ring": "Q",
            "terms": [{"exp": [1, 0], "coef": "3/2"}],
        }

    def test_huge_coefficients_survive(self):
        u = ModuleElement("Z", [(Monomial((2**70,)), 3**50)])
        assert ModuleElement.from_json_obj(u.to_json_obj()) == u

    @given(elements(3, "Z"))
    def test_round_trip_integer(self, u):
        assert ModuleElement.from_json_obj(json.loads(json.dumps(u.to_json_obj()))) == u

    @given(elements(3, "Q"))
    def test_round_trip_rational(self, u):
        assert ModuleElement.from_json_obj(json.loads(json.dumps(u.to_json_obj()))) == u
