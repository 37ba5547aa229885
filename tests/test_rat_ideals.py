import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.bracket import bracket
from goldmanab.rat_ideals import (
    PrimitiveLabel,
    RationalIdeal,
    closed_surface_classification_check,
    decompose_by_center,
    ideal_closure,
    ideal_contains,
    label_bracket_identity_holds,
    verify_bracket_closure,
)
from goldmanab.sampling import random_label, random_noncentral_monomial
from goldmanab.symplectic import SurfaceSignature

from conftest import elements, monomials

TORUS = SurfaceSignature.closed(1)
ONE_HOLED_TORUS = SurfaceSignature.with_boundary(1, 2)
TWO_HOLED_TORUS = SurfaceSignature.with_boundary(1, 3)


def q(num, den=1):
    return Fraction(num, den)


def single(mono, coef):
    return ModuleElement.single("Q", Monomial(mono), Fraction(coef))


class TestPrimitiveLabel:
    def test_canonicalization_translates_and_scales(self):
        label = PrimitiveLabel.from_pairs(
            ONE_HOLED_TORUS,
            [(Monomial((0, 0, 2)), q(3)), (Monomial((0, 0, 5)), q(6))],
        )
        assert label.pairs == (
            (Monomial((0, 0, 0)), q(1)),
            (Monomial((0, 0, 3)), q(2)),
        )

    def test_non_central_rejected(self):
        with pytest.raises(ValueError, match="central"):
            PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, [(Monomial((1, 0, 0)), q(1))])

    def test_duplicate_monomials_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PrimitiveLabel.from_pairs(
                ONE_HOLED_TORUS,
                [(Monomial((0, 0, 1)), q(1)), (Monomial((0, 0, 1)), q(2))],
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, [(Monomial((0, 0, 1)), q(0))])

    def test_raw_constructor_demands_canonical_form(self):
        with pytest.raises(ValueError, match="canonical"):
            PrimitiveLabel([(Monomial((0, 0, 1)), q(1))])

    def test_element_at(self):
        label = PrimitiveLabel.from_pairs(
            ONE_HOLED_TORUS, [(Monomial((0, 0, 0)), q(1)), (Monomial((0, 0, 1)), q(3, 2))]
        )
        out = label.element_at(Monomial((1, 0, 0)))
        assert out == single((1, 0, 0), 1) + single((1, 0, 1), q(3, 2))

    def test_json_round_trip(self):
        label = PrimitiveLabel.from_pairs(
            TWO_HOLED_TORUS,
            [(Monomial((0, 0, 1, -2)), q(5, 3)), (Monomial((0, 0, 0, 0)), q(1))],
        )
        assert PrimitiveLabel.from_json_obj(json.loads(json.dumps(label.to_json_obj()))) == label


class TestDecomposition:
    def test_worked_example(self):
        u = single((1, 0, 0), 2) + single((1, 0, 1), 3) + single((0, 0, 2), 5)
        dec = decompose_by_center(ONE_HOLED_TORUS, u)
        assert len(dec.parts) == 1
        part = dec.parts[0]
        assert part.base == Monomial((1, 0, 0))
        assert part.coeff == q(2)
        assert part.label.pairs == (
            (Monomial((0, 0, 0)), q(1)),
            (Monomial((0, 0, 1)), q(3, 2)),
        )
        assert dec.central == single((0, 0, 2), 5)

    def test_fully_central(self):
        u = single((0, 0, 0), 4)
        dec = decompose_by_center(ONE_HOLED_TORUS, u)
        assert dec.parts == ()
        assert dec.central == u

    def test_closed_surface_classes_are_singletons(self):
        u = single((2, 1), q(7, 2))
        dec = decompose_by_center(TORUS, u)
        assert len(dec.parts) == 1
        part = dec.parts[0]
        assert part.label == PrimitiveLabel.trivial(TORUS)
        assert part.base == Monomial((2, 1))
        assert part.coeff == q(7, 2)
        assert dec.central.is_zero()

    def test_integer_input_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            decompose_by_center(TORUS, ModuleElement.zero("Z"))

    @given(elements(3, "Q", max_terms=6))
    def test_reassembly_lossless(self, u):
        assert decompose_by_center(ONE_HOLED_TORUS, u).reassemble() == u

    @given(elements(4, "Q", max_terms=6))
    def test_reassembly_lossless_two_boundary(self, u):
        assert decompose_by_center(TWO_HOLED_TORUS, u).reassemble() == u


class TestLabelBracketIdentity:
    def test_trivial_label_on_torus(self):
        label = PrimitiveLabel.trivial(TORUS)
        assert label_bracket_identity_holds(TORUS, label, Monomial((1, 0)), Monomial((0, 1)))

    def test_equal_arguments(self):
        label = PrimitiveLabel.trivial(TORUS)
        x = Monomial((2, 3))
        assert label_bracket_identity_holds(TORUS, label, x, x)

    def test_two_pair_label(self):
        label = PrimitiveLabel.from_pairs(
            ONE_HOLED_TORUS, [(Monomial((0, 0, 0)), q(1)), (Monomial((0, 0, 1)), q(2))]
        )
        assert label_bracket_identity_holds(
            ONE_HOLED_TORUS, label, Monomial((1, 0, 0)), Monomial((0, 1, 0))
        )

    def test_random_labels(self):
        rng = random.Random(7)
        for _ in range(200):
            sig = ONE_HOLED_TORUS if rng.random() < 0.5 else TWO_HOLED_TORUS
            label = random_label(rng, sig)
            x = random_noncentral_monomial(rng, sig)
            y = Monomial(tuple(rng.randint(-4, 4) for _ in range(sig.n)))
            assert label_bracket_identity_holds(sig, label, x, y)


class TestClosure:
    def test_single_primitive_generator(self):
        x = Monomial((2, 1))
        ideal = ideal_closure(TORUS, [single((2, 1), 5)])
        assert ideal.labels == frozenset({PrimitiveLabel.trivial(TORUS)})
        assert ideal.central_basis == ()
        for y in [(1, 0), (0, 1), (-3, 4)]:
            assert ideal_contains(TORUS, ideal, single(y, q(9, 4)))
        assert not ideal_contains(TORUS, ideal, single((0, 0), 1))

    def test_empty_generators(self):
        ideal = ideal_closure(TORUS, [])
        assert ideal.is_zero()
        assert ideal_contains(TORUS, ideal, ModuleElement.zero("Q"))
        assert not ideal_contains(TORUS, ideal, single((1, 0), 1))

    def test_mixed_generator_splits(self):
        u = single((1, 0, 0), 2) + single((1, 0, 1), 3) + single((0, 0, 2), 5)
        ideal = ideal_closure(ONE_HOLED_TORUS, [u])
        assert len(ideal.labels) == 1
        assert len(ideal.central_basis) == 1
        assert ideal.central_basis[0] == single((0, 0, 2), 1)
        # Both halves of the generator belong separately.
        assert ideal_contains(ONE_HOLED_TORUS, ideal, single((0, 0, 2), 7))
        label = next(iter(ideal.labels))
        assert ideal_contains(ONE_HOLED_TORUS, ideal, label.element_at(Monomial((0, 4, -1))))

    def test_membership_requires_matching_label(self):
        label = PrimitiveLabel.from_pairs(
            ONE_HOLED_TORUS, [(Monomial((0, 0, 0)), q(1)), (Monomial((0, 0, 1)), q(2))]
        )
        ideal = ideal_closure(ONE_HOLED_TORUS, [label.element_at(Monomial((1, 0, 0)))])
        other = PrimitiveLabel.from_pairs(
            ONE_HOLED_TORUS, [(Monomial((0, 0, 0)), q(1)), (Monomial((0, 0, 1)), q(3))]
        )
        assert ideal_contains(ONE_HOLED_TORUS, ideal, label.element_at(Monomial((0, 2, 5))))
        assert not ideal_contains(ONE_HOLED_TORUS, ideal, other.element_at(Monomial((0, 2, 5))))

    def test_central_membership_is_a_linear_solve(self):
        rows = [
            single((0, 0, 1, 0), 1) + single((0, 0, 0, 1), 2),
            single((0, 0, 0, 2), 3),
        ]
        ideal = RationalIdeal((), rows)
        inside = rows[0].scaled(q(5, 2)) + rows[1].scaled(q(-1, 3))
        assert ideal_contains(TWO_HOLED_TORUS, ideal, inside)
        assert not ideal_contains(TWO_HOLED_TORUS, ideal, single((0, 0, 1, 0), 1))

    def test_bracket_closure_guard(self):
        rng = random.Random(13)
        for sig in (ONE_HOLED_TORUS, TWO_HOLED_TORUS):
            labels = {random_label(rng, sig) for _ in range(2)}
            central = [
                ModuleElement(
                    "Q",
                    [(Monomial(tuple([0] * 2 * sig.genus +
                                     [rng.randint(-3, 3) for _ in range(sig.n - 2 * sig.genus)])),
                       q(rng.randint(1, 5)))],
                )
            ]
            ideal = RationalIdeal(labels, central)
            assert verify_bracket_closure(sig, ideal, rng, samples=60) is None


class TestEquality:
    def test_same_label_different_base(self):
        a = ideal_closure(TORUS, [single((1, 0), 1)])
        b = ideal_closure(TORUS, [single((0, 5), q(2, 7))])
        assert a == b

    def test_distinct_central_lines(self):
        a = ideal_closure(ONE_HOLED_TORUS, [single((0, 0, 1), 1)])
        b = ideal_closure(ONE_HOLED_TORUS, [single((0, 0, 2), 1)])
        assert a != b
        assert not a.labels and not b.labels

    def test_reflexive(self):
        a = ideal_closure(ONE_HOLED_TORUS, [single((1, 0, 0), 1)])
        assert a == a

    def test_basis_canonical_under_reordering(self):
        rows = [single((0, 0, 1), 1) + single((0, 0, 2), 1), single((0, 0, 2), 4)]
        a = RationalIdeal((), rows)
        b = RationalIdeal((), list(reversed(rows)))
        assert a == b


class TestClosedClassification:
    def test_identity_generator_is_central_line(self):
        ideal = ideal_closure(TORUS, [single((0, 0), 3)])
        assert not ideal.labels
        assert ideal.central_basis == (single((0, 0), 1),)

    def test_nonidentity_generator_is_trivial_label(self):
        ideal = ideal_closure(TORUS, [single((2, -4), 3)])
        assert ideal.labels == frozenset({PrimitiveLabel.trivial(TORUS)})
        assert ideal.central_basis == ()

    def test_both_generators_give_whole_algebra_form(self):
        ideal = ideal_closure(TORUS, [single((0, 0), 1), single((1, 1), 1)])
        assert ideal.labels == frozenset({PrimitiveLabel.trivial(TORUS)})
        assert ideal.central_basis == (single((0, 0), 1),)

    def test_sampled_classification(self):
        rng = random.Random(21)
        assert closed_surface_classification_check(TORUS, rng, samples=150)
        assert closed_surface_classification_check(SurfaceSignature.closed(2), rng, samples=150)

    def test_rejects_boundary_signature(self):
        with pytest.raises(ValueError, match="closed"):
            closed_surface_classification_check(ONE_HOLED_TORUS, random.Random(0))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(monomials(3, 3))
    def test_closure_recovers_ideal_from_generating_set(self, seed_mono):
        rng = random.Random(hash(seed_mono) & 0xFFFF)
        sig = ONE_HOLED_TORUS
        labels = {random_label(rng, sig) for _ in range(rng.randint(0, 3))}
        central_rows = [
            ModuleElement(
                "Q",
                [
                    (Monomial((0, 0, rng.randint(-4, 4))), q(rng.randint(1, 5)))
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
                    q(rng.randint(1, 7), rng.randint(1, 7))
                )
            )
        assert ideal_closure(sig, generators) == ideal

    def test_json_round_trip(self):
        rng = random.Random(3)
        sig = TWO_HOLED_TORUS
        ideal = RationalIdeal(
            {random_label(rng, sig) for _ in range(2)},
            [single((0, 0, 1, 2), q(1, 3)) + single((0, 0, 0, 1), 2)],
        )
        assert RationalIdeal.from_json_obj(json.loads(json.dumps(ideal.to_json_obj()))) == ideal
