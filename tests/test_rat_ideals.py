import contextlib
import importlib
import io
import json
import random
import time
from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.bracket import bracket
from goldmanab.cli import main
from goldmanab.rat_ideals import (
    MAX_REDUCTION_STEPS,
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

from conftest import elements, monomials, rational_coeffs

rat_ideals = importlib.import_module("goldmanab.rat_ideals")

TORUS = SurfaceSignature.closed(1)
ONE_HOLED_TORUS = SurfaceSignature.with_boundary(1, 2)
TWO_HOLED_TORUS = SurfaceSignature.with_boundary(1, 3)


def q(num, den=1):
    return Fraction(num, den)


def single(mono, coef):
    return ModuleElement.single("Q", Monomial(mono), Fraction(coef))


# The Fraction row reduction that the central basis used before it became
# element arithmetic, kept as the oracle for the rows and for membership.

def _reduce_vector(v, basis):
    """v reduced by each (pivot, row) in turn, as a new dict: v itself is not changed."""
    out = dict(v)
    for pivot, row in basis:
        c = out.get(pivot)
        if c:
            for m, q in row.items():
                new = out.get(m, Fraction(0)) - c * q
                if new:
                    out[m] = new
                else:
                    out.pop(m, None)
    return out


def _rref(vectors):
    """Reduced echelon basis; pivots are lex-least monomials, ascending."""
    basis = []
    for vec in vectors:
        rest = _reduce_vector(vec, basis)
        if not rest:
            continue
        pivot = min(rest)
        inv = 1 / rest[pivot]
        row = {m: q * inv for m, q in rest.items()}
        for idx, (p, b) in enumerate(basis):
            if b.get(pivot):
                basis[idx] = (p, _reduce_vector(b, [(pivot, row)]))
        basis.append((pivot, row))
        basis.sort(key=lambda item: item[0])
    return basis


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

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PrimitiveLabel([(Monomial((0, 0, 0)), q(1)), (Monomial((0, 1)), q(2))])

    def test_raw_constructor_demands_canonical_form(self):
        with pytest.raises(ValueError, match="canonical"):
            PrimitiveLabel([(Monomial((0, 0, 1)), q(1))])

    def test_from_pairs_refuses_the_empty_list(self):
        with pytest.raises(ValueError, match="at least one pair"):
            PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, [])

    def test_plain_tuples_are_read_as_monomials(self):
        pairs = [((0, 0, 0), q(1)), ((0, 0, 1), q(3, 2))]
        monomial_pairs = [(Monomial(m), w) for m, w in pairs]
        assert PrimitiveLabel(pairs) == PrimitiveLabel(monomial_pairs)
        assert (PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, pairs)
                == PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, monomial_pairs))

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

    def test_wrong_monomial_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            decompose_by_center(ONE_HOLED_TORUS, single((1, 0), 1))
        with pytest.raises(ValueError, match="length"):
            ideal_closure(ONE_HOLED_TORUS, [single((1, 0, 0, 0), 1)])

    def test_zero_element_has_no_length_to_check(self):
        dec = decompose_by_center(ONE_HOLED_TORUS, ModuleElement.zero("Q"))
        assert dec.parts == () and dec.central.is_zero()

    @given(elements(3, "Q", max_terms=6))
    def test_reassembly_lossless(self, u):
        assert decompose_by_center(ONE_HOLED_TORUS, u).reassemble() == u

    @given(elements(4, "Q", max_terms=6))
    def test_reassembly_lossless_two_boundary(self, u):
        assert decompose_by_center(TWO_HOLED_TORUS, u).reassemble() == u

    @settings(max_examples=150)
    @given(elements(4, "Q", max_terms=12, radius=2))
    def test_labels_match_per_member_construction(self, u):
        dec = decompose_by_center(TWO_HOLED_TORUS, u)
        assert dec.parts == _decomposition_oracle(TWO_HOLED_TORUS, u)
        trivial = PrimitiveLabel.trivial(TWO_HOLED_TORUS)
        assert all(part.label == trivial for part in dec.parts if len(part.label.pairs) == 1)

    def test_single_member_classes_share_the_trivial_label(self):
        u = single((1, 0, 0), 2) + single((0, 1, 4), 3) + single((2, 2, 0), q(1, 3))
        labels = [part.label for part in decompose_by_center(ONE_HOLED_TORUS, u).parts]
        assert len(labels) == 3 and labels[0] is labels[1] is labels[2]
        assert labels[0] == PrimitiveLabel.trivial(ONE_HOLED_TORUS)


def _decomposition_oracle(sig, u):
    """The parts of u built member by member: translate by the base, divide by its weight."""
    classes = {}
    for mono, coef in u.terms():
        if any(mono[: 2 * sig.genus]):
            classes.setdefault(mono[: 2 * sig.genus], []).append((mono, coef))
    parts = []
    for key in sorted(classes):
        base, base_coef = classes[key][0]
        pairs = tuple((m * base.inverse(), c / base_coef) for m, c in classes[key])
        parts.append((PrimitiveLabel(pairs), base, base_coef))
    return tuple(parts)


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

    @settings(max_examples=100)
    @given(elements(4, "Q", max_terms=6, radius=2), elements(4, "Q", max_terms=6, radius=2))
    def test_membership_matches_rebuilt_rows(self, gen, u):
        # ideal_contains reads the stored reduced rows; rebuilding each row
        # as a vector and taking its least monomial as pivot must agree, and
        # each class polynomial must be a multiple of a generator of J.
        sig = TWO_HOLED_TORUS
        ideal = ideal_closure(sig, [gen])
        rows = [{m: Fraction(c) for m, c in row.terms()} for row in ideal.central_basis]
        basis = [(min(row), row) for row in rows]
        central = decompose_by_center(sig, gen).central + decompose_by_center(sig, u).central
        for candidate in (u, gen, bracket(sig, gen, u), central):
            polys, rest = _class_polys(sig, candidate)
            expected = _in_j(ideal, polys) and not _reduce_vector(dict(rest.terms()), basis)
            assert ideal_contains(sig, ideal, candidate) == expected

    def test_label_of_wrong_length_rejected(self):
        ideal = RationalIdeal([PrimitiveLabel([(Monomial((0, 0)), q(1))])])
        for elem in (ModuleElement.zero("Q"), single((1, 0, 0), 1)):
            with pytest.raises(ValueError, match="length"):
                ideal_contains(ONE_HOLED_TORUS, ideal, elem)

    def test_non_central_label_rejected(self):
        label = PrimitiveLabel([(Monomial((0, 0, 0)), q(1)), (Monomial((1, 0, 0)), q(2))])
        with pytest.raises(ValueError, match="central"):
            ideal_contains(ONE_HOLED_TORUS, RationalIdeal([label]), single((0, 1, 0), 1))

    def test_central_row_of_wrong_length_rejected(self):
        ideal = RationalIdeal((), [single((0, 1), 1)])
        with pytest.raises(ValueError, match="length"):
            ideal_contains(ONE_HOLED_TORUS, ideal, single((0, 0, 1), 1))

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


    @pytest.mark.parametrize("sig, labels, room", [
        # g = 0: the box has one translation class, so two labels cannot
        # both sit in a member.  Labels in two variables stay two generators.
        (SurfaceSignature.with_boundary(0, 3), [[((1, 0), 2)], [((0, 1), 1)]], 1),
        # g = 1: about 100 of 200 labels 1 + t1^k t2 per member, against 80 classes.
        (TWO_HOLED_TORUS, [[((0, 0, k, 1), 1)] for k in range(1, 201)], 80),
    ], ids=["genus0", "genus1"])
    def test_bracket_closure_guard_runs_out_of_classes(self, sig, labels, room):
        identity = (Monomial.identity(sig.n), q(1))
        ideal = RationalIdeal(
            PrimitiveLabel([identity, *((Monomial(m), q(w)) for m, w in rest)]) for rest in labels
        )
        with pytest.raises(ValueError, match=f"more than the {room} classes"):
            verify_bracket_closure(sig, ideal, random.Random(0))


class TestRationalIdealConstructor:
    def test_labels_must_be_primitive_labels(self):
        with pytest.raises(TypeError, match="PrimitiveLabel.*'x'"):
            RationalIdeal(["x"])

    def test_central_rows_must_be_module_elements(self):
        with pytest.raises(TypeError, match="central rows must be ModuleElements, got 'x'"):
            RationalIdeal((), ["x"])

    def test_central_rows_leave_their_elements_unchanged(self):
        rows = [ModuleElement("Z", [(Monomial((0, 0, 1)), 2), (Monomial((0, 0, 2)), 4)]),
                single((0, 0, 1), q(1, 3))]
        before = [u.terms() for u in rows]
        ideal = RationalIdeal((), rows)
        assert [u.terms() for u in rows] == before
        assert ideal.central_basis == (single((0, 0, 1), 1), single((0, 0, 2), 1))

    @pytest.mark.parametrize("labels, rows", [
        ((), [single((0, 0, 1), 1), single((0, 0, 1, 0), 1)]),
        ([PrimitiveLabel([(Monomial((0, 0, 0, 0)), q(1))])], [single((0, 0, 1), 1)]),
        ([PrimitiveLabel([(Monomial((0, 0, 0)), q(1))]),
          PrimitiveLabel([(Monomial((0, 0, 0, 0)), q(1))])], []),
    ], ids=["rows", "label-and-row", "labels"])
    def test_monomials_must_share_one_length(self, labels, rows):
        with pytest.raises(ValueError, match=r"share one length, not \[3, 4\]"):
            RationalIdeal(labels, rows)


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

    def test_json_labels_are_checked_before_the_unit_drops_them(self):
        sig = ONE_HOLED_TORUS
        trivial = PrimitiveLabel.trivial(sig)
        off_center = PrimitiveLabel([(Monomial((0, 0, 0)), q(1)), (Monomial((1, 0, 0)), q(2))])
        obj = {"labels": [trivial.to_json_obj(), off_center.to_json_obj()], "central_basis": []}
        with pytest.raises(ValueError, match=r"^ideal monomial \(1, 0, 0\) is not central$"):
            RationalIdeal.from_json_obj(obj, sig)
        # Without a surface the unit ideal keeps only its generator, so nothing is left to check.
        ideal = RationalIdeal.from_json_obj(obj)
        assert ideal == RationalIdeal([trivial, off_center]) == RationalIdeal([trivial])
        assert ideal_contains(sig, ideal, single((1, 0, 0), 1))

    def test_fractional_label_exponent_rejected(self):
        with pytest.raises(TypeError, match="exact integer"):
            PrimitiveLabel.from_json_obj([{"c": [0, 0, 0.5], "q": "1"}])

    def test_float_label_weight_rejected(self):
        pairs = [{"c": [0, 0, 0], "q": "1"}, {"c": [0, 0, 1], "q": 0.1}]
        with pytest.raises(TypeError, match="string or an integer"):
            PrimitiveLabel.from_json_obj(pairs)
        pairs[1]["q"] = "0.1"
        assert PrimitiveLabel.from_json_obj(pairs).pairs[1][1] == q(1, 10)


TWO_GENUS_THREE_HOLES = SurfaceSignature.with_boundary(2, 3)


@st.composite
def class_elements(draw, sig, shape):
    """Rational elements whose non-central classes are all one-term ("one"),
    all multi-term ("multi") or of either size ("mixed"), plus central terms."""
    g2, rest = 2 * sig.genus, sig.n - 2 * sig.genus
    keys = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * g2).filter(any),
                         min_size=1, max_size=5, unique=True))
    tails = st.tuples(*[st.integers(-3, 3)] * rest)
    terms = []
    for key in keys:
        size = {"one": 1, "multi": draw(st.integers(2, 4)), "mixed": draw(st.integers(1, 3))}[shape]
        for tail in draw(st.lists(tails, min_size=size, max_size=size, unique=True)):
            terms.append((Monomial(key + tail), draw(rational_coeffs())))
    for tail in draw(st.lists(tails, max_size=3, unique=True)):
        terms.append((Monomial((0,) * g2 + tail), draw(rational_coeffs())))
    return ModuleElement("Q", terms)


# The (J, V) oracles on Fraction polynomials keyed by exponent vectors: a
# class is the polynomial of its terms over its least monomial, J holds it
# when a generator divides it (textbook division), and the central part
# must add no rank to V.

def _class_polys(sig, u):
    """u's non-central classes as central Fraction polynomials, and its central part."""
    g2 = 2 * sig.genus
    classes, central = {}, []
    for mono, coef in u.terms():
        if any(mono[:g2]):
            classes.setdefault(mono[:g2], []).append((mono, coef))
        else:
            central.append((mono, coef))
    polys = [{m * terms[0][0].inverse(): c for m, c in terms} for terms in classes.values()]
    return polys, ModuleElement("Q", central)


def _into_n(p):
    """p times the monomial that makes its least exponent in every coordinate 0."""
    low = [min(e) for e in zip(*p)]
    return {tuple(a - b for a, b in zip(m, low)): c for m, c in p.items()}


def _divides(f, p):
    """Whether f divides p: lex division by one polynomial leaves no remainder."""
    f, r = _into_n(f), _into_n(p)
    lead = max(f)
    while r:
        top = max(r)
        shift = [a - b for a, b in zip(top, lead)]
        if min(shift) < 0:
            return False
        q = r[top] / f[lead]
        for m, c in f.items():
            m = tuple(a + b for a, b in zip(m, shift))
            r[m] = r.get(m, 0) - q * c
            if not r[m]:
                del r[m]
    return True


def _in_j(ideal, polys):
    return all(any(_divides(dict(f.pairs), p) for f in ideal.labels) for p in polys)


def _gcd_oracle(polys):
    """The gcd of one-variable Fraction polynomials {degree: coefficient}, by Euclid."""
    def remainder(a, b):
        a, top = dict(a), max(b)
        while a and max(a) >= top:
            shift = max(a) - top
            q = a[max(a)] / b[top]
            for d, c in b.items():
                a[d + shift] = a.get(d + shift, 0) - q * c
                if not a[d + shift]:
                    del a[d + shift]
        return a

    g = {}
    for b in polys:
        while b:
            g, b = b, remainder(g, b)
    return g


def _closure_oracle(sig, generators):
    """J's generators, from all class polynomials, and V's reduced rows."""
    polys, central = [], []
    for gen in generators:
        classes, rest = _class_polys(sig, gen)
        polys += classes
        central.append(rest)
    coords = {i for p in polys for m in p for i, e in enumerate(m) if e}
    if any(len(p) == 1 for p in polys):
        labels = {PrimitiveLabel.trivial(sig)}
    elif len(coords) == 1:
        [j] = coords
        g = _gcd_oracle([{m[j]: c for m, c in p.items()} for p in polys])
        labels = {PrimitiveLabel.from_pairs(
            sig, [(Monomial(d if i == j else 0 for i in range(sig.n)), c) for d, c in g.items()])}
    else:
        labels = {PrimitiveLabel.from_pairs(sig, p.items()) for p in polys}
    return frozenset(labels), RationalIdeal((), central).central_basis


def _contains_oracle(sig, ideal, u):
    """Every class polynomial in J, and the central part adds no rank to V."""
    polys, central = _class_polys(sig, u)
    rank = len(RationalIdeal((), [*ideal.central_basis, central]).central_basis)
    return _in_j(ideal, polys) and rank == len(ideal.central_basis)


def _member_like(sig, ideal, rng):
    """A combination of the ideal's labels at random bases and its central rows."""
    u = ModuleElement.zero("Q")
    for label in ideal.sorted_labels():
        if rng.random() < 0.7:
            base = random_noncentral_monomial(rng, sig)
            u = u + label.element_at(base).scaled(q(rng.randint(1, 5), rng.randint(1, 3)))
    for row in ideal.central_basis:
        u = u + row.scaled(q(rng.randint(-3, 3)))
    return u


class TestAgainstDecompositionOracle:
    @pytest.mark.parametrize("sig", [TWO_HOLED_TORUS, TWO_GENUS_THREE_HOLES], ids=["1-3", "2-3"])
    @pytest.mark.parametrize("shape", ["one", "mixed", "multi"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_closure_and_membership(self, sig, shape, data):
        gens = data.draw(st.lists(class_elements(sig, shape), min_size=1, max_size=3))
        ideal = ideal_closure(sig, gens)
        assert (ideal.labels, ideal.central_basis) == _closure_oracle(sig, gens)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        candidates = [*gens, _member_like(sig, ideal, rng), data.draw(class_elements(sig, shape)),
                      bracket(sig, gens[0], data.draw(class_elements(sig, "one")))]
        for u in candidates:
            assert ideal_contains(sig, ideal, u) == _contains_oracle(sig, ideal, u)

    def test_sums_of_members_keep_their_verdicts(self):
        # Sums of members are members, also where their classes merge: the
        # merged class polynomial is a sum of multiples of J's generator.
        sig = ONE_HOLED_TORUS
        x, xc = single((1, 0, 0), 1), single((1, 0, 1), 1)
        ideal = ideal_closure(sig, [x])
        assert (ideal.labels, ideal.central_basis) == _closure_oracle(sig, [x])
        assert ideal_contains(sig, ideal, x + xc) is _contains_oracle(sig, ideal, x + xc) is True
        pair = [x + xc, x + xc.scaled(q(-1))]
        ideal = ideal_closure(sig, pair)
        assert (ideal.labels, ideal.central_basis) == _closure_oracle(sig, pair)
        assert ideal_contains(sig, ideal, x) is _contains_oracle(sig, ideal, x) is True
        # [b, m] + [b, m*c^k] for a bracket b, as the benchmark builds it.
        rng = random.Random(5)
        for sig in (TWO_HOLED_TORUS, TWO_GENUS_THREE_HOLES):
            u, v = (ModuleElement("Q", [(random_noncentral_monomial(rng, sig), q(rng.randint(1, 4)))
                                        for _ in range(6)]) for _ in range(2))
            b = bracket(sig, u, v)
            ideal = ideal_closure(sig, [b])
            m = random_noncentral_monomial(rng, sig)
            shifted = Monomial(tuple(e + (j == 2 * sig.genus) for j, e in enumerate(m)))
            total = bracket(sig, b, single(m, 1)) + bracket(sig, b, single(shifted, 1))
            assert ideal_contains(sig, ideal, total) is _contains_oracle(sig, ideal, total) is True


@st.composite
def central_elements(draw, sig, max_terms=4):
    """Rational elements of the center: exponents in [-2, 2] past the first 2g."""
    g2, rest = 2 * sig.genus, sig.n - 2 * sig.genus
    tails = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rest),
                          min_size=1, max_size=max_terms, unique=True))
    return ModuleElement("Q", [(Monomial((0,) * g2 + t), draw(rational_coeffs())) for t in tails])


class TestCentralRowsAgainstFractionOracle:
    @pytest.mark.parametrize("sig", [SurfaceSignature.with_boundary(1, 4), TWO_GENUS_THREE_HOLES],
                             ids=["1-4", "2-3"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_and_membership(self, sig, data):
        gens = data.draw(st.lists(central_elements(sig), min_size=1, max_size=8))
        basis = _rref(dict(u.terms()) for u in gens)
        ideal = RationalIdeal((), gens)
        assert [dict(row.terms()) for row in ideal.central_basis] == [row for _, row in basis]
        assert ideal_closure(sig, gens) == ideal
        for row in ideal.central_basis:
            nums = list(row._terms.values())
            assert row._den >= 1 and gcd(row._den, *nums) == 1
            assert row._terms[min(row._terms)] == row._den
        coeffs = st.one_of(st.just(Fraction(0)), rational_coeffs())
        combination = ModuleElement.zero("Q")
        for row in ideal.central_basis:
            combination = combination + row.scaled(data.draw(coeffs))
        other = data.draw(central_elements(sig))
        for u in (combination, other, combination + other):
            expected = not _reduce_vector(dict(u.terms()), basis)
            assert ideal_contains(sig, ideal, u) == expected
        assert ideal_contains(sig, ideal, combination)


# The Fraction route as the oracle for labels: shift by the least monomial,
# divide by its weight, and let the constructor check the canonical pairs.

LABEL_SURFACES = [SurfaceSignature.with_boundary(g, b) for g, b in ((1, 2), (1, 3), (2, 3))]


def _label_oracle(pairs):
    least_mono, least_q = min(pairs, key=lambda p: p[0])
    shift = least_mono.inverse()
    return PrimitiveLabel((m * shift, w / least_q) for m, w in pairs)


@st.composite
def label_pairs(draw, sig):
    """One to five pairs of distinct central monomials and nonzero rationals, unsorted."""
    g2, rest = 2 * sig.genus, sig.n - 2 * sig.genus
    tails = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rest),
                          min_size=1, max_size=5, unique=True))
    return [(Monomial((0,) * g2 + t), draw(rational_coeffs())) for t in tails]


def _bumped(m):
    """m with its last exponent, which is central when b >= 2, one higher."""
    return Monomial((*m[:-1], m[-1] + 1))


class TestLabelsAgainstFractionOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_from_pairs_is_the_fraction_route(self, data):
        sig = data.draw(st.sampled_from(LABEL_SURFACES))
        pairs = data.draw(label_pairs(sig))
        label = PrimitiveLabel.from_pairs(sig, pairs)
        assert label == _label_oracle(pairs)
        assert PrimitiveLabel(label.pairs) == label
        assert label._weights[0] > 0 and gcd(*label._weights) == 1
        shift = Monomial((0,) * 2 * sig.genus + data.draw(
            st.tuples(*[st.integers(-3, 3)] * (sig.n - 2 * sig.genus))))
        scale = data.draw(rational_coeffs())
        moved = [(m * shift, w * scale) for m, w in pairs]
        assert PrimitiveLabel.from_pairs(sig, moved) == label

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_single_fault_keeps_its_message(self, data):
        sig = data.draw(st.sampled_from(LABEL_SURFACES))
        pairs = data.draw(label_pairs(sig))
        canonical = list(PrimitiveLabel.from_pairs(sig, pairs).pairs)
        last = canonical[-1][0]
        longer = Monomial((*last, 0))
        non_central = Monomial((1, *pairs[0][0][1:]))
        faults = {
            "a label needs at least one pair": ([], []),
            "label monomials must be pairwise distinct": (
                pairs + [(pairs[0][0], q(1))], canonical + [(last, q(1))]),
            "label weights must be nonzero": (
                pairs + [(_bumped(max(m for m, _ in pairs)), q(0))],
                canonical + [(_bumped(last), q(0))]),
            "label monomials must share one length": (None, canonical + [(longer, q(1))]),
            f"label monomial {tuple(non_central)} is not central": (
                pairs + [(non_central, q(1))], None),
            "label not canonical; use PrimitiveLabel.from_pairs": (
                None, [(m, w * 2) for m, w in canonical]),
        }
        for message, (raw, canon) in faults.items():
            if raw is not None:
                with pytest.raises(ValueError) as caught:
                    PrimitiveLabel.from_pairs(sig, raw)
                assert str(caught.value) == message
            if canon is not None:
                with pytest.raises(ValueError) as caught:
                    PrimitiveLabel(canon)
                assert str(caught.value) == message

    def test_a_monomial_of_the_wrong_length_is_a_length_fault_first(self):
        # Mixed lengths are refused before centrality is asked of the surface.
        pairs = [(Monomial((0, 0, 1)), q(1)), (Monomial((0, 0, 0, 1)), q(2))]
        with pytest.raises(ValueError, match="label monomials must share one length"):
            PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, pairs)


# The classification: J is one ideal of the Laurent ring of the center,
# shared by every non-central class.  x = a1 and c = a3 on the one-holed
# torus; c1 = a3 and c2 = a4 on the two-holed torus.

B2_SURFACES = [ONE_HOLED_TORUS, SurfaceSignature.with_boundary(2, 2)]


def _members(sig, gens, data):
    """Members by construction: the generators, and brackets of each with a
    drawn monomial m and with m times a central monomial, whose classes merge."""
    members = list(gens)
    g2, rest = 2 * sig.genus, sig.n - 2 * sig.genus
    for gen in gens:
        m = data.draw(st.tuples(*[st.integers(-2, 2)] * sig.n))
        shift = data.draw(st.tuples(*[st.integers(-2, 2)] * rest))
        members.append(bracket(sig, gen, single(m, 1)))
        members.append(bracket(sig, gen, single(m[:g2] + tuple(map(sum, zip(m[g2:], shift))), 1)))
    return members


def _principal_generator(sig, data):
    """One class of a drawn label at a drawn non-central base: J is principal."""
    label = PrimitiveLabel.from_pairs(sig, data.draw(label_pairs(sig)))
    base = data.draw(st.tuples(*[st.integers(-2, 2)] * 2 * sig.genus).filter(any))
    return label.element_at(Monomial(base + (0,) * (sig.n - 2 * sig.genus)))


class TestClassification:
    def test_roadmap_probes_on_the_one_holed_torus(self):
        sig = ONE_HOLED_TORUS
        x, xc = single((1, 0, 0), 1), single((1, 0, 1), 1)
        assert ideal_contains(sig, ideal_closure(sig, [x]), x + xc)
        ideal = ideal_closure(sig, [x + xc, x - xc])
        assert ideal.labels == frozenset({PrimitiveLabel.trivial(sig)})
        assert ideal_contains(sig, ideal, x)

    def test_principal_probe_on_the_two_holed_torus(self):
        sig = TWO_HOLED_TORUS
        x, x1, x2, x12 = (single(m, 1) for m in ((1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                                                 (1, 0, 1, 1)))
        ideal = ideal_closure(sig, [x + x1])
        assert ideal_contains(sig, ideal, x + x1 + x2 + x12)
        assert not ideal_contains(sig, ideal, x)
        assert not ideal_contains(sig, ideal, x + x2)

    def test_the_unit_ideal_builds_no_label(self, monkeypatch):
        calls = []
        for name in ("decompose_by_center", "_label"):
            real = getattr(rat_ideals, name)
            counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            monkeypatch.setattr(rat_ideals, name, counted)
        sig = TWO_HOLED_TORUS
        two_terms = single((1, 0, 0, 0), 1) + single((1, 0, 1, 2), 3)
        gens = [two_terms, two_terms + single((0, 1, 0, 0), 2), two_terms + single((0, 0, 1, 0), 5)]
        ideal = ideal_closure(sig, gens)
        assert ideal.labels == frozenset({PrimitiveLabel.trivial(sig)})
        assert len(ideal.central_basis) == 1
        assert ideal_contains(sig, ideal, two_terms + single((0, 0, 1, 0), 1))
        assert not ideal_contains(sig, ideal, single((0, 0, 0, 1), 1))
        assert calls == []

    @pytest.mark.parametrize("sig", [*B2_SURFACES, TWO_HOLED_TORUS], ids=["1-2", "2-2", "1-3"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_membership_is_closed_under_sums_and_scalings(self, sig, data):
        if sig.boundary == 2:
            gens = data.draw(st.lists(class_elements(sig, "multi"), min_size=1, max_size=2))
        else:
            gens = [_principal_generator(sig, data)]
        ideal = ideal_closure(sig, gens)
        members = _members(sig, gens, data)
        scales = data.draw(st.lists(rational_coeffs(), min_size=len(members),
                                    max_size=len(members)))
        total = ModuleElement.zero("Q")
        for member, scale in zip(members, scales):
            assert ideal_contains(sig, ideal, member.scaled(scale))
            total = total + member.scaled(scale)
        assert ideal_contains(sig, ideal, total)
        other = data.draw(class_elements(sig, "mixed"))
        verdict = ideal_contains(sig, ideal, other)
        assert verdict == _contains_oracle(sig, ideal, other)
        assert ideal_contains(sig, ideal, other + total) == verdict
        assert ideal_contains(sig, ideal, other.scaled(scales[0])) == verdict

    @pytest.mark.parametrize("sig", B2_SURFACES, ids=["1-2", "2-2"])
    @pytest.mark.parametrize("shape", ["mixed", "multi"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_members_leave_the_closure_unchanged(self, sig, shape, data):
        gens = data.draw(st.lists(class_elements(sig, shape), min_size=1, max_size=2))
        ideal = ideal_closure(sig, gens)
        members = _members(sig, gens, data)
        total = members[-1] + members[-2]
        assert ideal_closure(sig, [*gens, *members[len(gens):], total]) == ideal

    @settings(max_examples=60, deadline=None)
    @given(st.lists(label_pairs(ONE_HOLED_TORUS), min_size=1, max_size=4))
    def test_the_b2_generator_is_the_fraction_gcd(self, pair_lists):
        sig = ONE_HOLED_TORUS
        labels = [PrimitiveLabel.from_pairs(sig, pairs) for pairs in pair_lists]
        g = _gcd_oracle([{m[2] - min(e[2] for e, _ in pairs): c for m, c in pairs}
                         for pairs in pair_lists])
        expected = PrimitiveLabel.from_pairs(sig, [(Monomial((0, 0, d)), c) for d, c in g.items()])
        assert RationalIdeal(labels).labels == frozenset({expected})
        gens = [lab.element_at(Monomial((i + 1, 0, 0))) for i, lab in enumerate(labels)]
        assert ideal_closure(sig, gens).labels == frozenset({expected})

    @pytest.mark.parametrize("sig", [ONE_HOLED_TORUS, TWO_HOLED_TORUS, TWO_GENUS_THREE_HOLES],
                             ids=["1-2", "1-3", "2-3"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_the_unit_short_cut_matches_the_class_test(self, sig, data):
        gens = data.draw(st.lists(class_elements(sig, "mixed"), min_size=1, max_size=2))
        one_term = data.draw(class_elements(sig, "one"))
        ideal = ideal_closure(sig, [*gens, one_term])
        [trivial] = ideal.labels
        assert trivial == PrimitiveLabel.trivial(sig)
        unit = rat_ideals._polynomial(trivial)
        for u in (data.draw(class_elements(sig, "mixed")), gens[0] + one_term):
            parts, central = rat_ideals.decompose_by_center(sig, u)
            by_class = all(not rat_ideals._top_reduce(rat_ideals._polynomial(label), unit, count())
                           for label, _, _ in parts)
            in_v = rat_ideals._reduce(central, ideal.central_basis).is_zero()
            assert ideal_contains(sig, ideal, u) == (by_class and in_v)


def _cli(*argv):
    """Exit code, stdout, stderr and wall seconds of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


GAP = 10**6
ONE_MINUS_T = PrimitiveLabel([(Monomial((0, 0, 0)), q(1)), (Monomial((0, 0, 1)), q(-1))])
FAR = single((1, 0, 0), 1) + single((1, 0, GAP), -1)


class TestReductionCap:
    def test_membership_past_the_cap_raises(self):
        ideal = RationalIdeal([ONE_MINUS_T])
        with pytest.raises(ValueError, match="MAX_REDUCTION_STEPS"):
            ideal_contains(ONE_HOLED_TORUS, ideal, FAR)
        # Within the cap the same division is exact.
        near = single((1, 0, 0), 1) + single((1, 0, MAX_REDUCTION_STEPS // 2), -1)
        assert ideal_contains(ONE_HOLED_TORUS, ideal, near)

    def test_euclid_past_the_cap_raises(self):
        cubic = [((0, 0, 0), q(-1)), ((0, 0, 1), q(5)), ((0, 0, 3), q(1))]
        far = [((0, 0, 0), q(-1)), ((0, 0, GAP), q(1))]
        labels = [PrimitiveLabel.from_pairs(ONE_HOLED_TORUS, pairs) for pairs in (cubic, far)]
        with pytest.raises(ValueError, match="MAX_REDUCTION_STEPS"):
            RationalIdeal(labels)
        gens = [lab.element_at(Monomial((1, 0, 0))) for lab in labels]
        with pytest.raises(ValueError, match="MAX_REDUCTION_STEPS"):
            ideal_closure(ONE_HOLED_TORUS, gens)

    def test_the_cli_exits_two_at_once(self):
        ideal = json.dumps(RationalIdeal([ONE_MINUS_T]).to_json_obj())
        member = _cli("ideal-member", "--boundary", "1", "2", "--ideal", ideal,
                      "--elem", json.dumps(FAR.to_json_obj()))
        cubic = single((1, 0, 0), -1) + single((1, 0, 1), 5) + single((1, 0, 3), 1)
        closure = _cli("ideal-closure", "--boundary", "1", "2",
                       "--gen", json.dumps(cubic.to_json_obj()),
                       "--gen", json.dumps(FAR.to_json_obj()))
        for code, out, err, seconds in (member, closure):
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "MAX_REDUCTION_STEPS" in err
            assert seconds < 2
