import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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

from conftest import elements, monomials, rational_coeffs

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
        # as a vector and taking its least monomial as pivot must agree.
        sig = TWO_HOLED_TORUS
        ideal = ideal_closure(sig, [gen])
        rows = [{m: Fraction(c) for m, c in row.terms()} for row in ideal.central_basis]
        basis = [(min(row), row) for row in rows]
        central = decompose_by_center(sig, gen).central + decompose_by_center(sig, u).central
        for candidate in (u, gen, bracket(sig, gen, u), central):
            dec = decompose_by_center(sig, candidate)
            expected = all(part.label in ideal.labels for part in dec.parts) and not _reduce_vector(
                {m: Fraction(c) for m, c in dec.central.terms()}, basis
            )
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
        # both sit in a member.
        (SurfaceSignature.with_boundary(0, 3), [[], [((1, 0), 2)]], 1),
        # g = 1: about 100 of 200 labels per member, against 80 classes.
        (ONE_HOLED_TORUS, [[((0, 0, k), 1)] for k in range(1, 201)], 80),
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


def _closure_oracle(sig, generators):
    """The union of the part labels and the span of the central parts."""
    decs = [decompose_by_center(sig, gen) for gen in generators]
    return RationalIdeal({part.label for dec in decs for part in dec.parts},
                         [dec.central for dec in decs])


def _contains_oracle(sig, ideal, u):
    """Every part label in the ideal, and the central part adds no rank."""
    dec = decompose_by_center(sig, u)
    rank = len(RationalIdeal((), [*ideal.central_basis, dec.central]).central_basis)
    return all(part.label in ideal.labels for part in dec.parts) and rank == len(
        ideal.central_basis)


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
        assert ideal == _closure_oracle(sig, gens)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        candidates = [*gens, _member_like(sig, ideal, rng), data.draw(class_elements(sig, shape)),
                      bracket(sig, gens[0], data.draw(class_elements(sig, "one")))]
        for u in candidates:
            assert ideal_contains(sig, ideal, u) == _contains_oracle(sig, ideal, u)

    def test_sums_of_members_keep_their_verdicts(self):
        # Sums of members whose classes merge are reported as non-members: the
        # label of the merged class is not in the ideal.  This is the known
        # defect of ROADMAP item 1; until it is fixed the verdicts stay as the
        # decomposition oracle gives them.
        sig = ONE_HOLED_TORUS
        x, xc = single((1, 0, 0), 1), single((1, 0, 1), 1)
        ideal = ideal_closure(sig, [x])
        assert ideal == _closure_oracle(sig, [x])
        assert ideal_contains(sig, ideal, x + xc) is _contains_oracle(sig, ideal, x + xc) is False
        pair = [x + xc, x + xc.scaled(q(-1))]
        ideal = ideal_closure(sig, pair)
        assert ideal == _closure_oracle(sig, pair)
        assert ideal_contains(sig, ideal, x) is _contains_oracle(sig, ideal, x) is False
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
            assert ideal_contains(sig, ideal, total) == _contains_oracle(sig, ideal, total)


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
