"""Classification machinery for ideals of the rational monomial algebra.

Over the rationals an ideal splits, as a vector space, into primitive
components indexed by canonical labels plus a subspace of the center.  A
label packages central translates and rational weights; evaluating it at a
non-central monomial spreads that monomial over its central-translation
class.  A label stores its weights as a primitive integer vector, so
labels compare and hash on integers.  Ideals are stored as a label set
together with a row-reduced rational basis of the central part, which
makes equality structural and membership an exact linear solve.

Decomposition, closure and membership group an element's terms by class
in one helper, which reads the element's integer numerators: it divides
each class by one gcd and keeps the central terms as one element, and
central rows reduce by element arithmetic, with no ``Fraction`` per term.
Closure and membership build no decomposition objects and hash each
distinct label once, the trivial label of all one-term classes included.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .abelian import (ModuleElement, Monomial, _check_coefficient, _exact_from_json, _json_shape,
                      _lowest, _merge_terms, _rational)
from .bracket import bracket
from .symplectic import SurfaceSignature, _require_length, is_central, symplectic_product
from .words import _check_integer, _Value


class PrimitiveLabel(_Value):
    """Canonical data (c_1, q_1), ..., (c_k, q_k) of a primitive component.

    The c_i are pairwise distinct central monomials and the q_i nonzero
    rationals, translated so the lexicographically least c_i is the
    identity and scaled so its weight is 1; the list is sorted by c_i.
    The label stores the c_i and the primitive integer vector w with
    w_1 > 0 and q_i = w_i / w_1.
    """

    __slots__ = ("_monos", "_weights")

    def __new__(cls, pairs: Iterable[tuple[Monomial, Fraction]]):
        pairs = sorted(_checked_pairs(pairs), key=lambda p: p[0])
        if not pairs:
            raise ValueError("a label needs at least one pair")
        if len({m for m, _ in pairs}) != len(pairs):
            raise ValueError("label monomials must be pairwise distinct")
        if len({len(m) for m, _ in pairs}) > 1:
            raise ValueError("label monomials must share one length")
        if any(q == 0 for _, q in pairs):
            raise ValueError("label weights must be nonzero")
        least_mono, least_q = pairs[0]
        if not least_mono.is_identity() or least_q != 1:
            raise ValueError("label not canonical; use PrimitiveLabel.from_pairs")
        # q_1 = 1, so the numerators over the lcm are primitive with w_1 > 0.
        row = _rational(dict(pairs))._terms
        return cls._make(tuple(row), tuple(row.values()))

    @classmethod
    def from_pairs(
        cls, sig: SurfaceSignature, pairs: Iterable[tuple[Monomial, Fraction]]
    ) -> "PrimitiveLabel":
        """Canonicalize arbitrary (central monomial, weight) data into a label.

        The translation and scaling residuals are dropped: the primitive
        component is invariant under both, so only the canonical class
        matters.
        """
        pairs = _checked_pairs(pairs)
        if not pairs:
            raise ValueError("a label needs at least one pair")
        for m, q in pairs:
            if not is_central(sig, m):
                raise ValueError(f"label monomial {tuple(m)} is not central")
            if q == 0:
                raise ValueError("label weights must be nonzero")
        pairs.sort(key=lambda p: p[0])
        least_mono, least_q = pairs[0]
        shift = least_mono.inverse()
        return cls((m * shift, q / least_q) for m, q in pairs)

    @classmethod
    def trivial(cls, sig: SurfaceSignature) -> "PrimitiveLabel":
        """The one-pair label (identity, 1)."""
        return cls._make((Monomial.identity(sig.n),), (1,))

    @property
    def pairs(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The canonical pairs (c_i, q_i), sorted by c_i."""
        w1 = self._weights[0]
        return tuple((m, Fraction(w, w1)) for m, w in zip(self._monos, self._weights))

    def element_at(self, x: Monomial) -> ModuleElement:
        """The rational element sum_i q_i * (c_i * x)."""
        # Translation by x is injective and w primitive: distinct monomials, lowest terms.
        return ModuleElement._make(
            "Q", {m * x: w for m, w in zip(self._monos, self._weights)}, self._weights[0])

    def __repr__(self) -> str:
        body = ", ".join(f"({tuple(m)}, {q})" for m, q in self.pairs)
        return f"PrimitiveLabel([{body}])"

    def to_json_obj(self) -> list[dict]:
        return [{"c": list(m), "q": str(q)} for m, q in self.pairs]

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "PrimitiveLabel":
        pairs = []
        for p in _json_shape(obj, list, "a label"):
            p = _json_shape(p, dict, "a pair of a label")
            mono = Monomial(_json_shape(p["c"], list, "'c' of a label pair"))
            pairs.append((mono, _exact_from_json(p["q"], "Q")))
        return cls(pairs)


def _checked_pairs(pairs: Iterable[tuple[Monomial, Fraction]]) -> list[tuple[Monomial, Fraction]]:
    """Label pairs from outside: each exponent vector a Monomial, each weight a Fraction."""
    return [(m if m.__class__ is Monomial else Monomial(m), _check_coefficient("Q", q))
            for m, q in pairs]


class Part(NamedTuple):
    """One primitive piece of a decomposition: coeff * label.element_at(base)."""

    label: PrimitiveLabel
    base: Monomial
    coeff: Fraction


class CentralDecomposition(NamedTuple):
    """Support split into central-translation classes plus a central rest."""

    parts: tuple[Part, ...]
    central: ModuleElement

    def reassemble(self) -> ModuleElement:
        """central + sum of coeff * label.element_at(base), the parts merged in one pass."""
        parts = ((m * base, q * coeff) for label, base, coeff in self.parts for m, q in label.pairs)
        return self.central + _rational(_merge_terms(parts))


def _classes(
    sig: SurfaceSignature, u: ModuleElement
) -> tuple[list[tuple[PrimitiveLabel, Monomial, int]], ModuleElement]:
    """Group u's terms by central-translation class.

    Returns ``(parts, central)``: one ``(label, base, numerator)`` per class
    of non-central monomials, in ascending class order, the base's
    coefficient being ``numerator / u._den``, and the central terms as
    an element.  Every one-term class carries the same trivial label object.
    """
    if u.ring != "Q":
        raise ValueError("decomposition is defined on the rational module")
    terms, g2 = u._terms, 2 * sig.genus
    # All monomials of an element share one length, so one term tells.
    if terms:
        _require_length(sig, next(iter(terms)))
    classes: dict[tuple[int, ...], list[Monomial]] = {}
    central: dict[Monomial, int] = {}
    # Sorting the monomials alone compares no coefficients.  Sorted, each
    # class is sorted and the classes are inserted in ascending order.
    for mono in sorted(terms):
        key = mono[:g2]
        if any(key):
            classes.setdefault(key, []).append(mono)
        else:
            central[mono] = terms[mono]
    # Every label starts with its base translated to the identity.
    head = Monomial.identity(sig.n)
    trivial = PrimitiveLabel._make((head,), (1,))
    new = tuple.__new__
    parts = []
    for base, *rest in classes.values():
        num = terms[base]
        if rest:
            # Translation keeps the order, so the label is canonical as built;
            # q_i = n_i / n_base, and the signed gcd makes w primitive, w_1 > 0.
            weights = [num, *map(terms.__getitem__, rest)]
            g = gcd(*weights) if num > 0 else -gcd(*weights)
            label = PrimitiveLabel._make(
                (head, *(new(Monomial, map(sub, m, base)) for m in rest)),
                tuple(w // g for w in weights),
            )
        else:
            label = trivial
        parts.append((label, base, num))
    return parts, _lowest("Q", central, u._den)


def _labels(parts: Sequence[tuple[PrimitiveLabel, Monomial, int]]) -> set[PrimitiveLabel]:
    """The distinct labels of :func:`_classes` parts.

    Deduplicating by identity first hashes the shared trivial label once,
    not once per one-term class.
    """
    return set({id(label): label for label, _, _ in parts}.values())


def decompose_by_center(sig: SurfaceSignature, u: ModuleElement) -> CentralDecomposition:
    """Split a rational element by central-translation classes of its support.

    Monomials sharing their first 2g exponents differ by a central factor
    and aggregate into one part; the base of a part is the
    lexicographically least monomial of its class, which makes the
    extracted label canonical and the decomposition exactly reassemblable.
    Classes of central monomials collect into the central remainder.
    """
    parts, central = _classes(sig, u)
    return CentralDecomposition(
        tuple(Part(label, base, Fraction(num, u._den)) for label, base, num in parts),
        central,
    )


def label_bracket_identity_holds(
    sig: SurfaceSignature, label: PrimitiveLabel, x: Monomial, y: Monomial
) -> bool:
    """Exact check of [label at x, y] == <x, y> * (label at x*y)."""
    lhs = bracket(sig, label.element_at(x), ModuleElement.single("Q", y, Fraction(1)))
    rhs = label.element_at(x * y).scaled(Fraction(symplectic_product(sig, x, y)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exact row reduction of rational elements.  A reduced row's pivot is its
# lex-least monomial, at coefficient 1: its numerator there equals _den.


def _reduce(v: ModuleElement, rows: Sequence[ModuleElement]) -> ModuleElement:
    """v less its multiple of each reduced row in turn, which clears the row's pivot."""
    for row in rows:
        num = v._terms.get(min(row._terms))
        if num:
            v = v - row.scaled(Fraction(num, v._den))
    return v


def _rref(vectors: Iterable[ModuleElement]) -> list[ModuleElement]:
    """Reduced echelon basis of rational elements, ascending by pivot."""
    basis: list[ModuleElement] = []
    for vec in vectors:
        rest = _reduce(vec, basis)
        if rest.is_zero():
            continue
        row = rest.scaled(1 / rest.coefficient(min(rest._terms)))
        basis = [_reduce(b, [row]) for b in basis]
        basis.append(row)
        basis.sort(key=lambda b: min(b._terms))
    return basis


class RationalIdeal(_Value):
    """An ideal presented by its label set and a reduced central basis."""

    __slots__ = ("labels", "central_basis")

    def __new__(
        cls,
        labels: Iterable[PrimitiveLabel] = (),
        central_basis: Iterable[ModuleElement] = (),
    ):
        labels = frozenset(labels)
        for label in labels:
            if not isinstance(label, PrimitiveLabel):
                raise TypeError(f"an ideal's labels must be PrimitiveLabels, got {label!r}")
        central_basis = list(central_basis)
        for u in central_basis:
            if not isinstance(u, ModuleElement):
                raise TypeError(f"an ideal's central rows must be ModuleElements, got {u!r}")
        return cls._make(labels, tuple(_rref(u.to_rational() for u in central_basis)))

    def sorted_labels(self) -> list[PrimitiveLabel]:
        return sorted(self.labels, key=attrgetter("pairs"))

    def is_zero(self) -> bool:
        return not self.labels and not self.central_basis

    def __repr__(self) -> str:
        return (
            f"RationalIdeal(labels={len(self.labels)}, "
            f"central_rank={len(self.central_basis)})"
        )

    def to_json_obj(self) -> dict:
        return {
            "labels": [lab.to_json_obj() for lab in self.sorted_labels()],
            "central_basis": [u.to_json_obj() for u in self.central_basis],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RationalIdeal":
        obj = _json_shape(obj, dict, "an ideal")
        return cls(
            (PrimitiveLabel.from_json_obj(lab)
             for lab in _json_shape(obj["labels"], list, "'labels' of an ideal")),
            (ModuleElement.from_json_obj(u)
             for u in _json_shape(obj["central_basis"], list, "'central_basis' of an ideal")),
        )


def ideal_closure(
    sig: SurfaceSignature, generators: Iterable[ModuleElement]
) -> RationalIdeal:
    """Smallest label-and-center ideal containing the generators.

    Every label appearing in a generator's decomposition contributes its
    whole primitive component, and the central remainders span the central
    part; both facts follow from bracketing the generators down to single
    components.  Each generator's classes are grouped once, as
    :func:`decompose_by_center` groups them, and each distinct label is
    collected once.
    """
    labels: set[PrimitiveLabel] = set()
    central: list[ModuleElement] = []
    for gen in generators:
        parts, rest = _classes(sig, gen)
        labels |= _labels(parts)
        central.append(rest)
    # Labels and rows built here need none of the constructor's checks.
    return RationalIdeal._make(frozenset(labels), tuple(_rref(central)))


def ideal_contains(sig: SurfaceSignature, ideal: RationalIdeal, u: ModuleElement) -> bool:
    """Exact membership: labels of all parts present, central part in span.

    The classes of ``u`` are grouped as :func:`decompose_by_center` groups
    them, and each distinct label is looked up once.  An ideal that does
    not fit the surface raises ValueError: every monomial of a central row
    is tested.  The monomials of a label share one length, and a label
    starts at the identity, so a non-central monomial in it sorts after all
    central ones: its last pair is central only if every pair is.
    """
    probes = [lab._monos[-1] for lab in ideal.labels]
    probes += [mono for row in ideal.central_basis for mono in row._terms]
    for mono in probes:
        if not is_central(sig, mono):  # raises on a length other than sig.n
            raise ValueError(f"ideal monomial {tuple(mono)} is not central")
    parts, central = _classes(sig, u)
    return _labels(parts) <= ideal.labels and _reduce(central, ideal.central_basis).is_zero()


def verify_bracket_closure(
    sig: SurfaceSignature, ideal: RationalIdeal, rng, samples: int = 200
) -> Optional[dict]:
    """Sampled guard: bracketing members with monomials stays inside.

    Draws random combinations of primitive terms and central basis vectors,
    brackets them with random monomials, exponents in [-4, 4], and checks
    membership.  Returns a description of the first violation, or None.
    A sample whose labels need more translation classes than the box holds
    raises ValueError.
    """
    _check_integer(samples, "samples", 0)
    labels = ideal.sorted_labels()
    radius, g2 = 4, 2 * sig.genus
    room = max(1, (2 * radius + 1) ** g2 - 1)  # non-central classes of the box; at g = 0 only ()
    for _ in range(samples):
        member = ModuleElement.zero("Q")
        used_classes: set[tuple[int, ...]] = set()
        for label in labels:
            if rng.random() < 0.5:
                continue
            if len(used_classes) == room:
                raise ValueError(f"a sample needs more than the {room} classes of the box")
            # Distinct translation classes per label keep the parts separate.
            while True:
                exps = [rng.randint(-radius, radius) for _ in range(sig.n)]
                if not any(exps[:g2]):
                    exps[rng.randrange(max(1, g2))] = 1
                key = tuple(exps[:g2])
                if key not in used_classes:
                    break
            used_classes.add(key)
            coeff = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            member = member + label.element_at(Monomial(exps)).scaled(coeff)
        for row in ideal.central_basis:
            if rng.random() < 0.5:
                member = member + row.scaled(Fraction(rng.randint(-3, 3)))
        v = Monomial(tuple(rng.randint(-radius, radius) for _ in range(sig.n)))
        result = bracket(sig, member, ModuleElement.single("Q", v, Fraction(1)))
        if not ideal_contains(sig, ideal, result):
            return {"member": member.to_json_obj(), "against": list(v)}
    return None


def closed_surface_classification_check(sig: SurfaceSignature, rng, samples: int = 200) -> bool:
    """On a closed surface, single-monomial closures land in one of three forms.

    Either the zero ideal seeded by the identity (labels empty, center the
    identity line), the span of everything but the identity (the trivial
    label alone), or the whole algebra (both).  Verified on sampled
    single-monomial generating sets with exponents in [-6, 6].
    """
    _check_integer(samples, "samples", 0)
    if not sig.is_closed:
        raise ValueError("classification check applies to closed surfaces")
    trivial = PrimitiveLabel.trivial(sig)
    identity_line = ModuleElement.single("Q", Monomial.identity(sig.n), Fraction(1))
    for _ in range(samples):
        gens = []
        for _ in range(rng.randint(1, 2)):
            exps = tuple(rng.randint(-6, 6) for _ in range(sig.n))
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            gens.append(ModuleElement.single("Q", Monomial(exps), coeff))
        ideal = ideal_closure(sig, gens)
        if not ideal.labels <= {trivial}:
            return False
        if len(ideal.central_basis) > 1:
            return False
        if ideal.central_basis and ideal.central_basis[0] != identity_line:
            return False
    return True
