"""Classification machinery for ideals of the rational monomial algebra.

Every ideal is a pair ``(J, V)`` (arXiv 1712.04141): ``J`` is one ideal of
the Laurent ring ``Q[C]`` of the center, shared by every non-central
central-translation class, and ``V`` is a subspace of the central span.  A
class's canonical label, a primitive integer weight vector translated to
the identity, is its polynomial in ``Q[C]`` up to a unit.
``RationalIdeal.labels`` holds the canonical generators of ``J``, and ``V``
is a row-reduced basis of integer-numerator elements.

A one-term class is a unit, so closure counts terms per class and builds
no label for ``J = (1)``, where membership is the central test alone.
Otherwise a class is in ``J`` when a generator divides its label, which is
exact for principal ``J`` (always when ``b <= 2``) and never accepts a
non-member.  ``MAX_REDUCTION_STEPS`` caps the polynomial work of one call.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd
from operator import add, attrgetter, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .abelian import (ModuleElement, Monomial, _check_coefficient, _exact_from_json, _json_shape,
                      _lowest, _merge_terms, _rational)
from .bracket import bracket
from .symplectic import SurfaceSignature, _require_length, is_central, symplectic_product
from .words import _check_integer, _Value

MAX_REDUCTION_STEPS = 10_000  # polynomial reduction steps of one closure, ideal or membership call


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
        pairs = _checked_pairs(pairs)
        least_mono, least_q = pairs[0]
        if not least_mono.is_identity() or least_q != 1:
            raise ValueError("label not canonical; use PrimitiveLabel.from_pairs")
        return _label(_rational(dict(pairs))._terms)

    @classmethod
    def from_pairs(cls, sig: SurfaceSignature,
                   pairs: Iterable[tuple[Monomial, Fraction]]) -> "PrimitiveLabel":
        """Canonicalize arbitrary (central monomial, weight) data into a label.

        The translation and scaling residuals are dropped: the primitive
        component is invariant under both, so only the canonical class
        matters.
        """
        pairs = _checked_pairs(pairs)
        for m, _ in pairs:
            if not is_central(sig, m):
                raise ValueError(f"label monomial {tuple(m)} is not central")
        return _label(_rational(dict(pairs))._terms)

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
    """Outside label pairs as checked (Monomial, nonzero Fraction) pairs, sorted by monomial."""
    pairs = sorted(((m if m.__class__ is Monomial else Monomial(m), _check_coefficient("Q", q))
                    for m, q in pairs), key=itemgetter(0))
    if not pairs:
        raise ValueError("a label needs at least one pair")
    if len({m for m, _ in pairs}) != len(pairs):
        raise ValueError("label monomials must be pairwise distinct")
    if len({len(m) for m, _ in pairs}) > 1:
        raise ValueError("label monomials must share one length")
    if any(q == 0 for _, q in pairs):
        raise ValueError("label weights must be nonzero")
    return pairs


def _label(row: dict[Monomial, int]) -> PrimitiveLabel:
    """Trusted: the label of nonzero integer weights on sorted, distinct monomials.

    Translation by the least monomial keeps the order, and dividing by the
    signed gcd makes the weights primitive with w_1 > 0.
    """
    base = next(iter(row))
    weights = tuple(row.values())
    g = gcd(*weights) if weights[0] > 0 else -gcd(*weights)
    return PrimitiveLabel._make(tuple(tuple.__new__(Monomial, map(sub, m, base)) for m in row),
                                tuple(w // g for w in weights))


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


def _terms_on(sig: SurfaceSignature, u: ModuleElement) -> dict[Monomial, int]:
    """u's numerators, once u is checked rational and, by one term, of the surface's length."""
    if u.ring != "Q":
        raise ValueError("decomposition is defined on the rational module")
    if u._terms:
        _require_length(sig, next(iter(u._terms)))
    return u._terms


def _split(sig: SurfaceSignature, u: ModuleElement) -> tuple[Counter, ModuleElement]:
    """The number of u's terms in each non-central class, keyed by the first
    2g exponents, and u's central terms as an element."""
    terms, g2 = _terms_on(sig, u), 2 * sig.genus
    counts = Counter(map(itemgetter(slice(0, g2)), terms))
    if counts.pop((0,) * g2, 0):
        return counts, _lowest("Q", {m: c for m, c in terms.items() if not any(m[:g2])}, u._den)
    return counts, ModuleElement._make("Q", {}, 1)


def decompose_by_center(sig: SurfaceSignature, u: ModuleElement) -> CentralDecomposition:
    """Split a rational element by central-translation classes of its support.

    Monomials sharing their first 2g exponents differ by a central factor
    and aggregate into one part, in ascending class order; a part's base is
    the lex-least monomial of its class, which makes the extracted label
    canonical and the decomposition exactly reassemblable.  One-term classes
    share one trivial label object; central monomials form the remainder.
    """
    terms, g2 = _terms_on(sig, u), 2 * sig.genus
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
    trivial, den = PrimitiveLabel.trivial(sig), u._den
    return CentralDecomposition(tuple(
        Part(_label({m: terms[m] for m in members}) if len(members) > 1 else trivial,
             members[0], Fraction(terms[members[0]], den)) for members in classes.values()),
        _lowest("Q", central, den))


def label_bracket_identity_holds(sig: SurfaceSignature, label: PrimitiveLabel, x: Monomial,
                                 y: Monomial) -> bool:
    """Exact check of [label at x, y] == <x, y> * (label at x*y)."""
    lhs = bracket(sig, label.element_at(x), ModuleElement.single("Q", y, Fraction(1)))
    rhs = label.element_at(x * y).scaled(Fraction(symplectic_product(sig, x, y)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# The generators of J as primitive integer polynomials: maps from exponent
# tuples to integer weights.


def _top_reduce(r: dict, f: dict, steps: Iterator[int]) -> dict:
    """r less multiples of f while f's lex-leading monomial divides r's.

    Fraction-free (Knuth, TAOCP vol. 2, 4.6.1): a step scales r by f's
    leading weight over their gcd, clears r's leading term with a shifted
    multiple of f and divides out the content, so what is returned is
    primitive.  ``steps`` counts the steps of one whole call.
    """
    lead = max(f)
    lc = f[lead]
    while r:
        top = max(r)
        shift = tuple(map(sub, top, lead))
        if min(shift) < 0:
            break
        if next(steps) == MAX_REDUCTION_STEPS:
            raise ValueError(f"polynomial reduction needs more than MAX_REDUCTION_STEPS "
                             f"({MAX_REDUCTION_STEPS}) steps")
        g = gcd(lc, r[top])
        a, b = lc // g, r[top] // g
        r = _merge_terms(((m, w * a) for m, w in r.items()),
                         ((tuple(map(add, m, shift)), -b * w) for m, w in f.items()))
        content = gcd(*r.values())
        if content > 1:
            r = {m: w // content for m, w in r.items()}
    return r


def _polynomial(label: PrimitiveLabel) -> dict:
    """The label's polynomial, moved into N^n by its coordinate-wise minima."""
    low = tuple(map(min, zip(*label._monos)))
    return {tuple(map(sub, m, low)): w for m, w in zip(label._monos, label._weights)}


def _generators(labels: frozenset) -> frozenset:
    """The canonical generators of the ideal of Q[C] that the labels generate.

    The trivial label alone when it is present.  When all label monomials
    are nonzero in one coordinate only (always when b = 2), the labels are
    polynomials in one variable with nonzero constant terms: their gcd by
    Euclid, the trivial label for a gcd of 1.  Otherwise the labels as they are.
    """
    unit = frozenset(label for label in labels if len(label._weights) == 1)
    if unit or len(labels) < 2:
        return unit or labels
    if len({i for label in labels for m in label._monos for i, e in enumerate(m) if e}) > 1:
        return labels
    # Lowest degree first; the last monomial of a one-variable label is its degree.
    polys = [_polynomial(lab)
             for lab in sorted(labels, key=lambda lab: (lab._monos[::-1], lab._weights))]
    steps, g = count(), polys[0]
    for p in polys[1:]:
        while p:
            g, p = p, _top_reduce(g, p, steps)
        if len(g) == 1:
            break
    return frozenset({_label(dict(sorted(g.items())))})


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
    """An ideal (J, V): the canonical generators of J and a reduced basis of V.

    The constructor has no surface and keeps only J's generators, so a label
    it drops is never checked; ``from_json_obj(obj, sig)`` checks labels first.
    """

    __slots__ = ("labels", "central_basis")

    def __new__(cls, labels: Iterable[PrimitiveLabel] = (),
                central_basis: Iterable[ModuleElement] = ()):
        labels = frozenset(labels)
        for label in labels:
            if not isinstance(label, PrimitiveLabel):
                raise TypeError(f"an ideal's labels must be PrimitiveLabels, got {label!r}")
        central_basis = list(central_basis)
        for u in central_basis:
            if not isinstance(u, ModuleElement):
                raise TypeError(f"an ideal's central rows must be ModuleElements, got {u!r}")
        lengths = {len(m) for u in central_basis for m in u._terms}
        lengths.update(len(lab._monos[0]) for lab in labels)
        if len(lengths) > 1:
            raise ValueError(f"an ideal's monomials must share one length, not {sorted(lengths)}")
        return cls._make(_generators(labels),
                         tuple(_rref(u.to_rational() for u in central_basis)))

    def sorted_labels(self) -> list[PrimitiveLabel]:
        return sorted(self.labels, key=attrgetter("pairs"))

    def is_zero(self) -> bool:
        return not self.labels and not self.central_basis

    def __repr__(self) -> str:
        return f"RationalIdeal(labels={len(self.labels)}, central_rank={len(self.central_basis)})"

    def to_json_obj(self) -> dict:
        return {"labels": [lab.to_json_obj() for lab in self.sorted_labels()],
                "central_basis": [u.to_json_obj() for u in self.central_basis]}

    @classmethod
    def from_json_obj(cls, obj: dict, sig: Optional[SurfaceSignature] = None) -> "RationalIdeal":
        obj = _json_shape(obj, dict, "an ideal")
        labels = [PrimitiveLabel.from_json_obj(lab)
                  for lab in _json_shape(obj["labels"], list, "'labels' of an ideal")]
        if sig is not None:
            _require_central(sig, [lab._monos[-1] for lab in labels])
        return cls(labels, (ModuleElement.from_json_obj(u) for u in
                            _json_shape(obj["central_basis"], list, "'central_basis' of an ideal")))


def _require_central(sig: SurfaceSignature, monos: Iterable[Monomial]) -> None:
    for mono in monos:
        if not is_central(sig, mono):  # raises on a length other than sig.n
            raise ValueError(f"ideal monomial {tuple(mono)} is not central")


def ideal_closure(sig: SurfaceSignature, generators: Iterable[ModuleElement]) -> RationalIdeal:
    """Smallest ideal containing the generators.

    Bracketing a generator down to single classes puts each class polynomial
    in ``J`` and each central remainder in ``V``.  A one-term class is a
    unit, so class labels are built, and reduced to ``J``'s canonical
    generators, only when no class of any generator has one term.
    """
    unit, central, pending = False, [], []
    for gen in generators:
        counts, rest = _split(sig, gen)
        central.append(rest)
        if counts and not unit:
            unit = 1 in counts.values()
            pending.append(gen)
    labels = frozenset({PrimitiveLabel.trivial(sig)}) if unit else _generators(frozenset(
        part.label for gen in pending for part in decompose_by_center(sig, gen).parts))
    # Rows built here need none of the constructor's checks.
    return RationalIdeal._make(labels, tuple(_rref(central)))


def ideal_contains(sig: SurfaceSignature, ideal: RationalIdeal, u: ModuleElement) -> bool:
    """Exact membership: each class polynomial in J, and the central part in V.

    In the unit ideal every class polynomial is a member, and in the zero
    ideal none is, so only the central split is made; otherwise each class
    label must be a generator of ``J`` or be divisible by one.  Only J's
    generators and V's rows are checked against the surface (ValueError): a
    generator starts at the identity, so it is central if its last monomial is.
    """
    labels = ideal.labels
    _require_central(sig, [lab._monos[-1] for lab in labels])
    _require_central(sig, [mono for row in ideal.central_basis for mono in row._terms])
    if not labels or any(len(lab._weights) == 1 for lab in labels):
        counts, central = _split(sig, u)
        if counts and not labels:
            return False
    else:
        parts, central = decompose_by_center(sig, u)
        steps, polys = count(), [_polynomial(lab) for lab in labels]
        for label, _, _ in parts:
            # A nonzero remainder by every generator: none divides the class.
            if label not in labels and all(_top_reduce(_polynomial(label), f, steps)
                                           for f in polys):
                return False
    return _reduce(central, ideal.central_basis).is_zero()


def verify_bracket_closure(sig: SurfaceSignature, ideal: RationalIdeal, rng,
                           samples: int = 200) -> Optional[dict]:
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
        if not (ideal.labels <= {trivial} and ideal.central_basis in ((), (identity_line,))):
            return False
    return True
