"""Classification machinery for ideals of the rational monomial algebra.

Over the rationals an ideal splits, as a vector space, into primitive
components indexed by canonical labels plus a subspace of the center.  A
label packages central translates and rational weights; evaluating it at a
non-central monomial spreads that monomial over its central-translation
class.  Ideals are stored as a label set together with a row-reduced
rational basis of the central part, which makes equality structural and
membership an exact linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .abelian import ModuleElement, Monomial
from .bracket import bracket
from .symplectic import SurfaceSignature, is_central, symplectic_product
from .words import _Value


class PrimitiveLabel(_Value):
    """Canonical data (c_1, q_1), ..., (c_k, q_k) of a primitive component.

    The c_i are pairwise distinct central monomials and the q_i nonzero
    rationals, translated so the lexicographically least c_i is the
    identity and scaled so its weight is 1; the list is sorted by c_i.
    """

    __slots__ = ("pairs",)

    def __new__(cls, pairs: Iterable[tuple[Monomial, Fraction]]):
        pairs = tuple(sorted(((m, Fraction(q)) for m, q in pairs), key=lambda p: p[0]))
        if not pairs:
            raise ValueError("a label needs at least one pair")
        if len({m for m, _ in pairs}) != len(pairs):
            raise ValueError("label monomials must be pairwise distinct")
        if any(q == 0 for _, q in pairs):
            raise ValueError("label weights must be nonzero")
        least_mono, least_q = pairs[0]
        if not least_mono.is_identity() or least_q != 1:
            raise ValueError("label not canonical; use PrimitiveLabel.from_pairs")
        return cls._make(pairs)

    @classmethod
    def from_pairs(
        cls, sig: SurfaceSignature, pairs: Iterable[tuple[Monomial, Fraction]]
    ) -> "PrimitiveLabel":
        """Canonicalize arbitrary (central monomial, weight) data into a label.

        The translation and scaling residuals are dropped: the primitive
        component is invariant under both, so only the canonical class
        matters.
        """
        pairs = [(m, Fraction(q)) for m, q in pairs]
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
        return cls([(Monomial.identity(sig.n), Fraction(1))])

    def element_at(self, x: Monomial) -> ModuleElement:
        """The rational element sum_i q_i * (c_i * x)."""
        # Translation by x is injective, so the monomials stay distinct.
        return ModuleElement._make("Q", {m * x: q for m, q in self.pairs})

    def sort_key(self) -> tuple:
        return self.pairs

    def __repr__(self) -> str:
        body = ", ".join(f"({tuple(m)}, {q})" for m, q in self.pairs)
        return f"PrimitiveLabel([{body}])"

    def to_json_obj(self) -> list[dict]:
        return [{"c": list(m), "q": str(q)} for m, q in self.pairs]

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "PrimitiveLabel":
        return cls((Monomial(tuple(int(e) for e in p["c"])), Fraction(p["q"])) for p in obj)


class Part(NamedTuple):
    """One primitive piece of a decomposition: coeff * label.element_at(base)."""

    label: PrimitiveLabel
    base: Monomial
    coeff: Fraction


@dataclass(frozen=True)
class CentralDecomposition:
    """Support split into central-translation classes plus a central rest."""

    parts: tuple[Part, ...]
    central: ModuleElement

    def reassemble(self) -> ModuleElement:
        total = self.central
        for label, base, coeff in self.parts:
            total = total + label.element_at(base).scaled(coeff)
        return total


def decompose_by_center(sig: SurfaceSignature, u: ModuleElement) -> CentralDecomposition:
    """Split a rational element by central-translation classes of its support.

    Monomials sharing their first 2g exponents differ by a central factor
    and aggregate into one part; the base of a part is the
    lexicographically least monomial of its class, which makes the
    extracted label canonical and the decomposition exactly reassemblable.
    Classes of central monomials collect into the central remainder.
    """
    if u.ring != "Q":
        raise ValueError("decomposition is defined on the rational module")
    g2 = 2 * sig.genus
    classes: dict[tuple[int, ...], list[tuple[Monomial, Fraction]]] = {}
    central_terms: list[tuple[Monomial, Fraction]] = []
    for mono, coef in u.terms():
        key = mono[:g2]
        if not any(key):
            central_terms.append((mono, coef))
        else:
            classes.setdefault(key, []).append((mono, coef))
    parts = []
    for key in sorted(classes):
        members = classes[key]  # already sorted lexicographically
        base, base_coef = members[0]
        shift = base.inverse()
        # Translation keeps the order, so the label is canonical as built.
        label = PrimitiveLabel._make(tuple((m * shift, q / base_coef) for m, q in members))
        parts.append(Part(label, base, base_coef))
    return CentralDecomposition(tuple(parts), ModuleElement._make("Q", dict(central_terms)))


def label_bracket_identity_holds(
    sig: SurfaceSignature, label: PrimitiveLabel, x: Monomial, y: Monomial
) -> bool:
    """Exact check of [label at x, y] == <x, y> * (label at x*y)."""
    lhs = bracket(sig, label.element_at(x), ModuleElement.single("Q", y, Fraction(1)))
    rhs = label.element_at(x * y).scaled(Fraction(symplectic_product(sig, x, y)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exact rational row reduction over sparse monomial-keyed vectors.

_Vector = dict[Monomial, Fraction]


def _as_vector(u: ModuleElement) -> _Vector:
    return {m: Fraction(c) for m, c in u.terms()}


def _reduce_vector(v: _Vector, basis: Sequence[tuple[Monomial, _Vector]]) -> _Vector:
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


def _rref(vectors: Iterable[_Vector]) -> list[tuple[Monomial, _Vector]]:
    """Reduced echelon basis; pivots are lex-least monomials, ascending."""
    basis: list[tuple[Monomial, _Vector]] = []
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


class RationalIdeal(_Value):
    """An ideal presented by its label set and a reduced central basis."""

    __slots__ = ("labels", "central_basis")

    def __new__(
        cls,
        labels: Iterable[PrimitiveLabel] = (),
        central_basis: Iterable[ModuleElement] = (),
    ):
        rows = _rref(_as_vector(u) for u in central_basis)
        basis = tuple(ModuleElement._make("Q", row) for _, row in rows)
        return cls._make(frozenset(labels), basis)

    def sorted_labels(self) -> list[PrimitiveLabel]:
        return sorted(self.labels, key=PrimitiveLabel.sort_key)

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
        return cls(
            (PrimitiveLabel.from_json_obj(lab) for lab in obj["labels"]),
            (ModuleElement.from_json_obj(u) for u in obj["central_basis"]),
        )


def ideal_closure(
    sig: SurfaceSignature, generators: Iterable[ModuleElement]
) -> RationalIdeal:
    """Smallest label-and-center ideal containing the generators.

    Every label appearing in a generator's decomposition contributes its
    whole primitive component, and the central remainders span the central
    part; both facts follow from bracketing the generators down to single
    components.
    """
    labels: set[PrimitiveLabel] = set()
    central: list[ModuleElement] = []
    for gen in generators:
        dec = decompose_by_center(sig, gen)
        labels.update(part.label for part in dec.parts)
        if not dec.central.is_zero():
            central.append(dec.central)
    return RationalIdeal(labels, central)


def ideal_contains(sig: SurfaceSignature, ideal: RationalIdeal, u: ModuleElement) -> bool:
    """Exact membership: labels of all parts present, central part in span."""
    dec = decompose_by_center(sig, u)
    if any(part.label not in ideal.labels for part in dec.parts):
        return False
    basis = [(min(_as_vector(row)), _as_vector(row)) for row in ideal.central_basis]
    return not _reduce_vector(_as_vector(dec.central), basis)


def verify_bracket_closure(
    sig: SurfaceSignature,
    ideal: RationalIdeal,
    rng,
    samples: int = 200,
    radius: int = 4,
) -> Optional[dict]:
    """Sampled guard: bracketing members with monomials stays inside.

    Draws random combinations of primitive terms and central basis vectors,
    brackets them with random monomials, and checks membership.  Returns a
    description of the first violation, or None.
    """
    labels = ideal.sorted_labels()
    for _ in range(samples):
        member = ModuleElement.zero("Q")
        used_classes: set[tuple[int, ...]] = set()
        for label in labels:
            if rng.random() < 0.5:
                continue
            # Distinct translation classes per label keep the parts separate.
            while True:
                exps = [rng.randint(-radius, radius) for _ in range(sig.n)]
                if not any(exps[: 2 * sig.genus]):
                    exps[rng.randrange(max(1, 2 * sig.genus))] = 1
                if tuple(exps[: 2 * sig.genus]) not in used_classes:
                    break
            used_classes.add(tuple(exps[: 2 * sig.genus]))
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


def closed_surface_classification_check(
    sig: SurfaceSignature, rng, samples: int = 200, radius: int = 6
) -> bool:
    """On a closed surface, single-monomial closures land in one of three forms.

    Either the zero ideal seeded by the identity (labels empty, center the
    identity line), the span of everything but the identity (the trivial
    label alone), or the whole algebra (both).  Verified on sampled
    single-monomial generating sets.
    """
    if not sig.is_closed:
        raise ValueError("classification check applies to closed surfaces")
    trivial = PrimitiveLabel.trivial(sig)
    identity_line = ModuleElement.single("Q", Monomial.identity(sig.n), Fraction(1))
    for _ in range(samples):
        gens = []
        for _ in range(rng.randint(1, 2)):
            exps = tuple(rng.randint(-radius, radius) for _ in range(sig.n))
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
