"""Seeded property suites over every module, with shrunken counterexamples.

Each suite draws its samples from a ``random.Random`` seeded by a stable
string derived from the run seed and the property name, so a report is a
pure function of (seed, scale).  A failing property reports one
counterexample, greedily minimized while it keeps failing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from . import chain, int_ideals, rat_ideals
from .abelian import (
    ModuleElement,
    Monomial,
    abelianize,
    exponent_vector,
)
from .bracket import bracket, bracket_monomials
from .sampling import (
    random_central_monomial,
    random_element,
    random_fraction,
    random_label,
    random_monomial,
    random_noncentral_monomial,
    random_nonzero_int,
    random_word,
)
from .symplectic import (
    SurfaceSignature,
    intersection_pairing,
    is_central,
    pairing_vector,
    symplectic_product,
)
from .words import Word, are_conjugate, conjugacy_canonical, cyclic_reduce, reduce_word

CheckFn = Callable[[random.Random, int], Optional[dict]]

CLOSED_1 = SurfaceSignature.closed(1)
CLOSED_2 = SurfaceSignature.closed(2)
BOUNDARY_12 = SurfaceSignature.with_boundary(1, 2)
BOUNDARY_13 = SurfaceSignature.with_boundary(1, 3)


# ---------------------------------------------------------------------------
# Counterexample shrinking.

def _word_variants(w: Word):
    letters = w.letters
    for i in range(len(letters)):
        yield reduce_word([(l.gen, l.exp) for j, l in enumerate(letters) if j != i], w.n)
    for i, l in enumerate(letters):
        if abs(l.exp) > 1:
            smaller = l.exp // 2 if l.exp > 0 else -((-l.exp) // 2)
            raw = [(x.gen, x.exp) for x in letters]
            raw[i] = (l.gen, smaller)
            yield reduce_word(raw, w.n)


def minimize_words(words: tuple[Word, ...], fails: Callable[[tuple[Word, ...]], bool]):
    """Greedy shrink: drop or shorten letters while the property keeps failing."""
    current = tuple(words)
    improved = True
    while improved:
        improved = False
        for idx in range(len(current)):
            for variant in _word_variants(current[idx]):
                candidate = current[:idx] + (variant,) + current[idx + 1:]
                if sum(map(len, candidate)) < sum(map(len, current)) and fails(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def _element_variants(u: ModuleElement):
    terms = u.terms()
    for i in range(len(terms)):
        yield ModuleElement(u.ring, terms[:i] + terms[i + 1:])
    for i, (mono, coef) in enumerate(terms):
        if abs(coef) != 1:
            one = 1 if coef > 0 else -1
            if u.ring == "Q":
                one = Fraction(one)
            yield ModuleElement(u.ring, terms[:i] + [(mono, one)] + terms[i + 1:])


def _element_size(u: ModuleElement) -> int:
    return sum(1 + sum(map(abs, m)) + (abs(c) != 1) for m, c in u.terms())


def minimize_elements(
    elems: tuple[ModuleElement, ...],
    fails: Callable[[tuple[ModuleElement, ...]], bool],
):
    """Greedy shrink: drop terms and simplify coefficients while still failing."""
    current = tuple(elems)
    improved = True
    while improved:
        improved = False
        for idx in range(len(current)):
            for variant in _element_variants(current[idx]):
                candidate = current[:idx] + (variant,) + current[idx + 1:]
                sizes = tuple(map(_element_size, candidate))
                if sum(sizes) < sum(map(_element_size, current)) and fails(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def _word_failure(words: tuple[Word, ...], fails, **extra) -> dict:
    small = minimize_words(words, fails)
    payload = {f"word_{i}": str(w) for i, w in enumerate(small)}
    payload.update(extra)
    return {"counterexample": payload}


def _element_failure(elems: tuple[ModuleElement, ...], fails, **extra) -> dict:
    small = minimize_elements(elems, fails)
    payload = {f"element_{i}": u.to_json_obj() for i, u in enumerate(small)}
    payload.update(extra)
    return {"counterexample": payload}


# ---------------------------------------------------------------------------
# words

def _check_reduce_idempotent(rng, count):
    for _ in range(count):
        raw = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))]
        w = reduce_word(raw, 3)
        again = reduce_word([(l.gen, l.exp) for l in w.letters], 3)
        if again != w:
            return {"counterexample": {"raw": raw}}
    return None


def _check_concat_associative(rng, count):
    for _ in range(count):
        u, v, w = (random_word(rng, 3) for _ in range(3))
        if (u * v) * w != u * (v * w):
            return _word_failure((u, v, w), lambda t: (t[0] * t[1]) * t[2] != t[0] * (t[1] * t[2]))
        e = Word.identity(3)
        if e * u != u or u * e != u:
            return {"counterexample": {"word": str(u)}}
    return None


def _check_inverse_cancels(rng, count):
    for _ in range(count):
        w = random_word(rng, 3)
        if not (w * w.inverse()).is_identity():
            return _word_failure((w,), lambda t: not (t[0] * t[0].inverse()).is_identity())
    return None


def _check_conjugation_invariance(rng, count):
    for _ in range(count):
        g, w = random_word(rng, 3), random_word(rng, 3)
        if conjugacy_canonical(g * w * g.inverse()) != conjugacy_canonical(w):
            fails = lambda t: conjugacy_canonical(t[0] * t[1] * t[0].inverse()) != conjugacy_canonical(t[1])
            return _word_failure((g, w), fails)
    return None


def _min_conjugate_length(w: Word) -> int:
    # Independent oracle: least reduced length over all rotations of the
    # fully expanded letter sequence.
    expanded: list[tuple[int, int]] = []
    for l in w.letters:
        step = 1 if l.exp > 0 else -1
        expanded.extend((l.gen, step) for _ in range(abs(l.exp)))
    if not expanded:
        return 0
    best = len(expanded)
    for i in range(len(expanded)):
        rotated = expanded[i:] + expanded[:i]
        best = min(best, len(reduce_word(rotated, w.n)))
    return best


def _check_cyclic_core_minimal(rng, count):
    for _ in range(count):
        w = random_word(rng, 3, max_runs=4, max_exp=2)
        if len(w) > 6:
            continue
        core, conj = cyclic_reduce(w)
        if conj * core * conj.inverse() != w:
            return {"counterexample": {"word": str(w), "reason": "conjugation identity"}}
        if len(core) != _min_conjugate_length(w):
            return {"counterexample": {"word": str(w), "core": str(core)}}
    return None


# ---------------------------------------------------------------------------
# abelian

def _check_abelianize_conjugation_invariant(rng, count):
    for _ in range(count):
        g, w = random_word(rng, 3), random_word(rng, 3)
        if abelianize([(1, g * w * g.inverse())], 3) != abelianize([(1, w)], 3):
            return _word_failure(
                (g, w),
                lambda t: abelianize([(1, t[0] * t[1] * t[0].inverse())], 3)
                != abelianize([(1, t[1])], 3),
            )
    return None


def _check_exponent_vector_homomorphism(rng, count):
    for _ in range(count):
        u, v = random_word(rng, 3), random_word(rng, 3)
        if exponent_vector(u * v) != exponent_vector(u) * exponent_vector(v):
            return _word_failure(
                (u, v),
                lambda t: exponent_vector(t[0] * t[1])
                != exponent_vector(t[0]) * exponent_vector(t[1]),
            )
    return None


def _check_abelianize_linear(rng, count):
    for _ in range(count):
        s = [(random_nonzero_int(rng, 9), random_word(rng, 3)) for _ in range(rng.randint(0, 3))]
        t = [(random_nonzero_int(rng, 9), random_word(rng, 3)) for _ in range(rng.randint(0, 3))]
        if abelianize(s + t, 3) != abelianize(s, 3) + abelianize(t, 3):
            return {"counterexample": {"left": [(c, str(w)) for c, w in s],
                                       "right": [(c, str(w)) for c, w in t]}}
    return None


# ---------------------------------------------------------------------------
# symplectic

_SIGS = (CLOSED_1, CLOSED_2, BOUNDARY_12)


def _check_pairing_antisymmetry(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        x, y = random_monomial(rng, sig.n), random_monomial(rng, sig.n)
        if symplectic_product(sig, x, y) != -symplectic_product(sig, y, x):
            return {"counterexample": {"sig": sig.describe(), "x": list(x), "y": list(y)}}
    return None


def _check_pairing_matrix_route(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        x, y = random_monomial(rng, sig.n), random_monomial(rng, sig.n)
        direct = symplectic_product(sig, x, y)
        via_matrix = sum(b * m for b, m in zip(y, pairing_vector(sig, x)))
        if direct != via_matrix:
            return {"counterexample": {"sig": sig.describe(), "x": list(x), "y": list(y)}}
    return None


def _check_pairing_biadditive(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        x, x2, y = (random_monomial(rng, sig.n) for _ in range(3))
        if symplectic_product(sig, x * x2, y) != symplectic_product(sig, x, y) + symplectic_product(sig, x2, y):
            return {"counterexample": {"sig": sig.describe(), "x": list(x),
                                       "x2": list(x2), "y": list(y)}}
    return None


def _check_center_criterion(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        x = random_monomial(rng, sig.n)
        vanishing = not any(pairing_vector(sig, x))
        by_units = all(
            symplectic_product(sig, x, Monomial.unit(sig.n, j)) == 0 for j in range(1, sig.n + 1)
        )
        if not (is_central(sig, x) == vanishing == by_units):
            return {"counterexample": {"sig": sig.describe(), "x": list(x)}}
    return None


def _check_intersection_splitting(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        u1, u2, v1, v2 = (random_word(rng, sig.n) for _ in range(4))
        whole = intersection_pairing(sig, u1 * u2, v1 * v2)
        split = sum(
            intersection_pairing(sig, a, b) for a in (u1, u2) for b in (v1, v2)
        )
        if whole != split:
            fails = lambda t: intersection_pairing(sig, t[0] * t[1], t[2] * t[3]) != sum(
                intersection_pairing(sig, a, b) for a in (t[0], t[1]) for b in (t[2], t[3])
            )
            return _word_failure((u1, u2, v1, v2), fails, sig=sig.describe())
    return None


# ---------------------------------------------------------------------------
# bracket

def _check_bracket_antisymmetry(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        ring = "Z" if i % 2 == 0 else "Q"
        u = random_element(rng, sig.n, ring)
        v = random_element(rng, sig.n, ring)
        if not (bracket(sig, u, v) + bracket(sig, v, u)).is_zero():
            fails = lambda t: not (bracket(sig, t[0], t[1]) + bracket(sig, t[1], t[0])).is_zero()
            return _element_failure((u, v), fails, sig=sig.describe())
    return None


def _check_bracket_jacobi(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        ring = "Z" if i % 2 == 0 else "Q"
        u, v, w = (random_element(rng, sig.n, ring) for _ in range(3))
        total = (
            bracket(sig, u, bracket(sig, v, w))
            + bracket(sig, v, bracket(sig, w, u))
            + bracket(sig, w, bracket(sig, u, v))
        )
        if not total.is_zero():
            fails = lambda t: not (
                bracket(sig, t[0], bracket(sig, t[1], t[2]))
                + bracket(sig, t[1], bracket(sig, t[2], t[0]))
                + bracket(sig, t[2], bracket(sig, t[0], t[1]))
            ).is_zero()
            return _element_failure((u, v, w), fails, sig=sig.describe())
    return None


def _check_bracket_matches_intersection(rng, count):
    for i in range(count):
        sig = _SIGS[i % len(_SIGS)]
        u, v = random_word(rng, sig.n), random_word(rng, sig.n)
        xm, ym = exponent_vector(u, sig.n), exponent_vector(v, sig.n)
        coef = bracket_monomials(sig, xm, ym).coefficient(xm * ym)
        if coef != intersection_pairing(sig, u, v):
            return _word_failure(
                (u, v),
                lambda t: bracket_monomials(
                    sig, exponent_vector(t[0], sig.n), exponent_vector(t[1], sig.n)
                ).coefficient(
                    exponent_vector(t[0], sig.n) * exponent_vector(t[1], sig.n)
                )
                != intersection_pairing(sig, t[0], t[1]),
                sig=sig.describe(),
            )
    return None


def _check_bracket_center_annihilates(rng, count):
    for _ in range(count):
        sig = BOUNDARY_12 if rng.random() < 0.5 else BOUNDARY_13
        c = random_central_monomial(rng, sig)
        y = random_monomial(rng, sig.n)
        if not bracket_monomials(sig, c, y).is_zero():
            return {"counterexample": {"sig": sig.describe(), "c": list(c), "y": list(y)}}
    return None


# ---------------------------------------------------------------------------
# integer ideals

def _random_gcd_submodule(rng, n) -> int_ideals.GcdSubmodule:
    exceptions = {
        tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))
    }
    return int_ideals.GcdSubmodule(n, exceptions)


def _check_gcd_rule_bracket_closed(rng, count):
    for i in range(count):
        sig = CLOSED_1 if i % 2 == 0 else CLOSED_2
        sub = _random_gcd_submodule(rng, sig.n)
        terms = []
        for _ in range(rng.randint(1, 3)):
            mono = random_monomial(rng, sig.n, 6)
            mult = sub.min_multiple(mono)
            if mult == 0:
                continue
            terms.append((mono, mult * random_nonzero_int(rng, 5)))
        member = ModuleElement("Z", terms)
        v = random_monomial(rng, sig.n, 6)
        image = bracket(sig, member, ModuleElement.single("Z", v, 1))
        if not sub.contains(image):
            return {
                "counterexample": {
                    "sig": sig.describe(),
                    "exceptions": sorted(sub.exceptions),
                    "member": member.to_json_obj(),
                    "against": list(v),
                }
            }
    return None


def _exhaustive_bracket_containment(sig, sub, radius) -> bool:
    # Direct closure test through the bracket, the oracle for the
    # divisibility criterion on table rules.
    import itertools

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


def _check_table_criterion_matches_bracket(rng, count):
    for _ in range(count):
        values = {
            (i, j): rng.choice([0, 1, 1, 2, 3])
            for i in range(-2, 3)
            for j in range(-2, 3)
        }
        sub = int_ideals.TableSubmodule(2, 2, values)
        by_criterion = int_ideals.bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
        by_bracket = _exhaustive_bracket_containment(CLOSED_1, sub, 2)
        if by_criterion != by_bracket:
            return {"counterexample": {"values": sorted(values.items()),
                                       "criterion": by_criterion, "bracket": by_bracket}}
    return None


def _check_criteria_agree_on_tables(rng, count):
    for _ in range(count):
        values = {
            (i, j): rng.choice([1, 2]) for i in range(-2, 3) for j in range(-2, 3)
        }
        sub = int_ideals.TableSubmodule(2, 2, values)
        a = int_ideals.bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
        b = int_ideals.gcd_divisibility_check(CLOSED_1, sub, 2, samples=None).ok
        if a != b:
            return {"counterexample": {"values": sorted(values.items()),
                                       "bracket_form": a, "gcd_form": b}}
    return None


def _check_family_distinct_ideals(rng, count):
    for i in range(count):
        sig = CLOSED_1 if i % 2 == 0 else CLOSED_2
        k0 = {tuple(rng.randint(-3, 3) for _ in range(sig.n)) for _ in range(rng.randint(1, 3))}
        family = int_ideals.gcd_submodule_family(k0, 4)
        seen = set()
        for sub in family:
            if sub.exceptions in seen:
                return {"counterexample": {"k0": sorted(k0), "repeat": sorted(sub.exceptions)}}
            seen.add(sub.exceptions)
            report = int_ideals.bracket_closure_check(sig, sub, 6, samples=60, seed=rng.randint(0, 10**9))
            if not report.ok:
                return {"counterexample": {"k0": sorted(k0), "violation": report.counterexample}}
    return None


# ---------------------------------------------------------------------------
# rational ideals

_RAT_SIGS = (BOUNDARY_12, BOUNDARY_13)


def _check_decomposition_lossless(rng, count):
    for i in range(count):
        sig = _RAT_SIGS[i % 2]
        u = random_element(rng, sig.n, "Q", max_terms=5, radius=4)
        if rat_ideals.decompose_by_center(sig, u).reassemble() != u:
            return _element_failure(
                (u,),
                lambda t: rat_ideals.decompose_by_center(sig, t[0]).reassemble() != t[0],
                sig=sig.describe(),
            )
    return None


def _check_label_bracket_identity(rng, count):
    for i in range(count):
        sig = _RAT_SIGS[i % 2]
        label = random_label(rng, sig)
        x = random_noncentral_monomial(rng, sig)
        y = random_monomial(rng, sig.n)
        if not rat_ideals.label_bracket_identity_holds(sig, label, x, y):
            return {"counterexample": {"sig": sig.describe(), "label": label.to_json_obj(),
                                       "x": list(x), "y": list(y)}}
    return None


def _random_rational_ideal(rng, sig) -> rat_ideals.RationalIdeal:
    labels = {random_label(rng, sig) for _ in range(rng.randint(0, 3))}
    central = [
        ModuleElement(
            "Q",
            [
                (random_central_monomial(rng, sig), random_fraction(rng, 5))
                for _ in range(rng.randint(1, 2))
            ],
        )
        for _ in range(rng.randint(0, 2))
    ]
    return rat_ideals.RationalIdeal(labels, central)


def _check_closure_bracket_closed(rng, count):
    for i in range(count):
        sig = _RAT_SIGS[i % 2]
        ideal = _random_rational_ideal(rng, sig)
        violation = rat_ideals.verify_bracket_closure(sig, ideal, rng, samples=10)
        if violation is not None:
            return {"counterexample": {"sig": sig.describe(), **violation}}
    return None


def _check_closure_roundtrip(rng, count):
    for i in range(count):
        sig = _RAT_SIGS[i % 2]
        ideal = _random_rational_ideal(rng, sig)
        generators = [row for row in ideal.central_basis]
        for label in ideal.sorted_labels():
            x = random_noncentral_monomial(rng, sig)
            generators.append(label.element_at(x).scaled(random_fraction(rng, 5)))
        rebuilt = rat_ideals.ideal_closure(sig, generators)
        if rebuilt != ideal:
            return {"counterexample": {"sig": sig.describe(), "ideal": ideal.to_json_obj(),
                                       "rebuilt": rebuilt.to_json_obj()}}
    return None


def _check_central_closure_has_no_labels(rng, count):
    for i in range(count):
        sig = _RAT_SIGS[i % 2]
        u = ModuleElement(
            "Q",
            [
                (random_central_monomial(rng, sig), random_fraction(rng, 5))
                for _ in range(rng.randint(1, 3))
            ],
        )
        ideal = rat_ideals.ideal_closure(sig, [u])
        if ideal.labels:
            return {"counterexample": {"sig": sig.describe(), "element": u.to_json_obj()}}
    return None


def _check_closed_classification(rng, count):
    ok = rat_ideals.closed_surface_classification_check(
        CLOSED_1, rng, samples=max(1, count // 2)
    ) and rat_ideals.closed_surface_classification_check(
        CLOSED_2, rng, samples=max(1, count // 2)
    )
    if not ok:
        return {"counterexample": {"reason": "closure escaped the three closed-surface forms"}}
    return None


# ---------------------------------------------------------------------------
# chain

_CHAIN_N = 3
_CHAIN_C = 1


def _random_chain_word(rng, max_runs=5) -> Word:
    raw = []
    for _ in range(rng.randint(0, max_runs)):
        gen = rng.randint(1, _CHAIN_N)
        if gen == _CHAIN_C and rng.random() < 0.4:
            exp = (1 if rng.random() < 0.5 else -1) * (1 << rng.randint(0, 4))
        else:
            exp = random_nonzero_int(rng, 3)
        raw.append((gen, exp))
    return reduce_word(raw, _CHAIN_N)


def _check_projection_homomorphism(rng, count):
    for i in range(count):
        level = i % 7
        u, v = _random_chain_word(rng), _random_chain_word(rng)
        lhs = chain.project_word(u * v, level, _CHAIN_C)
        rhs = chain.project_word(u, level, _CHAIN_C) * chain.project_word(v, level, _CHAIN_C)
        if lhs != rhs:
            return _word_failure(
                (u, v),
                lambda t: chain.project_word(t[0] * t[1], level, _CHAIN_C)
                != chain.project_word(t[0], level, _CHAIN_C) * chain.project_word(t[1], level, _CHAIN_C),
                level=level,
            )
    return None


def _check_kernel_nesting(rng, count):
    for i in range(count):
        level = i % 6
        w = _random_chain_word(rng)
        if rng.random() < 0.5:
            exps = [rng.randint(level + 1, level + 3) for _ in range(rng.randint(1, 2))]
            xs = [_random_chain_word(rng, 2) for _ in exps]
            w = w * chain.kernel_element(level + 1, exps, xs, _random_chain_word(rng, 2), _CHAIN_C)
        finer = chain.project_word(w, level + 1, _CHAIN_C)
        refactored = chain.project_word(finer.to_word(), level, _CHAIN_C)
        if refactored != chain.project_word(w, level, _CHAIN_C):
            return {"counterexample": {"word": str(w), "level": level}}
        if finer.is_identity() and not chain.project_word(w, level, _CHAIN_C).is_identity():
            return {"counterexample": {"word": str(w), "level": level, "reason": "kernel not nested"}}
    return None


def _check_kernel_witnesses(rng, count):
    for _ in range(count):
        level = rng.randint(0, 5)
        k = rng.randint(1, 3)
        exps = [rng.randint(level, level + 3) for _ in range(k)]
        xs = [_random_chain_word(rng, 3) for _ in range(k)]
        g = _random_chain_word(rng, 3)
        witness = chain.kernel_element(level, exps, xs, g, _CHAIN_C)
        if not chain.project_word(witness, level, _CHAIN_C).is_identity():
            return {"counterexample": {"level": level, "word": str(witness)}}
    return None


def _check_strict_chain(rng, count):
    for level in range(7):
        wrap = reduce_word([(_CHAIN_C, 1 << level)], _CHAIN_N)
        if not chain.project_word(wrap, level, _CHAIN_C).is_identity():
            return {"counterexample": {"level": level, "reason": "wrap not killed at its level"}}
        above = chain.project_word(wrap, level + 1, _CHAIN_C)
        identity = chain.QuotientWord.identity(level + 1, _CHAIN_C, _CHAIN_N)
        if chain.conjugate_in_quotient(above, identity):
            return {"counterexample": {"level": level, "reason": "wrap dies one level early"}}
    return None


def _check_separation_bound(rng, count):
    done = 0
    while done < count:
        a, b = _random_chain_word(rng), _random_chain_word(rng)
        budget = chain.total_c_exponent(a, _CHAIN_C) + chain.total_c_exponent(b, _CHAIN_C)
        if budget > 32 or are_conjugate(a, b):
            continue
        done += 1
        bound = 0
        while (1 << bound) <= 2 * budget:
            bound += 1
        level = chain.separation_level(a, b, _CHAIN_C, bound)
        if level is None:
            return {"counterexample": {"a": str(a), "b": str(b), "budget": budget, "bound": bound}}
        if level > 0 and (1 << (level - 1)) > max(2 * budget, 1):
            return {"counterexample": {"a": str(a), "b": str(b), "level": level, "budget": budget}}
    return None


def _check_quotient_conjugacy_equivalence(rng, count):
    for i in range(count):
        level = i % 7
        x = chain.project_word(_random_chain_word(rng), level, _CHAIN_C)
        y = chain.project_word(_random_chain_word(rng), level, _CHAIN_C)
        if not chain.conjugate_in_quotient(x, x):
            return {"counterexample": {"x": str(x.to_word()), "level": level, "reason": "not reflexive"}}
        if chain.conjugate_in_quotient(x, y) != chain.conjugate_in_quotient(y, x):
            return {"counterexample": {"x": str(x.to_word()), "y": str(y.to_word()),
                                       "level": level, "reason": "not symmetric"}}
        g = chain.project_word(_random_chain_word(rng), level, _CHAIN_C)
        h = chain.project_word(_random_chain_word(rng), level, _CHAIN_C)
        conj_once = g * x * g.inverse()
        conj_twice = h * conj_once * h.inverse()
        if not chain.conjugate_in_quotient(x, conj_twice):
            return {"counterexample": {"x": str(x.to_word()), "level": level,
                                       "reason": "not transitive on conjugates"}}
    return None


# ---------------------------------------------------------------------------
# Assembly.

SUITES: list[tuple[str, list[tuple[str, int, CheckFn]]]] = [
    ("words", [
        ("reduce_idempotent", 10_000, _check_reduce_idempotent),
        ("concat_associative", 10_000, _check_concat_associative),
        ("inverse_cancels", 10_000, _check_inverse_cancels),
        ("conjugation_invariance", 10_000, _check_conjugation_invariance),
        ("cyclic_core_minimal", 2_000, _check_cyclic_core_minimal),
    ]),
    ("abelian", [
        ("conjugation_invariant", 10_000, _check_abelianize_conjugation_invariant),
        ("exponent_vector_homomorphism", 10_000, _check_exponent_vector_homomorphism),
        ("linear", 10_000, _check_abelianize_linear),
    ]),
    ("symplectic", [
        ("antisymmetry", 10_000, _check_pairing_antisymmetry),
        ("matrix_route", 10_000, _check_pairing_matrix_route),
        ("biadditive", 10_000, _check_pairing_biadditive),
        ("center_criterion", 10_000, _check_center_criterion),
        ("intersection_splitting", 10_000, _check_intersection_splitting),
    ]),
    ("bracket", [
        ("antisymmetry", 10_000, _check_bracket_antisymmetry),
        ("jacobi", 1_000, _check_bracket_jacobi),
        ("matches_intersection_number", 10_000, _check_bracket_matches_intersection),
        ("center_annihilates", 10_000, _check_bracket_center_annihilates),
    ]),
    ("int_ideals", [
        ("gcd_rule_bracket_closed", 1_000, _check_gcd_rule_bracket_closed),
        ("table_criterion_matches_bracket", 20, _check_table_criterion_matches_bracket),
        ("criteria_agree_on_tables", 60, _check_criteria_agree_on_tables),
        ("family_distinct_ideals", 20, _check_family_distinct_ideals),
    ]),
    ("rat_ideals", [
        ("decomposition_lossless", 10_000, _check_decomposition_lossless),
        ("label_bracket_identity", 1_000, _check_label_bracket_identity),
        ("closure_bracket_closed", 100, _check_closure_bracket_closed),
        ("closure_roundtrip", 500, _check_closure_roundtrip),
        ("central_closure_has_no_labels", 1_000, _check_central_closure_has_no_labels),
        ("closed_classification", 200, _check_closed_classification),
    ]),
    ("chain", [
        ("projection_homomorphism", 10_000, _check_projection_homomorphism),
        ("kernel_nesting", 10_000, _check_kernel_nesting),
        ("kernel_witnesses", 1_000, _check_kernel_witnesses),
        ("strict_chain", 7, _check_strict_chain),
        ("separation_bound", 1_000, _check_separation_bound),
        ("conjugacy_equivalence", 2_000, _check_quotient_conjugacy_equivalence),
    ]),
]


def _scaled(base: int, scale: float) -> int:
    return max(0, int(round(base * scale)))


def run_selftest(seed: int, scale: float = 1.0) -> dict:
    """Run every suite; the report is a pure function of (seed, scale)."""
    suites = []
    all_passed = True
    for suite_name, checks in SUITES:
        failures = []
        executed = 0
        for prop_name, base_count, fn in checks:
            count = _scaled(base_count, scale)
            if count == 0:
                continue
            rng = random.Random(f"{seed}:{suite_name}:{prop_name}")
            failure = fn(rng, count)
            executed += count
            if failure is not None:
                failures.append({"property": prop_name, **failure})
        passed = not failures
        all_passed = all_passed and passed
        suites.append(
            {
                "suite": suite_name,
                "passed": passed,
                "samples": executed,
                "failures": failures,
            }
        )
    return {"seed": seed, "scale": scale, "all_passed": all_passed, "suites": suites}
