"""Seeded property suites over every module, with shrunken counterexamples.

Every property is one row of ``PROPERTIES``, declared by ``@_prop`` on its
check.  ``run_selftest`` draws each property's samples from a
``random.Random`` seeded by a stable string derived from the run seed, the
suite and the property name, so a report is a pure function of
(seed, scale).  Every check ``check(rng, i)`` tests sample ``i`` and
returns ``None`` or a counterexample.  Counterexamples made of words or
elements are greedily minimized while they keep failing.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

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
    random_chain_word,
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

CLOSED_1 = SurfaceSignature.closed(1)
CLOSED_2 = SurfaceSignature.closed(2)
BOUNDARY_12 = SurfaceSignature.with_boundary(1, 2)
BOUNDARY_13 = SurfaceSignature.with_boundary(1, 3)

MAX_SELFTEST_SAMPLES = 10_000_000
"""The most samples one ``run_selftest`` may schedule over all properties."""


class Property(NamedTuple):
    suite: str
    name: str
    base: int  # samples at scale 1
    check: Callable[[random.Random, int], Optional[dict]]  # check(rng, i) tests sample i


PROPERTIES: list[Property] = []
"""Every property in report order; the rows of a suite are contiguous."""


def _prop(suite: str, name: str, base: int):
    def declare(check):
        PROPERTIES.append(Property(suite, name, base, check))
        return check

    return declare


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


def _shrink(items: tuple, variants, size, fails) -> tuple:
    """Greedy shrink: swap in the first smaller variant that still fails.

    Items are tried in order, and each item's variants in the order
    ``variants`` yields them, until no smaller variant fails.
    """
    current = tuple(items)
    while True:
        weight = sum(map(size, current))
        candidates = (
            current[:i] + (variant,) + current[i + 1:]
            for i, item in enumerate(current)
            for variant in variants(item)
        )
        smaller = next((c for c in candidates if sum(map(size, c)) < weight and fails(c)), None)
        if smaller is None:
            return current
        current = smaller


def _words(fails, sample: tuple[Word, ...], **extra) -> Optional[dict]:
    """None if ``sample`` passes, else its shrunken words followed by ``extra``."""
    if not fails(sample):
        return None
    small = _shrink(sample, _word_variants, len, fails)
    return {**{f"word_{i}": str(w) for i, w in enumerate(small)}, **extra}


def _elements(fails, sample: tuple[ModuleElement, ...], **extra) -> Optional[dict]:
    """None if ``sample`` passes, else its shrunken elements followed by ``extra``."""
    if not fails(sample):
        return None
    small = _shrink(sample, _element_variants, _element_size, fails)
    return {**{f"element_{i}": u.to_json_obj() for i, u in enumerate(small)}, **extra}


# ---------------------------------------------------------------------------
# words

@_prop("words", "reduce_idempotent", 10_000)
def _(rng, i):
    raw = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))]
    w = reduce_word(raw, 3)
    if reduce_word([(l.gen, l.exp) for l in w.letters], 3) != w:
        return {"raw": raw}


@_prop("words", "concat_associative", 10_000)
def _(rng, i):
    sample = tuple(random_word(rng, 3) for _ in range(3))
    found = _words(lambda t: (t[0] * t[1]) * t[2] != t[0] * (t[1] * t[2]), sample)
    u, e = sample[0], Word.identity(3)
    if found is None and (e * u != u or u * e != u):
        return {"word": str(u)}
    return found


@_prop("words", "inverse_cancels", 10_000)
def _(rng, i):
    return _words(lambda t: not (t[0] * t[0].inverse()).is_identity(), (random_word(rng, 3),))


@_prop("words", "conjugation_invariance", 10_000)
def _(rng, i):
    fails = lambda t: conjugacy_canonical(t[0] * t[1] * t[0].inverse()) != conjugacy_canonical(t[1])
    return _words(fails, (random_word(rng, 3), random_word(rng, 3)))


def _min_conjugate_length(w: Word) -> int:
    # Independent oracle: least reduced length over all rotations of the
    # fully expanded letter sequence.
    expanded = [(l.gen, 1 if l.exp > 0 else -1) for l in w.letters for _ in range(abs(l.exp))]
    rotations = (expanded[i:] + expanded[:i] for i in range(len(expanded)))
    return min((len(reduce_word(rotated, w.n)) for rotated in rotations), default=0)


@_prop("words", "cyclic_core_minimal", 2_000)
def _(rng, i):
    w = random_word(rng, 3, max_runs=4, max_exp=2)
    if len(w) > 6:
        return None
    core, conj = cyclic_reduce(w)
    if conj * core * conj.inverse() != w:
        return {"word": str(w), "reason": "conjugation identity"}
    if len(core) != _min_conjugate_length(w):
        return {"word": str(w), "core": str(core)}


# ---------------------------------------------------------------------------
# abelian

@_prop("abelian", "conjugation_invariant", 10_000)
def _(rng, i):
    ab = lambda w: abelianize([(1, w)], 3)
    fails = lambda t: ab(t[0] * t[1] * t[0].inverse()) != ab(t[1])
    return _words(fails, (random_word(rng, 3), random_word(rng, 3)))


@_prop("abelian", "exponent_vector_homomorphism", 10_000)
def _(rng, i):
    fails = lambda t: exponent_vector(t[0] * t[1]) != exponent_vector(t[0]) * exponent_vector(t[1])
    return _words(fails, (random_word(rng, 3), random_word(rng, 3)))


@_prop("abelian", "linear", 10_000)
def _(rng, i):
    s = [(random_nonzero_int(rng, 9), random_word(rng, 3)) for _ in range(rng.randint(0, 3))]
    t = [(random_nonzero_int(rng, 9), random_word(rng, 3)) for _ in range(rng.randint(0, 3))]
    if abelianize(s + t, 3) != abelianize(s, 3) + abelianize(t, 3):
        return {"left": [(c, str(w)) for c, w in s], "right": [(c, str(w)) for c, w in t]}


# ---------------------------------------------------------------------------
# symplectic

_SIGS = (CLOSED_1, CLOSED_2, BOUNDARY_12)


@_prop("symplectic", "antisymmetry", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]
    x, y = random_monomial(rng, sig.n), random_monomial(rng, sig.n)
    if symplectic_product(sig, x, y) != -symplectic_product(sig, y, x):
        return {"sig": sig.describe(), "x": list(x), "y": list(y)}


@_prop("symplectic", "matrix_route", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]
    x, y = random_monomial(rng, sig.n), random_monomial(rng, sig.n)
    if symplectic_product(sig, x, y) != sum(b * m for b, m in zip(y, pairing_vector(sig, x))):
        return {"sig": sig.describe(), "x": list(x), "y": list(y)}


@_prop("symplectic", "biadditive", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]
    x, x2, y = (random_monomial(rng, sig.n) for _ in range(3))
    pair = lambda a, b: symplectic_product(sig, a, b)
    if pair(x * x2, y) != pair(x, y) + pair(x2, y):
        return {"sig": sig.describe(), "x": list(x), "x2": list(x2), "y": list(y)}


@_prop("symplectic", "center_criterion", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]
    x = random_monomial(rng, sig.n)
    vanishing = not any(pairing_vector(sig, x))
    by_units = all(
        symplectic_product(sig, x, Monomial.unit(sig.n, j)) == 0 for j in range(1, sig.n + 1)
    )
    if not (is_central(sig, x) == vanishing == by_units):
        return {"sig": sig.describe(), "x": list(x)}


@_prop("symplectic", "intersection_splitting", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]
    sample = tuple(random_word(rng, sig.n) for _ in range(4))
    fails = lambda t: intersection_pairing(sig, t[0] * t[1], t[2] * t[3]) != sum(
        intersection_pairing(sig, a, b) for a in t[:2] for b in t[2:]
    )
    return _words(fails, sample, sig=sig.describe())


# ---------------------------------------------------------------------------
# bracket

@_prop("bracket", "antisymmetry", 10_000)
def _(rng, i):
    sig, ring = _SIGS[i % len(_SIGS)], "ZQ"[i % 2]
    sample = (random_element(rng, sig.n, ring), random_element(rng, sig.n, ring))
    fails = lambda t: not (bracket(sig, t[0], t[1]) + bracket(sig, t[1], t[0])).is_zero()
    return _elements(fails, sample, sig=sig.describe())


@_prop("bracket", "jacobi", 1_000)
def _(rng, i):
    sig, ring = _SIGS[i % len(_SIGS)], "ZQ"[i % 2]
    sample = tuple(random_element(rng, sig.n, ring) for _ in range(3))
    fails = lambda t: not (
        bracket(sig, t[0], bracket(sig, t[1], t[2]))
        + bracket(sig, t[1], bracket(sig, t[2], t[0]))
        + bracket(sig, t[2], bracket(sig, t[0], t[1]))
    ).is_zero()
    return _elements(fails, sample, sig=sig.describe())


@_prop("bracket", "matches_intersection_number", 10_000)
def _(rng, i):
    sig = _SIGS[i % len(_SIGS)]

    def fails(t):
        xm, ym = exponent_vector(t[0], sig.n), exponent_vector(t[1], sig.n)
        return bracket_monomials(sig, xm, ym).coefficient(xm * ym) != intersection_pairing(sig, *t)

    return _words(fails, (random_word(rng, sig.n), random_word(rng, sig.n)), sig=sig.describe())


@_prop("bracket", "center_annihilates", 10_000)
def _(rng, i):
    sig = BOUNDARY_12 if rng.random() < 0.5 else BOUNDARY_13
    c, y = random_central_monomial(rng, sig), random_monomial(rng, sig.n)
    if not bracket_monomials(sig, c, y).is_zero():
        return {"sig": sig.describe(), "c": list(c), "y": list(y)}


# ---------------------------------------------------------------------------
# integer ideals

@_prop("int_ideals", "gcd_rule_bracket_closed", 1_000)
def _(rng, i):
    sig = CLOSED_1 if i % 2 == 0 else CLOSED_2
    exceptions = {tuple(rng.randint(-4, 4) for _ in range(sig.n)) for _ in range(rng.randint(0, 3))}
    sub = int_ideals.GcdSubmodule(sig.n, exceptions)
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = random_monomial(rng, sig.n, 6)
        mult = sub.min_multiple(mono)
        if mult:
            terms.append((mono, mult * random_nonzero_int(rng, 5)))
    member = ModuleElement("Z", terms)
    v = random_monomial(rng, sig.n, 6)
    if not sub.contains(bracket(sig, member, ModuleElement.single("Z", v, 1))):
        return {"sig": sig.describe(), "exceptions": sorted(sub.exceptions),
                "member": member.to_json_obj(), "against": list(v)}


def _exhaustive_bracket_containment(sig, sub, radius) -> bool:
    # Direct closure test through the bracket, the oracle for the
    # divisibility criterion on table rules.
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


def _random_table(rng, choices) -> dict:
    return {(a, b): rng.choice(choices) for a in range(-2, 3) for b in range(-2, 3)}


@_prop("int_ideals", "table_criterion_matches_bracket", 20)
def _(rng, i):
    values = _random_table(rng, [0, 1, 1, 2, 3])
    sub = int_ideals.TableSubmodule(2, 2, values)
    by_criterion = int_ideals.bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
    by_bracket = _exhaustive_bracket_containment(CLOSED_1, sub, 2)
    if by_criterion != by_bracket:
        return {"values": sorted(values.items()), "criterion": by_criterion, "bracket": by_bracket}


@_prop("int_ideals", "criteria_agree_on_tables", 60)
def _(rng, i):
    values = _random_table(rng, [1, 2])
    sub = int_ideals.TableSubmodule(2, 2, values)
    a = int_ideals.bracket_closure_check(CLOSED_1, sub, 2, samples=None).ok
    b = int_ideals.gcd_divisibility_check(CLOSED_1, sub, 2, samples=None).ok
    if a != b:
        return {"values": sorted(values.items()), "bracket_form": a, "gcd_form": b}


@_prop("int_ideals", "family_distinct_ideals", 20)
def _(rng, i):
    sig = CLOSED_1 if i % 2 == 0 else CLOSED_2
    k0 = {tuple(rng.randint(-3, 3) for _ in range(sig.n)) for _ in range(rng.randint(1, 3))}
    seen = set()
    for sub in int_ideals.gcd_submodule_family(k0, 4):
        if sub.exceptions in seen:
            return {"k0": sorted(k0), "repeat": sorted(sub.exceptions)}
        seen.add(sub.exceptions)
        seed = rng.randint(0, 10**9)
        report = int_ideals.bracket_closure_check(sig, sub, 6, samples=60, seed=seed)
        if not report.ok:
            return {"k0": sorted(k0), "violation": report.counterexample}


# ---------------------------------------------------------------------------
# rational ideals

_RAT_SIGS = (BOUNDARY_12, BOUNDARY_13)


@_prop("rat_ideals", "decomposition_lossless", 10_000)
def _(rng, i):
    sig = _RAT_SIGS[i % 2]
    sample = (random_element(rng, sig.n, "Q", max_terms=5, radius=4),)
    fails = lambda t: rat_ideals.decompose_by_center(sig, t[0]).reassemble() != t[0]
    return _elements(fails, sample, sig=sig.describe())


@_prop("rat_ideals", "label_bracket_identity", 1_000)
def _(rng, i):
    sig = _RAT_SIGS[i % 2]
    label = random_label(rng, sig)
    x = random_noncentral_monomial(rng, sig)
    y = random_monomial(rng, sig.n)
    if not rat_ideals.label_bracket_identity_holds(sig, label, x, y):
        return {"sig": sig.describe(), "label": label.to_json_obj(), "x": list(x), "y": list(y)}


def _random_central_element(rng, sig, max_terms) -> ModuleElement:
    return ModuleElement(
        "Q",
        [
            (random_central_monomial(rng, sig), random_fraction(rng, 5))
            for _ in range(rng.randint(1, max_terms))
        ],
    )


def _random_rational_ideal(rng, sig) -> rat_ideals.RationalIdeal:
    labels = {random_label(rng, sig) for _ in range(rng.randint(0, 3))}
    central = [_random_central_element(rng, sig, 2) for _ in range(rng.randint(0, 2))]
    return rat_ideals.RationalIdeal(labels, central)


@_prop("rat_ideals", "closure_bracket_closed", 100)
def _(rng, i):
    sig = _RAT_SIGS[i % 2]
    ideal = _random_rational_ideal(rng, sig)
    violation = rat_ideals.verify_bracket_closure(sig, ideal, rng, samples=10)
    return None if violation is None else {"sig": sig.describe(), **violation}


@_prop("rat_ideals", "closure_roundtrip", 500)
def _(rng, i):
    sig = _RAT_SIGS[i % 2]
    ideal = _random_rational_ideal(rng, sig)
    generators = list(ideal.central_basis)
    for label in ideal.sorted_labels():
        x = random_noncentral_monomial(rng, sig)
        generators.append(label.element_at(x).scaled(random_fraction(rng, 5)))
    rebuilt = rat_ideals.ideal_closure(sig, generators)
    if rebuilt != ideal:
        return {"sig": sig.describe(), "ideal": ideal.to_json_obj(),
                "rebuilt": rebuilt.to_json_obj()}


@_prop("rat_ideals", "central_closure_has_no_labels", 1_000)
def _(rng, i):
    sig = _RAT_SIGS[i % 2]
    u = _random_central_element(rng, sig, 3)
    if rat_ideals.ideal_closure(sig, [u]).labels:
        return {"sig": sig.describe(), "element": u.to_json_obj()}


@_prop("rat_ideals", "closed_classification", 200)
def _(rng, i):
    sig = (CLOSED_1, CLOSED_2)[i % 2]
    if not rat_ideals.closed_surface_classification_check(sig, rng, samples=1):
        return {"reason": "closure escaped the three closed-surface forms"}


# ---------------------------------------------------------------------------
# chain

_CHAIN_N = 3
_CHAIN_C = 1


def _chain_word(rng, max_runs=5) -> Word:
    return random_chain_word(rng, _CHAIN_N, _CHAIN_C, max_runs, lambda r: random_nonzero_int(r, 3))


def _project(level: int):
    return lambda w: chain.project_word(w, level, _CHAIN_C)


@_prop("chain", "projection_homomorphism", 10_000)
def _(rng, i):
    level = i % 7
    project = _project(level)
    fails = lambda t: project(t[0] * t[1]) != project(t[0]) * project(t[1])
    return _words(fails, (_chain_word(rng), _chain_word(rng)), level=level)


@_prop("chain", "kernel_nesting", 10_000)
def _(rng, i):
    level = i % 6
    w = _chain_word(rng)
    if rng.random() < 0.5:
        exps = [rng.randint(level + 1, level + 3) for _ in range(rng.randint(1, 2))]
        xs = [_chain_word(rng, 2) for _ in exps]
        w = w * chain.kernel_element(level + 1, exps, xs, _chain_word(rng, 2), _CHAIN_C)
    coarse, finer = _project(level)(w), _project(level + 1)(w)
    if _project(level)(finer.to_word()) != coarse:
        return {"word": str(w), "level": level}
    if finer.is_identity() and not coarse.is_identity():
        return {"word": str(w), "level": level, "reason": "kernel not nested"}


@_prop("chain", "kernel_witnesses", 1_000)
def _(rng, i):
    level, k = rng.randint(0, 5), rng.randint(1, 3)
    exps = [rng.randint(level, level + 3) for _ in range(k)]
    xs = [_chain_word(rng, 3) for _ in range(k)]
    witness = chain.kernel_element(level, exps, xs, _chain_word(rng, 3), _CHAIN_C)
    if not _project(level)(witness).is_identity():
        return {"level": level, "word": str(witness)}


@_prop("chain", "strict_chain", 7)
def _(rng, i):
    level = i % 7
    wrap = reduce_word([(_CHAIN_C, 1 << level)], _CHAIN_N)
    if not _project(level)(wrap).is_identity():
        return {"level": level, "reason": "wrap not killed at its level"}
    identity = chain.QuotientWord.identity(level + 1, _CHAIN_C, _CHAIN_N)
    if chain.conjugate_in_quotient(_project(level + 1)(wrap), identity):
        return {"level": level, "reason": "wrap dies one level early"}


@_prop("chain", "separation_bound", 1_000)
def _(rng, i):
    while True:  # a sample is a non-conjugate pair within the exponent budget
        a, b = _chain_word(rng), _chain_word(rng)
        budget = chain.total_c_exponent(a, _CHAIN_C) + chain.total_c_exponent(b, _CHAIN_C)
        if budget <= 32 and not are_conjugate(a, b):
            break
    bound = (2 * budget).bit_length()  # the least bound with 2^bound > 2 * budget
    level = chain.separation_level(a, b, _CHAIN_C, bound)
    if level is None:
        return {"a": str(a), "b": str(b), "budget": budget, "bound": bound}
    # The proved bound: one bit past the largest c-exponent of the cyclic cores.
    m = max((abs(e) for w in (a, b) for g, e in cyclic_reduce(w)[0].letters if g == _CHAIN_C),
            default=0)
    if level > (m.bit_length() + 1 if m else 0) or (
            level > 0 and (1 << (level - 1)) > max(2 * budget, 1)):
        return {"a": str(a), "b": str(b), "level": level, "budget": budget}


@_prop("chain", "conjugacy_equivalence", 2_000)
def _(rng, i):
    level = i % 7
    project = _project(level)
    x, y = project(_chain_word(rng)), project(_chain_word(rng))
    if not chain.conjugate_in_quotient(x, x):
        return {"x": str(x.to_word()), "level": level, "reason": "not reflexive"}
    if chain.conjugate_in_quotient(x, y) != chain.conjugate_in_quotient(y, x):
        return {"x": str(x.to_word()), "y": str(y.to_word()),
                "level": level, "reason": "not symmetric"}
    g, h = project(_chain_word(rng)), project(_chain_word(rng))
    if not chain.conjugate_in_quotient(x, h * (g * x * g.inverse()) * h.inverse()):
        return {"x": str(x.to_word()), "level": level, "reason": "not transitive on conjugates"}


# ---------------------------------------------------------------------------
# Assembly.

def run_selftest(seed: int, scale: float = 1.0) -> dict:
    """Run every suite; the report is a pure function of (seed, scale)."""
    if not 0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    # Clamped before rounding, so a huge scale costs no huge (or infinite) count.
    counts = [round(min(prop.base * scale, MAX_SELFTEST_SAMPLES + 1)) for prop in PROPERTIES]
    if sum(counts) > MAX_SELFTEST_SAMPLES:
        raise ValueError(f"scale {scale} schedules over the cap of {MAX_SELFTEST_SAMPLES} samples")
    suites = []
    for suite, rows in itertools.groupby(zip(PROPERTIES, counts), key=lambda row: row[0].suite):
        failures = []
        executed = 0
        for prop, count in rows:
            if count == 0:
                continue
            rng = random.Random(f"{seed}:{suite}:{prop.name}")
            for i in range(count):
                found = prop.check(rng, i)
                if found is not None:
                    break
            executed += count
            if found is not None:
                failures.append({"property": prop.name, "counterexample": found})
        suites.append(
            {"suite": suite, "passed": not failures, "samples": executed, "failures": failures}
        )
    all_passed = all(s["passed"] for s in suites)
    return {"seed": seed, "scale": scale, "all_passed": all_passed, "suites": suites}
