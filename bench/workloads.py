"""The four workloads: seeded op streams with an oracle for every op.

An op is one user-level task: several dependent library calls, or one
``cli.main`` call.  Program objects an op starts from are built here,
untimed, through public constructors; ``run(lib)`` is the timed part and
reaches the package only through ``lib`` (see ``tracing.py``);
``check(out)`` is the untimed oracle.

Oracles come from the mathematics (``reference.py``) or from identities
between public operations (antisymmetry, Jacobi, conjugation invariance),
never from stored outputs.  ``check`` returns True (output correct), False
(a failed op) or ``DEFECT``.

Inputs that hit the two known defects stay in, at a fixed share of every
block: sums of ideal members on surfaces with two or more boundary
components (wrongly reported as non-members), and CLI inputs that end in a
traceback or a wrong exit code.  An op whose only wrong output is that
defect is classed ``DEFECT``: it counts against ``ok_ratio`` like a failure,
but not as a failed op of the run, so a regression anywhere else still
shows as ``failed > 0``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import goldmanab as ga

import reference as ref
from gen import Draw, format_runs, inverse_runs


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable


C = 1  # distinguished generator of the chain quotients
DEFECT = "known-defect"


def sum_read_outcome(verdicts, sum_verdict, *checks) -> bool | str:
    """Every oracle passed, or only the membership of a sum of members failed."""
    if not (all(verdicts) and all(checks)):
        return False
    return True if sum_verdict in (None, True) else DEFECT


def mono(exps) -> ga.Monomial:
    return ga.Monomial(tuple(exps))


def element(ring: str, terms) -> ga.ModuleElement:
    return ga.ModuleElement(ring, [(mono(e), c) for e, c in terms])


def json_terms(obj) -> dict:
    """The terms of an element's documented JSON form, as a map."""
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in obj["terms"]}


def as_map(u) -> dict:
    return json_terms(u.to_json_obj())


def runs_of(w) -> list[tuple[int, int]]:
    return [tuple(let) for let in w.letters]


def bracket_ok(sig, u, v, b, z) -> bool:
    """Antisymmetry of [u, v] and the Jacobi identity on truncations of u, v and z."""
    if ga.bracket(sig, v, u) != -b:
        return False
    x = element(u.ring, [(t["exp"], Fraction(t["coef"])) for t in u.to_json_obj()["terms"][:3]])
    y = element(v.ring, [(t["exp"], Fraction(t["coef"])) for t in v.to_json_obj()["terms"][:3]])
    br = ga.bracket
    total = br(sig, x, br(sig, y, z)) + br(sig, y, br(sig, z, x)) + br(sig, z, br(sig, x, y))
    return total.is_zero()


def reassembles(dec, u) -> bool:
    """The decomposition's parts and central rest sum back to u.

    Summed in one pass over plain maps: ``CentralDecomposition.reassemble``
    is quadratic in the number of parts, which would make this oracle cost
    more than the op it checks.
    """
    pairs = list(as_map(dec.central).items())
    for label, base, coeff in dec.parts:
        pairs += [(m, q * coeff) for m, q in as_map(label.element_at(base)).items()]
    return ref.linear_sum(pairs) == as_map(u)


def kernel_runs(level_exps, factor_runs, conj_runs) -> list[tuple[int, int]]:
    """Raw letters of g * prod(c^(2^m) x c^(-2^m) x^-1) * g^-1."""
    raw = list(conj_runs)
    for m, x in zip(level_exps, factor_runs):
        raw += [(C, 1 << m)] + list(x) + [(C, -(1 << m))] + inverse_runs(x)
    return raw + inverse_runs(conj_runs)


class SeparationCase(NamedTuple):
    """w and w*k for a kernel element k at ``level``, with the oracle's data."""

    level: int
    level_exps: list
    factors: list
    conj: list
    b_runs: list
    bound: int
    conjugate: bool


def separation_case(draw: Draw, n: int, w_runs, level: int, factor_runs: int) -> SeparationCase:
    rng = draw.rng
    k = rng.randint(1, 2)
    level_exps = [rng.randint(level, level + 2) for _ in range(k)]
    factors = [draw.word_runs(n, rng.randint(1, factor_runs), c=C) for _ in range(k)]
    conj = draw.word_runs(n, rng.randint(0, factor_runs), c=C)
    b_runs = ref.free_reduce(list(w_runs) + kernel_runs(level_exps, factors, conj))
    w_red = ref.free_reduce(w_runs)
    bound = ref.separation_bound(ref.total_c(w_red, C) + ref.total_c(b_runs, C))
    conjugate = ref.conjugacy_key(w_red) == ref.conjugacy_key(b_runs)
    return SeparationCase(level, level_exps, factors, conj, b_runs, bound, conjugate)


def separation_ok(case: SeparationCase, kern, b, sep) -> bool:
    """Kernel dies at its level; the level found is above it and within the bound."""
    if not ga.project_word(kern, case.level, C).is_identity():
        return False
    if runs_of(b) != case.b_runs:
        return False
    if case.conjugate:
        return sep == "conjugate"
    return isinstance(sep, int) and case.level < sep <= case.bound


def run_separation(lib, n, w, case: SeparationCase):
    factors = [lib.reduce_word(x, n) for x in case.factors]
    conj = lib.reduce_word(case.conj, n)
    kern = lib.kernel_element(case.level, case.level_exps, factors, conj, C)
    b = lib.concat(w, kern)
    try:
        sep = lib.separation_level(w, b, C, case.bound)
    except ValueError:
        sep = "conjugate"
    return kern, b, sep


# ---------------------------------------------------------------------------
# ideals_large

LARGE_SURFACES = (
    ga.SurfaceSignature.closed(2),
    ga.SurfaceSignature.with_boundary(1, 2),
    ga.SurfaceSignature.with_boundary(1, 3),
    ga.SurfaceSignature.with_boundary(2, 3),
)
TABLE_SURFACE = ga.SurfaceSignature.with_boundary(1, 2)
GCD_SAMPLES = 1500
ELEMENT_RADIUS = 3


def _central_unit(sig) -> tuple[int, ...]:
    return tuple(1 if j == 2 * sig.genus else 0 for j in range(sig.n))


def _rat_op(draw: Draw, sig, terms: int, with_sum: bool) -> Op:
    n, rng = sig.n, draw.rng
    u = element("Q", draw.element_terms(n, terms, ELEMENT_RADIUS))
    v = element("Q", draw.element_terms(n, terms, ELEMENT_RADIUS))
    z = element("Q", [(draw.exps(n, ELEMENT_RADIUS), 1)])
    reads = [draw.noncentral_exps(n, sig.genus, ELEMENT_RADIUS) for _ in range(3)]
    if with_sum:
        # [b, m] + [b, m*c^k]: a sum of members, hence a member.
        k = draw.nonzero(2)
        shifted = tuple(a + k * d for a, d in zip(reads[0], _central_unit(sig)))

    def run(lib):
        b = lib.bracket(sig, u, v)
        dec = lib.decompose_by_center(sig, b)
        ideal = lib.ideal_closure(sig, [b])
        members = [lib.bracket(sig, b, lib.ModuleElement("Q", [(mono(m), 1)])) for m in reads]
        verdicts = [lib.ideal_contains(sig, ideal, r) for r in members]
        sum_verdict = None
        if with_sum:
            other = lib.bracket(sig, b, lib.ModuleElement("Q", [(mono(shifted), 1)]))
            sum_verdict = lib.ideal_contains(sig, ideal, lib.add(members[0], other))
        return b, dec, verdicts, sum_verdict

    def check(out):
        b, dec, verdicts, sum_verdict = out
        return sum_read_outcome(verdicts, sum_verdict, reassembles(dec, b),
                                bracket_ok(sig, u, v, b, z))

    return Op(f"rat.{'sum' if with_sum else 'plain'}", run, check)


def _gcd_op(draw: Draw, sig, criterion: str) -> Op:
    rng, n = draw.rng, sig.n
    k0 = sorted({draw.exps(n, 4) for _ in range(rng.randint(1, 3))})
    count = rng.randint(1, 5)
    seed = rng.randrange(2**31)

    def run(lib):
        family = lib.gcd_submodule_family(k0, count, n)
        return family, getattr(lib, criterion)(sig, family[-1], 10, GCD_SAMPLES, seed)

    def check(out):
        family, report = out
        grows = all(a.exceptions < b.exceptions for a, b in zip(family, family[1:]))
        return (report.ok and report.checked + report.skipped == GCD_SAMPLES
                and len(family) == count and set(k0) <= family[0].exceptions and grows)

    return Op(f"int.{criterion}", run, check)


def _table_op(draw: Draw, perturbed: bool) -> Op:
    rng, sig, radius = draw.rng, TABLE_SURFACE, 2
    n = sig.n
    exceptions = {draw.exps(n, radius) for _ in range(rng.randint(0, 2))}
    box = ref.box(n, radius)
    values = {t: 1 if t in exceptions else math.gcd(*t) for t in box}
    if perturbed:
        for _ in range(rng.randint(1, 3)):
            values[rng.choice(box)] = rng.choice((0, 1, 2, 3))
    sub = ga.TableSubmodule(n, radius, values)
    expected = ref.table_is_ideal(sig.genus, n, radius, values)

    def run(lib):
        return lib.bracket_closure_check(sig, sub, radius, None)

    return Op(f"int.table.{'perturbed' if perturbed else 'ideal'}", run,
              lambda report: report.ok == expected)


def ideals_large(draw: Draw) -> Iterator[Op]:
    # One block: three module-element ops per surface, one in each of 12
    # term-count strata over 8..32 (the first of them adds a sum read on
    # surfaces with b >= 2), four sampled gcd-rule checks and three exhaustive
    # table checks, two of them on ideals.  The schedule and the sizes are
    # fixed; the seed draws the contents and the order.  The two ideal tables
    # and the largest elements on with_boundary(2, 3) make the slowest sixth
    # of the ops, so op_p90_ms falls inside that group, not on the gap below
    # it.
    slots = [("rat", sig, 4 * j + i, j == 0 and sig.boundary >= 2)
             for i, sig in enumerate(LARGE_SURFACES) for j in range(3)]
    slots += [("gcd", sig, "bracket_closure_check") for sig in LARGE_SURFACES[::2]]
    slots += [("gcd", sig, "gcd_divisibility_check") for sig in LARGE_SURFACES[1::2]]
    slots += [("table", False), ("table", False), ("table", True)]
    while True:
        for kind, *params in draw.block(slots):
            if kind == "rat":
                sig, stratum, with_sum = params
                terms = 8 + int((stratum + draw.offset) / 12 * 25)
                yield _rat_op(draw, sig, terms, with_sum)
            elif kind == "gcd":
                yield _gcd_op(draw, *params)
            else:
                yield _table_op(draw, *params)


# ---------------------------------------------------------------------------
# words_long

def words_long(draw: Draw) -> Iterator[Op]:
    # One block: 16 log-uniform size strata over 10..2000 runs, each on
    # alphabets of 3 and 4 generators.  The schedule and the sizes are fixed;
    # the seed draws the letters and the order.  Each slot also fixes the
    # kernel level of its separation pair, 0..5.  Sizes move within their
    # strata from block to block, so that over a few blocks they cover the
    # range with no gaps for a latency percentile to sit on.
    slots = [(n, j) for j in range(16) for n in (3, 4)]
    while True:
        for n, stratum in draw.block(slots):
            q = (stratum + draw.offset) / 16
            yield _words_long_op(draw, n, Draw.log_uniform(q, 10, 2000), (stratum + n) % 6)


def _words_long_op(draw: Draw, n: int, runs: int, level: int) -> Op:
    rng = draw.rng
    raw = draw.word_runs(n, runs, c=C)
    text = format_runs(raw)
    g_raw = draw.word_runs(n, rng.randint(1, 8), c=C)
    g_inv = inverse_runs(g_raw)
    mutated = list(raw)
    i = rng.randrange(len(raw))
    gen, exp = raw[i]
    step = draw.nonzero(2)
    mutated[i] = (gen, exp + step if exp + step else exp - step)
    case = separation_case(draw, n, raw, level, 4)

    def run(lib):
        w = lib.parse_word(text, n)
        cw = lib.concat(lib.concat(lib.reduce_word(g_raw, n), w), lib.reduce_word(g_inv, n))
        forms = lib.conjugacy_canonical(w), lib.conjugacy_canonical(cw)
        same = lib.are_conjugate(w, cw)
        differ = lib.are_conjugate(w, lib.reduce_word(mutated, n))
        quotient = [
            lib.conjugate_in_quotient(lib.project_word(w, level, C), lib.project_word(cw, level, C))
            for level in range(7)
        ]
        return forms, same, differ, quotient, run_separation(lib, n, w, case)

    def check(out):
        forms, same, differ, quotient, sep = out
        # The mutated word has another abelianization, so it is not conjugate.
        return (forms[0] == forms[1] and same is True and differ is False
                and all(quotient) and separation_ok(case, *sep))

    return Op("words", run, check)


# ---------------------------------------------------------------------------
# small_ops

SMALL_SURFACES = (
    ga.SurfaceSignature.closed(1),
    ga.SurfaceSignature.closed(2),
    ga.SurfaceSignature.with_boundary(1, 2),
    ga.SurfaceSignature.with_boundary(1, 3),
)
SMALL_RADIUS = 5


def _small_word(draw: Draw, n: int, max_runs: int = 6):
    return draw.word_runs(n, draw.rng.randint(1, max_runs), c=C)


def _small_words(draw: Draw, sig) -> Op:
    n = sig.n
    raw, g_raw = _small_word(draw, n), _small_word(draw, n, 3)
    g_inv = inverse_runs(g_raw)
    text = format_runs(raw)
    expected = ref.free_reduce(g_raw + raw + g_inv)

    def run(lib):
        w = lib.parse_word(text, n)
        cw = lib.concat(lib.concat(lib.reduce_word(g_raw, n), w), lib.reduce_word(g_inv, n))
        return cw, lib.conjugacy_canonical(w), lib.conjugacy_canonical(cw), lib.are_conjugate(w, cw)

    def check(out):
        cw, k1, k2, same = out
        return runs_of(cw) == expected and k1 == k2 and same is True

    return Op("words", run, check)


def _small_abelian(draw: Draw, sig) -> Op:
    n, rng = sig.n, draw.rng
    w1_raw, w2_raw = _small_word(draw, n), _small_word(draw, n)
    w1, w2 = ga.reduce_word(w1_raw, n), ga.reduce_word(w2_raw, n)
    c1, c2 = draw.nonzero(9), draw.nonzero(9)
    u_terms = draw.element_terms(n, rng.randint(1, 4), SMALL_RADIUS, rational=False)
    v_terms = draw.element_terms(n, rng.randint(1, 4), SMALL_RADIUS, rational=False)
    ab_expected = ref.linear_sum([(ref.exponents(w1_raw, n), c1), (ref.exponents(w2_raw, n), c2)])
    sum_expected = ref.linear_sum(u_terms + v_terms)

    def run(lib):
        x = lib.exponent_vector(w1, n)
        ab = lib.abelianize([(c1, w1), (c2, w2)], n)
        u = lib.ModuleElement("Z", [(mono(e), c) for e, c in u_terms])
        v = lib.ModuleElement("Z", [(mono(e), c) for e, c in v_terms])
        return x, ab, lib.add(u, v)

    def check(out):
        x, ab, total = out
        return (tuple(getattr(x, "exps", x)) == ref.exponents(w1_raw, n)
                and as_map(ab) == ab_expected and as_map(total) == sum_expected)

    return Op("abelian", run, check)


def _small_symplectic(draw: Draw, sig) -> Op:
    n = sig.n
    x, y = draw.exps(n, SMALL_RADIUS), draw.exps(n, SMALL_RADIUS)
    u_raw, v_raw = _small_word(draw, n), _small_word(draw, n)
    u, v = ga.reduce_word(u_raw, n), ga.reduce_word(v_raw, n)
    expected = (ref.pairing(sig.genus, x, y),
                ref.pairing(sig.genus, ref.exponents(u_raw, n), ref.exponents(v_raw, n)))

    def run(lib):
        return (lib.symplectic_product(sig, mono(x), mono(y)),
                lib.intersection_pairing(sig, u, v))

    return Op("symplectic", run, lambda out: out == expected)


def _small_bracket(draw: Draw, sig) -> Op:
    n, rng = sig.n, draw.rng
    u = element("Q", draw.element_terms(n, rng.randint(1, 4), SMALL_RADIUS))
    v = element("Q", draw.element_terms(n, rng.randint(1, 4), SMALL_RADIUS))
    z = element("Q", draw.element_terms(n, rng.randint(1, 2), SMALL_RADIUS))

    def run(lib):
        return lib.bracket(sig, u, v)

    return Op("bracket", run, lambda b: bracket_ok(sig, u, v, b, z))


def _small_rat(draw: Draw, sig) -> Op:
    n, rng = sig.n, draw.rng
    u = element("Q", draw.element_terms(n, rng.randint(1, 4), SMALL_RADIUS))
    m = draw.noncentral_exps(n, sig.genus, SMALL_RADIUS)
    with_sum = sig.boundary >= 2
    if with_sum:
        shifted = tuple(a + draw.nonzero(2) * d for a, d in zip(m, _central_unit(sig)))

    def run(lib):
        dec = lib.decompose_by_center(sig, u)
        ideal = lib.ideal_closure(sig, [u])
        member = lib.bracket(sig, u, lib.ModuleElement("Q", [(mono(m), 1)]))
        verdict = lib.ideal_contains(sig, ideal, member)
        sum_verdict = None
        if with_sum:
            other = lib.bracket(sig, u, lib.ModuleElement("Q", [(mono(shifted), 1)]))
            sum_verdict = lib.ideal_contains(sig, ideal, lib.add(member, other))
        return dec, verdict, sum_verdict

    def check(out):
        dec, verdict, sum_verdict = out
        return sum_read_outcome([verdict], sum_verdict, reassembles(dec, u))

    return Op("rat", run, check)


def _small_int(draw: Draw, sig) -> Op:
    n, rng = sig.n, draw.rng
    k0 = sorted({draw.exps(n, 3) for _ in range(rng.randint(1, 2))})
    seed = rng.randrange(2**31)
    samples = 12
    criterion = rng.choice(("bracket_closure_check", "gcd_divisibility_check"))

    def run(lib):
        family = lib.gcd_submodule_family(k0, 2, n)
        return getattr(lib, criterion)(sig, family[-1], 3, samples, seed)

    return Op("int", run, lambda r: r.ok and r.checked + r.skipped == samples)


def _small_chain(draw: Draw, sig) -> Op:
    n, rng = sig.n, draw.rng
    raw, g_raw = _small_word(draw, n, 5), _small_word(draw, n, 3)
    g_inv = inverse_runs(g_raw)
    level = rng.randint(0, 6)
    case = separation_case(draw, n, raw, rng.randint(0, 3), 2)

    def run(lib):
        w = lib.reduce_word(raw, n)
        cw = lib.concat(lib.concat(lib.reduce_word(g_raw, n), w), lib.reduce_word(g_inv, n))
        same = lib.conjugate_in_quotient(lib.project_word(w, level, C), lib.project_word(cw, level, C))
        return same, run_separation(lib, n, w, case)

    def check(out):
        same, sep = out
        return same is True and separation_ok(case, *sep)

    return Op("chain", run, check)


SMALL_KINDS = (_small_words, _small_abelian, _small_symplectic, _small_bracket,
               _small_rat, _small_int, _small_chain)


def small_ops(draw: Draw) -> Iterator[Op]:
    slots = [(make, sig) for make in SMALL_KINDS for sig in SMALL_SURFACES]
    while True:
        for make, sig in draw.block(slots):
            yield make(draw, sig)


# ---------------------------------------------------------------------------
# cli

CLI_SURFACES = (("--closed", "1"), ("--closed", "2"), ("--boundary", "1", "2"), ("--boundary", "1", "3"))


def _surface_of(flags) -> ga.SurfaceSignature:
    if flags[0] == "--closed":
        return ga.SurfaceSignature.closed(int(flags[1]))
    return ga.SurfaceSignature.with_boundary(int(flags[1]), int(flags[2]))


def call_cli(lib, argv):
    """One in-process CLI call: (exit code, stdout, stderr).

    An exception escaping ``main`` is what a shell user sees as a traceback
    with exit code 1, so it is reported that way.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _json_out(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _cli_op(kind: str, argv: list, expect_code: int, verify=None, probe: bool = False) -> Op:
    def check(out):
        code, stdout, stderr = out
        if code != expect_code or "Traceback" in stderr:
            ok = False
        elif expect_code == 2:
            ok = stdout == ""
        else:
            report = _json_out(stdout)
            ok = report is not None and (verify is None or verify(report))
        return DEFECT if probe and not ok else ok

    return Op(f"cli.{kind}", lambda lib: call_cli(lib, argv), check)


def _element_json(terms) -> str:
    return json.dumps({"ring": "Q", "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms]})


def _cli_valid(draw: Draw, sub: str, size: float) -> Op:
    """A well-formed call; ``size`` in [0, 1) scales the arguments that carry algebra."""
    rng = draw.rng
    flags = rng.choice(CLI_SURFACES)
    sig = _surface_of(flags)
    n, genus = sig.n, sig.genus
    surface = list(flags)

    if sub in ("bracket", "pair"):
        r1, r2 = _small_word(draw, n, 4), _small_word(draw, n, 4)
        x, y = ref.exponents(r1, n), ref.exponents(r2, n)
        p = ref.pairing(genus, x, y)
        if sub == "pair":
            return _cli_op(sub, ["pair", *surface, format_runs(r1), format_runs(r2)], 0,
                           lambda rep: rep == {"value": str(p)})
        ring = rng.choice(("Z", "Q"))
        xy = tuple(a + b for a, b in zip(x, y))
        expected = {xy: p} if p else {}
        return _cli_op(sub, ["bracket", *surface, "--ring", ring, format_runs(r1), format_runs(r2)], 0,
                       lambda rep: rep["ring"] == ring and json_terms(rep) == expected)

    if sub == "ab":
        words = [_small_word(draw, n, 4) for _ in range(rng.randint(1, 3))]
        coefs = [draw.fraction(5) if rng.random() < 0.3 else Fraction(draw.nonzero(5)) for _ in words]
        expected = ref.linear_sum([(ref.exponents(w, n), c) for w, c in zip(words, coefs)])
        # The "=" form keeps a leading minus sign from reading as an option.
        argv = ["ab", *surface, "--coefs=" + ",".join(map(str, coefs)), *map(format_runs, words)]
        return _cli_op(sub, argv, 0, lambda rep: json_terms(rep) == expected)

    if sub == "center":
        expected = [f"a{i}" for i in range(2 * genus + 1, n + 1)]
        return _cli_op(sub, ["center", *surface], 0, lambda rep: rep == {"generators": expected})

    if sub == "ideal-check":
        k = sorted({draw.exps(n, 4) for _ in range(rng.randint(1, 3))})
        samples = round(20 * 100 ** size)
        argv = ["ideal-check", *surface, "--rule", "ik", "--K", str(k),
                "--box", str(rng.randint(5, 8)), "--samples", str(samples),
                "--seed", str(rng.randrange(10**6))]
        return _cli_op(sub, argv, 0,
                       lambda rep: rep["verdict"] is True and rep["checked"] + rep["skipped"] == samples)

    if sub == "ik-family":
        width = rng.randint(2, 4)
        k0 = sorted({draw.exps(width, 3) for _ in range(rng.randint(1, 3))})
        count = rng.randint(2, 5)

        def grows(rep):
            sets = [set(map(tuple, s["K"])) for s in rep["submodules"]]
            return (len(sets) == count and set(k0) <= sets[0]
                    and all(a < b for a, b in zip(sets, sets[1:])))

        return _cli_op(sub, ["ik-family", "--K0", str(k0), "--count", str(count)], 0, grows)

    if sub in ("ideal-closure", "ideal-member"):
        terms = 1 + int(size * 40)
        gens = [[(draw.noncentral_exps(n, genus, 3), draw.fraction(5)) for _ in range(terms)]
                for _ in range(rng.randint(1, 2))]
        if sub == "ideal-closure":
            def closes(rep):
                ideal = ga.RationalIdeal.from_json_obj(rep)
                return all(ga.ideal_contains(sig, ideal, element("Q", g)) for g in gens)

            argv = ["ideal-closure", *surface]
            for g in gens:
                argv += ["--gen", _element_json(g)]
            return _cli_op(sub, argv, 0, closes)
        ideal = ga.ideal_closure(sig, [element("Q", g) for g in gens])
        if rng.random() < 0.5:
            # [g, m] lies in the ideal generated by g.
            m = draw.exps(n, 3)
            elem = ref.linear_sum([(tuple(a + b for a, b in zip(e, m)), c * ref.pairing(genus, e, m))
                                   for e, c in gens[0]])
            expect, verdict = 0, True
        else:
            # The generators have no central terms, so neither has their closure.
            central = [0] * n
            if n > 2 * genus:
                central[2 * genus] = draw.nonzero(3)
            elem, expect, verdict = {tuple(central): Fraction(1)}, 1, False
        argv = ["ideal-member", *surface, "--ideal", json.dumps(ideal.to_json_obj()),
                "--elem", _element_json(elem.items())]
        return _cli_op(sub, argv, expect, lambda rep: rep == {"verdict": verdict})

    if sub == "chain-project":
        c = rng.randint(1, 2)
        level = rng.randint(0, 6)
        raw = draw.word_runs(3, 1 + int(size * 400), c=c)
        return _cli_op(sub, ["chain-project", "--n", str(level), "--c", str(c), format_runs(raw)], 0,
                       lambda rep: _projection_ok(raw, rep["word"], level, c))

    if sub == "chain-separate":
        raw = draw.word_runs(3, 5 + int(size * 200), c=C)
        if rng.random() < 0.5:
            case = separation_case(draw, 3, raw, rng.randint(0, 3), 2)
            other = case.b_runs
            if case.conjugate:
                expect, verify = 1, (lambda rep: rep == {"result": "conjugate"})
            else:
                expect = 0
                verify = lambda rep: case.level < rep["level"] <= case.bound  # noqa: E731
            nmax = case.bound
        else:
            g = _small_word(draw, 3, 3)
            other = ref.free_reduce(g + raw + inverse_runs(g))
            expect, verify, nmax = 1, (lambda rep: rep == {"result": "conjugate"}), 4
        argv = ["chain-separate", "--c", str(C), "--nmax", str(nmax),
                format_runs(ref.free_reduce(raw)), format_runs(other)]
        return _cli_op(sub, argv, expect, verify)

    raise ValueError(sub)


def _projection_ok(raw, text, level, c) -> bool:
    """Normal form in (Z/2^level) * F with the abelian data of the input."""
    out = [(int(g), int(e or 1)) for g, e in
           (tok[1:].split("^") if "^" in tok else (tok[1:], None) for tok in text.split())]
    half = (1 << level) >> 1
    for i, (g, e) in enumerate(out):
        if e == 0 or (i and out[i - 1][0] == g):
            return False
        if g == c and not -half < e <= half:
            return False
    want, got = ref.exponents(raw, 3), ref.exponents(out, 3)
    mod = 1 << level
    return all((w - o) % mod == 0 if g == c - 1 else w == o
               for g, (w, o) in enumerate(zip(want, got)))


def _cli_malformed(draw: Draw, probe: bool) -> Op:
    """Bad input, for which the contract is exit code 2 and no traceback.

    The probes are inputs on which the current CLI is known to break that
    contract; they stay in and count as failed ops until it is fixed.
    """
    rng = draw.rng
    word = format_runs(_small_word(draw, 2, 3))
    if probe:
        choices = (
            ["ideal-closure", "--boundary", "1", "2", "--gen", "{}"],
            ["ideal-check", "--closed", "1", "--rule", "ik", "--K", str([draw.exps(3, 2)]),
             "--seed", str(rng.randrange(100))],
            ["ab", "--closed", "1", f"--coefs={draw.nonzero(5)}/0", word],
            ["chain-separate", "--c", "1", "--nmax", str(-rng.randint(1, 5)), word, "a2"],
        )
    else:
        choices = (
            ["pair", "--closed", "1", word, f"b{rng.randint(1, 9)}"],
            ["bracket", "--closed", "1", word, f"a{rng.randint(3, 9)}"],
            ["center", "--closed", rng.choice(("x", "1.5", "-"))],
            ["pair", "--boundary", str(rng.randint(0, 3))],
            ["ideal-member", "--closed", "1", "--ideal", "{" * rng.randint(1, 3), "--elem", "{}"],
            ["chain-project", "--n", str(rng.randint(0, 4)), "--c", "0", word],
        )
    argv = rng.choice(choices)
    return _cli_op(f"malformed.{'probe' if probe else 'usage'}", argv, 2, probe=probe)


def cli_calls(draw: Draw) -> Iterator[Op]:
    # One block of 25: every subcommand, two malformed usage errors and two
    # of the known contract-breaking probes.  The subcommands that do algebra
    # come several times each, with argument sizes spread evenly over a wide
    # range: their latencies then spread continuously above the parser's
    # cost, and the percentiles do not jump with the machine's speed between
    # the two tight clusters that parser-only calls form.
    kinds = ["bracket", "ab", "pair", "center", "ik-family", "selftest",
             *["ideal-check"] * 4, *["ideal-closure"] * 3, *["ideal-member"] * 3,
             *["chain-project"] * 2, *["chain-separate"] * 3,
             "usage", "usage", "probe", "probe"]
    # (kind, its stratum of sizes, how many strata that kind has)
    slots = [(kind, kinds[:i].count(kind), kinds.count(kind)) for i, kind in enumerate(kinds)]
    while True:
        for kind, stratum, strata in draw.block(slots):
            if kind == "selftest":
                seed = draw.rng.randrange(10**6)
                argv = ["selftest", "--seed", str(seed), "--scale", "0.002"]
                yield _cli_op("selftest", argv, 0,
                              lambda rep, s=seed: rep["seed"] == s and rep["all_passed"] is True)
            elif kind in ("usage", "probe"):
                yield _cli_malformed(draw, kind == "probe")
            else:
                yield _cli_valid(draw, kind, (stratum + draw.offset) / strata)


WORKLOADS = {
    "ideals_large": ideals_large,
    "words_long": words_long,
    "small_ops": small_ops,
    "cli": cli_calls,
}
