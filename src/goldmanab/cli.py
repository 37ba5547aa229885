"""Command-line interface emitting deterministic JSON reports.

Exit codes: 0 on success, 1 when a check command reaches a negative
verdict, 2 on usage or parse errors.  Randomized commands require an
explicit seed and echo it in the report, so every reported counterexample
is reproducible.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from fractions import Fraction

from . import chain, int_ideals, rat_ideals, selftest
from .abelian import ModuleElement, abelianize, exponent_vector
from .bracket import bracket
from .symplectic import SurfaceSignature, center_generators, symplectic_product
from .words import Word, parse_word


class CliError(Exception):
    """Bad input on the command line (exit code 2)."""


def _add_surface_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--closed", type=int, metavar="G", help="closed surface of genus G")
    group.add_argument(
        "--boundary",
        type=int,
        nargs=2,
        metavar=("G", "B"),
        help="genus G surface with B boundary components",
    )


def _surface(args) -> SurfaceSignature:
    try:
        if args.closed is not None:
            return SurfaceSignature.closed(args.closed)
        return SurfaceSignature.with_boundary(*args.boundary)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_word(text: str, n: int) -> Word:
    try:
        return parse_word(text, n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_word_loose(text: str, c: int) -> Word:
    """Parse with the alphabet inferred from the word itself and c."""
    import re

    gens = [int(m.group(1)) for m in re.finditer(r"a(\d+)", text)]
    n = max(gens + [c, 1])
    return _parse_word(text, n)


def _parse_tuple_set(text: str) -> list[tuple[int, ...]]:
    try:
        value = ast.literal_eval(text)
        out = [tuple(int(e) for e in t) for t in value]
    except (ValueError, SyntaxError, TypeError) as exc:
        raise CliError(f"cannot parse tuple set {text!r}") from exc
    return out

def _parse_json(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON for {what}: {exc}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {json.dumps(value)}")


def _cmd_bracket(args) -> tuple[dict, int]:
    sig = _surface(args)
    u = abelianize([(1, _parse_word(args.word1, sig.n))], sig.n)
    v = abelianize([(1, _parse_word(args.word2, sig.n))], sig.n)
    if args.ring == "Q":
        u, v = u.to_rational(), v.to_rational()
    return bracket(sig, u, v).to_json_obj(), 0


def _cmd_ab(args) -> tuple[dict, int]:
    sig = _surface(args)
    words = [_parse_word(text, sig.n) for text in args.words]
    if args.coefs is None:
        coef_strings = ["1"] * len(words)
    else:
        coef_strings = [c.strip() for c in args.coefs.split(",")]
    if len(coef_strings) != len(words):
        raise CliError("need exactly one coefficient per word")
    ring = args.ring or ("Q" if any("/" in c for c in coef_strings) else "Z")
    try:
        coefs = [Fraction(c) if ring == "Q" else int(c) for c in coef_strings]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad coefficient: {exc}") from exc
    return abelianize(list(zip(coefs, words)), sig.n, ring=ring).to_json_obj(), 0


def _cmd_pair(args) -> tuple[dict, int]:
    sig = _surface(args)
    x = exponent_vector(_parse_word(args.word1, sig.n), sig.n)
    y = exponent_vector(_parse_word(args.word2, sig.n), sig.n)
    return {"value": str(symplectic_product(sig, x, y))}, 0


def _cmd_center(args) -> tuple[dict, int]:
    sig = _surface(args)
    gens = []
    for mono in center_generators(sig):
        index = next(i + 1 for i, e in enumerate(mono) if e)
        gens.append(f"a{index}")
    return {"generators": gens}, 0


def _build_submodule(args, sig: SurfaceSignature) -> int_ideals.GeometricSubmodule:
    if args.rule == "ik":
        if args.K is None:
            raise CliError("--rule ik requires --K")
        try:
            return int_ideals.GcdSubmodule(sig.n, _parse_tuple_set(args.K))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if args.table is None:
        raise CliError("--rule table requires --table")
    obj = _parse_json(args.table, "--table")
    try:
        values = {tuple(int(e) for e in key): int(a) for key, a in obj.get("values", [])}
        return int_ideals.TableSubmodule(
            sig.n, int(obj["radius"]), values, default=int(obj.get("default", 1))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad table rule: {exc}") from exc


def _cmd_ideal_check(args) -> tuple[dict, int]:
    sig = _surface(args)
    sub = _build_submodule(args, sig)
    try:
        report = int_ideals.bracket_closure_check(
            sig,
            sub,
            args.box,
            samples=None if args.exhaustive else args.samples,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = {
        "verdict": report.ok,
        "seed": args.seed,
        "checked": report.checked,
        "skipped": report.skipped,
    }
    if report.counterexample is not None:
        out["counterexample"] = report.counterexample
    return out, 0 if report.ok else 1


def _cmd_ik_family(args) -> tuple[dict, int]:
    try:
        family = int_ideals.gcd_submodule_family(
            _parse_tuple_set(args.K0), args.count, n=args.n
        )
    except (ValueError, StopIteration) as exc:
        raise CliError(str(exc)) from exc
    return {
        "submodules": [
            {"K": [list(t) for t in sorted(sub.exceptions)]} for sub in family
        ]
    }, 0


def _cmd_ideal_closure(args) -> tuple[dict, int]:
    sig = _surface(args)
    generators = []
    for text in args.gen or []:
        try:
            elem = ModuleElement.from_json_obj(_parse_json(text, "--gen"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad --gen element: {exc}") from exc
        if elem.ring != "Q":
            raise CliError("ideal generators must be rational elements")
        generators.append(elem)
    try:
        ideal = rat_ideals.ideal_closure(sig, generators)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return ideal.to_json_obj(), 0


def _cmd_ideal_member(args) -> tuple[dict, int]:
    sig = _surface(args)
    try:
        ideal = rat_ideals.RationalIdeal.from_json_obj(_parse_json(args.ideal, "--ideal"))
        elem = ModuleElement.from_json_obj(_parse_json(args.elem, "--elem"))
        verdict = rat_ideals.ideal_contains(sig, ideal, elem)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(str(exc)) from exc
    return {"verdict": verdict}, 0 if verdict else 1


def _cmd_chain_project(args) -> tuple[dict, int]:
    word = _parse_word_loose(args.word, args.c)
    try:
        image = chain.project_word(word, args.n, args.c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return {"word": str(image.to_word())}, 0


def _cmd_chain_separate(args) -> tuple[dict, int]:
    if args.nmax < 0:
        raise CliError("--nmax must be nonnegative")
    a = _parse_word_loose(args.word_a, args.c)
    b = _parse_word_loose(args.word_b, args.c)
    n = max(a.n, b.n)
    a, b = Word(n, a.letters), Word(n, b.letters)
    try:
        level = chain.separation_level(a, b, args.c, args.nmax)
    except ValueError as exc:
        if "conjugate" in str(exc):
            return {"result": "conjugate"}, 1
        raise CliError(str(exc)) from exc
    if level is None:
        return {"result": "not separated", "nmax": args.nmax}, 1
    return {"level": level}, 0


def _cmd_selftest(args) -> tuple[dict, int]:
    report = selftest.run_selftest(args.seed, args.scale)
    return report, 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldmanab",
        description="Exact computations in the abelianized Goldman Lie algebra of a surface.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two word classes")
    _add_surface_flags(p)
    p.add_argument("--ring", choices=("Z", "Q"), default="Z")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(run=_cmd_bracket)

    p = sub.add_parser("ab", help="abelianize a formal sum of words")
    _add_surface_flags(p)
    p.add_argument("--coefs", help="comma-separated coefficients, one per word")
    p.add_argument("--ring", choices=("Z", "Q"))
    p.add_argument("words", nargs="+")
    p.set_defaults(run=_cmd_ab)

    p = sub.add_parser("pair", help="symplectic pairing of two word classes")
    _add_surface_flags(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(run=_cmd_pair)

    p = sub.add_parser("center", help="generators of the center")
    _add_surface_flags(p)
    p.set_defaults(run=_cmd_center)

    p = sub.add_parser("ideal-check", help="bracket-closure criterion for a submodule rule")
    _add_surface_flags(p)
    p.add_argument("--rule", choices=("ik", "table"), required=True)
    p.add_argument("--K", help="exception tuples for the ik rule, e.g. \"[(1,0)]\"")
    p.add_argument("--table", help="JSON {radius, values:[[tuple, a], ...], default}")
    p.add_argument("--box", type=int, default=10, help="check box radius")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true", help="sweep the whole box instead of sampling")
    p.set_defaults(run=_cmd_ideal_check)

    p = sub.add_parser("ik-family", help="growing family of gcd-rule submodules")
    p.add_argument("--K0", required=True, help="base exception tuples, e.g. \"[(1,0)]\"")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n", type=int, help="tuple length when --K0 is empty")
    p.set_defaults(run=_cmd_ik_family)

    p = sub.add_parser("ideal-closure", help="smallest ideal containing rational generators")
    _add_surface_flags(p)
    p.add_argument("--gen", action="append", help="ModuleElement JSON (repeatable)")
    p.set_defaults(run=_cmd_ideal_closure)

    p = sub.add_parser("ideal-member", help="exact ideal membership test")
    _add_surface_flags(p)
    p.add_argument("--ideal", required=True, help="RationalIdeal JSON")
    p.add_argument("--elem", required=True, help="ModuleElement JSON")
    p.set_defaults(run=_cmd_ideal_member)

    p = sub.add_parser("chain-project", help="normal form in the level quotient")
    p.add_argument("--n", type=int, required=True, help="chain level")
    p.add_argument("--c", type=int, required=True, help="distinguished generator index")
    p.add_argument("word")
    p.set_defaults(run=_cmd_chain_project)

    p = sub.add_parser("chain-separate", help="first level separating two word classes")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.set_defaults(run=_cmd_chain_separate)

    p = sub.add_parser("selftest", help="run every invariant suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(run=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
