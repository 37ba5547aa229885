"""Command-line interface emitting deterministic JSON reports.

Exit codes: 0 on success, 1 when a check command reaches a negative
verdict, 2 on usage errors and bad input.  Randomized commands require an
explicit seed and echo it in the report, so every reported counterexample
is reproducible.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import re
import sys

from . import chain, int_ideals, rat_ideals
from .abelian import (ModuleElement, _exact_from_json, _json_shape, abelianize,
                      exponent_vector)
from .bracket import bracket_monomials
from .symplectic import SurfaceSignature, center_generators, intersection_pairing
from .words import _check_integer, are_conjugate, parse_word


def _surface(args) -> SurfaceSignature:
    if args.closed is not None:
        return SurfaceSignature.closed(args.closed)
    return SurfaceSignature.with_boundary(*args.boundary)


def _loose_alphabet(c: int, *texts: str) -> int:
    """The alphabet size that the words themselves and c name, at least 1."""
    gens = [int(m.group(1)) for text in texts for m in re.finditer(r"a(\d+)", text)]
    return max(gens + [c, 1])


def _parse_tuple_set(text: str, option: str) -> list[tuple[int, ...]]:
    try:
        return [tuple(t) for t in ast.literal_eval(text)]
    # Deep nesting exhausts the recursion limit, or the parser's own stack.
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot parse {option} {text[:40]!r} ({len(text)} characters)") from exc


def _parse_json(text: str, what: str, read):
    """``read`` applied to the JSON of option ``what``; shape errors name it."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON for {what}: {exc}") from exc
    try:
        return read(obj)
    except TypeError as exc:
        raise TypeError(f"{what}: {exc}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {json.dumps(value)}")


def _cmd_bracket(args) -> tuple[dict, int]:
    sig = _surface(args)
    x, y = (exponent_vector(parse_word(text, sig.n), sig.n) for text in (args.word1, args.word2))
    return bracket_monomials(sig, x, y, args.ring).to_json_obj(), 0


def _cmd_ab(args) -> tuple[dict, int]:
    sig = _surface(args)
    words = [parse_word(text, sig.n) for text in args.words]
    if args.coefs is None:
        coef_strings = ["1"] * len(words)
    else:
        coef_strings = [c.strip() for c in args.coefs.split(",")]
    if len(coef_strings) != len(words):
        raise ValueError("need exactly one coefficient per word")
    integers = all(c.lstrip("+-").replace("_", "").isdecimal() for c in coef_strings)
    ring = args.ring or ("Z" if integers else "Q")
    coefs = [_exact_from_json(c, ring) for c in coef_strings]
    return abelianize(list(zip(coefs, words)), sig.n, ring=ring).to_json_obj(), 0


def _cmd_pair(args) -> tuple[dict, int]:
    sig = _surface(args)
    u, v = parse_word(args.word1, sig.n), parse_word(args.word2, sig.n)
    return {"value": str(intersection_pairing(sig, u, v))}, 0


def _cmd_center(args) -> tuple[dict, int]:
    sig = _surface(args)
    return {"generators": [f"a{i}" for i in center_generators(sig)]}, 0


def _build_submodule(args, sig: SurfaceSignature) -> int_ideals.GeometricSubmodule:
    if args.rule == "ik":
        if args.K is None:
            raise ValueError("--rule ik requires --K")
        return int_ideals.GcdSubmodule(sig.n, _parse_tuple_set(args.K, "--K"))
    if args.table is None:
        raise ValueError("--rule table requires --table")
    return _parse_json(args.table, "--table", lambda obj: _table_submodule(sig.n, obj))


def _table_submodule(n: int, obj) -> int_ideals.TableSubmodule:
    obj = _json_shape(obj, dict, "the table")
    values = {}
    for entry in _json_shape(obj.get("values", []), list, "'values' of the table"):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise TypeError("each entry of 'values' must be a JSON list [exponents, value]")
        key, a = entry
        values[tuple(_json_shape(key, list, "the exponents of a table entry"))] = a
    return int_ideals.TableSubmodule(n, obj["radius"], values, default=obj.get("default", 1))


def _cmd_ideal_check(args) -> tuple[dict, int]:
    sig = _surface(args)
    sub = _build_submodule(args, sig)
    samples = None if args.exhaustive else args.samples
    report = int_ideals.bracket_closure_check(sig, sub, args.box, samples, seed=args.seed)
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
    family = int_ideals.gcd_submodule_family(_parse_tuple_set(args.K0, "--K0"), args.count, n=args.n)
    return {
        "submodules": [
            {"K": [list(t) for t in sorted(sub.exceptions)]} for sub in family
        ]
    }, 0


def _cmd_ideal_closure(args) -> tuple[dict, int]:
    sig = _surface(args)
    generators = [_parse_json(text, "--gen", ModuleElement.from_json_obj) for text in args.gen or []]
    return rat_ideals.ideal_closure(sig, generators).to_json_obj(), 0


def _cmd_ideal_member(args) -> tuple[dict, int]:
    sig = _surface(args)
    ideal = _parse_json(args.ideal, "--ideal",
                        lambda obj: rat_ideals.RationalIdeal.from_json_obj(obj, sig))
    elem = _parse_json(args.elem, "--elem", ModuleElement.from_json_obj)
    verdict = rat_ideals.ideal_contains(sig, ideal, elem)
    return {"verdict": verdict}, 0 if verdict else 1


def _cmd_chain_project(args) -> tuple[dict, int]:
    word = parse_word(args.word, _loose_alphabet(args.c, args.word))
    image = chain.project_word(word, args.n, args.c)
    return {"word": str(image.to_word())}, 0


def _cmd_chain_separate(args) -> tuple[dict, int]:
    _check_integer(args.nmax, "--nmax", 0)
    n = _loose_alphabet(args.c, args.word_a, args.word_b)
    _check_integer(args.c, "distinguished generator", 1, n)  # are_conjugate does not read c
    a, b = parse_word(args.word_a, n), parse_word(args.word_b, n)
    if are_conjugate(a, b):
        return {"result": "conjugate"}, 1
    level = chain.separation_level(a, b, args.c, args.nmax)
    if level is None:
        return {"result": "not separated", "nmax": args.nmax}, 1
    return {"level": level}, 0


def _cmd_selftest(args) -> tuple[dict, int]:
    from . import selftest  # only this command loads the suites
    report = selftest.run_selftest(args.seed, args.scale)
    return report, 0 if report["all_passed"] else 1


def _arg(*flags, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# Each subcommand once: (name, help, takes --closed/--boundary, arguments).
# ``main`` runs ``_cmd_<name>``, looked up when it is called.
_SUBCOMMANDS = (
    ("bracket", "Lie bracket of two word classes", True, (
        _arg("--ring", choices=("Z", "Q"), default="Z"), _arg("word1"), _arg("word2"))),
    ("ab", "abelianize a formal sum of words", True, (
        _arg("--coefs", help="comma-separated coefficients, one per word"),
        _arg("--ring", choices=("Z", "Q")),
        _arg("words", nargs="+"))),
    ("pair", "symplectic pairing of two word classes", True, (_arg("word1"), _arg("word2"))),
    ("center", "generators of the center", True, ()),
    ("ideal-check", "bracket-closure criterion for a submodule rule", True, (
        _arg("--rule", choices=("ik", "table"), required=True),
        _arg("--K", help="exception tuples for the ik rule, e.g. \"[(1,0)]\""),
        _arg("--table", help="JSON {radius, values:[[tuple, a], ...], default}"),
        _arg("--box", type=int, default=10, help="check box radius"),
        _arg("--samples", type=int, default=10_000),
        _arg("--seed", type=int, required=True),
        _arg("--exhaustive", action="store_true", help="sweep the whole box instead of sampling"))),
    ("ik-family", "growing family of gcd-rule submodules", False, (
        _arg("--K0", required=True, help="base exception tuples, e.g. \"[(1,0)]\""),
        _arg("--count", type=int, required=True),
        _arg("--n", type=int, help="tuple length when --K0 is empty"))),
    ("ideal-closure", "smallest ideal containing rational generators", True, (
        _arg("--gen", action="append", help="ModuleElement JSON (repeatable)"),)),
    ("ideal-member", "exact ideal membership test", True, (
        _arg("--ideal", required=True, help="RationalIdeal JSON"),
        _arg("--elem", required=True, help="ModuleElement JSON"))),
    ("chain-project", "normal form in the level quotient", False, (
        _arg("--n", type=int, required=True, help="chain level"),
        _arg("--c", type=int, required=True, help="distinguished generator index"),
        _arg("word"))),
    ("chain-separate", "first level separating two word classes", False, (
        _arg("--c", type=int, required=True),
        _arg("--nmax", type=int, required=True),
        _arg("word_a"),
        _arg("word_b"))),
    ("selftest", "run every invariant suite", False, (
        _arg("--seed", type=int, required=True),
        _arg("--scale", type=float, default=1.0))),
)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand in the table."""
    parser = argparse.ArgumentParser(
        prog="goldmanab",
        description="Exact computations in the abelianized Goldman Lie algebra of a surface.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, surface, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if surface:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--closed", type=int, metavar="G", help="closed surface of genus G")
            group.add_argument(
                "--boundary",
                type=int,
                nargs=2,
                metavar=("G", "B"),
                help="genus G surface with B boundary components",
            )
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call.

    Parsing leaves no state in it, so every call may share it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    run = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        report, code = run(args)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        # The one place that turns bad input into exit code 2.  AttributeError
        # and IndexError are faults of the program and keep their traceback.
        # A KeyError's text is only the key that the JSON input lacks.
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
