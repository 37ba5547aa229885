"""The library entry points the ops call, plain or wrapped in spans.

Ops reach the package only through the namespace built here.  Untraced,
each attribute is the package function itself, so the timed run pays no
wrapper cost.  Traced, each call becomes a span named
``<module>.<function>`` that carries the op id; a span's self time is its
duration minus the time covered by its child spans.  Counts are taken at
the same boundaries, from the arguments and results of the call.
"""

from __future__ import annotations

import json
import operator
import sys
from collections import defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

import goldmanab
from goldmanab import cli, selftest

# attribute -> (span name, function); ops call lib.<attribute>(...).
ENTRY_POINTS = {
    "reduce_word": ("words.reduce_word", goldmanab.reduce_word),
    "concat": ("words.concat", goldmanab.concat),
    "parse_word": ("words.parse_word", goldmanab.parse_word),
    "are_conjugate": ("words.are_conjugate", goldmanab.are_conjugate),
    "conjugacy_canonical": ("words.conjugacy_canonical", goldmanab.conjugacy_canonical),
    "ModuleElement": ("abelian.ModuleElement", goldmanab.ModuleElement),
    "add": ("abelian.add", operator.add),
    "abelianize": ("abelian.abelianize", goldmanab.abelianize),
    "exponent_vector": ("abelian.exponent_vector", goldmanab.exponent_vector),
    "symplectic_product": ("symplectic.symplectic_product", goldmanab.symplectic_product),
    "intersection_pairing": ("symplectic.intersection_pairing", goldmanab.intersection_pairing),
    "bracket": ("bracket.bracket", goldmanab.bracket),
    "decompose_by_center": ("rat_ideals.decompose_by_center", goldmanab.decompose_by_center),
    "ideal_closure": ("rat_ideals.ideal_closure", goldmanab.ideal_closure),
    "ideal_contains": ("rat_ideals.ideal_contains", goldmanab.ideal_contains),
    "bracket_closure_check": ("int_ideals.bracket_closure_check", goldmanab.bracket_closure_check),
    "gcd_divisibility_check": ("int_ideals.gcd_divisibility_check", goldmanab.gcd_divisibility_check),
    "gcd_submodule_family": ("int_ideals.gcd_submodule_family", goldmanab.gcd_submodule_family),
    "project_word": ("chain.project_word", goldmanab.project_word),
    "conjugate_in_quotient": ("chain.conjugate_in_quotient", goldmanab.conjugate_in_quotient),
    "separation_level": ("chain.separation_level", goldmanab.separation_level),
    "kernel_element": ("chain.kernel_element", goldmanab.kernel_element),
    "cli_main": ("cli.main", cli.main),
}

CLI_SUBCOMMANDS = (
    "bracket", "ab", "pair", "center", "ideal-check", "ik-family",
    "ideal-closure", "ideal-member", "chain-project", "chain-separate", "selftest",
)

# The package modules whose import time is reported, in dependency order.
MODULES = (
    "words", "abelian", "symplectic", "bracket", "rat_ideals", "int_ideals",
    "chain", "sampling", "selftest", "cli",
)

# Runs per conjugacy_canonical call are bucketed to the nearest power of ten.
RUN_BUCKETS = (("r10", 10), ("r100", 100), ("r1000", 1000))


def plain_library() -> SimpleNamespace:
    return SimpleNamespace(**{attr: fn for attr, (_, fn) in ENTRY_POINTS.items()})


def _runs(*words) -> int:
    return sum(len(w.letters) for w in words)


def _run_bucket(runs: int):
    for label, size in RUN_BUCKETS:
        if size / 10 ** 0.5 <= runs < size * 10 ** 0.5:
            return label
    return None


def _cli_subcommand(argv) -> str:
    for token in argv:
        if token in CLI_SUBCOMMANDS:
            return token
    return "invalid"


class Tracer:
    """Spans and per-layer counts of one traced run, kept in memory."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self.stack: list[list] = []  # [span id, child ns] of the open spans
        self.next_span = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.conj_ns = defaultdict(int)  # conjugacy_canonical busy ns by run bucket

    def _enter(self) -> tuple[int, int]:
        span = self.next_span
        self.next_span += 1
        self.stack.append([span, 0])
        return span, perf_counter_ns()

    def _exit(self, name: str, span: int, start: int) -> int:
        end = perf_counter_ns()
        duration = end - start
        _, child_ns = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if len(self.spans) < self.span_cap:
            self.spans.append((self.op_id, span, parent, name, start, end))
        else:
            self.dropped += 1
        return duration

    def run_op(self, op_id: int, kind: str, fn, *args):
        """Run one op as the root span of its call tree."""
        self.op_id = op_id
        span, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(f"op.{kind}", span, start)

    def wrap(self, name, fn, hook=None):
        def traced(*args):
            span_name = name(args) if callable(name) else name
            span, start = self._enter()
            try:
                result = fn(*args)
            finally:
                duration = self._exit(span_name, span, start)
            if hook is not None:
                hook(self, args, result, duration)
            return result

        return traced

    def library(self) -> SimpleNamespace:
        hooks = _hooks()
        lib = {}
        for attr, (name, fn) in ENTRY_POINTS.items():
            if attr == "cli_main":
                name = lambda args: f"cli.{_cli_subcommand(args[0])}"  # noqa: E731
            lib[attr] = self.wrap(name, fn, hooks.get(attr))
        return SimpleNamespace(**lib)

    def patch_cli(self):
        """Wrap the calls cli.main makes into build_parser and run_selftest.

        Only the module attributes are replaced, for the traced run; the
        returned function puts the originals back.
        """
        originals = (cli.build_parser, selftest.run_selftest)
        cli.build_parser = self.wrap("cli.build_parser", originals[0])
        selftest.run_selftest = self.wrap("selftest.run", originals[1], _hook_selftest)

        def restore():
            cli.build_parser, selftest.run_selftest = originals

        return restore

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for op_id, span, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op_id, "span": span, "parent": parent,
                                      "name": name, "start_ns": start, "end_ns": end}))
                out.write("\n")


def _hook_words(tr, args, result, duration):
    tr.count["words.runs_in"] += _runs(*(a for a in args if hasattr(a, "letters")))


def _hook_reduce(tr, args, result, duration):
    tr.count["words.runs_in"] += len(args[0])


def _hook_parse(tr, args, result, duration):
    tr.count["words.runs_in"] += len(args[0].split())


def _hook_canonical(tr, args, result, duration):
    runs = _runs(args[0])
    tr.count["words.runs_in"] += runs
    bucket = _run_bucket(runs)
    if bucket:
        tr.conj_ns[bucket] += duration
        tr.count[f"conj_runs.{bucket}"] += runs


def _hook_terms(tr, args, result, duration):
    # ModuleElement(ring, terms) and abelianize(terms, n): terms in, terms out.
    terms = args[1] if isinstance(args[0], str) else args[0]
    tr.count["abelian.terms_in"] += len(terms)
    tr.count["abelian.terms_out"] += len(result)


def _hook_add(tr, args, result, duration):
    tr.count["abelian.terms_in"] += len(args[0]) + len(args[1])
    tr.count["abelian.terms_out"] += len(result)


def _hook_bracket(tr, args, result, duration):
    _, u, v = args
    tr.count["bracket.term_pairs"] += len(u) * len(v)
    tr.count["bracket.terms_out"] += len(result)


def _hook_closure(tr, args, result, duration):
    # Attribute names of the current representation; absent ones count 0.
    tr.count["rat_ideals.labels"] += len(getattr(result, "labels", ()))
    tr.count["rat_ideals.central_rank"] += len(getattr(result, "central_basis", ()))


def _hook_contains(tr, args, result, duration):
    tr.count["rat_ideals.contains_true"] += bool(result)


def _hook_check(tr, args, result, duration):
    tr.count["int_ideals.checked"] += result.checked
    tr.count["int_ideals.skipped"] += result.skipped
    tr.count["int_ideals.check_ns"] += duration


def _hook_separation(tr, args, result, duration):
    tr.count["chain.levels_tried"] += (args[3] if result is None else result) + 1


def _hook_cli(tr, args, result, duration):
    # Runs inside the op's stdout capture, which holds this call's output.
    tr.count["cli.stdout_bytes"] += len(sys.stdout.getvalue())


def _hook_selftest(tr, args, result, duration):
    tr.count["selftest.samples"] += sum(s["samples"] for s in result["suites"])


def _hooks() -> dict:
    return {
        "reduce_word": _hook_reduce,
        "concat": _hook_words,
        "parse_word": _hook_parse,
        "are_conjugate": _hook_words,
        "conjugacy_canonical": _hook_canonical,
        "ModuleElement": _hook_terms,
        "abelianize": _hook_terms,
        "add": _hook_add,
        "bracket": _hook_bracket,
        "ideal_closure": _hook_closure,
        "ideal_contains": _hook_contains,
        "bracket_closure_check": _hook_check,
        "gcd_divisibility_check": _hook_check,
        "separation_level": _hook_separation,
        "cli_main": _hook_cli,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, import_ms: dict) -> dict:
    """The per-layer summary, keyed by the metric names of BENCHMARK.json."""
    out: dict[str, tuple[float, str]] = {}

    def calls_busy(name):
        out[f"{name}.calls"] = (tr.calls[name], "count")
        out[f"{name}.busy_s"] = (tr.self_ns[name] / 1e9, "s")

    for fn in ("reduce_word", "concat", "parse_word", "are_conjugate", "conjugacy_canonical"):
        calls_busy(f"words.{fn}")
    for label, _ in RUN_BUCKETS:
        out[f"words.conjugacy_canonical.us_per_run.{label}"] = (
            _ratio(tr.conj_ns[label] / 1e3, tr.count[f"conj_runs.{label}"]), "us")
    out["words.runs_in"] = (tr.count["words.runs_in"], "count")

    for fn in ("ModuleElement", "add", "abelianize", "exponent_vector"):
        calls_busy(f"abelian.{fn}")
    terms_in, terms_out = tr.count["abelian.terms_in"], tr.count["abelian.terms_out"]
    out["abelian.terms_in"] = (terms_in, "count")
    out["abelian.terms_out"] = (terms_out, "count")
    out["abelian.merge_ratio"] = (_ratio(terms_out, terms_in), "ratio")

    for fn in ("symplectic_product", "intersection_pairing"):
        calls_busy(f"symplectic.{fn}")

    calls_busy("bracket.bracket")
    pairs = tr.count["bracket.term_pairs"]
    out["bracket.term_pairs"] = (pairs, "count")
    out["bracket.ns_per_term_pair"] = (_ratio(tr.self_ns["bracket.bracket"], pairs), "ns")
    out["bracket.nonzero_ratio"] = (_ratio(tr.count["bracket.terms_out"], pairs), "ratio")

    for fn in ("decompose_by_center", "ideal_closure", "ideal_contains"):
        calls_busy(f"rat_ideals.{fn}")
    closures = tr.calls["rat_ideals.ideal_closure"]
    out["rat_ideals.labels_mean"] = (_ratio(tr.count["rat_ideals.labels"], closures), "count")
    out["rat_ideals.central_rank_mean"] = (
        _ratio(tr.count["rat_ideals.central_rank"], closures), "count")
    out["rat_ideals.contains_true_ratio"] = (
        _ratio(tr.count["rat_ideals.contains_true"], tr.calls["rat_ideals.ideal_contains"]), "ratio")

    for fn in ("bracket_closure_check", "gcd_divisibility_check", "gcd_submodule_family"):
        calls_busy(f"int_ideals.{fn}")
    checked, skipped = tr.count["int_ideals.checked"], tr.count["int_ideals.skipped"]
    out["int_ideals.pairs_per_s"] = (_ratio(checked, tr.count["int_ideals.check_ns"] / 1e9), "1/s")
    out["int_ideals.skipped_ratio"] = (_ratio(skipped, checked + skipped), "ratio")

    for fn in ("project_word", "conjugate_in_quotient", "separation_level", "kernel_element"):
        calls_busy(f"chain.{fn}")
    levels = tr.count["chain.levels_tried"]
    out["chain.levels_tried"] = (levels, "count")
    out["chain.levels_per_call"] = (_ratio(levels, tr.calls["chain.separation_level"]), "count")

    out["cli.build_parser.busy_s"] = (tr.self_ns["cli.build_parser"] / 1e9, "s")
    for sub in CLI_SUBCOMMANDS:
        calls_busy(f"cli.{sub}")
    out["cli.stdout_bytes"] = (tr.count["cli.stdout_bytes"], "count")

    run_ns = tr.self_ns["selftest.run"]
    out["selftest.run.busy_s"] = (run_ns / 1e9, "s")
    out["selftest.samples_per_s"] = (_ratio(tr.count["selftest.samples"], run_ns / 1e9), "1/s")

    for module in ("goldmanab",) + tuple(f"goldmanab.{m}" for m in MODULES):
        out[f"import.{module}.self_ms"] = (import_ms.get(module, 0.0), "ms")
    return out
