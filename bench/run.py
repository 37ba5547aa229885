"""Benchmark of the goldmanab package: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One seeded, single-threaded closed loop: each op starts when the previous
one has returned, and ops are drawn until ``--seconds`` of wall time have
passed.  Every op's output is checked against its oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
op stream twice, half the time each, first plain and then with spans
around every call into the package; it reports the per-layer summary, the
import-time breakdown and the tracing overhead, and writes the spans and
the summary under ``.bench_out/``.

The last line of stdout is the JSON result; the lines before it give the
same numbers by name with units, the failure counts and the run's
environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 3
SPAN_CAP = 100_000

# What a fresh interpreter must load before the workload's first op.
SETUP_CODE = {
    "ideals_large": ["-c", "import goldmanab.bracket, goldmanab.rat_ideals, goldmanab.int_ideals"],
    "words_long": ["-c", "import goldmanab.words, goldmanab.chain"],
    "small_ops": ["-c", "import goldmanab"],
    "cli": ["-m", "goldmanab", "center", "--closed", "1"],
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(workload: str) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *SETUP_CODE[workload]], cwd=ROOT, env=_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_self_ms() -> dict:
    """Median ``-X importtime`` self time per goldmanab module, in ms."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import goldmanab.cli, goldmanab.sampling"]
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("goldmanab"):
                samples.setdefault(parts[2], []).append(int(parts[0]) / 1000)
    return {module: statistics.median(v) for module, v in samples.items()}


def run_loop(ops, lib, seconds: float, tracer=None, setup_of=None) -> dict:
    """Closed loop over the op stream; times only ``op.run``.

    With ``setup_of`` (a workload name), the set-up is also timed
    SETUP_REPEATS times, at evenly spaced moments between ops, so that its
    median sees the same machine conditions as the ops do.
    """
    from workloads import DEFECT

    latencies: list[int] = []
    setups: list[float] = []
    failed = defects = 0
    errors: dict[str, int] = {}
    gc.collect()
    begin = time.perf_counter()
    deadline = begin + seconds
    setup_step = seconds / SETUP_REPEATS
    next_setup = begin + setup_step / 2 if setup_of else deadline
    while (now := time.perf_counter()) < deadline:
        if now >= next_setup:
            setups.append(time_setup(setup_of))
            next_setup += setup_step
        op = next(ops)
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.run(lib)
            else:
                out = tracer.run_op(len(latencies), op.kind, op.run, lib)
        except Exception as exc:
            latencies.append(time.perf_counter_ns() - start)
            failed += 1
            key = f"{op.kind}: {type(exc).__name__}: {exc}"[:200]
            errors[key] = errors.get(key, 0) + 1
            continue
        latencies.append(time.perf_counter_ns() - start)
        try:
            verdict = op.check(out)
        except Exception as exc:
            verdict = False
            key = f"{op.kind}: oracle raised {type(exc).__name__}: {exc}"[:200]
            errors[key] = errors.get(key, 0) + 1
        if verdict is True:
            continue
        if verdict == DEFECT:
            defects += 1
        else:
            failed += 1
            key = f"{op.kind}: wrong output"
            errors[key] = errors.get(key, 0) + 1
    while setup_of and len(setups) < SETUP_REPEATS:  # when long ops ran past the last slot
        setups.append(time_setup(setup_of))
    return {"latencies": latencies, "failed": failed, "defects": defects, "errors": errors,
            "setups": setups}


def ops_per_s(result) -> float:
    return len(result["latencies"]) / (sum(result["latencies"]) / 1e9)


def end_to_end(result) -> dict:
    lat_ms = sorted(x / 1e6 for x in result["latencies"])
    attempted = len(lat_ms)
    bad = result["failed"] + result["defects"]
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "ops_per_s": (ops_per_s(result), "ops/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - bad) / attempted, "ratio"),
    }


def git_rev():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which names the code measured even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "goldmanab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_CODE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "goldmanab" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'goldmanab'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import goldmanab

    if Path(goldmanab.__file__).resolve().parent != SRC / "goldmanab":
        print(f"error: goldmanab imported from {goldmanab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from gen import Draw

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "git_rev": git_rev(), "src_sha256": src_digest(),
        "loop": "closed, one client, single thread",
        "setup_note": "setup_s includes interpreter start-up and site (.pth) imports, not only the package",
    }
    make_ops = workloads.WORKLOADS[args.workload]

    if not args.trace:
        time_setup(args.workload)  # writes any missing bytecode caches
        result = run_loop(make_ops(Draw(args.workload, args.seed)), tracing.plain_library(),
                          args.seconds, setup_of=args.workload)
        metrics = end_to_end(result)
    else:
        half = args.seconds / 2
        result = run_loop(make_ops(Draw(args.workload, args.seed)), tracing.plain_library(), half)
        tracer = tracing.Tracer(SPAN_CAP)
        restore = tracer.patch_cli()
        try:
            traced = run_loop(make_ops(Draw(args.workload, args.seed)), tracer.library(), half, tracer)
        finally:
            restore()
        metrics = tracing.layer_metrics(tracer, import_self_ms())
        plain_rate, traced_rate = ops_per_s(result), ops_per_s(traced)
        metrics["trace.ops_per_s.untraced"] = (plain_rate, "ops/s")
        metrics["trace.ops_per_s.traced"] = (traced_rate, "ops/s")
        metrics["trace.overhead_ratio"] = (1 - traced_rate / plain_rate, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write_spans(stem.with_name(stem.name + "-spans.jsonl"))
        summary = {"meta": meta, "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        stem.with_name(stem.name + "-layers.json").write_text(json.dumps(summary, indent=1) + "\n")
        result["failed"] += traced["failed"]
        result["defects"] += traced["defects"]
        result["latencies"] += traced["latencies"]
        for key, count in traced["errors"].items():
            result["errors"][key] = result["errors"].get(key, 0) + count

    attempted = len(result["latencies"])
    failed = result["failed"]
    print(json.dumps({"meta": meta}))
    for key, count in sorted(result["errors"].items()):
        print(f"error x{count}: {key}")
    if not args.trace:
        bad = failed + result["defects"]
        print(f"fail_ratio {bad / attempted:.6f} ratio ({bad} of {attempted} ops: "
              f"{failed} failed, {result['defects']} hit a known defect)")
        p90 = metrics["op_p90_ms"][0] * 1e6
        beyond = sum(1 for x in result["latencies"] if x > p90)
        print(f"samples {attempted} ops, {beyond} beyond op_p90_ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
