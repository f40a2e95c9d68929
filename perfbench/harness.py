"""Benchmark logic; run.py is the entry point and puts this
checkout's src/ on sys.path before importing this module."""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import permlog
from refs import answer_ok, op_reference
from tracer import Tracer, layer_metrics
from workloads import PIPELINES, WORKLOADS, build_ops, failure_label, run_op, unpack, warm_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
KINDS = ("per", "haf", "tensor")


def _metric_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_seconds(workload, workdir):
    """Median set-up time over fresh interpreters. The first probe only
    warms the file cache and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(workdir), str(SRC)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def _run_round(ops, label, tracer=None):
    """Run every op once. Returns (wall seconds, [(op seconds, raw, error)])."""
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{label}.{i}"
        start = time.perf_counter()
        try:
            raw, error = run_op(op), None
        except Exception as exc:  # counted per type; the run goes on
            raw, error = None, failure_label(exc)
        results.append((time.perf_counter() - start, raw, error))
    return time.perf_counter() - t0, results


def _untraced_rounds(ops, seconds):
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(_run_round(ops, f"r{len(rounds)}"))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def _traced_rounds(ops, seconds, tracer):
    """Alternate untraced and traced rounds; at least one pair."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(_run_round(ops, f"u{len(plain)}"))
        tracer.install()
        try:
            traced.append(_run_round(ops, f"t{len(traced)}", tracer))
        finally:
            tracer.restore()
        elapsed = time.perf_counter() - t0
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            return plain, traced


def _check(ops, rounds):
    """Check every answer. Returns a summary dict with per-op timings of the
    operations whose answers passed."""
    refs = {}
    passed = []  # (op index, seconds, degree)
    failures = Counter()
    unexpected = []
    attempted = 0
    for _, results in rounds:
        for i, (seconds, raw, error) in enumerate(results):
            op = ops[i]
            attempted += 1
            if error is not None:
                failures[error] += 1
                if error != op.expect:
                    unexpected.append(f"{op.name}: {error}")
                continue
            log_value, bound, degree = unpack(raw)
            if i not in refs:
                refs[i] = op_reference(op)
            if answer_ok(log_value, bound, op.epsilon, refs[i]):
                passed.append((i, seconds, degree))
            else:
                failures["wrong_answer"] += 1
                unexpected.append(f"{op.name}: |{log_value} - {refs[i]}| vs bound {bound}")
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "unexpected": unexpected,
        "passed": passed,
    }


def _end_to_end(ops, rounds, summary, setup_s, rss_mb):
    passed = summary["passed"]
    wall = sum(w for w, _ in rounds)

    def p50(kind=None):
        times = [s for i, s, _ in passed if kind is None or ops[i].kind == kind]
        return statistics.median(times) if times else None

    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(passed) / wall,
        "op_s.p50": p50(),
        "peak_rss_mb": rss_mb,
    }
    for kind in KINDS:
        metrics[f"op_s.p50.{kind}"] = p50(kind)
    return metrics


def _per_layer(plain, traced, summary, tracer):
    metrics = layer_metrics(tracer.spans, len(traced))
    degrees = [d for _, _, d in summary["passed"]]
    metrics["interpolation.degree_used.p50"] = statistics.median_low(degrees) if degrees else None
    metrics["interpolation.degree_used.max"] = max(degrees, default=None)
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(
        w for w, _ in plain
    )
    return metrics


def _per_op_seconds(ops, summary):
    """Wall seconds of every passed op, by op name, in run order."""
    by_name = {}
    for i, seconds, _ in summary["passed"]:
        by_name.setdefault(ops[i].name, []).append(seconds)
    return dict(sorted(by_name.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark for the permlog pipelines.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(permlog.__file__).resolve().parent != SRC / "permlog":
        sys.stderr.write(f"perfbench: permlog imported from {permlog.__file__}, not {SRC}\n")
        return 2
    units = _metric_units(args.trace)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    # anything the package stages to disk stays inside the checkout
    tempfile.tempdir = str(workdir)
    try:
        setup_s = None if args.trace else _setup_seconds(args.workload, workdir)
        ops = build_ops(args.workload, args.seed, str(workdir))
        warm_up(PIPELINES[args.workload], str(workdir))
        tracer = Tracer()
        if args.trace:
            plain, traced = _traced_rounds(ops, args.seconds, tracer)
            rounds = plain + traced
        else:
            rounds = _untraced_rounds(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = _check(ops, rounds)
        if args.trace:
            metrics = _per_layer(plain, traced, summary, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = _end_to_end(ops, rounds, summary, setup_s, rss_mb)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    correct = not summary["unexpected"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "failures": summary["failures"],
        "unexpected": summary["unexpected"],
        "op_seconds": _per_op_seconds(ops, summary),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} x {len(ops)} ops")
    for name in units:
        print(f"  {name:36s} {metrics[name]!r:>24} {units[name]}")
    print(f"  attempted {summary['attempted']}  failed {summary['failed']}  by type {summary['failures']}")
    for line in summary["unexpected"]:
        print(f"  UNEXPECTED {line}")
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))
    return 0

