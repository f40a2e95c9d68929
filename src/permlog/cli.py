"""Command-line front end: exact values, certified approximations, region
checks, a deterministic benchmark table, and the disc-to-strip constants.

Instance files are JSON: {"kind": "matrix"|"symmetric"|"tensor", "entries":
nested arrays}. Entries are bare numbers or [re, im] pairs; tensors declare
"d". Reports serialize key-sorted, so identical inputs and seed produce
byte-identical output apart from the elapsed_s fields.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from .core import ComplexMatrix, ComplexTensor, SymmetricComplexMatrix
from .errors import BudgetExceeded, PermlogError, RegionViolation
from .interpolation import approx_log_disc, approx_log_strip, build_phi
from .oracles import hafnian_exact, permanent_exact, tensor_permanent_exact
from .regions import RegionKind, RegionSpec, check_region

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REGION = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATE = 4


# ---------------------------------------------------------------------------
# instance files


def _entry_to_complex(x):
    if isinstance(x, (int, float)):
        return complex(float(x), 0.0)
    if (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(isinstance(v, (int, float)) for v in x)
    ):
        return complex(float(x[0]), float(x[1]))
    raise ValueError(f"entry must be a number or an [re, im] pair, got {x!r}")


def _nested_to_complex(entries, depth):
    if depth == 0:
        return _entry_to_complex(entries)
    if not isinstance(entries, list):
        raise ValueError("entries nesting does not match the declared kind")
    return [_nested_to_complex(e, depth - 1) for e in entries]


def _entries_array(entries, depth):
    """Entries nested `depth` deep as a complex array. Uniform files of bare
    numbers or of [re, im] pairs convert in one numpy call; anything else
    (mixed numbers and pairs, or malformed entries, which raise ValueError)
    goes entry by entry."""
    try:
        arr = np.array(entries)
    except (ValueError, TypeError):
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":
        if arr.ndim == depth:
            return arr.astype(np.complex128)
        if arr.ndim == depth + 1 and arr.shape[-1] == 2:
            return arr[..., 0] + 1j * arr[..., 1]
    return np.array(_nested_to_complex(entries, depth), dtype=np.complex128)


def load_instance(path):
    """Read an instance JSON file into the matching domain object."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "kind" not in data or "entries" not in data:
        raise ValueError(f"{path}: instance file needs 'kind' and 'entries'")
    kind = data["kind"]
    if kind == "matrix":
        arr = _entries_array(data["entries"], 2)
        value = ComplexMatrix(arr)
        declared = data.get("n")
        if declared is not None and declared != value.n:
            raise ValueError(f"{path}: declared n={declared} but entries are {value.n}x{value.n}")
        return value
    if kind == "symmetric":
        arr = _entries_array(data["entries"], 2)
        value = SymmetricComplexMatrix(arr)
        declared = data.get("two_n")
        if declared is not None and declared != value.two_n:
            raise ValueError(
                f"{path}: declared two_n={declared} but entries are {value.two_n}x{value.two_n}"
            )
        return value
    if kind == "tensor":
        d = data.get("d")
        if not isinstance(d, int) or d < 2:
            raise ValueError(f"{path}: tensor instances need an integer 'd' >= 2")
        arr = _entries_array(data["entries"], d)
        value = ComplexTensor(arr)
        declared = data.get("n")
        if declared is not None and declared != value.n:
            raise ValueError(f"{path}: declared n={declared} but sides are {value.n}")
        return value
    raise ValueError(f"{path}: unknown kind {kind!r}")


def _pair(z):
    return [float(z.real), float(z.imag)]


def _nested_pairs(arr):
    if arr.ndim == 0:
        return _pair(complex(arr))
    return [_nested_pairs(sub) for sub in arr]


def _instance_header(value):
    """Kind and size of an instance, without its entries."""
    if isinstance(value, ComplexMatrix):
        return {"kind": "matrix", "n": value.n}
    if isinstance(value, SymmetricComplexMatrix):
        return {"kind": "symmetric", "two_n": value.two_n}
    return {"kind": "tensor", "d": value.d, "n": value.n}


def canonical_instance(value):
    """Normalized serialization: every entry as an [re, im] pair."""
    return {**_instance_header(value), "entries": _nested_pairs(value.array)}


def instance_digest(value):
    """SHA-256 of the key-sorted JSON header (kind and size) followed by the
    entries as little-endian complex128 bytes in row-major order."""
    header = json.dumps(_instance_header(value), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(np.ascontiguousarray(value.array, dtype="<c16").tobytes())
    return digest.hexdigest()


def save_instance(value, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(canonical_instance(value), fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report plumbing


def _principal_log(z):
    if z == 0:
        return None
    return complex(math.log(abs(z)), math.atan2(z.imag, z.real))


def _emit(report, fmt, out=None):
    if out is None:
        out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
        return
    _emit_text(report, out, indent=0)


def _emit_text(node, out, indent):
    pad = "  " * indent
    if isinstance(node, dict):
        for key in sorted(node):
            val = node[key]
            if isinstance(val, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _emit_text(val, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {val}\n")
    elif isinstance(node, list):
        for val in node:
            if isinstance(val, (dict, list)):
                _emit_text(val, out, indent + 1)
                out.write("\n")
            else:
                out.write(f"{pad}- {val}\n")
    else:
        out.write(f"{pad}{node}\n")


def _exact_value(value):
    if isinstance(value, ComplexMatrix):
        return permanent_exact(value)
    if isinstance(value, SymmetricComplexMatrix):
        return hafnian_exact(value)
    return tensor_permanent_exact(value)


# ---------------------------------------------------------------------------
# commands


def cmd_exact(args):
    t0 = time.perf_counter()
    value = load_instance(args.instance)
    exact = _exact_value(value)
    log = _principal_log(exact)
    results = {
        "value": _pair(exact),
        "log_value": None if log is None else _pair(log),
    }
    if log is None:
        results["note"] = "value is zero; log undefined"
    report = {
        "command": "exact",
        "instance_digest": instance_digest(value),
        "results": results,
        "elapsed_s": time.perf_counter() - t0,
    }
    _emit(report, args.format)
    return EXIT_OK


def _run_approx(value, args):
    if args.method in ("disc", "l1"):
        if args.eta is None:
            raise ValueError(f"--method {args.method} needs --eta")
        return approx_log_disc(
            value,
            eta=args.eta,
            epsilon=args.epsilon,
            l1=args.method == "l1",
            degree=args.degree,
            force=args.force,
        )
    if isinstance(value, ComplexTensor):
        if args.eta is None:
            raise ValueError("--method strip on tensors needs --eta")
        param = args.eta
    else:
        if args.delta is None:
            raise ValueError("--method strip on matrix kinds needs --delta")
        param = args.delta
    return approx_log_strip(value, param, epsilon=args.epsilon, degree=args.degree, force=args.force)


def cmd_approx(args):
    t0 = time.perf_counter()
    value = load_instance(args.instance)
    if args.force:
        sys.stderr.write(
            "warning: --force skips the region check; the result carries no certified bound\n"
        )
    approx = _run_approx(value, args)
    results = {"approx": approx.to_dict()}
    failure = None
    if args.verify:
        try:
            exact = _exact_value(value)
        except PermlogError as exc:
            results["verify"] = {"skipped": True, "reason": str(exc)}
        else:
            log = _principal_log(exact)
            if log is None:
                results["verify"] = {"skipped": True, "reason": "exact value is zero"}
            else:
                realized = abs(approx.log_value - log)
                certified = approx.error_bound
                ok = certified is None or realized <= certified
                results["verify"] = {
                    "exact_log": _pair(log),
                    "realized_error": realized,
                    "certified": ok,
                }
                if not ok:
                    failure = f"realized error {realized:.3g} exceeds the bound {certified:.3g}"
    report = {
        "command": "approx",
        "instance_digest": instance_digest(value),
        "method": args.method,
        "results": results,
        "elapsed_s": time.perf_counter() - t0,
    }
    _emit(report, args.format)
    if failure:
        sys.stderr.write(f"error: {failure}\n")
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_check_region(args):
    t0 = time.perf_counter()
    value = load_instance(args.instance)
    kind = RegionKind(args.region)
    d = value.d if isinstance(value, ComplexTensor) else 2
    spec = RegionSpec(kind=kind, eta=args.eta, tau=args.tau, d=d)
    membership = check_region(value, spec)
    report = {
        "command": "check-region",
        "instance_digest": instance_digest(value),
        "results": membership.to_dict(),
        "elapsed_s": time.perf_counter() - t0,
    }
    _emit(report, args.format)
    return EXIT_OK if membership.inside else EXIT_REGION


# ---------------------------------------------------------------------------
# benchmark


def _bench_matrix(rng, n, low):
    return ComplexMatrix(rng.uniform(low, 1.0, size=(n, n)))


def _bench_symmetric(rng, two_n, low):
    a = rng.uniform(low, 1.0, size=(two_n, two_n))
    return SymmetricComplexMatrix((a + a.T) / 2.0)


def _bench_tensor(rng, d, n, low):
    return ComplexTensor(rng.uniform(low, 1.0, size=(n,) * d))


def _benchmark_cases(suite, rng):
    cases = [
        ("disc-per-n4", _bench_matrix(rng, 4, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
        ("disc-per-n5", _bench_matrix(rng, 5, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
        ("disc-per-n6", _bench_matrix(rng, 6, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
        ("disc-haf-2n6", _bench_symmetric(rng, 6, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
        ("disc-haf-2n8", _bench_symmetric(rng, 8, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
        ("disc-tensor-n2", _bench_tensor(rng, 3, 2, 0.82), dict(method="disc", eta=0.2, epsilon=1e-3)),
        ("disc-tensor-n3", _bench_tensor(rng, 3, 3, 0.82), dict(method="disc", eta=0.2, epsilon=1e-3)),
        ("l1-per-n5", ComplexMatrix(1.0 + 0.012 * rng.uniform(-1, 1, size=(5, 5))), dict(method="l1", eta=0.065, epsilon=1e-3)),
        ("strip-per-n4", _bench_matrix(rng, 4, 0.7), dict(method="strip", delta=0.7, epsilon=0.1)),
        ("eps-per-n5-e1", None, dict(method="disc", eta=0.35, epsilon=1e-1)),
        ("eps-per-n5-e2", None, dict(method="disc", eta=0.35, epsilon=1e-2)),
        ("eps-per-n5-e3", None, dict(method="disc", eta=0.35, epsilon=1e-3)),
    ]
    shared = _bench_matrix(rng, 5, 0.7)
    cases = [(name, shared if inst is None else inst, kw) for name, inst, kw in cases]
    if suite == "medium":
        cases += [
            ("disc-per-n7", _bench_matrix(rng, 7, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
            ("disc-haf-2n10", _bench_symmetric(rng, 10, 0.7), dict(method="disc", eta=0.35, epsilon=1e-3)),
            ("strip-per-n5", _bench_matrix(rng, 5, 0.65), dict(method="strip", delta=0.65, epsilon=0.1)),
            ("strip-haf-2n6", _bench_symmetric(rng, 6, 0.7), dict(method="strip", delta=0.7, epsilon=0.1)),
            ("eps-per-n5-e4", shared, dict(method="disc", eta=0.35, epsilon=1e-4)),
        ]
    return cases


def cmd_benchmark(args):
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    rows = []
    defaults = dict(eta=None, delta=None, degree=None, force=False)
    for name, value, kw in _benchmark_cases(args.suite, rng):
        row_t0 = time.perf_counter()
        rep = _run_approx(value, argparse.Namespace(**{**defaults, **kw}))
        exact = _exact_value(value)
        realized = abs(rep.log_value - _principal_log(exact))
        ok = realized <= rep.error_bound
        rows.append(
            {
                "case": name,
                "pipeline": rep.pipeline,
                "path": rep.path,
                "size": value.array.shape[0],
                "degree": rep.degree_used,
                "error_bound": rep.error_bound,
                "realized_error": realized,
                "certified": ok,
                "elapsed_s": time.perf_counter() - row_t0,
            }
        )
    report = {
        "command": "benchmark",
        "suite": args.suite,
        "seed": args.seed,
        "results": rows,
        "elapsed_s": time.perf_counter() - t0,
    }
    _emit(report, args.format)
    failed = [row["case"] for row in rows if not row["certified"]]
    if failed:
        sys.stderr.write(f"error: realized error above the bound in {', '.join(failed)}\n")
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_phi_table(args):
    t0 = time.perf_counter()
    rows = []
    for rho in args.rho:
        phi = build_phi(rho)
        rows.append(
            {
                "rho": phi.rho,
                "alpha": phi.alpha,
                "beta": phi.beta,
                "N": phi.N,
                "sigma": phi.sigma,
                "one_minus_phi_at_1": abs(1.0 - phi(1.0)),
            }
        )
    report = {
        "command": "phi-table",
        "results": rows,
        "elapsed_s": time.perf_counter() - t0,
    }
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process; each parse_args call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="permlog",
        description="Certified approximation of log-permanents, log-hafnians, "
        "and log-permanents of tensors.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("exact", help="evaluate the exact oracle on an instance file")
    p.add_argument("instance")
    add_format(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("approx", help="certified log-approximation of an instance file")
    p.add_argument("instance")
    p.add_argument("--method", choices=("disc", "strip", "l1"), default="disc")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--force", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("check-region", help="closed membership test for a region")
    p.add_argument("instance")
    p.add_argument("--region", required=True, choices=[k.value for k in RegionKind])
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tau", type=float, default=None)
    add_format(p)
    p.set_defaults(func=cmd_check_region)

    p = sub.add_parser("benchmark", help="deterministic accuracy/degree table")
    p.add_argument("--suite", choices=("small", "medium"), default="small")
    p.add_argument("--seed", type=int, default=12345)
    add_format(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("phi-table", help="disc-to-strip constants for given rho values")
    p.add_argument("--rho", type=float, action="append", default=None)
    add_format(p)
    p.set_defaults(func=cmd_phi_table)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a region violation
        return EXIT_INPUT if exc.code else EXIT_OK
    if args.subcommand == "phi-table" and args.rho is None:
        args.rho = [0.1, 0.25, 0.5, 1.0]
    try:
        return args.func(args)
    except RegionViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_REGION
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except PermlogError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
