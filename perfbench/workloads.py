"""Benchmark inputs: one fixed list of operations per workload, made from
the seed, plus the tiny warm-up calls that count as set-up.

A round runs every operation of its workload once, in list order. Sizes
and parameters are fixed per workload; the seed only draws the entries.
The two operations marked `expect` fail every time at the commit that added
this benchmark; their inputs do not depend on the seed.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import permlog
from permlog import ComplexMatrix, ComplexTensor, SymmetricComplexMatrix

WORKLOADS = ("disc-full", "disc-truncated", "strip")

# which public pipelines each workload calls; the set-up probe warms these
PIPELINES = {
    "disc-full": ("disc", "l1"),
    "disc-truncated": ("cli",),
    "strip": ("strip",),
}


@dataclass
class Op:
    """One certified approximation.

    kind is per, haf or tensor; pipeline is disc, l1, strip or cli (the
    disc method through `permlog.cli.main`). `param` is eta, or delta for
    strip matrix kinds. `rank_one` holds the factor vectors when the
    reference is a closed form, None when it is an exact oracle. `expect`
    names the failure (exception type, or exit_<code> for the CLI) this op
    hits every time.
    """

    name: str
    kind: str
    pipeline: str
    value: object
    param: float
    epsilon: float
    rank_one: tuple = None
    expect: str = None
    argv: list = None


def _matrix(rng, n, low):
    return ComplexMatrix(rng.uniform(low, 1.0, (n, n)))


def _symmetric(rng, two_n, low):
    raw = rng.uniform(low, 1.0, (two_n, two_n))
    return SymmetricComplexMatrix((raw + raw.T) / 2.0)


def _tensor(rng, n, low, d=3):
    return ComplexTensor(rng.uniform(low, 1.0, (n,) * d))


def rank_one_factor(rng, size, eta):
    """Positive factor whose pairwise products stay within eta of 1."""
    t = 0.98 * ((1.0 + eta) ** 0.5 - 1.0)
    return rng.uniform(1.0 - t, 1.0 + t, size)


def _rank_one_matrix(u, v):
    return ComplexMatrix(np.outer(u, v)), (u, v)


def _repeat(count, make):
    return [make() for _ in range(count)]


def _spread(*groups):
    """Interleave groups so that each group's ops sit evenly through the
    round. The host this was tuned on switches between a fast and a slow
    state every few seconds; ops of one class run back to back would all
    land in one state, spreading them samples both."""
    keyed = [((i + 0.5) / len(g), j, op) for j, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


def _disc_full(rng):
    per = [Op(f"disc-per-n{n}", "per", "disc", _matrix(rng, n, 0.6), 0.4, 1e-3) for n in (6, 7, 8)]
    l1 = [
        Op(f"l1-per-n{n}", "per", "l1", ComplexMatrix(rng.uniform(0.94, 1.06, (n, n))), 0.065, 1e-3)
        for n in (5, 6, 7, 8)
    ]
    # repeats keep each kind's median inside one size class
    haf = [Op("disc-haf-2n8", "haf", "disc", _symmetric(rng, 8, 0.6), 0.4, 1e-3)]
    haf += _repeat(6, lambda: Op("disc-haf-2n10", "haf", "disc", _symmetric(rng, 10, 0.6), 0.4, 1e-3))
    tensor = [Op("disc-tensor-n3", "tensor", "disc", _tensor(rng, 3, 0.78), 0.22, 1e-3)]
    tensor += _repeat(6, lambda: Op("disc-tensor-n4", "tensor", "disc", _tensor(rng, 4, 0.78), 0.22, 1e-3))
    return _spread(per, l1, haf, tensor)


def _disc_truncated(rng):
    per = [Op("per-n10-m4", "per", "cli", _matrix(rng, 10, 0.85), 0.15, 1e-2)]
    for n, eta, eps, count in ((16, 0.1, 1e-2, 3), (40, 0.05, 3e-2, 1)):
        for _ in range(count):
            value, factors = _rank_one_matrix(rank_one_factor(rng, n, eta), rank_one_factor(rng, n, eta))
            per.append(Op(f"per-n{n}-rank1", "per", "cli", value, eta, eps, rank_one=factors))
    haf = _repeat(3, lambda: Op("haf-2n16-m3", "haf", "cli", _symmetric(rng, 16, 0.9), 0.1, 1e-2))
    # 2n=30 stays at m=2: at m=3 one op takes about 6 s, which would leave
    # too few rounds in a run to keep the medians steady
    for two_n, eps in ((20, 1e-2), (30, 1e-1)):
        u = rank_one_factor(rng, two_n, 0.1)
        value = SymmetricComplexMatrix(np.outer(u, u))
        haf.append(Op(f"haf-2n{two_n}-rank1", "haf", "cli", value, 0.1, eps, rank_one=(u,)))
    tensor = [Op("tensor-n5-m3", "tensor", "cli", _tensor(rng, 5, 0.94), 0.06, 1e-2)]
    tensor += _repeat(3, lambda: Op("tensor-n6-m3", "tensor", "cli", _tensor(rng, 6, 0.94), 0.06, 1e-2))
    # Fixed inputs that fail at every seed. Tuple sums for n=12, m=4 cost
    # (12!/8!)^2 > 1e8 and full expansion stops at n=10: exit code 3.
    fixed = np.random.default_rng(12)
    failing = [Op("per-n12-m4", "per", "cli", _matrix(fixed, 12, 0.8), 0.2, 1e-1, expect="exit_3")]
    # g_derivatives_permanent computes float(180!), which overflows.
    u = 1.0 + 0.004 * np.sin(np.arange(180.0))
    value, factors = _rank_one_matrix(u, u)
    failing.append(
        Op("per-n180-rank1", "per", "cli", value, 0.01, 1e-1, rank_one=factors, expect="OverflowError")
    )
    return _spread(per, haf, tensor, failing)


def _strip(rng):
    """Same-parameter blocks on the FFT path: the first op of a block
    rebuilds the phi-power cache, the later ones hit it. Direct-composition
    ops never touch the cache, so they are spread between the blocks. The
    op counts put each kind's median, and the overall one, inside the class
    of cache hits (or, for tensors, of direct-path ops) rather than on the
    edge between two classes."""

    def block(name, kind, make, param, count):
        return _repeat(count, lambda: Op(name, kind, "strip", make(), param, 0.1))

    fft = []
    for n in (5, 6, 8):
        fft += block(f"strip-per-n{n}-d0.5", "per", lambda: _matrix(rng, n, 0.5), 0.5, 4)
    fft += block("strip-haf-2n8-d0.5", "haf", lambda: _symmetric(rng, 8, 0.5), 0.5, 4)
    fft += block("strip-per-n6-d0.6", "per", lambda: _matrix(rng, 6, 0.6), 0.6, 1)
    fft += block("strip-tensor-n3-e0.25", "tensor", lambda: _tensor(rng, 3, 0.75), 0.25, 1)
    # direct composition path: certified degree at most 4096
    per = block("strip-per-n6-d0.7", "per", lambda: _matrix(rng, 6, 0.7), 0.7, 1)
    tensor = block("strip-tensor-n3-e0.2", "tensor", lambda: _tensor(rng, 3, 0.8), 0.2, 3)
    return _spread(fft, per, tensor)


_OP_LISTS = {"disc-full": _disc_full, "disc-truncated": _disc_truncated, "strip": _strip}


def instance_json(value):
    """Instance file contents for a real-valued matrix, symmetric matrix or
    tensor, in the format `permlog approx` reads."""
    if isinstance(value, ComplexMatrix):
        data = {"kind": "matrix"}
    elif isinstance(value, SymmetricComplexMatrix):
        data = {"kind": "symmetric"}
    else:
        data = {"kind": "tensor", "d": value.d}
    data["entries"] = value.array.real.tolist()
    return json.dumps(data)


def _write_instance(op, workdir, index):
    path = os.path.join(workdir, f"op{index:02d}-{op.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_json(op.value))
    return path


def build_ops(workload, seed, workdir):
    """The operations of one round. CLI ops get their instance files written
    into workdir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _OP_LISTS[workload](rng)
    for i, op in enumerate(ops):
        if op.pipeline == "cli":
            path = _write_instance(op, workdir, i)
            op.argv = ["approx", path, "--method", "disc", "--eta", repr(op.param), "--epsilon", repr(op.epsilon)]
    return ops


class CliExit(Exception):
    """`permlog.cli.main` returned a nonzero exit code."""

    def __init__(self, code, stderr):
        super().__init__(f"exit code {code}: {stderr.strip()}")
        self.code = code


def call_cli(argv):
    """Run `permlog.cli.main` in-process; return its stdout, raise CliExit on
    a nonzero exit code."""
    # imported here so that set-up of the other workloads does not pay for it
    import permlog.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = permlog.cli.main(argv)
    if code != 0:
        raise CliExit(code, err.getvalue())
    return out.getvalue()


def run_op(op):
    """Run one op through its public entry point. Returns the raw result:
    an ApproxReport, or the CLI's JSON text. Names are looked up at call
    time so that traced wrappers are used when installed."""
    if op.pipeline == "cli":
        return call_cli(op.argv)
    if op.pipeline == "strip":
        return permlog.approx_log_strip(op.value, op.param, op.epsilon)
    return permlog.approx_log_disc(op.value, op.param, op.epsilon, l1=op.pipeline == "l1")


def unpack(raw):
    """(log_value, error_bound, degree_used) from a run_op result."""
    if isinstance(raw, str):
        approx = json.loads(raw)["results"]["approx"]
        re, im = approx["log_value"]
        return complex(re, im), approx["error_bound"], approx["degree_used"]
    return raw.log_value, raw.error_bound, raw.degree_used


def failure_label(exc):
    if isinstance(exc, CliExit):
        return f"exit_{exc.code}"
    return type(exc).__name__


def warm_up(pipelines, workdir):
    """One tiny call of each named pipeline: the set-up a fresh process pays
    before its first real operation."""
    tiny = ComplexMatrix(np.array([[0.9, 0.95], [0.85, 1.0]]))
    for pipeline in pipelines:
        if pipeline == "disc":
            permlog.approx_log_disc(tiny, 0.4, 1e-3)
        elif pipeline == "l1":
            permlog.approx_log_disc(ComplexMatrix(np.array([[1.01, 0.99], [1.0, 1.02]])), 0.065, 1e-3, l1=True)
        elif pipeline == "strip":
            permlog.approx_log_strip(tiny, 0.7, 0.1)
        elif pipeline == "cli":
            path = os.path.join(workdir, "warm-up.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(instance_json(tiny))
            call_cli(["approx", path, "--method", "disc", "--eta", "0.4"])
        else:
            raise ValueError(f"unknown pipeline {pipeline!r}")
