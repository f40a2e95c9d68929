"""Reference values for checking benchmark answers.

Every reference is computed apart from the approximation pipelines: small
generic instances go through the exact oracles in `permlog.oracles`, larger
instances are rank-one and use closed forms evaluated with `math.lgamma`.
"""

import cmath
import math

from permlog import (
    ComplexMatrix,
    SymmetricComplexMatrix,
    hafnian_exact,
    permanent_exact,
    tensor_permanent_exact,
)


def log_per_rank_one(u, v):
    """ln per(u v^T) = ln n! + sum ln u + sum ln v, for positive u, v."""
    return math.lgamma(len(u) + 1) + sum(math.log(x) for x in u) + sum(math.log(x) for x in v)


def log_haf_rank_one(u):
    """ln haf(u u^T) = ln (2n-1)!! + sum ln u, for positive u of length 2n.

    (2n-1)!! = (2n)! / (2^n n!).
    """
    n = len(u) // 2
    log_dfact = math.lgamma(2 * n + 1) - n * math.log(2.0) - math.lgamma(n + 1)
    return log_dfact + sum(math.log(x) for x in u)


def log_tensor_rank_one(vectors):
    """ln PER(u_1 x ... x u_d) = (d-1) ln n! + sum_k sum ln u_k, positive u_k."""
    d = len(vectors)
    n = len(vectors[0])
    return (d - 1) * math.lgamma(n + 1) + sum(math.log(x) for u in vectors for x in u)


def log_exact(value):
    """Principal log of the exact oracle value of a matrix, symmetric matrix
    or tensor."""
    if isinstance(value, ComplexMatrix):
        exact = permanent_exact(value)
    elif isinstance(value, SymmetricComplexMatrix):
        exact = hafnian_exact(value)
    else:
        exact = tensor_permanent_exact(value)
    return cmath.log(exact)


def answer_ok(log_value, error_bound, epsilon, reference):
    """True when |log_value - reference| <= error_bound <= epsilon."""
    if error_bound is None:
        return False
    return abs(complex(log_value) - reference) <= error_bound <= epsilon


def op_reference(op):
    """Reference ln value for a benchmark op: closed form when the op carries
    rank-one factors, exact oracle otherwise."""
    if op.rank_one is None:
        return log_exact(op.value)
    if op.kind == "per":
        return log_per_rank_one(*op.rank_one)
    if op.kind == "haf":
        return log_haf_rank_one(op.rank_one[0])
    return log_tensor_rank_one(op.rank_one)
