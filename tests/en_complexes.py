"""Eagon-Northcott data for powers of a complete intersection, the tests'
reference for the Betti numbers of ``chernlab.resolutions``: the banded
n x (n+d-1) matrix whose maximal minors generate the n-th power, and the
closed form of length(Tor_1) against a finite-length module that the
parameters annihilate.
"""

from itertools import combinations

from chernlab import Polynomial, binomial


def en_matrix(generators, n: int):
    """Banded n x (n+d-1) matrix over the ring: row i carries a_1..a_d
    starting at column i (1-indexed), zeros elsewhere.  Its maximal minors
    generate the n-th power of (a_1, ..., a_d).

    d = 1 is rejected: the banded shape degenerates and the power of a
    principal ideal is just the power of its generator.
    """
    generators = list(generators)
    d = len(generators)
    if d < 2:
        raise ValueError("banded matrix needs at least two generators")
    if n < 1:
        raise ValueError("power must be at least 1")
    ctx = generators[0].ctx
    zero = Polynomial.zero(ctx)
    matrix = []
    for i in range(n):
        row = [zero] * (n + d - 1)
        for j, a in enumerate(generators):
            row[i + j] = a
        matrix.append(row)
    return matrix


def _determinant(matrix, ctx):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(ctx)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cofactor = entry * _determinant(minor, ctx)
        total = total + (-cofactor if j % 2 else cofactor)
    return total


def maximal_minors(matrix, ctx):
    """All n x n minors of an n x m polynomial matrix (column subsets in
    lexicographic order)."""
    n = len(matrix)
    m = len(matrix[0])
    minors = []
    for cols in combinations(range(m), n):
        sub = [[row[c] for c in cols] for row in matrix]
        minors.append(_determinant(sub, ctx))
    return minors


def tor1_closed_form(n: int, d: int, module_len: int) -> int:
    """Length of Tor_1(L, S/J^n) when J annihilates L: C(n+d-1, d-1) * len(L)."""
    return binomial(n + d - 1, d - 1) * module_len
