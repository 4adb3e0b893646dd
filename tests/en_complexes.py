"""Eagon-Northcott and Koszul data for powers of a complete intersection,
the tests' reference for the Betti numbers of ``chernlab.resolutions``: the
banded n x (n+d-1) matrix whose maximal minors generate the n-th power,
Koszul differentials, and the closed form of length(Tor_1) against a
finite-length module that the parameters annihilate.
"""

from itertools import combinations

from chernlab import Polynomial, binomial, en_betti


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


class ENResolutionData:
    """Banded presentation matrix plus the full Betti vector (beta_0 = 1)."""

    __slots__ = ("n", "d", "matrix", "betti")

    def __init__(self, generators, n: int):
        generators = list(generators)
        self.n = n
        self.d = len(generators)
        self.matrix = en_matrix(generators, n)
        self.betti = (1,) + tuple(en_betti(n, self.d, i)
                                  for i in range(1, self.d + 1))

    def euler_characteristic(self) -> int:
        return sum(b if i % 2 == 0 else -b for i, b in enumerate(self.betti))


class KoszulData:
    """Koszul complex of a generator sequence: ranks C(d, k) and exterior
    differentials with the sign convention

        d(e_{i_1..i_k}) = sum_j (-1)^(j+1) a_{i_j} e_{i_1..^i_j..i_k}
    """

    __slots__ = ("d", "ranks", "differentials")

    def __init__(self, d, ranks, differentials):
        self.d = d
        self.ranks = tuple(ranks)
        self.differentials = differentials


def koszul_complex(generators) -> KoszulData:
    generators = list(generators)
    d = len(generators)
    if d < 1:
        raise ValueError("need at least one generator")
    ctx = generators[0].ctx
    zero = Polynomial.zero(ctx)
    ranks = [binomial(d, k) for k in range(d + 1)]
    differentials = []
    for k in range(1, d + 1):
        sources = list(combinations(range(d), k))
        targets = list(combinations(range(d), k - 1))
        index = {t: i for i, t in enumerate(targets)}
        matrix = [[zero] * len(sources) for _ in range(len(targets))]
        for col, subset in enumerate(sources):
            for j, var in enumerate(subset):
                rest = subset[:j] + subset[j + 1:]
                sign = 1 if j % 2 == 0 else -1
                entry = generators[var] * sign
                row = index[rest]
                matrix[row][col] = matrix[row][col] + entry
        differentials.append(matrix)
    return KoszulData(d, ranks, differentials)


def poly_mat_mul(a, b, ctx):
    """Product of polynomial matrices."""
    if not a or not b:
        return []
    zero = Polynomial.zero(ctx)
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = zero
            for x, brow in zip(row, b):
                if not x.is_zero():
                    acc = acc + x * brow[j]
            new_row.append(acc)
        out.append(new_row)
    return out


def koszul_composes_to_zero(data: KoszulData, ctx) -> bool:
    """True when consecutive differentials compose to zero."""
    for k in range(1, data.d):
        product = poly_mat_mul(data.differentials[k - 1], data.differentials[k], ctx)
        for row in product:
            for entry in row:
                if not entry.is_zero():
                    return False
    return True


def tor1_closed_form(n: int, d: int, module_len: int) -> int:
    """Length of Tor_1(L, S/J^n) when J annihilates L: C(n+d-1, d-1) * len(L)."""
    return binomial(n + d - 1, d - 1) * module_len
