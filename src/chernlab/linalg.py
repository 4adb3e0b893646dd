"""Dense exact linear algebra: row reduction over F_p, and fraction-free
integer elimination for square systems with integral solutions."""

from __future__ import annotations

__all__ = [
    "NonIntegralSolutionError",
    "SingularSystemError",
    "rref_mod_p",
    "solve_fraction_free",
]


class SingularSystemError(ValueError):
    """Raised when an exact linear solve meets a singular matrix."""


class NonIntegralSolutionError(ValueError):
    """Raised when an integer solve finds that the solution is not
    integral."""


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p.

    Pivots are chosen on the first available column, left to right, so the
    result is deterministic.  Returns (rref_rows, pivot_columns) with zero
    rows dropped.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                factor = rows[i][col] % p
                rows[i] = [(a - factor * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def solve_fraction_free(matrix, rhs):
    """Solve the square integer system A x = b exactly, for an integral x.

    Forward elimination is fraction-free (Bareiss): every division is exact
    integer division, so intermediate entries stay integral.  Back
    substitution divides in the integers too and returns the solution as a
    list of ints.  Every division in it is exact when the solution is
    integral; the first one that leaves a remainder shows that it is not,
    and raises NonIntegralSolutionError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if a[i][k]), None)
            if sel is None:
                raise SingularSystemError("singular matrix in exact solve")
            a[k], a[sel] = a[sel], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    if a[n - 1][n - 1] == 0:
        raise SingularSystemError("singular matrix in exact solve")
    sol = [0] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n] - sum(a[i][j] * sol[j] for j in range(i + 1, n))
        sol[i], remainder = divmod(acc, a[i][i])
        if remainder:
            raise NonIntegralSolutionError("solution is not integral")
    return sol
