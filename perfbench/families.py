"""Plane-configuration families, their closed-form invariants, and the seeded
problem-file generator.

Every family is a configuration of linear subspaces given by linear forms.
A generated instance is the image of the family representative under an
invertible linear change of coordinates over F_p.  Such a change is a graded
automorphism of the polynomial ring, so every length the program reports is
the representative's, and the expected answers are known without running
the program.

Stdlib only; nothing here imports chernlab.
"""

from __future__ import annotations

import json
from math import comb
from typing import NamedTuple

PRIME_POOL = (32003, 31991, 30011, 20011, 10007)


class Family(NamedTuple):
    """A representative configuration and its known invariants.

    ``ideals`` and ``parameters`` are linear forms written as coefficient
    vectors over the ``r`` variables.  ``e`` are the Hilbert coefficients
    e_0..e_d of K = JR, ``lam`` is length(L) for the diagonal cokernel L and
    ``annihilated`` says whether J annihilates L.
    """

    name: str
    r: int
    ideals: tuple
    parameters: tuple
    e: tuple
    lam: int
    annihilated: bool

    @property
    def d(self) -> int:
        return len(self.e) - 1


def _unit(r, i):
    return tuple(1 if k == i else 0 for k in range(r))


def _plus(r, i, j, sign=1):
    return tuple(1 if k == i else sign if k == j else 0 for k in range(r))


def _two_planes(name, d):
    """Two transversal d-planes in 2d variables: e_i = (-1)^i for
    1 <= i <= d-1, e_d = 0, length(L) = 1, annihilated."""
    r = 2 * d
    first = tuple(_unit(r, i) for i in range(d))
    second = tuple(_unit(r, d + i) for i in range(d))
    params = tuple(_plus(r, i, d + i) for i in range(d))
    e = (2,) + tuple((-1) ** i for i in range(1, d)) + (0,)
    return Family(name, r, (first, second), params, e, 1, True)


FAMILIES = {
    "e1": _two_planes("e1", 2),
    "e2": _two_planes("e2", 3),
    "p4": _two_planes("p4", 4),
    # one plane: the Cohen-Macaulay control, L = 0
    "e3": Family("e3", 4, ((_unit(4, 0), _unit(4, 1)),),
                 (_unit(4, 2), _unit(4, 3)), (1, 0, 0), 0, True),
    # three pairwise transversal planes: L has length 4 and is not
    # annihilated by the parameters
    "e4": Family("e4", 4,
                 ((_unit(4, 0), _unit(4, 1)), (_unit(4, 2), _unit(4, 3)),
                  (_plus(4, 0, 2), _plus(4, 1, 3))),
                 (_plus(4, 0, 3), _plus(4, 1, 2, -1)), (3, -2, 0), 4, False),
}


def hilbert_polynomial(e, n: int) -> int:
    """P(n) = sum_i (-1)^i e_i C(n+d-1-i, d-i)."""
    d = len(e) - 1
    return sum((-1) ** i * c * comb(n + d - 1 - i, d - i)
               for i, c in enumerate(e))


def torsion_length(family: Family, n: int) -> int:
    """length(Tor_1(L, S/J^n)) = C(n+d-1, d-1) length(L) when J annihilates L."""
    return comb(n + family.d - 1, family.d - 1) * family.lam


# ---------------------------------------------------------------------------
# Coordinate changes over F_p
# ---------------------------------------------------------------------------

def _rank_mod_p(matrix, p) -> int:
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_invertible(rng, r: int, p: int):
    """A uniformly random invertible r x r matrix over F_p."""
    while True:
        matrix = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        if _rank_mod_p(matrix, p) == r:
            return matrix


def random_diagonal(rng, r: int, p: int):
    """A random invertible diagonal matrix: rescales each variable, so the
    image keeps the representative's sparse shape."""
    return [[rng.randrange(1, p) if i == j else 0 for j in range(r)]
            for i in range(r)]


def _image(form, matrix, p):
    """Image of a linear form under x_i -> sum_j matrix[i][j] x_j."""
    r = len(form)
    return tuple(sum(form[i] * matrix[i][j] for i in range(r)) % p
                 for j in range(r))


def _render(form, names) -> str:
    return " + ".join(f"{c}*{names[j]}" for j, c in enumerate(form) if c)


def problem_text(family: Family, matrix, p: int) -> str:
    """The problem file, as JSON text, for the image of ``family`` under
    ``matrix`` over F_p."""
    names = [f"x{i + 1}" for i in range(family.r)]
    problem = {
        "characteristic": p,
        "variables": names,
        "monomial_order": "grevlex",
        "ideals": [[_render(_image(f, matrix, p), names) for f in block]
                   for block in family.ideals],
        "parameters": [_render(_image(f, matrix, p), names)
                       for f in family.parameters],
    }
    return json.dumps(problem, indent=1, sort_keys=True) + "\n"
