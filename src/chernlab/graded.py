"""Graded vector-space model of the cokernel L of the diagonal embedding

    S/(I_1 ∩ ... ∩ I_g)  >-->  S/I_1 ⊕ ... ⊕ S/I_g.

When the pairwise sums I_i + I_j are m-primary this cokernel has finite
length; its Hilbert series is the difference of the component series and the
series of the intersection, and that difference being a polynomial certifies
the exact top degree.  The model carries explicit bases (tuples of standard
monomials) per degree.  Multiplication by a homogeneous element acts the way
the model is built: by normal forms against the component Groebner bases,
projected onto the cokernel coordinates.  That is enough to decide
annihilation by an ideal and to measure colengths of power actions by plain
dense linear algebra over F_p.
"""

from __future__ import annotations

from .core import Polynomial
from .groebner import normal_form, standard_monomials
from .ideals import Ideal, NotFiniteLengthError, quotient_hilbert_series
from .linalg import RowSpan, mat_vec, rref_mod_p

__all__ = [
    "CokernelModule",
    "diagonal_cokernel",
    "annihilates",
    "power_colength",
    "power_colengths",
]


class CokernelModule:
    """Finite-length graded module with per-degree bases.

    dims[s] is the dimension in degree s (s = 0..top_degree); bases[s] lists
    the coordinate labels (component index, standard monomial) chosen for
    degree s.  top_degree is None exactly when the module is zero.  Actions
    are computed on demand from what the model was built with: the component
    Groebner bases, the per-degree coordinate index and the per-degree
    reduced row echelon form of the diagonal image.
    """

    __slots__ = ("ctx", "length", "top_degree", "dims", "bases",
                 "_gbs", "_index", "_rrefs")

    def __init__(self, ctx, length, top_degree, dims, bases,
                 gbs=(), index=(), rrefs=()):
        self.ctx = ctx
        self.length = length
        self.top_degree = top_degree
        self.dims = tuple(dims)
        self.bases = tuple(tuple(b) for b in bases)
        self._gbs = gbs
        self._index = index
        self._rrefs = rrefs

    def dim(self, s: int) -> int:
        if self.top_degree is None or s < 0 or s > self.top_degree:
            return 0
        return self.dims[s]

    def polynomial_action(self, f: Polynomial, s: int):
        """Matrix of multiplication by a homogeneous polynomial at degree s.

        Column b = (i, mono) of bases[s] is the normal form of f * mono
        against the i-th component basis, projected onto the free
        coordinates of degree s + deg f.
        """
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("action needs a nonzero homogeneous element")
        t = s + f.degree()
        target = self.dim(t)
        source = self.dim(s)
        if target == 0 or source == 0:
            return [[0] * source for _ in range(target)]
        ctx = self.ctx
        index = self._index[t]
        rref_rows, pivots, free = self._rrefs[t]
        columns = []
        for i, mono in self.bases[s]:
            nf = normal_form(f * Polynomial(ctx, {mono: 1}), self._gbs[i])
            vec = [0] * len(index)
            for m, c in nf.terms.items():
                vec[index[(i, m)]] = c
            columns.append(_project(vec, rref_rows, pivots, free,
                                    ctx.characteristic))
        return [list(row) for row in zip(*columns)]


def _project(vector, rref_rows, pivot_cols, free_cols, p):
    """Class of a vector in the quotient by the row space, in free coordinates."""
    v = list(vector)
    for row, piv in zip(rref_rows, pivot_cols):
        c = v[piv] % p
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return [v[j] % p for j in free_cols]


def diagonal_cokernel(ideals, core: Ideal) -> CokernelModule:
    """Build the graded model of L = (⊕ S/I_i) / S/(∩ I_i).

    ``core`` is the intersection of the ideals, computed once by the caller
    (``ProblemInstance.core`` holds it).

    Raises NotFiniteLengthError when the Hilbert series difference is not a
    polynomial, which signals that some pairwise sum I_i + I_j fails to be
    m-primary and L has infinite length.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    ctx = ideals[0].ctx
    for ideal in ideals:
        if ideal.ctx != ctx:
            raise ValueError("ideals come from different ring contexts")
    p = ctx.characteristic

    series = quotient_hilbert_series(ideals[0])
    for ideal in ideals[1:]:
        series = series + quotient_hilbert_series(ideal)
    series = series - quotient_hilbert_series(core)
    if not series.is_polynomial():
        raise NotFiniteLengthError(
            "cokernel of the diagonal map has infinite length; "
            "some pairwise sum of the ideals is not m-primary")

    dims = list(series.numerator)
    length = sum(dims)
    if length == 0:
        return CokernelModule(ctx, 0, None, [], [])
    top = len(dims) - 1

    component_gbs = [ideal.groebner() for ideal in ideals]
    core_std = standard_monomials(core.groebner(), top)
    comp_std = [standard_monomials(gb, top) for gb in component_gbs]

    coords = []        # per degree: list of (component, monomial)
    coord_index = []   # per degree: dict (component, monomial) -> position
    for s in range(top + 1):
        labels = [(i, m) for i in range(len(ideals)) for m in comp_std[i][s]]
        coords.append(labels)
        coord_index.append({lab: j for j, lab in enumerate(labels)})

    rrefs = []
    bases = []
    for s in range(top + 1):
        rows = []
        for mono in core_std[s]:
            row = [0] * len(coords[s])
            f = Polynomial(ctx, {mono: 1})
            for i, gb in enumerate(component_gbs):
                nf = normal_form(f, gb)
                for m, c in nf.terms.items():
                    row[coord_index[s][(i, m)]] = c
            rows.append(row)
        rref_rows, pivots = rref_mod_p(rows, p)
        if len(pivots) != len(rows):
            raise RuntimeError("diagonal map is not injective degreewise; "
                               "internal inconsistency")
        free = [j for j in range(len(coords[s])) if j not in set(pivots)]
        if len(free) != dims[s]:
            raise RuntimeError("cokernel dimension disagrees with the Hilbert "
                               "series; internal inconsistency")
        rrefs.append((rref_rows, pivots, free))
        bases.append([coords[s][j] for j in free])

    return CokernelModule(ctx, length, top, dims, bases,
                          component_gbs, coord_index, rrefs)


def annihilates(ideal: Ideal, model: CokernelModule) -> bool:
    """True when every generator of the ideal acts as zero on every graded
    piece of the module."""
    if model.top_degree is None:
        return True
    for f in ideal.generators:
        e = f.degree()
        for s in range(model.top_degree + 1):
            if s + e > model.top_degree:
                continue
            matrix = model.polynomial_action(f, s)
            if any(any(entry for entry in row) for row in matrix):
                return False
    return True


def power_colengths(model: CokernelModule, ideal: Ideal, max_power: int):
    """[length(L / ideal^n L) for n = 0..max(max_power, nu)], from one span
    walk, where nu = min{n : ideal^n L = 0}.

    nu is also the least n whose colength is length(L), so a caller reads
    it as ``colengths.index(model.length)``.  The walk starts from the full
    graded pieces and multiplies the spans by every generator once per
    step, with each generator's action at each degree computed once; it
    ends at nu, within top_degree + 1 steps because every generator has
    positive degree, and the entries past nu are length(L).
    """
    if max_power < 0:
        raise ValueError("power must be nonnegative")
    if model.top_degree is None:
        return [0] * (max_power + 1)
    p = model.ctx.characteristic
    top = model.top_degree

    actions = []
    for f in ideal.generators:
        e = f.degree()
        per_degree = {}
        for s in range(top + 1):
            if s + e <= top and model.dim(s) and model.dim(s + e):
                per_degree[s] = model.polynomial_action(f, s)
        actions.append((e, per_degree))

    spans = {s: [[1 if i == j else 0 for j in range(model.dim(s))]
                 for i in range(model.dim(s))]
             for s in range(top + 1) if model.dim(s)}
    colengths = [0]
    while spans:
        collected = {}
        for e, per_degree in actions:
            for s, matrix in per_degree.items():
                if s not in spans:
                    continue
                bucket = collected.setdefault(s + e, RowSpan(p))
                for vec in spans[s]:
                    bucket.add(mat_vec(matrix, vec, p))
        spans = {t: span.rows for t, span in collected.items() if span.rank}
        colengths.append(model.length
                         - sum(len(rows) for rows in spans.values()))
    return colengths + [model.length] * (max_power + 1 - len(colengths))


def power_colength(model: CokernelModule, ideal: Ideal, n: int) -> int:
    """Colength of the n-th power action: length(L / ideal^n L)."""
    return power_colengths(model, ideal, n)[n]
