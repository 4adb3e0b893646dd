"""The problem instance and its hypothesis checks, which every subcommand
needs before it computes a length.

Each of the theorem's hypotheses is decided once.  Two are enforced while
the instance is built and raise ``core.HypothesisError``: homogeneous
generators (by ``Ideal``) and parameters that are nonzero homogeneous of
degree >= 1 (by ``ProblemInstance``, through ``core.require_parameter``,
which ``hilbert.tangent_cone`` also calls for a bare parameter ideal).  The
others are named checks with witnesses (``check_hypotheses``), run once per
instance, on the first read of ``ProblemInstance.hypotheses``; every
consumer reads that attribute, and the command line gates on it and maps
both kinds of failure to exit 3.
"""

from itertools import combinations

from . import graded, ideals
from .core import require_parameter
from .hilbert import (multiplicity, parameter_coordinates, rees_series,
                      tangent_cone)
from .ideals import Ideal, ideal_sum, krull_dimension

__all__ = ["ProblemInstance", "check_hypotheses"]


class ProblemInstance:
    """A quotient ring presented by component ideals plus parameter elements.

    Derived data (pairwise sums, dimension, heights) is computed eagerly
    and once.  Two attributes are built on first read, and only then: the
    intersection ``core``, which ``verify`` and the core route of
    ``ring_series`` take instead of intersecting the ideals again, and
    ``hypotheses``, the ``check_hypotheses`` fragment, which the command
    line's gate, ``ring_series``'s route choice and ``verify``'s report
    read.  The hypothesis checks, the Rees route, which gives K's series
    and λ(L) together, and the series of gr_J(L) (``graded.gr_series``,
    which only ``verify`` reads) never need the core, so on an instance
    that passes every check, for any number g of components, only
    ``verify`` builds it, as its cross-check; ``hilbert`` and ``coeffs``
    build it only under ``--force``.
    d = dim S/core is the largest component dimension, as V(core) is the
    union of the V(I_i).

    Two rings.  ``ctx`` is the problem's ring, and ``parameters`` are the
    given elements in it.  ``ring`` is the ring every derived ideal lives
    in: ``ideals`` (the components), ``J``, ``pair_sums`` and ``core``; the
    ring of L's presentation (``hilbert.cokernel_presentation``), which
    the Rees route and ``graded.gr_series`` read, extends ``ring``.
    ``hilbert.parameter_coordinates`` picks it, J's generators and the map
    the components take there once.  For linear parameters
    J = (y_1, ..., y_k) and the order is ("ydeg", k, base), so each
    ideal's one reduced basis is also its tangent cone's, and
    ``hilbert.tangent_cone`` caches the cone on the ideal, so the hypothesis
    checks and the H(K, n) table share the components'.
    Otherwise ``ring`` has the variables of ``ctx`` under grevlex, J is
    generated by the parameters, and each tangent cone is that of J's graph.
    Every order a command's bases are built in (grevlex, and the "ydeg"
    orders over it or over ``ctx.order``) compares the degree
    first, so none is a pure-lex basis: in lex, J's basis of three dense
    quadrics in 6 variables did not finish in 30 s, where grevlex takes
    milliseconds.  Lengths, dimensions and series do not depend on the
    coordinates or the order.

    ``pair_sums`` maps (i, j), i < j, to I_i + I_j, for the pairwise
    hypothesis.
    """

    __slots__ = ("ctx", "ring", "ideals", "parameters", "J", "pair_sums",
                 "_core", "_hypotheses", "g", "r", "d", "heights")

    def __init__(self, ctx, ideals, parameters):
        ideals = list(ideals)
        parameters = list(parameters)
        if not ideals:
            raise ValueError("need at least one component ideal")
        if not parameters:
            raise ValueError("need at least one parameter element")
        for f in parameters:
            require_parameter(f)
        ring, J, move = parameter_coordinates(ctx, parameters)
        ideals = [Ideal(ring, [move(g) for g in ideal.generators])
                  for ideal in ideals]
        J = Ideal(ring, J)
        self.ctx = ctx
        self.ring = ring
        self.ideals = ideals
        self.parameters = parameters
        self.J = J
        self.pair_sums = {(i, j): ideal_sum(ideals[i], ideals[j])
                          for i, j in combinations(range(len(ideals)), 2)}
        self._core = None
        self._hypotheses = None
        self.g = len(ideals)
        self.r = ctx.nvars
        self.heights = [self.r - krull_dimension(ideal) for ideal in ideals]
        self.d = self.r - min(self.heights)

    @property
    def core(self) -> Ideal:
        """I_1 ∩ ... ∩ I_g on first use (``ideals.ideal_intersect``): the
        component itself for g = 1, else one basis."""
        if self._core is None:
            self._core = ideals.ideal_intersect(*self.ideals)
        return self._core

    @property
    def hypotheses(self) -> dict:
        """The ``check_hypotheses`` fragment, checked on first read."""
        if self._hypotheses is None:
            self._hypotheses = check_hypotheses(self)
        return self._hypotheses

    def ring_series(self):
        """(series, length) for R = S/(I_1 ∩ ... ∩ I_g): HS(gr_J R), the
        series that ``hilbert`` and ``coeffs`` read H(K, n), e and n0 off,
        and a function of no arguments that returns λ(L), the length of the
        cokernel L, which ``coeffs`` prints.  When every hypothesis check passes, so
        each S/I_i is Cohen-Macaulay with J a system of parameters on it,
        both come from the one basis of ``hilbert.rees_series``, which
        builds no intersection, for any number g of components.  Otherwise,
        which the command line reaches only under ``--force``, the series
        is the core's tangent cone's and λ(L) is read off the core's series
        (``graded.diagonal_cokernel``) on the call, which raises
        NotFiniteLengthError when L has infinite length."""
        if self.hypotheses["all_pass"]:
            series, length = rees_series(self.ideals, self.J)
            return series, lambda: length
        return (tangent_cone(self.core, self.J).series(), lambda:
                graded.diagonal_cokernel(self.ideals, self.core).length)


def check_hypotheses(inst: ProblemInstance) -> dict:
    """Named hypothesis checks with witnesses.

    Every check reads data the instance holds already, and none needs the
    core.  Component dimensions come from ``inst.heights`` and the pairwise
    sums from ``inst.pair_sums``.
    ``dimension_of_quotient`` (dim S/(core + J)) is the largest
    dim S/(I_i + J), as V(core + J) is the union of the V(I_i + J), each
    read off the component's tangent cone ``tangent_cone(I_i, inst.J)``,
    cached on it.  ``components_cohen_macaulay`` reads two numbers off the
    same cones: S/I_i is Cohen-Macaulay iff the colength
    λ(S/(I_i + J)) = q_0 equals e_0(J, S/I_i) = Q_i(1) in dimension d
    (Matsumura, Commutative Ring Theory, Thm 17.11).  A component that J
    does not cut to finite length has neither (null in both witness
    lists) and is left to ``parameters_cut_to_finite_length``.
    ``dim_S_mod_J`` is ``krull_dimension`` of J, in the instance's
    ``ring``: for linear parameters J = (y_1, ..., y_k), whose basis is its
    generators, and for others one grevlex basis.
    ``generators_homogeneous`` always passes:
    ``Ideal`` refuses the input otherwise.

    The theorem-mode flag (d >= 2 with at least two components) is recorded
    but does not count toward pass/fail: a single Cohen-Macaulay component is
    a legitimate baseline instance.
    """
    checks = []

    checks.append({
        "name": "generators_homogeneous",
        "passed": True,
        "witness": {"note": "enforced at ideal construction"},
    })

    dims = [inst.r - h for h in inst.heights]
    checks.append({
        "name": "equal_component_dimensions",
        "passed": len(set(dims)) == 1,
        "witness": {"dimensions": dims},
    })

    failing_pairs = []
    for (i, j), pair_sum in inst.pair_sums.items():
        pair_dim = krull_dimension(pair_sum)
        if pair_dim != 0:
            failing_pairs.append([i + 1, j + 1, pair_dim])
    checks.append({
        "name": "pairwise_sums_mprimary",
        "passed": not failing_pairs,
        "witness": {"failing_pairs": failing_pairs,
                    "pairs_checked": inst.g * (inst.g - 1) // 2},
    })

    checks.append({
        "name": "parameter_count_matches_dimension",
        "passed": len(inst.parameters) == inst.d,
        "witness": {"parameters": len(inst.parameters), "dimension": inst.d},
    })

    sop_dim, colengths, e0 = -1, [], []
    for ideal in inst.ideals:
        cone = tangent_cone(ideal, inst.J)
        dim = cone.dimension_mod_parameters()
        sop_dim = max(sop_dim, dim)
        series = cone.series() if dim <= 0 else None
        colengths.append(None if series is None else str(series.summed(1)))
        e0.append(None if series is None
                  else str(multiplicity(series, inst.d)))
    j_dim = krull_dimension(inst.J)
    checks.append({
        "name": "parameters_cut_to_finite_length",
        "passed": sop_dim == 0,
        "witness": {"dimension_of_quotient": sop_dim},
    })

    checks.append({
        "name": "parameters_form_regular_sequence",
        "passed": j_dim == inst.r - inst.d,
        "witness": {"dim_S_mod_J": j_dim, "expected": inst.r - inst.d},
    })

    checks.append({
        "name": "components_cohen_macaulay",
        "passed": colengths == e0,
        "witness": {"colengths": colengths, "e0": e0},
    })

    return {
        "all_pass": all(c["passed"] for c in checks),
        "checks": checks,
        "theorem_mode": inst.d >= 2 and inst.g >= 2,
    }
