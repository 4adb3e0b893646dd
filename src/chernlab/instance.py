"""The problem instance and its hypothesis checks, which every subcommand
needs before it computes a length.

Each of the theorem's hypotheses is decided once.  Two are enforced while
the instance is built and raise ``core.HypothesisError``: homogeneous
generators (by ``Ideal``) and parameters that are nonzero homogeneous of
degree >= 1 (by ``ProblemInstance``, through ``core.require_parameter``,
which ``hilbert.tangent_cone`` also calls for a bare parameter ideal).  The
others are named checks with witnesses (``check_hypotheses``), which a
caller gates on; the command line maps both kinds of failure to exit 3.
"""

from itertools import combinations

from .core import Polynomial, require_parameter
from .hilbert import multiplicity, parameter_coordinates, tangent_cone
from .ideals import Ideal, ideal_sum, intersect_all, krull_dimension

__all__ = ["ProblemInstance", "check_hypotheses"]


class ProblemInstance:
    """A quotient ring presented by component ideals plus parameter elements.

    Derived data (pairwise sums, dimension, heights) is computed eagerly
    and once.  The intersection ``core`` is built on first use, and only
    then: ``verify`` and the core route of ``hilbert.ring_series`` take it
    instead of intersecting the ideals again, and the hypothesis checks
    and the Rees route never need it.  d = dim S/core is the largest
    component dimension, as V(core) is the union of the V(I_i).

    Two rings.  ``ctx`` is the problem's ring, and ``parameters`` are the
    given elements in it.  ``ring`` is the ring every derived ideal lives
    in: ``ideals`` (the components), ``J``, ``pair_sums``, ``core``, and so
    the cokernel L read from them; its idealization ring extends ``ring``.
    For linear parameters ``ring`` is the ring of
    ``hilbert.parameter_coordinates``: the components are mapped there
    once, J = (y_1, ..., y_k), and the order is ("ydeg", k, base), so each
    ideal's one reduced basis is also its tangent cone's, and
    ``hilbert.tangent_cone`` caches the cone on the ideal, so the hypothesis
    checks and the H(K, n) table share the components'.
    Otherwise ``ring`` is ``ctx``, the change is the identity, J is
    generated by the parameters, and each tangent cone is that of J's graph.
    Lengths, dimensions and series do not depend on the coordinates.

    ``pair_sums`` maps (i, j), i < j, to I_i + I_j; the first intersection
    takes the sum of the first two components from it, so one basis of that
    sum serves both its target series and the pairwise hypothesis.  The
    default window size for Hilbert-Samuel sampling is 2d + 4.
    """

    __slots__ = ("ctx", "ring", "ideals", "parameters", "J", "pair_sums",
                 "_core", "g", "r", "d", "heights", "max_power")

    def __init__(self, ctx, ideals, parameters, max_power=None):
        ideals = list(ideals)
        parameters = list(parameters)
        if not ideals:
            raise ValueError("need at least one component ideal")
        if not parameters:
            raise ValueError("need at least one parameter element")
        for f in parameters:
            require_parameter(f)
        coordinates = parameter_coordinates(ctx, parameters)
        if coordinates is None:
            ring, J = ctx, Ideal(ctx, parameters)
        else:
            ring, k, images = coordinates
            ideals = [Ideal(ring, [g.substitute(images)
                                   for g in ideal.generators])
                      for ideal in ideals]
            J = Ideal(ring, [Polynomial.variable(ring, y)
                             for y in ring.variables[:k]])
        self.ctx = ctx
        self.ring = ring
        self.ideals = ideals
        self.parameters = parameters
        self.J = J
        self.pair_sums = {(i, j): ideal_sum(ideals[i], ideals[j])
                          for i, j in combinations(range(len(ideals)), 2)}
        self._core = None
        self.g = len(ideals)
        self.r = ctx.nvars
        self.heights = [self.r - krull_dimension(ideal) for ideal in ideals]
        self.d = self.r - min(self.heights)
        self.max_power = max_power if max_power is not None else 2 * self.d + 4
        if self.max_power < 1:
            raise ValueError("max_power must be at least 1")

    @property
    def core(self) -> Ideal:
        """I_1 ∩ ... ∩ I_g, intersected on first use."""
        if self._core is None:
            self._core = intersect_all(self.ideals, self.pair_sums.get((0, 1)))
        return self._core


def check_hypotheses(inst: ProblemInstance) -> dict:
    """Named hypothesis checks with witnesses.

    Every check reads data the instance holds already, and none needs the
    core.  Component dimensions come from ``inst.heights`` and the pairwise
    sums from ``inst.pair_sums``, whose bases the intersection shares.
    ``dimension_of_quotient`` (dim S/(core + J)) is the largest
    dim S/(I_i + J), as V(core + J) is the union of the V(I_i + J), each
    read off the component's tangent cone ``tangent_cone(I_i, inst.J)``,
    cached on it.  ``components_cohen_macaulay`` reads two numbers off the
    same cones: S/I_i is Cohen-Macaulay iff the colength
    λ(S/(I_i + J)) = q_0 equals e_0(J, S/I_i) = Q_i(1) in dimension d
    (Matsumura, Commutative Ring Theory, Thm 17.11).  A component that J
    does not cut to finite length has neither (null in both witness
    lists) and is left to ``parameters_cut_to_finite_length``.
    ``dim_S_mod_J`` is ``krull_dimension`` of J.  For linear parameters
    J = (y_1, ..., y_k), whose basis is its generators; other parameters
    are read in a grevlex copy of the ring: dim S/J does not depend on the
    order, and a lex basis of three dense quadrics in 6 variables did not
    finish in 30 s.
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
    J = inst.J
    if inst.ring is inst.ctx:
        grevlex, include = inst.ring.adjoin((), "grevlex")
        J = Ideal(grevlex, [include(f) for f in J.generators])
    j_dim = krull_dimension(J)
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
