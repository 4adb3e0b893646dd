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
from .hilbert import parameter_coordinates, tangent_cone
from .ideals import Ideal, ideal_sum, intersect_all, krull_dimension

__all__ = ["ProblemInstance", "check_hypotheses"]


class ProblemInstance:
    """A quotient ring presented by component ideals plus parameter elements.

    Derived data (pairwise sums, intersection, dimension, heights) is
    computed eagerly and once: consumers take ``core`` instead of
    intersecting the ideals again.

    Two rings.  ``ctx`` is the problem's ring, and ``parameters`` are the
    given elements in it.  ``ring`` is the ring every derived ideal lives
    in: ``ideals`` (the components), ``J``, ``pair_sums``, ``core``, and so
    the cokernel L read from them; its idealization ring extends ``ring``.
    For linear parameters ``ring`` is the ring of
    ``hilbert.parameter_coordinates``: the components are mapped there
    once, J = (y_1, ..., y_k), and the order is ("ydeg", k, base), so each
    ideal's one reduced basis is also its tangent cone's, and
    ``hilbert.tangent_cone`` caches the cone on the ideal, so the hypothesis
    checks and the H(K, n) table share the core's.
    Otherwise ``ring`` is ``ctx``, the change is the identity, J is
    generated by the parameters, and each tangent cone is that of J's graph.
    Lengths, dimensions and series do not depend on the coordinates.

    ``pair_sums`` maps (i, j), i < j, to I_i + I_j; the first intersection
    takes the sum of the first two components from it, so one basis of that
    sum serves both its target series and the pairwise hypothesis.  The
    default window size for Hilbert-Samuel sampling is 2d + 4.
    """

    __slots__ = ("ctx", "ring", "ideals", "parameters", "J", "pair_sums",
                 "core", "g", "r", "d", "heights", "max_power")

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
        self.core = intersect_all(ideals, self.pair_sums.get((0, 1)))
        self.g = len(ideals)
        self.r = ctx.nvars
        self.d = krull_dimension(self.core)
        self.heights = [self.r - krull_dimension(ideal) for ideal in ideals]
        self.max_power = max_power if max_power is not None else 2 * self.d + 4
        if self.max_power < 1:
            raise ValueError("max_power must be at least 1")


def check_hypotheses(inst: ProblemInstance) -> dict:
    """Named hypothesis checks with witnesses.

    Every check reads data the instance holds already.  Component
    dimensions come from ``inst.heights`` and the pairwise sums from
    ``inst.pair_sums``, whose bases the intersection shares.
    ``dimension_of_quotient`` (dim S/(core + J)) is read off the core's
    tangent cone ``tangent_cone(inst.core, inst.J)``, cached on the core for
    the H(K, n) table.  ``dim_S_mod_J`` is ``krull_dimension`` of J on both
    parameter routes; for linear parameters J = (y_1, ..., y_k), whose
    basis is its generators.  ``generators_homogeneous`` always passes:
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

    sop_dim = tangent_cone(inst.core, inst.J).dimension_mod_parameters()
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

    return {
        "all_pass": all(c["passed"] for c in checks),
        "checks": checks,
        "theorem_mode": inst.d >= 2 and inst.g >= 2,
    }
