"""End-to-end verification pipeline: hypothesis checking, Hilbert-Samuel
data collection, coefficient fitting, and the identity suite (multiplicity
additivity, the torsion Hilbert polynomial, coefficient collapse under
annihilation, the two Tor routes, and the Chern-number sign).

Every check lands in a structured report fragment with witnesses; failures
are report entries, not exceptions.  Big integer payloads are encoded as
decimal strings so the report serializes without range surprises.
"""

from __future__ import annotations

from itertools import combinations

from .core import Polynomial, binomial
from .graded import diagonal_cokernel, power_colengths
from .hilbert import (HilbertDataset, chern_sign, cm_test, fit_coefficients,
                      hilbert_polynomial_value, hilbert_samuel_values,
                      parameter_coordinates, tangent_cone)
from .ideals import Ideal, ideal_sum, intersect_all, krull_dimension
from .resolutions import tor1_closed_form, tor1_via_lengths

__all__ = [
    "ProblemInstance",
    "check_hypotheses",
    "e0_additivity_check",
    "verify_torsion_polynomial",
    "verify_coefficient_collapse",
    "tor1_consistency_check",
    "negativity_check",
    "run_verification",
]


class ProblemInstance:
    """A quotient ring presented by component ideals plus parameter elements.

    Derived data (pairwise sums, intersection, dimension, heights, the
    core's tangent cone) is computed eagerly and once: consumers take
    ``core`` instead of intersecting the ideals again.

    Two rings.  ``ctx`` is the problem's ring, and ``parameters`` are the
    given elements in it.  ``ring`` is the ring every derived ideal lives
    in: ``ideals`` (the components), ``J``, ``pair_sums``, ``core``, and so
    the cokernel model built from them.  For linear parameters ``ring`` is
    the ring of ``hilbert.parameter_coordinates``: the components are
    mapped there once, J = (y_1, ..., y_k), and the order is ("ydeg", k,
    base), so each ideal's one reduced basis is also its tangent cone's.
    Otherwise ``ring`` is ``ctx``, the change is the identity and J is
    generated by the parameters.  Lengths, dimensions and series do not
    depend on the coordinates.

    ``pair_sums`` maps (i, j), i < j, to I_i + I_j; the first intersection
    takes the sum of the first two components from it, so one basis of that
    sum serves both its target series and the pairwise hypothesis.
    ``cone`` is the core's ``TangentCone``, read off the core's basis (None
    when some parameter is not linear), shared by ``check_hypotheses`` and
    the H(K, n) table.  The default window size for Hilbert-Samuel sampling
    is 2d + 4.
    """

    __slots__ = ("ctx", "ring", "ideals", "parameters", "J", "pair_sums",
                 "core", "cone", "g", "r", "d", "heights", "max_power")

    def __init__(self, ctx, ideals, parameters, max_power=None):
        ideals = list(ideals)
        parameters = list(parameters)
        if not ideals:
            raise ValueError("need at least one component ideal")
        if not parameters:
            raise ValueError("need at least one parameter element")
        for f in parameters:
            if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
                raise ValueError(
                    "parameters must be nonzero homogeneous of degree >= 1")
        coordinates = parameter_coordinates(ctx, parameters)
        if coordinates is None:
            ring, J = ctx, Ideal(ctx, parameters)
        else:
            ring, k, images = coordinates
            if images is not None:
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
        self.cone = tangent_cone(self.core, self.J)
        self.g = len(ideals)
        self.r = ctx.nvars
        self.d = krull_dimension(self.core)
        self.heights = [self.r - krull_dimension(ideal) for ideal in ideals]
        self.max_power = max_power if max_power is not None else 2 * self.d + 4
        if self.max_power < 1:
            raise ValueError("max_power must be at least 1")


def _s(value: int) -> str:
    return str(value)


def check_hypotheses(inst: ProblemInstance) -> dict:
    """Named hypothesis checks with witnesses.

    Every check reads data the instance holds already.  Component
    dimensions come from ``inst.heights`` and the pairwise sums from
    ``inst.pair_sums``, whose bases the intersection shares.  For linear
    parameters ``dimension_of_quotient`` (dim S/(core + J)) is read off the
    core's tangent cone ``inst.cone``, which the H(K, n) table uses too,
    and ``dim_S_mod_J`` is r minus the rank of the parameters.  Other
    parameters take ``krull_dimension`` of core + J and of J.

    The theorem-mode flag (d >= 2 with at least two components) is recorded
    but does not count toward pass/fail: a single Cohen-Macaulay component is
    a legitimate baseline instance.
    """
    checks = []

    homogeneous = all(g.is_homogeneous() for ideal in inst.ideals
                      for g in ideal.generators)
    checks.append({
        "name": "generators_homogeneous",
        "passed": homogeneous,
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

    if inst.cone is not None:
        sop_dim = inst.cone.dimension_mod_parameters()
        j_dim = inst.r - inst.cone.k
    else:
        sop_dim = krull_dimension(ideal_sum(inst.core, inst.J))
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


def e0_additivity_check(inst: ProblemInstance, fitted_e0: int,
                        component_values) -> dict:
    """Multiplicity additivity over the components: e_0(K) equals the sum of
    the parameter multiplicities on each S/I_i.  Components are trusted
    Cohen-Macaulay, so their Hilbert-Samuel values stabilize immediately and
    a window of d + 2 values suffices.

    ``component_values`` carries each component's table {n: length}
    covering that window (run_verification shares them with the torsion
    route)."""
    window = inst.d + 2
    component_e0 = []
    for table in component_values:
        values = {n: table[n] for n in range(1, window + 1)}
        coefficients, _ = fit_coefficients(values, inst.d)
        component_e0.append(coefficients[0])
    total = sum(component_e0)
    return {
        "name": "e0_additivity",
        "status": "pass" if total == fitted_e0 else "fail",
        "witness": {
            "component_e0": [_s(e) for e in component_e0],
            "sum": _s(total),
            "e0": _s(fitted_e0),
        },
    }


def verify_torsion_polynomial(inst, coefficients, n0_k, module_len,
                              torsion_values, nu) -> dict:
    """The torsion Hilbert polynomial identity: the fitted polynomial of
    H_J(L, n) = length(J^n ⊗ L) must equal the alternating tail of the
    Hilbert coefficients of K plus length(L), pointwise on the stable range:
    -e_1 C(n+d-2, d-1) + e_2 C(n+d-3, d-2) - ... + (-1)^d e_d + len(L).

    The identity holds for n >= nu = min{n : J^n L = 0}: tensoring
    0 -> R -> ⊕ S/I_i -> L -> 0 with S/J^n leaves length(L/J^n L), which
    reaches length(L) at nu.  So the comparison starts at
    max(n0_K, n0_J, nu).  When nu exceeds the window the sampled torsion
    values are all pre-stable: nothing is fitted or compared, the status is
    "inconclusive" and ``compared_from`` is nu.
    """
    d = inst.d
    inconclusive = nu > inst.max_power
    if inconclusive:
        fit, n0_j, start = (), None, nu
    else:
        fit, n0_j = (fit_coefficients(torsion_values, d - 1) if d >= 1
                     else ((), 1))
        start = max(n0_k, n0_j, nu)
    mismatches = []
    for n in range(start, inst.max_power + 1):
        rhs = (hilbert_polynomial_value(coefficients, n)
               - coefficients[0] * binomial(n + d - 1, d) + module_len)
        if torsion_values[n] != rhs:
            mismatches.append({"n": n, "lhs": _s(torsion_values[n]),
                               "rhs": _s(rhs)})
    status = ("inconclusive" if inconclusive else
              "fail" if mismatches else "pass")
    return {
        "name": "torsion_polynomial",
        "status": status,
        "witness": {
            "torsion_fit": [_s(c) for c in fit],
            "torsion_n0": n0_j,
            "compared_from": start,
            "compared_to": inst.max_power,
            "mismatches": mismatches,
            "vacuous": inst.g == 1,
        },
    }


def verify_coefficient_collapse(inst, dataset: HilbertDataset, module_len,
                                annihilated: bool) -> dict:
    """Under annihilation of L by the parameters, the higher coefficients
    collapse: e_i = (-1)^i length(L) for 1 <= i <= d-1 and e_d = 0, and the
    closed form

        H(n) = e_0 C(n+d-1, d) + len(L) * [C(n+d-2, d-1) + ... + C(n, 1)]

    reproduces every recorded value from the stabilization index on."""
    if inst.g < 2 or inst.d < 2 or not annihilated:
        reason = ("parameters do not annihilate the cokernel"
                  if inst.g >= 2 and inst.d >= 2 else
                  "needs at least two components and dimension >= 2")
        return {"name": "coefficient_collapse", "status": "not_applicable",
                "witness": {"reason": reason}}
    e = dataset.coefficients
    d = inst.d
    expected = [(-module_len if i % 2 else module_len)
                for i in range(1, d)]
    coefficient_ok = list(e[1:d]) == expected and e[d] == 0
    mismatches = []
    for n in sorted(dataset.values):
        if n < dataset.n0:
            continue
        closed = e[0] * binomial(n + d - 1, d)
        closed += module_len * sum(binomial(n + k - 1, k)
                                   for k in range(1, d))
        if dataset.values[n] != closed:
            mismatches.append({"n": n, "h": _s(dataset.values[n]),
                               "closed_form": _s(closed)})
    ok = coefficient_ok and not mismatches
    return {
        "name": "coefficient_collapse",
        "status": "pass" if ok else "fail",
        "witness": {
            "fitted": [_s(c) for c in e],
            "expected_tail": [_s(c) for c in expected] + ["0"],
            "closed_form_mismatches": mismatches,
        },
    }


def tor1_consistency_check(inst, module_len, torsion_values,
                           annihilated: bool) -> dict:
    """The two Tor_1 routes agree for every sampled power: the alternating
    length sum equals C(n+d-1, d-1) * length(L) whenever the parameters
    annihilate the cokernel."""
    if not annihilated:
        return {"name": "tor1_two_routes", "status": "not_applicable",
                "witness": {"reason": "parameters do not annihilate the cokernel"}}
    rows = []
    ok = True
    for n in range(1, inst.max_power + 1):
        closed = tor1_closed_form(n, inst.d, module_len)
        agree = torsion_values[n] == closed
        ok = ok and agree
        rows.append({"n": n, "lengths_route": _s(torsion_values[n]),
                     "closed_form": _s(closed)})
    return {
        "name": "tor1_two_routes",
        "status": "pass" if ok else "fail",
        "witness": {"per_n": rows},
    }


def negativity_check(inst, coefficients, cm) -> dict:
    """Chern-number verdict: with two or more components the ring is not
    Cohen-Macaulay and e_1 must be negative; a single component is the
    Cohen-Macaulay baseline and must show e_1 = 0 with e_0 = length(R/K)."""
    e1 = coefficients[1] if len(coefficients) > 1 else 0
    sign = chern_sign(e1)
    if inst.g >= 2:
        if inst.d < 2:
            return {"name": "negativity", "status": "not_applicable",
                    "witness": {"reason": "dimension below 2"}}
        ok = sign == "negative"
        expected = "negative"
    else:
        ok = sign == "zero" and cm.is_cm
        expected = "zero"
    return {
        "name": "negativity",
        "status": "pass" if ok else "fail",
        "witness": {
            "e1": _s(e1),
            "expected_sign": expected,
            "actual_sign": sign,
            "cm_cross_check": {
                "is_cm": cm.is_cm,
                "e0": _s(cm.e0),
                "colength": _s(cm.colength),
            },
        },
    }


def run_verification(inst: ProblemInstance, force: bool = False,
                     hypotheses=None) -> dict:
    """Full pipeline; returns the JSON-ready report.

    When hypotheses fail and force is not set, the report carries only the
    hypothesis fragment with overall status "hypothesis_failure".
    ``hypotheses`` may carry the fragment of an earlier
    check_hypotheses(inst) (the CLI has it before it gets here).

    Each length table, of the core and of every component, is computed once
    and shared by the fit, the torsion route and e_0 additivity; every
    length(L/J^n L), nu and whether J annihilates L come from one
    ``power_colengths`` walk.  The
    overall status is "fail" when an identity fails, else "inconclusive"
    when one is (the window ends before nu), else "pass".
    """
    report = {
        "characteristic": inst.ctx.characteristic,
        "variables": list(inst.ctx.variables),
        "monomial_order": inst.ctx.order,
        "g": inst.g,
        "r": inst.r,
        "d": inst.d,
        "heights": inst.heights,
        "max_power": inst.max_power,
    }
    if hypotheses is None:
        hypotheses = check_hypotheses(inst)
    report["hypotheses"] = hypotheses
    if not hypotheses["all_pass"] and not force:
        report["overall"] = "hypothesis_failure"
        return report

    model = diagonal_cokernel(inst.ideals, inst.core)
    module_len = model.length
    colengths = power_colengths(model, inst.J, inst.max_power)
    # J L = 0 exactly when length(L / J L) = length(L)
    annihilated = colengths[1] == module_len
    report["lambda_L"] = _s(module_len)
    report["top_degree"] = model.top_degree
    report["annihilates"] = annihilated

    values = hilbert_samuel_values(inst.core, inst.J, inst.max_power)
    dataset = HilbertDataset.fit(values, inst.d)
    report["hilbert"] = {
        "values": [{"n": n, "length": _s(values[n])} for n in sorted(values)],
        "e": [_s(c) for c in dataset.coefficients],
        "n0": dataset.n0,
    }

    cm = cm_test(dataset.coefficients[0], values[1])
    report["cm"] = {
        "is_cm": cm.is_cm,
        "e0": _s(cm.e0),
        "colength": _s(cm.colength),
        "colength_at_least_e0": cm.colength >= cm.e0,
    }
    e1 = dataset.coefficients[1] if len(dataset.coefficients) > 1 else 0
    report["chern_sign"] = chern_sign(e1)

    component_values = [
        hilbert_samuel_values(ideal, inst.J, max(inst.max_power, inst.d + 2))
        for ideal in inst.ideals]
    torsion_values = {n: tor1_via_lengths(values, component_values,
                                          colengths, n)
                      for n in range(1, inst.max_power + 1)}
    report["torsion_hilbert"] = {
        "values": [{"n": n, "length": _s(torsion_values[n])}
                   for n in sorted(torsion_values)],
    }

    identities = [
        e0_additivity_check(inst, dataset.coefficients[0], component_values),
        verify_torsion_polynomial(inst, dataset.coefficients, dataset.n0,
                                  module_len, torsion_values,
                                  colengths.index(module_len)),
        verify_coefficient_collapse(inst, dataset, module_len, annihilated),
        tor1_consistency_check(inst, module_len, torsion_values, annihilated),
        negativity_check(inst, dataset.coefficients, cm),
    ]
    report["identities"] = identities
    statuses = {i["status"] for i in identities}
    report["overall"] = ("fail" if "fail" in statuses else
                         "inconclusive" if "inconclusive" in statuses else
                         "pass")
    return report
