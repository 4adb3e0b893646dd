"""End-to-end verification pipeline on an ``instance.ProblemInstance``:
Hilbert-Samuel data, the exact Hilbert coefficients, and the identity suite
(multiplicity additivity, the torsion Hilbert polynomial, coefficient
collapse under annihilation, the two Tor routes, and the Chern-number sign).

Each identity is decided on an exact Hilbert polynomial, read off a tangent
cone's series (``hilbert.samuel_polynomial``): K's, each component's, or
the one torsion series (``torsion_series``) whose partial sums are the
lengths of Tor_1(L, S/J^n).  L enters only through the Hilbert series of
gr_J(L) (``graded.gr_series``), which needs no core: nu is its length, and
its total, length(L), is checked against the core's second route
(``graded.diagonal_cokernel``).  No verdict depends on
the window 1..max_power, which the caller passes: it sets only how many
rows the printed tables have.  The printed torsion table sums the same
cones' values and that series' partial sums term by term
(``resolutions.tor1_via_lengths``).

Every check lands in a structured report fragment with witnesses; failures
are report entries, not exceptions.  The verifier does not gate on the
hypotheses: it records the instance's ``hypotheses`` in the report and runs
the pipeline, and the caller decides whether a failing hypothesis stops it
(the command line does, unless --force).  Big integer payloads are encoded as
decimal strings so the report serializes without range surprises.
``instance.check_hypotheses`` is re-exported here, where the benchmark's
tracer (``perfbench/traced_cli.py``) wraps it.
"""

from __future__ import annotations

from . import graded, resolutions
from .hilbert import (chern_sign, hilbert_samuel_values, multiplicity,
                      samuel_polynomial, tangent_cone)
from .ideals import HilbertSeries
from .instance import ProblemInstance, check_hypotheses

__all__ = [
    "ProblemInstance",
    "check_hypotheses",
    "e0_additivity_check",
    "torsion_series",
    "verify_torsion_polynomial",
    "verify_coefficient_collapse",
    "tor1_consistency_check",
    "negativity_check",
    "run_verification",
]


def e0_additivity_check(inst: ProblemInstance, e0: int) -> dict:
    """Multiplicity additivity over the components: e_0(K) equals the sum of
    the parameter multiplicities e_0(J, S/I_i).  Each is the e_0 of the
    Hilbert series of gr_J(S/I_i), read off the component's tangent cone
    along J (``hilbert.TangentCone.series``), in dimension d
    (``hilbert.multiplicity``): Q_i(1) when the pole order is d, and 0
    when it is below d."""
    component_e0 = [multiplicity(tangent_cone(ideal, inst.J).series(), inst.d)
                    for ideal in inst.ideals]
    total = sum(component_e0)
    return {
        "name": "e0_additivity",
        "status": "pass" if total == e0 else "fail",
        "witness": {
            "component_e0": [str(e) for e in component_e0],
            "sum": str(total),
            "e0": str(e0),
        },
    }


def torsion_series(inst: ProblemInstance, gr: HilbertSeries) -> HilbertSeries:
    """The series whose partial sums n -> sum_(m<n) [t^m] are the lengths
    of Tor_1(L, S/J^n), from the four-term exact sequence

        0 -> Tor_1(L, S/J^n) -> R/K^n -> ⊕ S/(I_i + J^n) -> L/J^n L -> 0:

    HS(gr_J R) - sum_i HS(gr_J S/I_i) + HS(gr_J L), read off the cached
    tangent cones and ``gr``, the series of ``graded.gr_series``.  The
    middle Tor of the components vanishes because the parameters form a
    regular sequence on each Cohen-Macaulay component.
    """
    series = gr + tangent_cone(inst.core, inst.J).series()
    for ideal in inst.ideals:
        series -= tangent_cone(ideal, inst.J).series()
    return series


def verify_torsion_polynomial(inst, e, module_len, torsion, nu) -> dict:
    """The torsion Hilbert polynomial identity: the Hilbert polynomial of
    length(Tor_1(L, S/J^n)) must equal the alternating tail of the Hilbert
    coefficients of K plus length(L):
    -e_1 C(n+d-2, d-1) + e_2 C(n+d-3, d-2) - ... + (-1)^d e_d + len(L),
    which in dimension d has the coefficients (0, e_1, ..., e_d) plus
    (-1)^d len(L) in the last place.

    ``torsion`` is the exact (coefficients, n0) of the ``torsion_series``
    (``hilbert.samuel_polynomial``), so the identity is decided for every n.
    ``torsion_fit`` is its (e_0..e_(d-1)): in dimension d its coefficients
    are 0 followed by minus these, for d >= 1, as L has finite length (e_0
    additivity).  ``nu`` = min{n : J^n L = 0} is reported alongside.
    """
    exact, n0 = torsion
    expected = [0, *e[1:]]
    expected[inst.d] += (-1) ** inst.d * module_len
    return {
        "name": "torsion_polynomial",
        "status": "pass" if exact == tuple(expected) else "fail",
        "witness": {
            "torsion_fit": [str(-c) for c in exact[1:]],
            "torsion_n0": n0,
            "nu": nu,
            "vacuous": inst.g == 1,
        },
    }


def verify_coefficient_collapse(inst, e, module_len,
                                annihilated: bool) -> dict:
    """Under annihilation of L by the parameters, the higher coefficients
    collapse: e_i = (-1)^i length(L) for 1 <= i <= d-1 and e_d = 0, so the
    Hilbert polynomial of K is the closed form

        H(n) = e_0 C(n+d-1, d) + len(L) * [C(n+d-2, d-1) + ... + C(n, 1)].
    """
    if inst.g < 2 or inst.d < 2 or not annihilated:
        reason = ("parameters do not annihilate the cokernel"
                  if inst.g >= 2 and inst.d >= 2 else
                  "needs at least two components and dimension >= 2")
        return {"name": "coefficient_collapse", "status": "not_applicable",
                "witness": {"reason": reason}}
    d = inst.d
    expected = [(-module_len if i % 2 else module_len)
                for i in range(1, d)]
    ok = list(e[1:d]) == expected and e[d] == 0
    return {
        "name": "coefficient_collapse",
        "status": "pass" if ok else "fail",
        "witness": {
            "fitted": [str(c) for c in e],
            "expected_tail": [str(c) for c in expected] + ["0"],
        },
    }


def tor1_consistency_check(inst, module_len, torsion,
                           annihilated: bool) -> dict:
    """The two Tor_1 routes agree: whenever the parameters annihilate the
    cokernel, length(Tor_1(L, S/J^n)) = C(n+d-1, d-1) * length(L) for every
    n >= 1, so the exact (coefficients, n0) of the ``torsion_series`` must
    be length(L) * (0, -1, 1, ..., (-1)^d) from n0 = 1."""
    if not annihilated:
        return {"name": "tor1_two_routes", "status": "not_applicable",
                "witness": {"reason": "parameters do not annihilate the cokernel"}}
    exact, n0 = torsion
    expected = (0, *((-1) ** i * module_len for i in range(1, inst.d + 1)))
    return {
        "name": "tor1_two_routes",
        "status": "pass" if (exact, n0) == (expected, 1) else "fail",
        "witness": {
            "torsion_e": [str(c) for c in exact],
            "torsion_n0": n0,
            "expected_e": [str(c) for c in expected],
        },
    }


def negativity_check(inst, e, colength) -> dict:
    """Chern-number verdict: with two or more components the ring is not
    Cohen-Macaulay and e_1 must be negative; a single component is the
    Cohen-Macaulay baseline and must show e_1 = 0 with e_0 = length(R/K),
    the ``colength``."""
    e1 = e[1] if len(e) > 1 else 0
    is_cm = e[0] == colength
    sign = chern_sign(e1)
    if inst.g >= 2:
        if inst.d < 2:
            return {"name": "negativity", "status": "not_applicable",
                    "witness": {"reason": "dimension below 2"}}
        ok = sign == "negative"
        expected = "negative"
    else:
        ok = sign == "zero" and is_cm
        expected = "zero"
    return {
        "name": "negativity",
        "status": "pass" if ok else "fail",
        "witness": {
            "e1": str(e1),
            "expected_sign": expected,
            "actual_sign": sign,
            "cm_cross_check": {
                "is_cm": is_cm,
                "e0": str(e[0]),
                "colength": str(colength),
            },
        },
    }


def run_verification(inst: ProblemInstance, max_power: int) -> dict:
    """Full pipeline; returns the JSON-ready report, with the printed
    H(K, n) and torsion tables for n = 1..max_power.

    The instance's ``hypotheses`` (checked once, on its first read) are
    recorded, not gated on, so an instance whose parameters do not cut the
    core to finite length, or whose L has infinite length, raises
    ``NotFiniteLengthError``.

    The Hilbert polynomial of K, its (e_0..e_d) and n0, and the printed
    H(K, n), are read off the series of the core's tangent cone along J
    (``hilbert.samuel_polynomial``), whatever the window.  Every
    length(L/J^n L), nu and whether J annihilates L are read off one
    Hilbert series of gr_J(L) (``graded.gr_series``), from the tangent cone
    of one Groebner basis of the presentation of L, which needs no core.
    Its total must equal length(L) off ``graded.diagonal_cokernel``, which
    reads the core's series, else ValueError is raised.  The
    torsion lengths are the partial sums of one ``torsion_series``, built
    from the same cones and that series, and every identity is decided on its
    exact polynomial or on e alone, for every n: the window max_power
    shapes only the printed H(K, n) and torsion tables.  The torsion table
    is the four-term sum of the cones' values (``tor1_via_lengths``), which
    equals the series' partial sums term by term.  The overall status
    is "fail" when an identity fails, else "pass".
    """
    report = {
        "characteristic": inst.ctx.characteristic,
        "variables": list(inst.ctx.variables),
        "monomial_order": inst.ctx.order,
        "g": inst.g,
        "r": inst.r,
        "d": inst.d,
        "heights": inst.heights,
        "max_power": max_power,
    }
    report["hypotheses"] = inst.hypotheses

    gr = graded.gr_series(inst.ideals, inst.J)
    module_len, nu = gr.total(), len(gr.numerator)
    model = graded.diagonal_cokernel(inst.ideals, inst.core)
    if model.length != module_len:
        raise ValueError(f"gr_J(L) has length {module_len}, "
                         f"but L has length {model.length}")
    core_series = tangent_cone(inst.core, inst.J).series()
    values = {n: core_series.summed(n) for n in range(1, max_power + 1)}
    e, n0 = samuel_polynomial(core_series, inst.d)
    annihilated = nu <= 1
    report["lambda_L"] = str(module_len)
    report["top_degree"] = model.top_degree
    report["annihilates"] = annihilated

    report["hilbert"] = {
        "values": [{"n": n, "length": str(values[n])} for n in sorted(values)],
        "e": [str(c) for c in e],
        "n0": n0,
    }

    colength = core_series.summed(1)
    report["cm"] = {
        "is_cm": e[0] == colength,
        "e0": str(e[0]),
        "colength": str(colength),
        "colength_at_least_e0": colength >= e[0],
    }
    report["chern_sign"] = chern_sign(e[1] if len(e) > 1 else 0)

    torsion = samuel_polynomial(torsion_series(inst, gr), inst.d)
    component_values = [hilbert_samuel_values(ideal, inst.J, max_power)
                        for ideal in inst.ideals]
    report["torsion_hilbert"] = {
        "values": [{"n": n, "length": str(resolutions.tor1_via_lengths(
            values, component_values, gr.summed(n), n))}
                   for n in range(1, max_power + 1)],
    }

    identities = [
        e0_additivity_check(inst, e[0]),
        verify_torsion_polynomial(inst, e, module_len, torsion, nu),
        verify_coefficient_collapse(inst, e, module_len, annihilated),
        tor1_consistency_check(inst, module_len, torsion, annihilated),
        negativity_check(inst, e, colength),
    ]
    report["identities"] = identities
    statuses = {i["status"] for i in identities}
    report["overall"] = "fail" if "fail" in statuses else "pass"
    return report
