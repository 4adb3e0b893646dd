"""Two bounds of a generalized Cohen-Macaulay R = S/(I_1 ∩ ... ∩ I_g).

For d >= 2 and Cohen-Macaulay components of dimension d, the local
cohomology sequence of 0 -> R -> ⊕ S/I_i -> L -> 0 gives H^0_m(R) = 0,
H^1_m(R) ≅ L and H^j_m(R) = 0 for 2 <= j <= d - 1, so R is generalized
Cohen-Macaulay with Buchsbaum invariant (d - 1)·λ(L).  For K = JR:

    λ(R/K) - e_0 <= (d - 1)·λ(L)    and    e_1 >= -λ(L),

each with equality exactly when K is standard, which here is JL = 0, that
is nu <= 1 for nu = min{n : J^n L = 0}.  Every number is read off K's
series and λ(L) (``ProblemInstance.ring_series``) and nu off gr_J(L)
(``graded.gr_series``), on the shipped e1-e7 and on the dense
(2,2,2)/(2,2,2) row; equality holds on e1, e2 and e3 only.
"""

import pytest

from chernlab import ProblemInstance
from chernlab.cli import build_instance, load_problem
from chernlab.graded import gr_series
from chernlab.hilbert import samuel_polynomial
from conftest import PROBLEM_DIR
from test_rees_route import dense_d3_row


def dense_222():
    ctx, ideals, j = dense_d3_row((2, 2, 2), (2, 2, 2))
    return ProblemInstance(ctx, ideals, list(j.generators))


@pytest.mark.parametrize("name, sharp", [
    ("e1_two_planes", True), ("e2_two_3planes", True),
    ("e3_cm_baseline", True), ("e4_three_planes", False),
    ("e5_staircase", False), ("e6_short_window", False),
    ("e7_quadric_parameters", False), ("dense-222", False)])
def test_generalized_cohen_macaulay_bounds(name, sharp):
    inst = dense_222() if name == "dense-222" else build_instance(
        load_problem(str(PROBLEM_DIR / f"{name}.json")))
    assert inst.hypotheses["all_pass"] and inst.d >= 2
    series, length = inst.ring_series()
    e, _ = samuel_polynomial(series, inst.d)
    lam = length()
    nu = len(gr_series(inst.ideals, inst.J).numerator)
    colength = series.summed(1)
    assert colength - e[0] <= (inst.d - 1) * lam
    assert e[1] >= -lam
    assert (colength - e[0] == (inst.d - 1) * lam) == (nu <= 1) == sharp
    assert (e[1] == -lam) == sharp
