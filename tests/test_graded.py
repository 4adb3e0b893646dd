import random

import pytest

from chernlab import (ContextMismatchError, Ideal, NotFiniteLengthError,
                      Polynomial, ProblemInstance, annihilates,
                      diagonal_cokernel, gr_series, ideal_power, ideal_sum,
                      intersect_all, normal_form, power_colength,
                      quotient_hilbert_series, standard_monomials)
from chernlab.cli import build_instance, load_problem, main
from chernlab.linalg import rref_mod_p
from chernlab.verifier import run_verification
from conftest import PROBLEM_DIR
from helpers import transformed_planes
from test_rees_route import any_degree_instance, dense_d3_row


def I(ctx, *texts):
    return Ideal.from_strings(ctx, texts)


def test_single_component_gives_zero_module(ctx4):
    ideal = I(ctx4, "x", "y")
    model = diagonal_cokernel([ideal], ideal)
    assert model.length == 0
    assert model.top_degree is None
    assert annihilates(I(ctx4, "x + z", "y + w"), [ideal])
    assert power_colength([ideal], I(ctx4, "z", "w"), 3) == 0


def test_e1_cokernel(e1, ctx6):
    ctx, ideals, j = e1
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    assert model.length == 1
    assert model.top_degree == 0
    assert model.dims == (1,)
    assert annihilates(j, ideals)
    with pytest.raises(ContextMismatchError):
        annihilates(I(ctx6, "x1", "x2"), ideals)


def test_cokernel_of_ideals_from_two_rings(e1, ctx6):
    _, ideals, _ = e1
    with pytest.raises(ContextMismatchError):
        diagonal_cokernel([ideals[0], I(ctx6, "x1", "x2")],
                          intersect_all(ideals))


def test_e2_cokernel(e2):
    ctx, ideals, j = e2
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    assert model.length == 1
    assert annihilates(j, ideals)


@pytest.mark.parametrize("name", ["e3_cm_baseline", "e1_two_planes",
                                  "e4_three_planes",
                                  "e7_quadric_parameters"])
def test_gr_series_builds_no_intersection(monkeypatch, name):
    # g = 1, 2 and 3, and a quadric parameter: L is presented by the
    # components alone
    import chernlab.ideals as ideals_module

    inst = build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))
    monkeypatch.setattr(ideals_module, "ideal_intersect", None)
    series = gr_series(inst.ideals, inst.J)
    monkeypatch.undo()
    assert series.total() == diagonal_cokernel(inst.ideals,
                                               inst.core).length


def test_infinite_length_detected(ctx4):
    # L = S/(x, y, z) = k[w]: both routes refuse it, gr_series naming L
    ideals = [I(ctx4, "x", "y"), I(ctx4, "x", "z")]
    core = intersect_all(ideals)
    with pytest.raises(NotFiniteLengthError):
        diagonal_cokernel(ideals, core)
    with pytest.raises(NotFiniteLengthError, match="L has infinite length"):
        gr_series(ideals, I(ctx4, "y + z", "w"))


def test_e4_dimensions_against_rank_oracle(e4):
    """Independent route: per-degree cokernel dimension by explicit rank
    computation must match the Hilbert-series route used by the model."""
    ctx, ideals, j = e4
    core = intersect_all(ideals)
    model = diagonal_cokernel(ideals, core)
    gbs = [ideal.groebner() for ideal in ideals]
    top = model.top_degree
    core_std = standard_monomials(core.groebner(), top)
    comp_std = [standard_monomials(gb, top) for gb in gbs]
    p = ctx.characteristic
    for s in range(top + 1):
        coords = [(i, m) for i in range(len(ideals)) for m in comp_std[i][s]]
        index = {c: k for k, c in enumerate(coords)}
        rows = []
        for mono in core_std[s]:
            row = [0] * len(coords)
            f = Polynomial(ctx, {mono: 1})
            for i, gb in enumerate(gbs):
                for m, c in normal_form(f, gb).terms.items():
                    row[index[(i, m)]] = c
            rows.append(row)
        _, pivots = rref_mod_p(rows, p)
        assert len(pivots) == len(rows)          # diagonal map injective
        assert model.dims[s] == len(coords) - len(pivots)
    assert model.length == sum(model.dims)


def test_e4_length_engine_value(e4):
    # no hand value asserted upstream: freeze the doubly-checked engine value
    ctx, ideals, j = e4
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    assert model.length == 4
    assert model.dims == (2, 2)
    assert not annihilates(j, ideals)


@pytest.fixture
def staircase(ctx4):
    """I1 = (x, y^3), I2 = (z, w): the cokernel has dimension 1 in each of
    degrees 0, 1, 2 and multiplication by y walks up the chain."""
    return [I(ctx4, "x", "y^3"), I(ctx4, "z", "w")]


@pytest.fixture
def staircase_model(staircase):
    return diagonal_cokernel(staircase, intersect_all(staircase))


def test_staircase_dimensions(staircase_model):
    assert staircase_model.dims == (1, 1, 1)
    assert staircase_model.length == 3
    assert staircase_model.top_degree == 2


def test_annihilates_by_hand_linear_algebra(ctx4):
    # I1 = (x, y^2), I2 = (z, w): L = k[y]/(y^2) has dims (1, 1); x, z, w
    # and y^2 act as zero while y carries degree 0 onto degree 1.
    ideals = [I(ctx4, "x", "y^2"), I(ctx4, "z", "w")]
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    assert model.dims == (1, 1)
    assert annihilates(I(ctx4, "x + z", "y^2 + w^2"), ideals)
    assert not annihilates(I(ctx4, "x + w", "y + z"), ideals)
    # R/(y) has infinite length, but L/yL does not: gr_J(L) needs no more
    assert not annihilates(I(ctx4, "y"), ideals)


def test_dims_match_series(e4):
    ctx, ideals, _ = e4
    core = intersect_all(ideals)
    model = diagonal_cokernel(ideals, core)
    series = quotient_hilbert_series(ideals[0])
    for ideal in ideals[1:]:
        series = series + quotient_hilbert_series(ideal)
    series = series - quotient_hilbert_series(core)
    assert series.is_polynomial()
    assert tuple(series.numerator) == model.dims


def test_power_colength_basics(e1, ctx4):
    _, ideals, j = e1
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    assert power_colength(ideals, j, 0) == 0
    assert power_colength(ideals, j, 1) == 1      # J annihilates L
    assert power_colength(ideals, j, model.top_degree + 2) == model.length


def test_power_colength_monotone(staircase, staircase_model, ctx4):
    # (x + w, y + z) acts on L = k[y]/(y^3) as y, (x + w, y^2 + z^2) as y^2;
    # the values are read off one series, as each power_colength call
    # builds the basis of L's presentation again
    cases = [(("x + w", "y + z"), [0, 1, 2, 3, 3, 3]),
             (("x + w", "y^2 + z^2"), [0, 2, 3, 3, 3, 3])]
    for gens, expected in cases:
        j = I(ctx4, *gens)
        series = gr_series(staircase, j)
        values = [series.summed(n) for n in range(6)]
        assert values == expected
        assert power_colength(staircase, j, 1) == values[1]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == staircase_model.length


@pytest.mark.parametrize("a, b", [(30, 1), (6, 5), (2, 3), (1, 1)])
def test_power_colengths_one_walk(ctx4, a, b):
    # (x, y^a) ∩ (z^b, w): L = k[y, z]/(y^a, z^b), on which J = (x + w, y + z)
    # acts as y + z, so length(L) = ab and nu = min{n : J^n L = 0} = a + b - 1
    ideals = [I(ctx4, "x", f"y^{a}"), I(ctx4, f"z^{b}", "w")]
    model = diagonal_cokernel(ideals, intersect_all(ideals))
    j = I(ctx4, "x + w", "y + z")
    series = gr_series(ideals, j)
    colengths = [series.summed(n) for n in range(max(9, a + b))]
    nu = a + b - 1
    assert model.length == a * b
    assert model.top_degree == a + b - 2
    assert series.is_polynomial()
    assert len(series.numerator) == nu
    assert colengths.index(model.length) == nu
    assert colengths[nu:] == [a * b] * (len(colengths) - nu)
    assert all(u < v for u, v in zip(colengths[:nu], colengths[1:nu + 1]))
    assert [power_colength(ideals, j, n) for n in (0, 1, 8)] == \
        [colengths[0], colengths[1], colengths[8]]
    # verify reads annihilation off the series; annihilates is the same test
    assert annihilates(j, ideals) == (nu <= 1)


def test_power_colength_refuses_a_negative_power(e1):
    _, ideals, j = e1
    with pytest.raises(ValueError, match="nonnegative"):
        power_colength(ideals, j, -1)


def test_gr_series_refuses_a_wrong_cokernel_length(monkeypatch, capsys):
    # a cokernel whose length is off by one no longer matches the series of
    # gr_J(L): run_verification names both lengths, and verify exits 1
    import chernlab.graded as graded_module

    original = graded_module.diagonal_cokernel

    def off_by_one(ideals, core):
        model = original(ideals, core)
        return model._replace(length=model.length + 1)

    monkeypatch.setattr(graded_module, "diagonal_cokernel", off_by_one)
    path = str(PROBLEM_DIR / "e4_three_planes.json")
    with pytest.raises(ValueError, match="length 4, but L has length 5"):
        run_verification(build_instance(load_problem(path)), 4)
    assert main(["verify", path, "--json"]) == 1
    assert "length 4, but L has length 5" in capsys.readouterr().err


def _oracle_colength(ideals, j, n):
    """length(L / J^n L) by right exactness: tensoring R -> ⊕ S/I_i -> L -> 0
    with S/J^n gives sum_i length(S/(I_i + J^n)) - length(S/∩(I_i + J^n)).
    Each length is read off that ideal's own basis; ``quotient_length``
    would compute every basis again, four times slower here."""
    cut = [ideal_sum(ideal, ideal_power(j, n)) for ideal in ideals]
    return (sum(quotient_hilbert_series(c).total() for c in cut)
            - quotient_hilbert_series(intersect_all(cut)).total())


ORACLE_CASES = {
    "e1": (["x", "y"], ["z", "w"], ["x + z", "y + w"]),
    "e4": (["x", "y"], ["z", "w"], ["x + z", "y + w"], ["x + w", "y - z"]),
    "one_component": (["x", "y"], ["z", "w"]),
    "plane_and_double_plane": (["x", "y"], ["z^2", "w"], ["x + z", "y + w"]),
    "staircase_6_5": (["x", "y^6"], ["z^5", "w"], ["x + w", "y + z"]),
    "staircase_30_1": (["x", "y^30"], ["z", "w"], ["x + w", "y + z"]),
    "planes_quadric_J": (["x", "y"], ["z", "w"], ["x^2 + z^2", "y + w"]),
    "staircase_quadric_J": (["x", "y^3"], ["z^2", "w"],
                            ["x^2 + w^2", "y + z"]),
}


def _three_3planes():
    """Three pairwise transversal 3-planes in six variables with three
    linear parameters, in seeded dense coordinates."""
    names = [f"x{i}" for i in range(1, 7)]
    ctx, ideals, j = transformed_planes(
        random.Random("three-3-planes"), 32003, names,
        [names[:3], names[3:], [f"{a} + {b}" for a, b in
                                zip(names[:3], names[3:])]],
        ["x1 + x6", "x2 - x4", "x3 + x5"])
    return ProblemInstance(ctx, ideals, list(j.generators))


def _dense_d3(a, b):
    ctx, ideals, j = dense_d3_row(a, b)
    return ProblemInstance(ctx, ideals, list(j.generators))


# beyond ORACLE_CASES: λ(L) = 8 and nu = 4 for the (1,2,2)/(1,1,2) row;
# seed 0 of the mixed-degree instances has parameters of degrees 2 and 1
MORE_CASES = {
    "dense_122_112": lambda: _dense_d3((1, 2, 2), (1, 1, 2)),
    "three_3planes_dense": _three_3planes,
    "any_degree_0": lambda: any_degree_instance(0),
}


def _oracle_instance(ctx4, name):
    """The ORACLE_CASES or MORE_CASES instance of that name, or a shipped
    problem."""
    if name in ORACLE_CASES:
        *blocks, params = ORACLE_CASES[name]
        return ProblemInstance(ctx4, [I(ctx4, *b) for b in blocks],
                               list(I(ctx4, *params).generators))
    if name in MORE_CASES:
        return MORE_CASES[name]()
    return build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))


@pytest.mark.parametrize("name", [*ORACLE_CASES, "e2_two_3planes",
                                  *MORE_CASES])
def test_power_colengths_against_right_exactness(ctx4, name):
    # the series of gr_J(L) against the oracle at every n up to nu; at
    # n = 1 the oracle is a second route to the annihilation verdict
    inst = _oracle_instance(ctx4, name)
    model = diagonal_cokernel(inst.ideals, inst.core)
    series = gr_series(inst.ideals, inst.J)
    nu = len(series.numerator)
    assert [series.summed(n) for n in range(1, nu + 1)] == \
        [_oracle_colength(inst.ideals, inst.J, n) for n in range(1, nu + 1)]
    assert annihilates(inst.J, inst.ideals) == (
        _oracle_colength(inst.ideals, inst.J, 1) == model.length)


@pytest.mark.parametrize("name", [*ORACLE_CASES, "e2_two_3planes",
                                  *MORE_CASES])
def test_graded_cokernel_length_is_the_cokernel_length(ctx4, name):
    # the dimensions of gr_J(L), read off the presentation of L with no
    # core, add up to length(L) read off the core's degree-graded series;
    # nu is the length of the gr_J(L) series, and no earlier colength is
    # length(L)
    inst = _oracle_instance(ctx4, name)
    model = diagonal_cokernel(inst.ideals, inst.core)
    series = gr_series(inst.ideals, inst.J)
    nu = len(series.numerator)
    assert series.total() == series.summed(nu) == model.length
    assert all(series.summed(n) < model.length for n in range(nu))


def _length_instances(ctx4):
    """(instance, length(L)) on e1-e4, two dense 4-planes and the two
    staircases (x, y^a) ∩ (z^b, w) with ab = 30."""
    for name, lam in (("e1_two_planes", 1), ("e2_two_3planes", 1),
                      ("e3_cm_baseline", 0), ("e4_three_planes", 4)):
        path = str(PROBLEM_DIR / f"{name}.json")
        yield build_instance(load_problem(path)), lam
    names = [f"x{i}" for i in range(1, 9)]
    ctx, ideals, j = transformed_planes(
        random.Random(601), 32003, names, [names[:4], names[4:]],
        [f"{a} + {b}" for a, b in zip(names[:4], names[4:])])
    yield ProblemInstance(ctx, ideals, list(j.generators)), 1
    for a, b in ((30, 1), (6, 5)):
        yield ProblemInstance(ctx4, [I(ctx4, "x", f"y^{a}"),
                                     I(ctx4, f"z^{b}", "w")],
                              list(I(ctx4, "x + w", "y + z").generators)), 30


def test_cokernel_length_by_series_route(ctx4):
    # length(L) is sum_i HS(S/I_i) - HS(S/core), read off the bases the
    # instance already holds, against the hand values
    for inst, lam in _length_instances(ctx4):
        held = inst.ideals + [inst.core]
        assert all(ideal._gb is not None for ideal in held)
        series = quotient_hilbert_series(inst.ideals[0])
        for ideal in inst.ideals[1:]:
            series = series + quotient_hilbert_series(ideal)
        series = series - quotient_hilbert_series(inst.core)
        model = diagonal_cokernel(inst.ideals, inst.core)
        assert series.total() == model.length == lam
