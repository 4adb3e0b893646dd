"""Differential tests of the associated-graded route: hilbert_samuel_values
(one Groebner basis in a ("ydeg", k, base) order for all n, of the ideal or
of the parameters' graph) against the per-n hilbert_samuel oracle, which
computes a fresh colength for each n."""

import random

import pytest

import chernlab.hilbert as hilbert_module
from chernlab import (Ideal, NotFiniteLengthError, ProblemInstance,
                      RingContext, binomial, check_hypotheses, hilbert_samuel,
                      hilbert_samuel_values, ideal_intersect, ideal_sum,
                      intersect_all, krull_dimension, tangent_cone)
from chernlab.cli import build_instance, load_problem
from conftest import PROBLEM_DIR
from helpers import (PRIME_POOL, e1_family, e2_family, e3_family,
                     transformed_planes)


def per_n(ideal, parameters, max_power):
    return {n: hilbert_samuel(ideal, parameters, n)
            for n in range(1, max_power + 1)}


def assert_routes_agree(ideals, parameters, max_power):
    core = intersect_all(ideals)
    for ideal in [core] + list(ideals):
        assert hilbert_samuel_values(ideal, parameters, max_power) == \
            per_n(ideal, parameters, max_power)


@pytest.mark.parametrize("name", ["e1_two_planes", "e2_two_3planes",
                                  "e3_cm_baseline", "e4_three_planes"])
def test_shipped_problems(name):
    inst = build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))
    window = inst.max_power if inst.d < 3 else 7
    assert_routes_agree(inst.ideals, inst.J, window)


def test_coordinate_changes_and_primes():
    rng = random.Random(211)
    for family, window in ((e1_family, 6), (e2_family, 4), (e3_family, 6)):
        for _ in range(2):
            p = rng.choice(PRIME_POOL)
            _, ideals, j = family(rng, p)
            assert_routes_agree(ideals, j, window)


def test_small_prime_and_lex_base():
    rng = random.Random(223)
    ctx, ideals, j = e1_family(rng, 7)
    assert_routes_agree(ideals, j, 5)
    lex = RingContext(["x", "y", "z", "w"], order="lex")
    ideals = [Ideal.from_strings(lex, ["x", "y"]),
              Ideal.from_strings(lex, ["z", "w"])]
    assert_routes_agree(ideals, Ideal.from_strings(lex, ["x + z", "y + w"]),
                        5)


def test_dependent_linear_parameters(e1):
    ctx, ideals, _ = e1
    for texts in (["x + z", "y + w", "2*x + 3*y + 2*z + 3*w"],
                  ["x + z", "x + z", "y + w"]):
        j = Ideal.from_strings(ctx, texts)
        assert_routes_agree(ideals, j, 5)
        # the parameter ideal is the same, so H(K, n) = 2 C(n+1, 2) + n
        core = ideal_intersect(*ideals)
        assert hilbert_samuel_values(core, j, 5) == \
            {n: 2 * binomial(n + 1, 2) + n for n in range(1, 6)}


def test_parameter_in_special_position():
    # x + y is nilpotent on R = S/((x+y)^2) and x - y is a parameter, so a
    # coordinate change that confused the two would not reach finite length
    ctx = RingContext(["x", "y"])
    ideal = Ideal.from_strings(ctx, ["(x + y)^2"])
    j = Ideal.from_strings(ctx, ["x - y"])
    assert hilbert_samuel_values(ideal, j, 6) == per_n(ideal, j, 6) == \
        {n: 2 * n for n in range(1, 7)}


def test_two_4_planes_d4():
    rng = random.Random(227)
    names = [f"x{i}" for i in range(1, 9)]
    _, ideals, j = transformed_planes(
        rng, 32003, names, [names[:4], names[4:]],
        [f"{a} + {b}" for a, b in zip(names[:4], names[4:])])
    assert_routes_agree(ideals, j, 3)


def test_quadratic_parameter_takes_graph(ctx4, monkeypatch):
    # a quadratic parameter is a linear one, u1, of its graph in
    # F[u1, u2, x, y, z, w] with deg u1 = 2: one basis there serves every n
    core = Ideal.from_strings(ctx4, ["x", "y"])
    j = Ideal.from_strings(ctx4, ["z^2", "w"])
    expected = per_n(core, j, 4)
    # (z^2, w) is a parameter ideal of multiplicity 2 in F[z, w]
    assert expected == {n: 2 * binomial(n + 1, 2) for n in range(1, 5)}
    runs = []
    original = hilbert_module.buchberger

    def counting(gens, ctx=None, series=None):
        runs.append((ctx, series))
        return original(gens, ctx, series)

    monkeypatch.setattr(hilbert_module, "buchberger", counting)
    monkeypatch.setattr(hilbert_module, "hilbert_samuel", None)
    values = hilbert_samuel_values(core, j, 40)
    assert values == {n: 2 * binomial(n + 1, 2) for n in range(1, 41)}
    assert {n: values[n] for n in range(1, 5)} == expected
    cone = tangent_cone(core, j)
    assert hilbert_samuel_values(core, j, 7) == {n: values[n]
                                                 for n in range(1, 8)}
    assert len(runs) == 1
    ctx, series = runs[0]
    assert ctx is cone.ctx and series is None
    assert ctx.variables == ("u1", "u2", "x", "y", "z", "w")
    assert ctx.order == ("ydeg", 2, "grevlex", (2, 1, 1, 1, 1, 1))
    assert cone.dimension_mod_parameters() == \
        krull_dimension(ideal_sum(core, j)) == 0


def test_linear_parameters_in_other_coordinates_take_graph(e1):
    # linear parameters that are not the ring's first variables get a
    # graph with unit weights, whose basis run targets HS(S/ideal)
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    cone = tangent_cone(core, j)
    assert cone.ctx.order == ("ydeg", 2, "grevlex")
    assert cone.ctx.variables == ("u1", "u2") + ctx.variables


def test_degree_zero_parameter_raises(ctx4):
    # a constant would give its u weight 0, and the order would not be
    # global
    core = Ideal.from_strings(ctx4, ["x", "y"])
    with pytest.raises(ValueError, match="^parameters_homogeneous: "
                       "parameter 3 must be nonzero homogeneous of "
                       "degree >= 1$"):
        hilbert_samuel_values(core, Ideal.from_strings(ctx4, ["3", "y + w"]),
                              4)
    for weights in ((0, 1, 1), (1, 1, -1), (1, 1)):
        with pytest.raises(ValueError, match="ydeg weights"):
            RingContext(["u", "x", "y"], order=("ydeg", 1, "grevlex",
                                                weights))


@pytest.mark.parametrize("d, a", [(2, (2, 1)), (2, (3, 2)), (3, (2, 1, 1)),
                                  (3, (2, 2, 1))])
def test_transversal_planes_closed_form(d, a, monkeypatch):
    # two transversal d-planes with J = (x_i^a_i + x_(d+i)^a_i): with
    # A = prod a_i, H(n) = 2A C(n+d-1, d) - 1 + C(n+d-1, d-1), from
    # 0 -> R -> S/I_1 ⊕ S/I_2 -> k -> 0, e_0(J, S/I_i) = A by Bezout, and
    # Tor_1(k, S/J^n) of length C(n+d-1, d-1), the number of generators
    # of the complete intersection's power J^n
    names = [f"x{i}" for i in range(1, 2 * d + 1)]
    ctx = RingContext(names)
    core = intersect_all([Ideal.from_strings(ctx, names[:d]),
                          Ideal.from_strings(ctx, names[d:])])
    j = Ideal.from_strings(ctx, [f"{names[i]}^{e} + {names[d + i]}^{e}"
                                 for i, e in enumerate(a)])
    runs = []
    original = hilbert_module.buchberger

    def counting(*args):
        runs.append(1)
        return original(*args)

    monkeypatch.setattr(hilbert_module, "buchberger", counting)
    A = 1
    for e in a:
        A *= e
    values = hilbert_samuel_values(core, j, 60)
    assert values == {n: 2 * A * binomial(n + d - 1, d) - 1
                      + binomial(n + d - 1, d - 1) for n in range(1, 61)}
    assert len(runs) == 1
    monkeypatch.undo()
    assert per_n(core, j, 4) == {n: values[n] for n in range(1, 5)}


def test_positive_dimensional_quotient_raises(e1):
    ctx, ideals, _ = e1
    core = ideal_intersect(*ideals)
    j = Ideal.from_strings(ctx, ["x", "y"])   # vanishes on the z-w plane
    with pytest.raises(NotFiniteLengthError):
        hilbert_samuel_values(core, j, 400)


def instance_cases(rng, p, order):
    """(label, ctx, ideals, parameters, window): g = 1, 2, 3 plane
    configurations under a random invertible change, dependent parameters,
    k = r, and a quadratic parameter."""
    xyzw = ["x", "y", "z", "w"]
    two = [["x", "y"], ["z", "w"]]
    six = [f"x{i}" for i in range(1, 7)]
    cases = [
        ("g=1", xyzw, [["x", "y"]], ["z", "w"], 5),
        ("g=2", xyzw, two, ["x + z", "y + w"], 5),
        ("g=2, d=3", six, [six[:3], six[3:]],
         [f"{a} + {b}" for a, b in zip(six[:3], six[3:])], 3),
        ("g=3", xyzw, two + [["x + z", "y + w"]], ["x + w", "y - z"], 4),
        ("dependent", xyzw, two, ["x + z", "y + w", "2*x + 3*y + 2*z + 3*w"],
         4),
        ("k = r", xyzw, two, ["x + z", "y + w", "z", "w"], 4),
        ("quadratic", xyzw, two, ["x^2 + z^2", "y + w"], 4),
    ]
    for label, names, blocks, parameters, window in cases:
        ctx, ideals, j = transformed_planes(rng, p, names, blocks, parameters,
                                            order)
        yield label, ctx, ideals, list(j.generators), window


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_instance_tables_match_original_ring(order):
    # the instance lives in the parameters' coordinates; its tables, d,
    # heights and hypothesis witnesses must equal those computed from fresh
    # ideals in the problem's own ring, by the per-n oracle and Krull
    # dimensions there
    rng = random.Random(f"cross:{order}")
    for label, ctx, ideals, parameters, window in instance_cases(
            rng, 10007, order):
        inst = ProblemInstance(ctx, ideals, parameters)
        cone = tangent_cone(inst.core, inst.J)
        if label == "quadratic":
            # the tangent cone of J's graph, with deg u1 = 2
            assert inst.ring == ctx
            assert cone.ctx.order == ("ydeg", 2, order,
                                      (2, 1) + (1,) * ctx.nvars)
        else:
            assert inst.ring.order[:2] == ("ydeg", cone.k)
            assert cone.ctx is inst.ring
        fresh = [Ideal(ctx, ideal.generators) for ideal in ideals]
        core = intersect_all(fresh)
        j = Ideal(ctx, parameters)
        for ours, theirs in zip([inst.core] + inst.ideals, [core] + fresh):
            assert hilbert_samuel_values(ours, inst.J, window) == \
                per_n(theirs, j, window), label
        r = ctx.nvars
        assert inst.d == krull_dimension(core), label
        assert inst.heights == [r - krull_dimension(i) for i in fresh]
        witnesses = {c["name"]: c["witness"]
                     for c in check_hypotheses(inst)["checks"]}
        assert witnesses["equal_component_dimensions"]["dimensions"] == \
            [krull_dimension(i) for i in fresh]
        assert witnesses["pairwise_sums_mprimary"]["failing_pairs"] == [
            [a + 1, b + 1, krull_dimension(ideal_sum(fresh[a], fresh[b]))]
            for a in range(len(fresh)) for b in range(a + 1, len(fresh))
            if krull_dimension(ideal_sum(fresh[a], fresh[b])) != 0]
        assert witnesses["parameters_cut_to_finite_length"] == \
            {"dimension_of_quotient": krull_dimension(ideal_sum(core, j))}
        assert witnesses["parameters_form_regular_sequence"][
            "dim_S_mod_J"] == krull_dimension(j), label
