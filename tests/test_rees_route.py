"""The Rees route of ``hilbert.ring_series``: for two Cohen-Macaulay
components and parameters of any degree, HS(gr_J R) from one basis of
(I_1 + I_2) + I_2(f; T), with no intersection.  Its series, and the
``hilbert`` and ``coeffs`` output built on it, must equal the core route's
(the tangent cone of I_1 ∩ I_2), which ``verify`` still takes."""

import json
import random

import pytest

import chernlab.hilbert as hilbert_module
import chernlab.ideals as ideals_module
from chernlab import (Ideal, Polynomial, ProblemInstance, RingContext,
                      chern_sign, check_hypotheses, diagonal_cokernel,
                      hilbert_polynomial_value, parse_polynomial,
                      quotient_length, ring_series, tangent_cone)
from chernlab.cli import build_instance, load_problem, main
from chernlab.hilbert import samuel_polynomial
from conftest import PROBLEM_DIR
from helpers import (monomials_of_degree, random_invertible_matrix,
                     variable_images, write_problem)


def emitted(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def core_route_outputs(inst):
    """``hilbert --json`` and ``coeffs --json`` as read off the core's
    tangent cone and the cokernel model of I_1 ∩ I_2."""
    series = tangent_cone(inst.core, inst.J).series()
    e, n0 = samuel_polynomial(series, inst.d)
    hilbert = [{"n": n, "length": str(series.summed(n))}
               for n in range(1, inst.max_power + 1)]
    coeffs = {"e": [str(c) for c in e], "n0": n0,
              "cm": e[0] == series.summed(1),
              "chern_sign": chern_sign(e[1]),
              "lambda_L": str(diagonal_cokernel(inst.ideals,
                                                inst.core).length)}
    return emitted(hilbert), emitted(coeffs)


def cli_outputs(monkeypatch, capsys, path):
    """``hilbert --json`` and ``coeffs --json`` on the problem file, with
    every intersection refused: the Rees route builds none."""
    def refused(*args):
        raise AssertionError("the Rees route intersects nothing")

    outputs = []
    with monkeypatch.context() as patch:
        patch.setattr(ideals_module, "ideal_intersect", refused)
        for command in ("hilbert", "coeffs"):
            assert main([command, path, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
    return tuple(outputs)


def assert_routes_agree(monkeypatch, capsys, path):
    inst = build_instance(load_problem(path))
    assert inst.g == 2 and check_hypotheses(inst)["all_pass"]
    assert ring_series(inst, True) == tangent_cone(inst.core, inst.J).series()
    assert ring_series(inst, False) == tangent_cone(inst.core, inst.J).series()
    assert cli_outputs(monkeypatch, capsys, path) == \
        core_route_outputs(build_instance(load_problem(path)))


@pytest.mark.parametrize("name", ["e1_two_planes", "e2_two_3planes",
                                  "e5_staircase", "e6_short_window"])
def test_shipped_instances(monkeypatch, capsys, name):
    assert_routes_agree(monkeypatch, capsys,
                        str(PROBLEM_DIR / f"{name}.json"))


def generic_form(rng, ctx, block, degree):
    """A form of the given degree in the variables ``block``, every
    monomial with a random nonzero coefficient."""
    terms = {}
    for exponents in monomials_of_degree(len(block), degree):
        mono = [0] * ctx.nvars
        for i, e in zip(block, exponents):
            mono[i] = e
        terms[tuple(mono)] = rng.randrange(1, ctx.characteristic)
    return Polynomial(ctx, terms)


def random_two_components(rng, d):
    """Two complete intersections of generic forms, one in each half of 2d
    variables, and d dense linear parameters, all under a random invertible
    change of coordinates.  For d = 2 the first component is sometimes the
    cone over the twisted cubic, which is Cohen-Macaulay but not a
    complete intersection."""
    r, p = 2 * d, rng.choice([32003, 31991, 10007])
    ctx = RingContext([f"x{i}" for i in range(1, r + 1)], p,
                      rng.choice(["grevlex", "lex"]))
    images = variable_images(ctx, random_invertible_matrix(rng, r, p))
    ideals = []
    for block in (list(range(d)), list(range(d, r))):
        if d == 2:
            degrees = [rng.randint(1, 3) for _ in range(2)]
        else:
            degrees = rng.choice([[1, 1, 1], [1, 1, 2], [1, 2, 2]])
        ideals.append([generic_form(rng, ctx, block, e) for e in degrees])
    if d == 2 and rng.random() < 0.3:
        ideals[0] = [parse_polynomial(text, ctx) for text in
                     ("x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")]
        ideals[1] = [generic_form(rng, ctx, list(range(r)), 1)
                     for _ in range(2)]
    parameters = [generic_form(rng, ctx, list(range(r)), 1)
                  for _ in range(d)]
    ideals = [Ideal(ctx, [f.substitute(images) for f in gens])
              for gens in ideals]
    return ctx, ideals, Ideal(ctx, [f.substitute(images) for f in parameters])


@pytest.mark.parametrize("seed", range(24))
def test_random_two_component_instances(monkeypatch, capsys, tmp_path,
                                        seed):
    rng = random.Random(f"rees:{seed}")
    problem = random_two_components(rng, 2 + seed % 2)
    ctx, ideals, j = problem
    assert check_hypotheses(ProblemInstance(ctx, ideals,
                                            list(j.generators)))["all_pass"]
    assert_routes_agree(monkeypatch, capsys,
                        write_problem(tmp_path / "p.json", *problem))


def any_degree_instance(seed):
    """Two complete intersections of generic forms, one in each half of 2d
    variables, under a random invertible change of coordinates, and d
    generic parameters of degree 1 to 3 in all variables, at least one of
    them not linear.  d, the order and the prime run through every
    combination as the seed does."""
    rng = random.Random(f"rees-any-degree:{seed}")
    d = 2 + seed % 2
    r, p = 2 * d, (32003, 10007, 101)[seed % 3]
    ctx = RingContext([f"x{i}" for i in range(1, r + 1)], p,
                      ("grevlex", "lex")[seed // 2 % 2])
    images = variable_images(ctx, random_invertible_matrix(rng, r, p))
    ideals = []
    for block in (list(range(d)), list(range(d, r))):
        degrees = ([rng.randint(1, 2) for _ in range(2)] if d == 2
                   else rng.choice([[1, 1, 1], [1, 1, 2]]))
        ideals.append(Ideal(ctx, [generic_form(rng, ctx, block, e)
                                  .substitute(images) for e in degrees]))
    degrees = [rng.randint(1, 3) for _ in range(d)]
    if max(degrees) == 1:
        degrees[rng.randrange(d)] = rng.randint(2, 3)
    parameters = [generic_form(rng, ctx, list(range(r)), e)
                  for e in degrees]
    return ProblemInstance(ctx, ideals, parameters)


@pytest.mark.parametrize("seed", range(24))
def test_any_degree_parameters(monkeypatch, seed):
    inst = any_degree_instance(seed)
    assert inst.g == 2 and check_hypotheses(inst)["all_pass"]
    assert max(f.degree() for f in inst.parameters) > 1
    with monkeypatch.context() as patch:
        patch.setattr(ideals_module, "ideal_intersect", None)
        rees = ring_series(inst, True)
    assert rees == ring_series(inst, False)


def test_quadric_parameters_take_one_weighted_rees_basis(monkeypatch,
                                                         capsys):
    # e7: J = (x^2 + w^2, y + z).  hilbert builds the graph bases of the
    # two components for the hypotheses and one basis of the Rees ring
    # F[t1, t2, x, y, z, w] with deg t1 = 2, and no intersection
    intersections, runs = [], []
    original_intersect = ideals_module.ideal_intersect
    original_buchberger = hilbert_module.buchberger

    def counting_intersect(*args):
        intersections.append(args)
        return original_intersect(*args)

    def recording(gens, ctx=None, series=None):
        runs.append((ctx, series))
        return original_buchberger(gens, ctx, series)

    monkeypatch.setattr(ideals_module, "ideal_intersect", counting_intersect)
    monkeypatch.setattr(hilbert_module, "buchberger", recording)
    path = str(PROBLEM_DIR / "e7_quadric_parameters.json")
    assert main(["hilbert", path, "--json"]) == 0
    capsys.readouterr()
    assert intersections == []
    rees = [(ctx, series) for ctx, series in runs
            if ctx.variables[:2] == ("t1", "t2")]
    assert [(ctx.variables, ctx.order, series) for ctx, series in rees] == [
        (("t1", "t2", "x", "y", "z", "w"),
         ("ydeg", 2, "grevlex", (2, 1, 1, 1, 1, 1)), None)]
    assert len(runs) == 3


def dense_d3_row(a, b, seed=3, p=32003):
    """(x1^a1, x2^a2, x3^a3) ∩ (y1^b1, y2^b2, y3^b3) with three random
    dense linear parameters over F_p."""
    ctx = RingContext(["x1", "x2", "x3", "y1", "y2", "y3"], p)
    rng = random.Random(seed)
    parameters = Ideal(ctx, [parse_polynomial(" + ".join(
        f"{rng.randrange(1, p)}*{v}" for v in ctx.variables), ctx)
        for _ in range(3)])
    ideals = [Ideal.from_strings(ctx, [f"{v}^{k}" for v, k in
                                       zip(ctx.variables[:3], a)]),
              Ideal.from_strings(ctx, [f"{v}^{k}" for v, k in
                                       zip(ctx.variables[3:], b)])]
    return ctx, ideals, parameters


def nakayama_length(ctx, ideals, j, seeds=(0, 1)):
    """min over seeded draws of λ(S/(I_1 + I_2 + (a_1..a_(d-1)))), each a_i
    a random F_p-combination of the parameters: a general value, as the
    length is upper semicontinuous in the a_i."""
    parameters = j.generators
    p, d = ctx.characteristic, len(parameters)
    lengths = []
    for seed in seeds:
        rng = random.Random(f"nakayama:{seed}")
        a = [sum((f.scale(rng.randrange(1, p)) for f in parameters),
                 Polynomial.zero(ctx)) for _ in range(d - 1)]
        gens = [g for ideal in ideals for g in ideal.generators] + a
        lengths.append(quotient_length(Ideal(ctx, gens)))
    return min(lengths)


@pytest.mark.parametrize("a, b, e", [
    ((2, 2, 2), (2, 2, 2), (16, -9, 15, 36)),
    ((2, 2, 3), (2, 2, 2), (20, -10, 21, 41)),
])
def test_dense_d3_rows(capsys, tmp_path, a, b, e):
    problem = dense_d3_row(a, b)
    path = write_problem(tmp_path / "d3.json", *problem)
    assert main(["coeffs", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    prod_a, prod_b = a[0] * a[1] * a[2], b[0] * b[1] * b[2]
    assert report["lambda_L"] == str(prod_a * prod_b)
    assert report["e"] == [str(c) for c in e]
    assert e[0] == prod_a + prod_b
    assert e[1] == -nakayama_length(*problem)
    assert main(["hilbert", path, "--json", "--max-power", "12"]) == 0
    rows = json.loads(capsys.readouterr().out)
    n0 = report["n0"]
    assert [int(row["length"]) for row in rows[n0 - 1:]] == \
        [hilbert_polynomial_value(e, n) for n in range(n0, 13)]
