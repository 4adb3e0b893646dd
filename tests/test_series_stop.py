"""The Hilbert-driven stop of the Buchberger engine: a run given the known
Hilbert series of its quotient drops its queued pairs once the leading
monomials reach that series.  The stop must change no result, and on the
dense 4-planes it must remove every zero reduction of the tangent-cone
basis."""

import json
import random
from contextlib import contextmanager

import pytest

import chernlab.groebner as groebner_module
import chernlab.hilbert as hilbert_module
import chernlab.ideals as ideals_module
from chernlab import (GroebnerBasis, Ideal, Polynomial, ProblemInstance,
                      RingContext, buchberger, check_hypotheses,
                      hilbert_polynomial_value, hilbert_samuel_values,
                      ideal_intersect, ideal_sum,
                      quotient_hilbert_series, tangent_cone)
from chernlab.cli import build_instance, load_problem, main
from conftest import PROBLEM_DIR
from helpers import (THREE_3_PLANE_PARAMETERS, contains,
                     random_homogeneous_ideal, three_3_planes_lex,
                     transformed_planes, write_problem)
from test_rees_route import dense_d3_row


def record_targeted_runs(monkeypatch, compute):
    """Run ``compute`` and return (gens, ctx, series, engine) for every
    engine it started with a target series."""
    runs = []
    engine_class = groebner_module._Engine

    class Recording(engine_class):
        def __init__(self, gens, ctx, series=None):
            gens = list(gens)
            super().__init__(gens, ctx, series)
            if series is not None:
                runs.append((gens, ctx, series, self))

    with monkeypatch.context() as patch:
        patch.setattr(groebner_module, "_Engine", Recording)
        compute()
    return runs


def record_engines(monkeypatch, compute):
    """Run ``compute`` and return every engine it started."""
    engines = []

    class Recording(groebner_module._Engine):
        def __init__(self, gens, ctx, series=None):
            super().__init__(gens, ctx, series)
            engines.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(groebner_module, "_Engine", Recording)
        compute()
    return engines


def record_cli_engines(monkeypatch, capsys, argv):
    """Run the CLI on ``argv`` and return every engine it started."""
    codes = []
    engines = record_engines(monkeypatch, lambda: codes.append(main(argv)))
    assert codes == [0]
    capsys.readouterr()
    return engines


def engine_run(gens, ctx, series):
    engine = groebner_module._Engine(gens, ctx, series)
    engine.run()
    return engine


def two_4_planes(rng, p=32003):
    names = [f"x{i}" for i in range(1, 9)]
    return transformed_planes(
        rng, p, names, [names[:4], names[4:]],
        [f"{a} + {b}" for a, b in zip(names[:4], names[4:])])


def test_dense_4_planes_zero_reductions(monkeypatch):
    _, ideals, j = two_4_planes(random.Random(601))
    runs = record_targeted_runs(
        monkeypatch,
        lambda: hilbert_samuel_values(ideal_intersect(*ideals), j, 4))
    # the core's run in the diagonal ring, whose first variable is v, and
    # the core's tangent cone
    by_ring = {ctx.variables[0] == "v": (gens, ctx, series)
               for gens, ctx, series, _ in runs}
    assert len(runs) == 2 and sorted(by_ring) == [False, True]

    stopped = engine_run(*by_ring[False])
    full = engine_run(*by_ring[False][:2], None)
    assert stopped.series_stop and not full.series_stop
    assert (stopped.zero_reductions, full.zero_reductions) == (0, 48)
    assert stopped.pairs_popped < full.pairs_popped

    # the core: N is homogeneous, so its leads arrive with their degree;
    # measured 3 zero reductions in 19 popped pairs, against 54 in 148
    # without the stop
    stopped = engine_run(*by_ring[True])
    full = engine_run(*by_ring[True][:2], None)
    assert stopped.series_stop
    assert stopped.zero_reductions <= 19
    assert stopped.zero_reductions < full.zero_reductions
    assert stopped.pairs_popped < full.pairs_popped


def record_orders(monkeypatch, capsys, argv):
    """Run the CLI on ``argv`` and return the (order, number of variables)
    of every basis that ``ideals`` and ``hilbert`` compute, and stdout."""
    orders = []
    original = groebner_module.buchberger

    def recording(gens, ctx, series=None):
        orders.append((ctx.order, ctx.nvars))
        return original(gens, ctx, series)

    for module in (ideals_module, hilbert_module):
        monkeypatch.setattr(module, "buchberger", recording)
    assert main(argv) == 0
    return orders, capsys.readouterr().out


# e = (2, -1, 1, -1, 0) for two transversal 4-planes, from n = 1 on
FOUR_PLANE_LENGTHS = [str(hilbert_polynomial_value((2, -1, 1, -1, 0), n))
                      for n in range(1, 5)]


def test_dense_4_planes_hilbert_bases(monkeypatch, tmp_path, capsys):
    # every ideal lives in the parameters' coordinates and the ydeg order:
    # verify computes two component bases, one of their sum, for the
    # pairwise hypothesis, J = (y1..y4)'s own, for dim S/J, the basis of
    # N in the 10 variables of the diagonal ring ring[v, e1], whose
    # elements f v give the core's basis and so its tangent cone, and the
    # basis of L's presentation B' in the 9 variables of ring[e1]
    path = write_problem(tmp_path / "p4.json",
                         *two_4_planes(random.Random(601)))
    orders, out = record_orders(monkeypatch, capsys,
                                ["verify", path, "--json", "--max-power", "4"])
    assert [row["length"] for row in json.loads(out)["hilbert"]["values"]] \
        == FOUR_PLANE_LENGTHS
    ydeg = (("ydeg", 4, "grevlex"), 8)
    assert sorted(orders, key=str) == sorted(
        [ydeg, ydeg, ydeg, (("ydeg", 1, ("ydeg", 5, "grevlex")), 10),
         ydeg, (ydeg[0], 9)], key=str)


def test_dense_4_planes_rees_bases(monkeypatch, tmp_path, capsys):
    # hilbert on g = 2 builds no intersection: the four ydeg bases that
    # verify computes before the core's, then one basis of
    # B' + I_2(y; t) e1, B' = (I_1 + I_2) e1, in
    # F[t_1..t_4, ring, e1], under ("ydeg", 4, grevlex, w) with t first
    # and every weight 1
    path = write_problem(tmp_path / "p4.json",
                         *two_4_planes(random.Random(601)))
    orders, out = record_orders(monkeypatch, capsys,
                                ["hilbert", path, "--json", "--max-power", "4"])
    assert [row["length"] for row in json.loads(out)] == FOUR_PLANE_LENGTHS
    ydeg = ("ydeg", 4, "grevlex")
    assert orders == [(ydeg, 8)] * 4 + [(ydeg + ((1,) * 13,), 13)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_three_3_planes_lex_elimination(monkeypatch, seed):
    # three 3-planes in 9 variables under lex in dense coordinates: the
    # instance intersects in the parameters' coordinates, where the lex
    # base sits under the degree-compatible ydeg order, so the one run of
    # the core, in the diagonal ring, is graded and stops on its series
    for parameters in THREE_3_PLANE_PARAMETERS:
        ctx, ideals, j = three_3_planes_lex(seed, parameters)
        runs = record_targeted_runs(
            monkeypatch,
            lambda: ProblemInstance(ctx, ideals, list(j.generators)).core)
        [(_, run_ctx, _, core)] = runs
        assert run_ctx.order == ("ydeg", 1, ("ydeg", 4, "lex"))
        assert core.series_stop
        # measured: 6 zero reductions in 33 popped pairs on every seed and
        # parameter set
        assert core.zero_reductions <= 6
        assert core.pairs_popped <= 33


YDEG3_LEX = ("ydeg", 3, "lex")
YDEG4 = ("ydeg", 4, "grevlex")
# Every engine of the core route, in order: the instance, its hypothesis
# checks and the core's tangent cone, as `verify` computes them.  Each
# engine's order, basis size before
# interreduction, pairs popped, coprime skips, chain skips, zero reductions
# and series stop.  Recorded with the generators admitted reduced, lowest
# degree first; any change in the order of pairs or reductions shows here.
# The component bases come first (the heights), then the pairwise sums and
# J = (y1..yk)'s basis, for dim S/J (k variables, every pair coprime), and
# last the core's one run in the diagonal ring on its first use.
THREE_3_PLANE_ENGINES = [
    (YDEG3_LEX, 6, 15, 15, 0, 0, False),
    (YDEG3_LEX, 6, 15, 15, 0, 0, False),
    (YDEG3_LEX, 6, 15, 15, 0, 0, False),
    (YDEG3_LEX, 9, 36, 36, 0, 0, False),
    (YDEG3_LEX, 9, 36, 36, 0, 0, False),
    (YDEG3_LEX, 9, 36, 36, 0, 0, False),
    (YDEG3_LEX, 3, 3, 3, 0, 0, False),
    (("ydeg", 1, ("ydeg", 4, "lex")), 45, 33, 0, 0, 6, True),
]
FOUR_PLANE_CORE_ENGINES = [
    (YDEG4, 4, 6, 6, 0, 0, False),
    (YDEG4, 4, 6, 6, 0, 0, False),
    (YDEG4, 8, 28, 28, 0, 0, False),
    (YDEG4, 4, 6, 6, 0, 0, False),
    (("ydeg", 1, ("ydeg", 5, "grevlex")), 24, 19, 0, 0, 3, True),
]
PINNED_INSTANCES = {
    "dense-4-planes": lambda: two_4_planes(random.Random(601)),
    "three-3-planes-lex-a":
        lambda: three_3_planes_lex(0, THREE_3_PLANE_PARAMETERS[0]),
    "three-3-planes-lex-b":
        lambda: three_3_planes_lex(0, THREE_3_PLANE_PARAMETERS[1]),
}


def engine_counters(engines):
    return [(e.ctx.order, len(e.lms), e.pairs_popped, e.coprime_skips,
             e.chain_skips, e.zero_reductions, e.series_stop)
            for e in engines]


def core_route(ctx, ideals, j):
    inst = ProblemInstance(ctx, ideals, list(j.generators))
    check_hypotheses(inst)
    tangent_cone(inst.core, inst.J).series()


@pytest.mark.parametrize("instance, expected", [
    ("dense-4-planes", FOUR_PLANE_CORE_ENGINES),
    ("three-3-planes-lex-a", THREE_3_PLANE_ENGINES),
    ("three-3-planes-lex-b", THREE_3_PLANE_ENGINES),
], ids=["dense-4-planes", "three-3-planes-lex-a", "three-3-planes-lex-b"])
def test_engine_counters_pinned(monkeypatch, instance, expected):
    problem = PINNED_INSTANCES[instance]()
    engines = record_engines(monkeypatch, lambda: core_route(*problem))
    assert engine_counters(engines) == expected


# The core's one run in the diagonal ring, a module ring whose positions
# are v and the e: a pair is queued only when both leads sit at one
# position.
CORE_INSTANCES = {
    "e4": lambda: build_instance(load_problem(
        str(PROBLEM_DIR / "e4_three_planes.json"))),
    "dense-222": lambda: ProblemInstance(*dense_222()),
}
CORE_ENGINES = {
    "e4": (("ydeg", 1, ("ydeg", 3, "grevlex")), 15, 16, 2, 0, 5, True),
    "dense-222": (("ydeg", 1, ("ydeg", 4, "grevlex")), 103, 1759, 28, 1351,
                  286, True),
}


def dense_222():
    ctx, ideals, j = dense_d3_row((2, 2, 2), (2, 2, 2))
    return ctx, ideals, list(j.generators)


@pytest.mark.parametrize("instance", sorted(CORE_ENGINES))
def test_core_engine_counters_pinned(monkeypatch, instance):
    inst = CORE_INSTANCES[instance]()
    engines = record_engines(monkeypatch, lambda: inst.core)
    assert engine_counters(engines) == [CORE_ENGINES[instance]]


# `hilbert` takes the Rees route on every g: the engines of the core route
# before the core's, then one basis of the submodule B' + I_2(y; t)(e) in
# the module ring F[t, ring, e], under ("ydeg", d, grevlex, w) whatever the
# problem's order, every weight 1 for linear parameters.  On two dense
# 4-planes (13 variables) I_1 + I_2 is the maximal ideal, so the basis is
# the 8 leads x e1: each minor times e1 reduces to 0 on admission.  No two leads are coprime, as every lead
# holds e1, but e1 divides every term of every element, so the generalized
# product criterion skips all 28 pairs and none reduces to 0.  On three
# 3-planes (14 variables, positions e1 and e2) 72 pairs sit at one
# position; the criterion skips 51 of them, and 21 reduce to 0.
REES_ENGINES = {
    "dense-4-planes": FOUR_PLANE_CORE_ENGINES[:4]
    + [(YDEG4 + ((1,) * 13,), 8, 28, 28, 0, 0, False)],
    "three-3-planes": THREE_3_PLANE_ENGINES[:7]
    + [(("ydeg", 3, "grevlex", (1,) * 14), 18, 72, 51, 0, 21, False)],
}


@pytest.mark.parametrize("instance, expected", [
    ("dense-4-planes", REES_ENGINES["dense-4-planes"]),
    ("three-3-planes-lex-a", REES_ENGINES["three-3-planes"]),
    ("three-3-planes-lex-b", REES_ENGINES["three-3-planes"]),
], ids=["dense-4-planes", "three-3-planes-lex-a", "three-3-planes-lex-b"])
def test_hilbert_engine_counters_pinned(monkeypatch, tmp_path, capsys,
                                        instance, expected):
    path = write_problem(tmp_path / "p.json", *PINNED_INSTANCES[instance]())
    engines = record_cli_engines(monkeypatch, capsys,
                                 ["hilbert", path, "--max-power", "4"])
    assert engine_counters(engines) == expected


@pytest.mark.parametrize("command, name", [
    ("verify", "e1_two_planes"), ("verify", "e2_two_3planes"),
    ("verify", "e3_cm_baseline"), ("verify", "e4_three_planes"),
    pytest.param("hilbert", None, id="hilbert-dense-4-planes")])
def test_engine_leading_monomials_distinct(monkeypatch, tmp_path, capsys,
                                           command, name):
    # generators are admitted like S-polynomials, reduced against the
    # elements before them, so no engine holds a leading monomial twice
    if name is None:
        path = write_problem(tmp_path / "p4.json",
                             *two_4_planes(random.Random(601)))
    else:
        path = str(PROBLEM_DIR / f"{name}.json")
    engines = record_cli_engines(monkeypatch, capsys, [command, path])
    assert engines
    for engine in engines:
        assert len(set(engine.lms)) == len(engine.lms), engine.ctx.order


DIAGONAL_YDEG = ("ydeg", 1, ("ydeg", 3, "grevlex"))


@pytest.mark.parametrize("order", [
    "grevlex", "lex",
    pytest.param(("ydeg", 2, "grevlex"), id="ydeg"),
    pytest.param(DIAGONAL_YDEG, id="diagonal-ydeg")])
def test_basis_parts_match_recomputed(order):
    # buchberger builds each GroebnerBasis from the leads and sorted tails
    # the engine holds, and ideal_intersect the core's from the elements
    # f v of the diagonal ring's basis; recomputing them from the elements
    # must give the same parts, and the elements must be canonical
    rng = random.Random(f"parts:{order}")
    ctx = RingContext(["x", "y", "z", "w"], 31991, order)
    for _ in range(12):
        a = random_homogeneous_ideal(rng, ctx)
        bases = [buchberger(a.generators, ctx)]
        if order != DIAGONAL_YDEG:
            b = random_homogeneous_ideal(rng, ctx)
            bases.append(ideal_intersect(a, b).groebner())
        for basis in bases:
            again = GroebnerBasis(ctx, basis.elements)
            assert basis.lead_monomials() == again.lead_monomials()
            assert basis._tails == again._tails
            assert all(Polynomial(ctx, g.terms) == g for g in basis)
            keys = [ctx.sort_key(m) for m in basis.lead_monomials()]
            assert keys == sorted(keys)


def plane_instances(rng, p, order):
    """(ideals, parameters) for g = 1, 2, 3 plane configurations under a
    random invertible change, and g = 2, 3 with one non-linear component."""
    xyzw = ["x", "y", "z", "w"]
    six = [f"x{i}" for i in range(1, 7)]
    yield transformed_planes(rng, p, xyzw, [["x", "y"]], ["z", "w"],
                             order)[1:]
    yield transformed_planes(rng, p, xyzw, [["x", "y"], ["z", "w"]],
                             ["x + z", "y + w"], order)[1:]
    yield transformed_planes(rng, p, six, [six[:3], six[3:]],
                             [f"{a} + {b}" for a, b in zip(six[:3], six[3:])],
                             order)[1:]
    yield transformed_planes(rng, p, xyzw,
                             [["x", "y"], ["z", "w"], ["x + z", "y + w"]],
                             ["x + w", "y - z"], order)[1:]
    ctx = RingContext(xyzw, p, order)
    yield ([Ideal.from_strings(ctx, ["x^2", "y"]),
            Ideal.from_strings(ctx, ["z", "w"])],
           Ideal.from_strings(ctx, ["x + z", "y + w"]))
    yield ([Ideal.from_strings(ctx, ["x^2", "y"]),
            Ideal.from_strings(ctx, ["z", "w"]),
            Ideal.from_strings(ctx, ["x + z", "y + w"])],
           Ideal.from_strings(ctx, ["x + w", "y - z"]))


@contextmanager
def unstopped(monkeypatch):
    """Every engine started inside ignores its target series."""

    class Unstopped(groebner_module._Engine):
        def __init__(self, gens, ctx, series=None):
            super().__init__(gens, ctx)

    with monkeypatch.context() as patch:
        patch.setattr(groebner_module, "_Engine", Unstopped)
        yield


def pipeline(ideals, j, window):
    """The intersection's reduced basis and the H(K, n) tables of the core
    and of every component, from fresh ideals (no cached bases)."""
    ideals = [Ideal(i.ctx, i.generators) for i in ideals]
    core = ideal_intersect(*ideals)
    tables = [hilbert_samuel_values(ideal, j, window)
              for ideal in [core] + ideals]
    return list(core.groebner()), tables


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("p", [32003, 10007])
def test_stop_changes_no_result(monkeypatch, order, p):
    rng = random.Random(f"{order}:{p}")
    fired = 0
    for ideals, j in plane_instances(rng, p, order):
        window = 4
        runs = record_targeted_runs(
            monkeypatch, lambda: pipeline(ideals, j, window))
        stopped = pipeline(ideals, j, window)
        with unstopped(monkeypatch):
            assert pipeline(ideals, j, window) == stopped
        for gens, ctx, series, engine in runs:
            fired += engine.series_stop
            assert buchberger(gens, ctx, series) == buchberger(gens, ctx)
    assert fired > 0


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("p", [31991, 7])
def test_stop_on_random_homogeneous_ideals(monkeypatch, order, p):
    rng = random.Random(f"random:{order}:{p}")
    third = random.Random(f"third:{order}:{p}")
    ctx = RingContext(["x", "y", "z", "w"], p, order)
    fired = 0
    for _ in range(12):
        a = random_homogeneous_ideal(rng, ctx)
        b = random_homogeneous_ideal(rng, ctx) if rng.random() < 0.8 else a
        runs = record_targeted_runs(monkeypatch,
                                    lambda: ideal_intersect(a, b))
        fired += sum(engine.series_stop for *_, engine in runs)
        c = random_homogeneous_ideal(third, ctx)
        stopped = list(ideal_intersect(a, b).groebner())
        # in A and in B with the series of A ∩ B, and reduced in the base
        # order, so it is the reduced basis of A ∩ B
        assert all(contains(a, g) and contains(b, g) for g in stopped)
        assert quotient_hilbert_series(Ideal(ctx, stopped)) == \
            quotient_hilbert_series(a) + quotient_hilbert_series(b) \
            - quotient_hilbert_series(ideal_sum(a, b))
        assert list(buchberger(stopped, ctx)) == stopped
        stopped3 = list(ideal_intersect(a, b, c).groebner())
        target = quotient_hilbert_series(a)
        with unstopped(monkeypatch):
            assert list(ideal_intersect(a, b).groebner()) == stopped
            assert list(ideal_intersect(a, b, c).groebner()) == stopped3
            assert buchberger(a.generators, ctx) == \
                buchberger(a.generators, ctx, target)
    assert fired > 0
