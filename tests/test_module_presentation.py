"""Module presentations of 0 -> R -> ⊕ S/I_i -> L -> 0 against the padded
ideals they replace.

``ideals.direct_sum`` presents ⊕ S/I_i, with its diagonal v, and L (v = 0)
as submodules of free modules, in module rings whose positions the engine
knows (``core.RingContext``).  An engine of ideals holds the same
generators only with the squares of the positions added, (v, e)^2 or
(e)^2, and the tangent cone of the padded ideal has the summand of
degree 0 in the positions, which a reader then subtracts.  On seeded
random components with g = 1..4 in grevlex, lex and ydeg rings, every
module run of the intersection, of gr_J(L) and of the Rees route is
checked by three oracles:

1. its reduced basis is the padded ideal's, computed in the plain ring of
   the same variables and order, less the padding;
2. its cone's ``series()`` equals the subtraction formula on the padded
   ideal's leads (``padded_series``, the reference for the reader the
   module cone replaces);
3. its engine pops no pair whose leads sit at two positions.
"""

import random

import pytest

import chernlab.groebner as groebner_module
from chernlab import (HilbertSeries, Ideal, NotFiniteLengthError, Polynomial,
                      RingContext, buchberger, ideal_intersect)
from chernlab.graded import gr_series
from chernlab.groebner import add_shifted, minimalize, series_numerator
from chernlab.hilbert import TangentCone, cokernel_presentation, rees_series
from chernlab.ideals import direct_sum
from chernlab.cli import build_instance, load_problem
from conftest import PROBLEM_DIR
from helpers import monomials_of_degree, random_homogeneous_ideal

ORDERS = ["grevlex", "lex", ("ydeg", 2, "grevlex"), ("ydeg", 2, "lex")]
ORDER_IDS = ["grevlex", "lex", "ydeg-grevlex", "ydeg-lex"]


def padded_basis(gens, ring):
    """The reduced basis of the generators plus the products of two
    positions, in the plain ring of ``ring``'s variables and order, as
    (leading monomial, terms) pairs."""
    flat = RingContext(ring.variables, ring.characteristic, ring.order)
    units = [Polynomial.variable(flat, flat.variables[i])
             for i in ring.positions]
    padding = [a * b for i, a in enumerate(units) for b in units[i:]]
    basis = buchberger([Polynomial.trusted(flat, f.terms) for f in gens]
                       + padding, flat)
    return list(zip(basis.lead_monomials(), (f.terms for f in basis)))


def padded_series(ring, k, leads):
    """The Hilbert series of gr(M) along the first k variables, M the
    submodule of S/ideal that the positions generate, for an ideal
    homogeneous in them with leading monomials ``leads``: S/ideal is
    S/(ideal + (positions)) ⊕ M, the first summand's numerator is read off
    the leads plus the positions, and it is subtracted before each row is
    summed at s = 1."""
    r = ring.nvars
    units = [tuple(int(j == i) for j in range(r)) for i in ring.positions]
    rows = add_shifted(series_numerator(minimalize(leads), r, k),
                       series_numerator(minimalize(list(leads) + units), r,
                                        k), 0, 0, -1)
    return HilbertSeries([HilbertSeries(row, r - k).total() for row in rows],
                         k)


def outcome(compute):
    try:
        return compute()
    except NotFiniteLengthError:
        return "infinite"


def record_module_runs(monkeypatch, computations):
    """Run each of ``computations`` and return (gens, ring, popped pairs'
    leads) for every engine they started in a module ring."""
    runs = []
    current = []
    engine_class = groebner_module._Engine
    original = groebner_module.heappop

    class Recording(engine_class):
        def __init__(self, gens, ctx, series=None):
            gens = list(gens)
            self.popped = []
            current[:] = [self]
            super().__init__(gens, ctx, series)
            if ctx.positions is not None:
                runs.append((gens, ctx, self))

    def popping(heap):
        # each engine runs to its end before the next one starts
        entry = original(heap)
        if len(entry) == 3:             # a pair (key, i, j) of run()
            engine = current[0]
            engine.popped.append((engine.lms[entry[1]],
                                  engine.lms[entry[2]]))
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(groebner_module, "_Engine", Recording)
        patch.setattr(groebner_module, "heappop", popping)
        for compute in computations:
            outcome(compute)
    return [(gens, ring, engine.popped) for gens, ring, engine in runs]


def random_component(rng, ctx, top):
    """Two random forms of degree 1 to ``top`` with three to five terms: two
    such components generally meet only at the origin, so L has finite
    length."""
    gens = []
    for _ in range(2):
        degree = rng.randint(1, top)
        gens.append(Polynomial(ctx, {
            tuple(rng.choice(monomials_of_degree(4, degree))):
            rng.randrange(1, 32003) for _ in range(rng.randint(3, 5))}))
    return Ideal(ctx, gens)


def random_instance(seed, order, g):
    """g random components in a four-variable ring, planes for g = 4 (the
    lex core of four quadric components can take seconds), on odd seeds
    with g < 4 one of them from ``random_homogeneous_ideal``, and two
    parameters: the ring's
    first two variables under a ydeg order, else two random linear forms,
    one made a quadric on odd seeds."""
    rng = random.Random(f"module:{seed}:{order}:{g}")
    ctx = RingContext(["y1", "y2", "z1", "z2"], 32003, order)
    ideals = [random_component(rng, ctx, 1 if g == 4 else 2)
              for _ in range(g)]
    if seed % 2 and g < 4:
        ideals[0] = random_homogeneous_ideal(rng, ctx)
    if ctx.cone_rank:
        return ideals, Ideal.from_strings(ctx, ["y1", "y2"])
    forms = [Polynomial(ctx, {m: rng.randrange(1, 32003) for m in
                              [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1)]}) for _ in range(2)]
    if seed % 2:
        forms[1] = forms[1] * forms[1]
    return ideals, Ideal(ctx, forms)


def positions_of(ring, m):
    """The positions that m holds, each as often as its exponent."""
    return [i for i in ring.positions for _ in range(m[i])]


def along(ring, k):
    """``ring``, or for a ring of cone rank 0 the same variables and
    positions under ("ydeg", k, order): a cone's rank is its ring's, and
    counting leads by their degree in the first k variables does not
    depend on the order."""
    return ring if ring.cone_rank else RingContext(
        ring.variables, ring.characteristic, ("ydeg", k, ring.order),
        ring.positions)


def check_module_runs(runs):
    """The three oracles on each recorded module run; returns the number of
    pairs popped."""
    popped_pairs = 0
    for gens, ring, popped in runs:
        basis = buchberger(gens, ring)
        module = list(zip(basis.lead_monomials(), (f.terms for f in basis)))
        padded = padded_basis(gens, ring)
        # oracle 1: the padding is all the padded basis adds
        assert module == [(lm, terms) for lm, terms in padded
                          if len(positions_of(ring, lm)) == 1]
        assert all(len(positions_of(ring, lm)) in (1, 2) for lm, _ in padded)
        # oracle 2, along the first k variables where no position is
        k = ring.cone_rank or 2
        if min(ring.positions, default=k) >= k:
            assert outcome(lambda: TangentCone(
                along(ring, k), basis.lead_monomials()).series()) == outcome(
                lambda: padded_series(ring, k, [lm for lm, _ in padded]))
        # oracle 3
        assert all(positions_of(ring, a) == positions_of(ring, b)
                   for a, b in popped)
        popped_pairs += len(popped)
    return popped_pairs


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_module_runs_against_padded_ideals(monkeypatch, order, g):
    popped = 0
    for seed in range(2):
        ideals, j = random_instance(seed, order, g)
        runs = record_module_runs(monkeypatch, [
            lambda: ideal_intersect(*ideals), lambda: gr_series(ideals, j),
            lambda: rees_series(ideals, j)])
        # the core's run, but for g = 1, where the core is the component
        # itself, B' (and its graph, for parameters that are not the first
        # variables) and the Rees module
        assert len(runs) == (3 if ideals[0].ctx.cone_rank else 4) - (g == 1)
        popped += check_module_runs(runs)
    assert popped or g == 1


@pytest.mark.parametrize("name", ["e1_two_planes", "e4_three_planes",
                                  "e5_staircase", "e7_quadric_parameters"])
def test_shipped_module_runs_against_padded_ideals(monkeypatch, name):
    # verify's core and B' and the Rees module of hilbert and coeffs, in the
    # parameters' coordinates; e7's quadric parameter takes B''s graph.
    # Oracle 1 on the diagonal run pins the core: its elements f v are the
    # padded basis's
    inst = build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))
    inst.hypotheses
    runs = record_module_runs(monkeypatch, [
        lambda: inst.core, lambda: gr_series(inst.ideals, inst.J),
        lambda: rees_series(inst.ideals, inst.J)])
    assert [ring.variables[0] for _, ring, _ in runs] == ["v", "y1", "t1"] \
        if name != "e7_quadric_parameters" else ["v", "x", "u1", "t1"]
    assert check_module_runs(runs)


def test_rank_0_reads_as_zero():
    # g = 1: L = 0, so B' is the zero submodule of a free module of rank 0
    ctx = RingContext(["y1", "y2", "z1", "z2"], 32003, ("ydeg", 2, "grevlex"))
    component = Ideal.from_strings(ctx, ["z1", "z2"])
    j = Ideal.from_strings(ctx, ["y1", "y2"])
    ring, gens, _ = cokernel_presentation([component], j)
    assert (ring.variables, ring.positions) == (ctx.variables, ())
    assert ring != ctx and all(g.is_zero() for g in gens)
    zero = HilbertSeries((), 0)
    assert TangentCone(ring, []).series() == zero
    # its own cone for linear parameters, its graph's for a quadric
    for parameters in (["y1", "y2"], ["y1^2 + z1^2", "y2"]):
        assert gr_series([component], Ideal.from_strings(
            ctx, parameters)) == zero
    series, length = rees_series([component], j)
    assert length == 0 and series == HilbertSeries([1], 2)


def test_direct_sum_generators():
    # N = I_1 e1 + I_2 (v - e1) in the diagonal ring, B' = I_1 e1 - I_2 e1
    ctx = RingContext(["x", "y", "z", "w"], 32003)
    ideals = [Ideal.from_strings(ctx, ["x", "y"]),
              Ideal.from_strings(ctx, ["z", "w"])]
    ring, include, gens = direct_sum(ideals)
    assert (ring.variables, ring.positions) == \
        (("v", "x", "y", "z", "w", "e1"), (0, 5))
    v, e1 = (Polynomial.variable(ring, name) for name in ("v", "e1"))
    assert gens == [include(f) * e1 for f in ideals[0].groebner()] + [
        include(f) * (v - e1) for f in ideals[1].groebner()]
    ring, include, gens = direct_sum(ideals, diagonal=False)
    assert (ring.variables, ring.positions) == \
        (("x", "y", "z", "w", "e1"), (4,))
    e1 = Polynomial.variable(ring, "e1")
    assert gens == [include(f) * e1 for f in ideals[0].groebner()] + [
        -(include(f) * e1) for f in ideals[1].groebner()]
    assert ideal_intersect(*ideals).groebner().elements == \
        Ideal.from_strings(ctx, ["x*z", "x*w", "y*z", "y*w"]).groebner() \
        .elements
