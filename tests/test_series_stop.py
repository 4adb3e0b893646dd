"""The Hilbert-driven stop of the Buchberger engine: a run given the known
Hilbert series of its quotient drops its queued pairs once the leading
monomials reach that series.  The stop must change no result, and on the
dense 4-planes it must remove every zero reduction of the tangent-cone
basis."""

import random
from contextlib import contextmanager

import pytest

import chernlab.groebner as groebner_module
from chernlab import (Ideal, Polynomial, RingContext, buchberger,
                      hilbert_samuel_values, ideal_intersect, intersect_all,
                      quotient_hilbert_series)
from helpers import transformed_planes


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


def engine_run(gens, ctx, series):
    engine = groebner_module._Engine(gens, ctx, series)
    engine.run()
    return engine


def eliminated_part(basis):
    k = basis.ctx.order[1] if basis.ctx.order[0] == "elim" else 0
    return [g for g in basis if not any(m[:k] for m in g.terms)]


def two_4_planes(rng, p=32003):
    names = [f"x{i}" for i in range(1, 9)]
    return transformed_planes(
        rng, p, names, [names[:4], names[4:]],
        [f"{a} + {b}" for a, b in zip(names[:4], names[4:])])


def test_dense_4_planes_zero_reductions(monkeypatch):
    _, ideals, j = two_4_planes(random.Random(601))
    runs = record_targeted_runs(
        monkeypatch,
        lambda: hilbert_samuel_values(intersect_all(ideals), j, 4))
    by_order = {ctx.order[0]: (gens, ctx, series)
                for gens, ctx, series, _ in runs}
    assert sorted(by_order) == ["elim", "ydeg"]

    stopped = engine_run(*by_order["ydeg"])
    full = engine_run(*by_order["ydeg"][:2], None)
    assert stopped.series_stop and not full.series_stop
    assert (stopped.zero_reductions, full.zero_reductions) == (0, 48)
    assert stopped.pairs_popped < full.pairs_popped

    stopped = engine_run(*by_order["elim"])
    full = engine_run(*by_order["elim"][:2], None)
    assert stopped.series_stop
    assert stopped.zero_reductions < full.zero_reductions


def plane_instances(rng, p, order):
    """(ideals, parameters) for g = 1, 2, 3 plane configurations under a
    random invertible change, and one non-linear component."""
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
    core = intersect_all(ideals)
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
            assert eliminated_part(buchberger(gens, ctx, series)) == \
                eliminated_part(buchberger(gens, ctx))
    assert fired > 0


def random_homogeneous_ideal(rng, ctx):
    """One to three random homogeneous generators of degree 1 to 3 with up
    to three terms each."""
    r = ctx.nvars
    gens = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * r
            for _ in range(degree):
                mono[rng.randrange(r)] += 1
            terms[tuple(mono)] = rng.randrange(1, ctx.characteristic)
        gens.append(Polynomial(ctx, terms))
    return Ideal(ctx, gens)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("p", [31991, 7])
def test_stop_on_random_homogeneous_ideals(monkeypatch, order, p):
    rng = random.Random(f"random:{order}:{p}")
    ctx = RingContext(["x", "y", "z", "w"], p, order)
    fired = 0
    for _ in range(12):
        a = random_homogeneous_ideal(rng, ctx)
        b = random_homogeneous_ideal(rng, ctx) if rng.random() < 0.8 else a
        runs = record_targeted_runs(monkeypatch,
                                    lambda: ideal_intersect(a, b))
        fired += sum(engine.series_stop for *_, engine in runs)
        stopped = list(ideal_intersect(a, b).groebner())
        target = quotient_hilbert_series(a)
        with unstopped(monkeypatch):
            assert list(ideal_intersect(a, b).groebner()) == stopped
            assert buchberger(a.generators, ctx) == \
                buchberger(a.generators, ctx, target)
    assert fired > 0
