"""Whether J annihilates L, by a second route that never builds L's
presentation B': the images of the unit vectors e_i generate L, and f e_i
lies in the image of R exactly when some r = f mod I_i lies in every other
I_j.  So J L = 0 iff every parameter lies in I_i + ∩_(j≠i) I_j for every i,
which ``normal_form`` decides in the problem's own ring.  It must agree
with ``verify``'s ``annihilates``, read off the series of gr_J(L)."""

import random
from itertools import combinations_with_replacement

from chernlab import (Ideal, Polynomial, ProblemInstance, RingContext,
                      ideal_sum, intersect_all, parse_polynomial)
from chernlab.cli import load_problem
from chernlab.verifier import run_verification
from conftest import PROBLEM_DIR
from helpers import contains

P = 32003


def annihilated_by_membership(ctx, ideals, parameters) -> bool:
    """Every parameter lies in I_i + ∩_(j≠i) I_j, for every i."""
    unit = Ideal(ctx, [Polynomial.constant(ctx, 1)])
    for i, ideal in enumerate(ideals):
        rest = ideals[:i] + ideals[i + 1:]
        ambient = ideal_sum(ideal, intersect_all(rest) if rest else unit)
        if not all(contains(ambient, f) for f in parameters):
            return False
    return True


def dense_form(rng, names, degree):
    return " + ".join(f"{rng.randrange(1, P)}*{'*'.join(m)}"
                      for m in combinations_with_replacement(names, degree))


def seeded_cases():
    """(label, ctx, component generators, parameters) in x, y, z, w.

    g = 2: (x^a, y^b) ∩ (z^c, w^e) with exponents 1-2 and two dense linear
    parameters; L = S/(x^a, y^b, z^c, w^e) is annihilated exactly when
    every exponent is 1.  g = 3: three random planes, with two dense linear
    parameters (a linear form in all three planes' ideals is zero, so L is
    not annihilated) or two dense quadrics (every quadric lies in
    I_i + ∩_(j≠i) I_j, so L is).
    """
    names = ["x", "y", "z", "w"]
    for seed in range(12):
        rng = random.Random(f"annihilation:{seed}")
        ctx = RingContext(names, P)
        if seed % 2 == 0:
            a, b, c, e = (rng.randint(1, 2) for _ in range(4))
            if seed % 4 == 0:
                a = b = c = e = 1
            blocks = [[f"x^{a}", f"y^{b}"], [f"z^{c}", f"w^{e}"]]
            degree = 1
        else:
            blocks = [[dense_form(rng, names, 1) for _ in range(2)]
                      for _ in range(3)]
            degree = 2 if seed % 4 == 1 else 1
        parameters = [dense_form(rng, names, degree) for _ in range(2)]
        yield (f"seed {seed}", ctx,
               [[parse_polynomial(t, ctx) for t in block] for block in blocks],
               [parse_polynomial(t, ctx) for t in parameters])


def shipped_cases():
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        problem = load_problem(str(path))
        ctx = RingContext(problem["variables"], problem["characteristic"],
                          problem["monomial_order"])
        yield (path.stem, ctx,
               [[parse_polynomial(t, ctx) for t in block]
                for block in problem["ideals"]],
               [parse_polynomial(t, ctx) for t in problem["parameters"]])


def test_membership_route_agrees_with_verify():
    outcomes = set()
    for label, ctx, blocks, parameters in [*shipped_cases(),
                                           *seeded_cases()]:
        ideals = [Ideal(ctx, block) for block in blocks]
        expected = annihilated_by_membership(ctx, ideals, parameters)
        inst = ProblemInstance(ctx, ideals, parameters)
        report = run_verification(inst, 2 * inst.d + 4)
        assert report["annihilates"] == expected, label
        outcomes.add((len(blocks), expected))
    assert outcomes >= {(2, True), (2, False), (3, True), (3, False)}

