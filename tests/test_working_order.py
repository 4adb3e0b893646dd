"""No command builds a pure-lex basis.  Non-linear parameters get a grevlex
working ring and linear ones a ("ydeg", k, base) ring, and every ring a
command adjoins variables to (the core's diagonal ring, graph, Rees, L's
presentation) keeps a degree-first order, so a problem written under
``lex`` runs no engine under a bare ``"lex"`` tag."""

import json

import pytest

import chernlab.groebner as groebner_module
from chernlab.cli import main
from conftest import PROBLEM_DIR
from helpers import dense_quadric_problem

LEX_TWINS = [(path.stem, dict(json.loads(path.read_text(encoding="utf-8")),
                              monomial_order="lex"))
             for path in sorted(PROBLEM_DIR.glob("*.json"))]
LEX_TWINS.append(("dense_quadrics", dense_quadric_problem("lex")))


@pytest.mark.parametrize("command", ["hilbert", "coeffs", "verify"])
@pytest.mark.parametrize("name, problem", LEX_TWINS,
                         ids=[name for name, _ in LEX_TWINS])
def test_no_engine_runs_under_lex(tmp_path, monkeypatch, capsys, name,
                                  problem, command):
    orders = []

    class Recording(groebner_module._Engine):
        def __init__(self, gens, ctx, series=None):
            orders.append(ctx.order)
            super().__init__(gens, ctx, series)

    monkeypatch.setattr(groebner_module, "_Engine", Recording)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    assert orders
    assert "lex" not in orders
