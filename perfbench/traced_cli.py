"""Run one chernlab CLI command with spans around the public functions of
each layer.

    python perfbench/traced_cli.py SPANS_FILE CLI_ARGS...

behaves like ``python -m chernlab.cli CLI_ARGS...`` (same stdout, stderr and
exit code) and, at exit, writes the spans as JSON to SPANS_FILE.  A span is
[name, start, end, parent, extra]: ``parent`` is the index of the enclosing
span or -1, ``extra`` a per-function count (see EXTRAS) or null.

chernlab must be importable (put the repository's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TRACED = (
    "cli.main", "cli.load_problem", "cli.build_instance",
    "core.parse_polynomial",
    "verifier.run_verification", "verifier.check_hypotheses",
    "verifier.e0_additivity_check",
    "hilbert.hilbert_samuel", "hilbert.fit_coefficients",
    "resolutions.tor1_via_lengths",
    "graded.diagonal_cokernel", "graded.annihilates", "graded.power_colength",
    "ideals.quotient_length", "ideals.ideal_power", "ideals.ideal_intersect",
    "ideals.krull_dimension", "ideals.quotient_hilbert_series",
    "groebner.buchberger", "groebner.normal_form",
    "groebner.standard_monomials",
    "linalg.rref_mod_p", "linalg.solve_fraction_free",
)


def _generator_set(args, kwargs, result):
    """A key of the ideal's generator set, to count distinct inputs."""
    ideal = args[0] if args else kwargs["a"]
    return hash((ideal.ctx.variables, ideal.ctx.characteristic,
                 ideal.ctx.order,
                 frozenset(frozenset(g.terms.items())
                           for g in ideal.generators)))


# Per-function counts kept in the span's extra slot.
EXTRAS = {
    "ideals.quotient_length": _generator_set,
    "ideals.ideal_power": lambda args, kwargs, result: len(result.generators),
    "groebner.buchberger": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Holds the spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every traced function by its wrapper in every chernlab
        module that holds it, since ``from .x import f`` binds f again in
        the importing module."""
        importlib.import_module("chernlab.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "chernlab" or key.startswith("chernlab.")]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"chernlab.{module_name}"], attr)
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["chernlab.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
