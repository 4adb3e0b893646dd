"""Command-line front end.

Subcommands: hilbert, coeffs, verify, betti, each with -h/--help; the
command line is read by ``_parse_args``.  Problem files are JSON; the
schema is documented in the README and validated before any computation.
Output is a human table by default or JSON with --json; JSON output is
byte-deterministic for fixed input and encodes lengths and coefficients as
decimal strings.

Exit codes: 0 success (verify: overall pass), 1 internal inconsistency
(verify: an identity fails), 2 schema or usage error, 3 hypothesis failure.
The CLI is the one gate on the hypotheses, and ``main`` passes every file
command through it once (``_admit``): a non-homogeneous generator or
parameter (``core.HypothesisError``, raised while the instance is built) is
exit 3 always, and a failing check of the instance's ``hypotheses`` is
exit 3 unless --force, which proceeds with a warning.  The Hilbert
coefficients and every identity are read off exact Hilbert series, for all
n, so no exit code depends on the window --max-power: it sets only the
tables of values that are printed, and it is resolved here alone (flag,
else the file's key, else 2d + 4) and passed to the commands that print.
Input above a documented cap is refused with exit 2 before any
computation: a window outside 1..MAX_POWER_LIMIT (flag or key, one check),
and betti's --d above BETTI_D_LIMIT or --n above BETTI_N_LIMIT.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from . import resolutions, verifier
from .core import (PRIME_LIMIT, HypothesisError, ParseError, RingContext,
                   is_prime, parse_polynomial)
from .hilbert import chern_sign, samuel_polynomial
from .ideals import Ideal, NotFiniteLengthError
from .instance import ProblemInstance

__all__ = ["main", "run", "SchemaError", "load_problem", "build_instance"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2
EXIT_HYPOTHESIS = 3

# the window 1..N of printed tables; verify's output grows linearly in N
MAX_POWER_LIMIT = 1000
# betti's caps: at both, the largest Betti number has 3729 digits, below
# the 4300 that int-to-str conversion allows by default
BETTI_D_LIMIT = 1000
BETTI_N_LIMIT = 10 ** 6

_ALLOWED_KEYS = {"characteristic", "variables", "monomial_order", "ideals",
                 "parameters", "max_power"}
_ORDERS = {"grevlex", "lex"}


class SchemaError(ValueError):
    """Raised when a problem file does not match the documented schema."""


def load_problem(path: str) -> dict:
    """Read and schema-validate a problem file (no algebra yet)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("problem file must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    for key in ("variables", "ideals", "parameters"):
        if key not in raw:
            raise SchemaError(f"missing required key {key!r}")

    characteristic = raw.get("characteristic", 32003)
    if (not isinstance(characteristic, int) or characteristic >= PRIME_LIMIT
            or not is_prime(characteristic)):
        raise SchemaError(f"characteristic must be prime below {PRIME_LIMIT}")

    variables = raw["variables"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) for v in variables)):
        raise SchemaError("variables must be a nonempty list of strings")

    order = raw.get("monomial_order", "grevlex")
    if not isinstance(order, str) or order not in _ORDERS:
        raise SchemaError(f"monomial_order must be one of {sorted(_ORDERS)}")

    ideals = raw["ideals"]
    if (not isinstance(ideals, list) or not ideals
            or not all(isinstance(block, list) and block
                       and all(isinstance(s, str) for s in block)
                       for block in ideals)):
        raise SchemaError("ideals must be a nonempty list of nonempty "
                          "lists of polynomial strings")

    parameters = raw["parameters"]
    if (not isinstance(parameters, list) or not parameters
            or not all(isinstance(s, str) for s in parameters)):
        raise SchemaError("parameters must be a nonempty list of "
                          "polynomial strings")

    max_power = raw.get("max_power")
    if max_power is not None and (not isinstance(max_power, int)
                                  or isinstance(max_power, bool)):
        raise SchemaError("max_power must be an integer")

    return {
        "characteristic": characteristic,
        "variables": variables,
        "monomial_order": order,
        "ideals": ideals,
        "parameters": parameters,
        "max_power": max_power,
    }


def build_instance(problem: dict) -> ProblemInstance:
    """Parse polynomials and assemble the instance.

    Inhomogeneous generators or parameters raise ``core.HypothesisError``
    from ``Ideal`` and ``ProblemInstance`` (the graded machinery cannot run
    on them), before any basis is computed.  Input nested too deeply for
    the recursive parser is a schema error.
    """
    try:
        ctx = RingContext(problem["variables"], problem["characteristic"],
                          problem["monomial_order"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    try:
        ideal_polys = [[parse_polynomial(text, ctx) for text in block]
                       for block in problem["ideals"]]
        parameters = [parse_polynomial(text, ctx)
                      for text in problem["parameters"]]
    except ParseError as exc:
        raise SchemaError(f"polynomial syntax: {exc}") from exc
    except RecursionError:
        raise SchemaError("polynomial syntax: expression nested too "
                          "deeply") from None
    ideals = [Ideal(ctx, block) for block in ideal_polys]
    return ProblemInstance(ctx, ideals, parameters)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _admit(args) -> ProblemInstance:
    """The instance of FILE, once it passes the one gate on its
    ``hypotheses``, with ``args.max_power`` set to the window 1..N of the
    printed tables: the flag, else the file's key, else 2d + 4.  A window
    outside 1..MAX_POWER_LIMIT is refused before the instance is built.  A
    failing check raises ``HypothesisError`` (exit 3), after ``verify
    --json`` prints the refusal report, unless --force, which warns and
    admits the instance."""
    problem = load_problem(args.file)
    window = problem["max_power"] if args.max_power is None else args.max_power
    if window is not None and not 1 <= window <= MAX_POWER_LIMIT:
        raise SchemaError(f"max_power must be in 1..MAX_POWER_LIMIT = "
                          f"{MAX_POWER_LIMIT}, not {window}")
    inst = build_instance(problem)
    args.max_power = 2 * inst.d + 4 if window is None else window
    failing = [c["name"] for c in inst.hypotheses["checks"]
               if not c["passed"]]
    if failing and args.force:
        print(f"warning: hypothesis checks skipped by --force "
              f"(failing: {', '.join(failing)})", file=sys.stderr)
    elif failing:
        if args.json and args.func is cmd_verify:
            _emit_json({"hypotheses": inst.hypotheses,
                        "overall": "hypothesis_failure"})
        raise HypothesisError(", ".join(failing))
    return inst


def cmd_hilbert(inst, args) -> int:
    series, _ = inst.ring_series()
    values = [(n, series.summed(n)) for n in range(1, args.max_power + 1)]
    if args.json:
        _emit_json([{"n": n, "length": str(h)} for n, h in values])
    else:
        print(f"{'n':>4}  {'H(K,n)':>12}")
        for n, h in values:
            print(f"{n:>4}  {h:>12}")
    return EXIT_OK


def cmd_coeffs(inst, args) -> int:
    series, module_length = inst.ring_series()
    e, n0 = samuel_polynomial(series, inst.d)
    payload = {
        "e": [str(c) for c in e],
        "n0": n0,
        "cm": e[0] == series.summed(1),
        "chern_sign": chern_sign(e[1] if len(e) > 1 else 0),
        "lambda_L": str(module_length()),
    }
    if args.json:
        _emit_json(payload)
    else:
        print("e:          " + ", ".join(payload["e"]))
        print(f"n0:         {payload['n0']}")
        print(f"cm:         {payload['cm']}")
        print(f"chern_sign: {payload['chern_sign']}")
        print(f"lambda_L:   {payload['lambda_L']}")
    return EXIT_OK


def cmd_verify(inst, args) -> int:
    report = verifier.run_verification(inst, args.max_power)
    if args.json:
        _emit_json(report)
    else:
        _print_report(report)
    return EXIT_OK if report.get("overall") == "pass" else EXIT_INTERNAL


def _print_report(report: dict) -> None:
    print(f"ring: F_{report['characteristic']}"
          f"[{', '.join(report['variables'])}], d={report['d']}, "
          f"g={report['g']}")
    print(f"hypotheses: "
          f"{'pass' if report['hypotheses']['all_pass'] else 'FAIL'}")
    if "lambda_L" in report:
        print(f"lambda(L) = {report['lambda_L']}, "
              f"annihilated: {report['annihilates']}")
        print("e = (" + ", ".join(report["hilbert"]["e"]) + "), "
              f"n0 = {report['hilbert']['n0']}")
        print(f"cm: {report['cm']['is_cm']}, "
              f"chern_sign: {report['chern_sign']}")
        for identity in report["identities"]:
            print(f"  {identity['name']:<24} {identity['status']}")
    print(f"overall: {report.get('overall')}")


def cmd_betti(args) -> int:
    if args.d < 1 or args.n < 1:
        print("betti: need --d >= 1 and --n >= 1", file=sys.stderr)
        return EXIT_SCHEMA
    if args.d > BETTI_D_LIMIT or args.n > BETTI_N_LIMIT:
        print(f"betti: need --d <= BETTI_D_LIMIT = {BETTI_D_LIMIT} and "
              f"--n <= BETTI_N_LIMIT = {BETTI_N_LIMIT}", file=sys.stderr)
        return EXIT_SCHEMA
    betti = [1] + [resolutions.en_betti(args.n, args.d, i)
                   for i in range(1, args.d + 1)]
    euler = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
    if args.json:
        _emit_json({"d": args.d, "n": args.n,
                    "betti": [str(b) for b in betti], "euler": str(euler)})
    else:
        print(f"{'i':>4}  {'beta_i':>12}")
        for i, b in enumerate(betti):
            print(f"{i:>4}  {b:>12}")
        print(f"Euler characteristic: {euler}")
    return EXIT_OK


_FILE_OPTIONS = {
    "--max-power": ("N", "override the sampling window 1..N"),
    "--json": (None, "emit machine-readable JSON"),
    "--force": (None, "proceed despite hypothesis failures"),
}
_BETTI_OPTIONS = {
    "--d": ("D", "height d of the complete intersection"),
    "--n": ("N", "the power n of J"),
    "--json": (None, "emit machine-readable JSON"),
}
_FILE_USAGE = "[-h] [--max-power N] [--json] [--force] FILE"
# name: (handler, help line, usage after the name, options, required)
_COMMANDS = {
    "hilbert": (cmd_hilbert, "table of Hilbert-Samuel values H(K, n)",
                _FILE_USAGE, _FILE_OPTIONS, ("FILE",)),
    "coeffs": (cmd_coeffs, "Hilbert coefficients and verdicts",
               _FILE_USAGE, _FILE_OPTIONS, ("FILE",)),
    "verify": (cmd_verify, "full identity verification report",
               _FILE_USAGE, _FILE_OPTIONS, ("FILE",)),
    "betti": (cmd_betti, "Betti numbers of S/J^n for a complete "
                         "intersection of height d",
              "[-h] --d D --n N [--json]", _BETTI_OPTIONS, ("--d", "--n")),
}
_USAGE = "usage: chernlab [-h] {hilbert,coeffs,verify,betti} ...\n"
_DESCRIPTION = ("Hilbert-Samuel functions and Chern numbers of parameter "
                "ideals in\nintersections of Cohen-Macaulay ideals.\n")
_HELP_ROW = ("-h, --help", "show this help message and exit")


def _key(name: str) -> str:
    """The attribute that holds FILE or an option: "--max-power" ->
    "max_power"."""
    return name.lstrip("-").lower().replace("-", "_")


def _rows(rows) -> str:
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left:<{width}}  {text}\n" for left, text in rows)


class _Stop(Exception):
    """Ends parsing with args (exit code, text): 0 with help for stdout, or
    2 with the usage and the reason for stderr."""


def _parse_args(argv):
    """The command line as the subcommand's values.

    Grammar: ``{hilbert,coeffs,verify} FILE [--max-power N] [--json]
    [--force]`` with the options in any order, ``betti --d D --n N
    [--json]``, and -h/--help at the top level or after a subcommand.  An
    integer value follows its option as the next token, even one that
    starts with '-', or after '='.  Options are matched by their full
    name only.  Raises _Stop for help and for usage errors.
    """
    if not argv:
        raise _Stop(2, _USAGE + "chernlab: error: missing command\n")
    command = argv[0]
    if command in ("-h", "--help"):
        raise _Stop(0, f"{_USAGE}\n{_DESCRIPTION}\ncommands:\n" + _rows(
            [(name, spec[1]) for name, spec in _COMMANDS.items()]
            + [_HELP_ROW]))
    if command not in _COMMANDS:
        raise _Stop(2, _USAGE + f"chernlab: error: invalid command "
                    f"{command!r} (choose from {', '.join(_COMMANDS)})\n")
    func, summary, usage, options, required = _COMMANDS[command]
    usage = f"usage: chernlab {command} {usage}\n"
    takes_file = "FILE" in required

    def fail(reason):
        raise _Stop(2, f"{usage}chernlab {command}: error: {reason}\n")

    values = {"func": func, "file": None, "max_power": None, "json": False,
              "force": False, "d": None, "n": None}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Stop(0, f"{usage}\n{summary}\n\noptions:\n" + _rows(
                ([("FILE", "problem file (JSON)")] if takes_file else [])
                + [(f"{name} {meta}" if meta else name, text)
                   for name, (meta, text) in options.items()]
                + [_HELP_ROW]))
        name, eq, value = token.partition("=")
        if name in options:
            key = _key(name)
            if options[name][0] is None:
                if eq:
                    fail(f"{name} takes no value")
                values[key] = True
                continue
            if not eq:
                value = next(tokens, None)
                if value is None:
                    fail(f"{name} needs a value")
            try:
                values[key] = int(value)
            except ValueError:
                fail(f"{name}: not an integer: {value!r}")
        elif (takes_file and values["file"] is None
              and not token.startswith("-")):
            values["file"] = token
        else:
            fail(f"unrecognized argument {token!r}")
    missing = [name for name in required if values[_key(name)] is None]
    if missing:
        fail(f"missing {', '.join(missing)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        code, text = stop.args
        (sys.stdout if code == 0 else sys.stderr).write(text)
        return code
    try:
        if args.file is None:
            return args.func(args)
        return args.func(_admit(args), args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NotFiniteLengthError, ValueError, RuntimeError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """The process entry: ``python -m chernlab.cli`` and the ``chernlab``
    script.  Runs ``main`` on ``sys.argv`` and exits with its code.

    Before exiting it moves every object the collector tracks into the
    permanent generation (``gc.freeze``), so the full collections that
    CPython runs at shutdown find nothing to scan: about 12 k objects of
    the stdlib and chernlab that the exit frees anyway.  Output is flushed
    and ``atexit`` handlers run as before.  ``main`` itself never freezes,
    so an in-process caller keeps a normal collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
