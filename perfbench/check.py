"""Closed-form checks of the CLI's JSON output.

Each command's output is compared field by field with the family's known
answers.  Only the fields named here are compared, so a report that gains a
field still passes; byte-determinism is the test suite's job.
"""

from __future__ import annotations

import json

from families import FAMILIES, hilbert_polynomial, torsion_length


def _expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _check_values(errors, what, rows, want):
    """``rows`` is a list of {"n", "length"} objects; ``want`` maps n to the
    expected length."""
    got = {row["n"]: row["length"] for row in rows}
    _expect(errors, what, got, {n: str(v) for n, v in want.items()})


def _check_coefficients(errors, family, e, n0):
    _expect(errors, "e", e, [str(c) for c in family.e])
    # the Hilbert polynomial matches H(K, n) from n = 1 on for every family
    _expect(errors, "n0", n0, 1)


def _chern_sign(e1: int) -> str:
    return "negative" if e1 < 0 else "zero" if e1 == 0 else "positive"


def check_output(command, exit_code: int, stdout: str):
    """Return a list of mismatch descriptions; empty when the output of
    ``command`` is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}, want 0"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    family = FAMILIES[command.family]
    values = {n: hilbert_polynomial(family.e, n)
              for n in range(1, command.window + 1)}
    errors = []
    try:
        if command.subcommand == "hilbert":
            _check_values(errors, "H(K,n)", doc, values)
        elif command.subcommand == "coeffs":
            _check_coefficients(errors, family, doc["e"], doc["n0"])
            _expect(errors, "lambda_L", doc["lambda_L"], str(family.lam))
            _expect(errors, "chern_sign", doc["chern_sign"],
                    _chern_sign(family.e[1]))
            _expect(errors, "cm", doc["cm"], family.e[0] == values[1])
        else:
            _expect(errors, "overall", doc["overall"], "pass")
            _check_coefficients(errors, family, doc["hilbert"]["e"],
                                doc["hilbert"]["n0"])
            _check_values(errors, "H(K,n)", doc["hilbert"]["values"], values)
            _expect(errors, "lambda_L", doc["lambda_L"], str(family.lam))
            _expect(errors, "chern_sign", doc["chern_sign"],
                    _chern_sign(family.e[1]))
            _expect(errors, "annihilates", doc["annihilates"],
                    family.annihilated)
            if family.annihilated:
                _check_values(errors, "torsion",
                              doc["torsion_hilbert"]["values"],
                              {n: torsion_length(family, n) for n in values})
    except (KeyError, TypeError) as exc:
        errors.append(f"missing or malformed field: {exc!r}")
    return errors
