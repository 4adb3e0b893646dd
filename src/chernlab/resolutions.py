"""The closed-form Betti numbers of the Eagon-Northcott resolution of a
power of a complete intersection, and the length of Tor_1 against the
finite-length cokernel L from the four-term exact sequence of lengths.

``verify`` decides the torsion identities on one series
(``verifier.torsion_series``) and prints its partial sums through
``tor1_via_lengths``, over the tangent cones' per-n tables and the partial
sums of the Hilbert series of gr_J(L) (``graded.gr_series``).
"""

from __future__ import annotations

from .core import binomial

__all__ = [
    "en_betti",
    "tor1_via_lengths",
]


def en_betti(n: int, d: int, i: int) -> int:
    """Betti number beta_i of S/J^n for J a height-d complete intersection:
    C(n+d-1, d-i) * C(n+i-2, i-1)."""
    if n < 1:
        raise ValueError("power must be at least 1")
    if not 1 <= i <= d:
        raise ValueError("index out of range: need 1 <= i <= d")
    return binomial(n + d - 1, d - i) * binomial(n + i - 2, i - 1)


def tor1_via_lengths(core_values, component_values, colength, n: int) -> int:
    """Length of Tor_1(L, S/J^n) from the four-term exact sequence

        0 -> Tor_1(L, S/J^n) -> R/K^n -> ⊕ S/(I_i + J^n) -> L/J^n L -> 0,

    namely length(R/K^n) - sum_i length(S/(I_i + J^n)) + length(L/J^n L).
    The middle Tor of the components vanishes because the parameters form a
    regular sequence on each Cohen-Macaulay component.

    ``core_values`` is the Hilbert-Samuel table {n: length(R/K^n)} and
    ``component_values`` holds one table {n: length(S/(I_i + J^n))} per
    component; each covers n.  ``colength`` is length(L/J^n L), the n-th
    partial sum of ``graded.gr_series``.
    """
    total = core_values[n] - sum(table[n] for table in component_values)
    return total + colength
