"""The benchmark's workloads: which instances are generated from the seed
and which CLI commands one pass runs on them.

A pass is the workload's fixed command list, run one command at a time.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple, Optional

from families import (FAMILIES, PRIME_POOL, problem_text, random_diagonal,
                      random_invertible)


class Command(NamedTuple):
    """One CLI invocation and what its output is checked against."""

    subcommand: str
    path: str
    family: str
    max_power: Optional[int]

    def argv(self):
        args = [self.subcommand, self.path, "--json"]
        if self.max_power is not None:
            args += ["--max-power", str(self.max_power)]
        return args

    @property
    def window(self) -> int:
        """The sampling window the CLI uses: --max-power or 2d + 4."""
        if self.max_power is not None:
            return self.max_power
        return 2 * FAMILIES[self.family].d + 4


ALL = ("hilbert", "coeffs", "verify")

# Each workload is a list of instances: (family, dense coordinates,
# subcommands run on it, --max-power or None for the default window).
PLANS = {
    # the shipped e1-e4 at their default window and two 4-planes at a
    # shortened one, in sparse coordinates, each through all three commands
    "ladder": [("e1", False, ALL, None), ("e2", False, ALL, None),
               ("e3", False, ALL, None), ("e4", False, ALL, None),
               ("p4", False, ALL, 6)],
    # dense e2-family instances and one dense 4-planes instance, hilbert only
    "dense-hilbert": [("e2", True, ("hilbert",), 6),
                      ("e2", True, ("hilbert",), 6),
                      ("p4", True, ("hilbert",), 4)],
    # many small d=2 instances from the e1, e3 and e4 families, verify only
    "family-sweep": [(name, True, ("verify",), 4)
                     for _ in range(4) for name in ("e1", "e3", "e4")],
}


def generate(workload: str, seed: int, directory: Path):
    """Write the workload's problem files for ``seed`` into ``directory`` and
    return the pass as a list of Commands.

    Every instance gets its own prime from the pool and its own coordinate
    change: dense instances a random invertible matrix, sparse ones a random
    diagonal rescaling.
    """
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    for index, (name, dense, subcommands, max_power) in \
            enumerate(PLANS[workload]):
        family = FAMILIES[name]
        p = rng.choice(PRIME_POOL)
        change = random_invertible if dense else random_diagonal
        path = directory / f"{index:02d}-{name}.json"
        path.write_text(problem_text(family, change(rng, family.r, p), p),
                        encoding="utf-8")
        commands += [Command(sub, str(path), name, max_power)
                     for sub in subcommands]
    return commands
