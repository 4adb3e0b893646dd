"""End-to-end benchmark of the chernlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run writes the workload's problem files
from the seed, checks that each loads through the CLI's load_problem and
build_instance, and then runs the workload's command list round and round
for about S seconds, timing a bare import of chernlab.cli now and then.  Each
command is a fresh ``python -m chernlab.cli <cmd> <file> --json`` process,
run one at a time (a closed loop with one client), and its output is
checked against the family's closed form.

With --trace 0 the last stdout line reports the end-to-end metrics of one
pass over the list, each command counted at the median of its runs.  Their
times are scaled to a reference host speed: after each child the run times
a fixed pure-Python loop for a share of the child's wall time, and every
time is multiplied by REFERENCE_S over the loop's mean time in the run.
The shared host's speed drifts by tens of percent from minute to minute,
and the scaling takes most of that drift out; the measured times are
printed above the result line.  With --trace 1 each command runs plain and
then under perfbench/traced_cli.py, and the line reports, per pass, the
calls, total and self time of every traced function, a few counts, and the
tracing overhead, all in measured seconds; the spans are written to
perfbench/.runs/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from check import check_output
from traced_cli import TRACED
from workloads import PLANS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

COMMAND_TIMEOUT_S = 60.0   # a command running longer is killed and failed
RUN_DEADLINE_S = 150.0     # no command runs past this point of a run
SETUP_SAMPLES = 15
# After each child, calibrate() runs for this share of the child's wall
# time, so that the host's speed is sampled evenly over the run.
CALIBRATION_SHARE = 0.3
# Every time metric is scaled by REFERENCE_S over the run's mean calibrate()
# time: the time it would have taken on a host where calibrate() takes
# REFERENCE_S.  0.019 s is its mean on the 2-vCPU Xeon VM of the baseline,
# so that scaled times read close to measured ones there.
REFERENCE_S = 0.019

VALIDATE = """
import sys
from chernlab.cli import build_instance, load_problem
for path in sys.argv[1:]:
    build_instance(load_problem(path))
"""


def _calibration_inputs():
    rng = random.Random(7)
    return [{tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, 32003)
             for _ in range(20)} for _ in range(5)]


CALIBRATION_INPUTS = _calibration_inputs()


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, about 0.02 s.

    The loop multiplies sparse polynomials mod p stored as dicts keyed by
    exponent tuples, the kind of work chernlab's hot loops do, without
    importing chernlab, so that no change to the program moves it.  On a
    shared host the loop flips between a fast and a slow speed (about 0.013
    and 0.021 s) from one tenth of a second to the next, and the share of
    time spent slow drifts over minutes with the host's other tenants.
    Every command slows with it, so the mean over many loops, sampled
    evenly over a run, measures how fast the host ran during that run.
    """
    start = time.perf_counter()
    product = {}
    for a in CALIBRATION_INPUTS:
        for b in CALIBRATION_INPUTS:
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    product[e] = (product.get(e, 0) + ca * cb) % 32003
    return time.perf_counter() - start


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv, env, timeout, scratch: Path) -> Child:
    """Run argv to completion or until ``timeout`` seconds, then kill it.

    Wall time spans process creation to reaping; CPU time and peak RSS come
    from the child's own rusage.
    """
    with open(scratch / "stdout", "w+b") as out, \
            open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted while waiting: leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, proc.returncode,
                     out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), not ready)


class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: list      # the traced child's spans, or None


class Runner:
    """Runs one workload's commands against one deadline and keeps, per
    command, the samples of its plain and its traced runs."""

    def __init__(self, commands, env, scratch: Path, deadline: float):
        self.commands = commands
        self.env = env
        self.scratch = scratch
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.samples = {mode: [[] for _ in commands]
                        for mode in ("plain", "traced")}
        self.setup = []
        self.calibrations = []

    def timed(self, argv, timeout) -> Child:
        """Run a child, then calibrate for CALIBRATION_SHARE of its wall
        time (at least once)."""
        child = run_child(argv, self.env, timeout, self.scratch)
        until = time.perf_counter() + CALIBRATION_SHARE * child.wall_s
        self.calibrations.append(calibrate())
        while time.perf_counter() < until:
            self.calibrations.append(calibrate())
        return child

    @property
    def scale(self) -> float:
        """The factor that takes this run's times to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.calibrations)

    def run(self, index: int, traced: bool) -> None:
        command = self.commands[index]
        spans_file = self.scratch / "spans.json"
        if traced:
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(spans_file)] + command.argv()
        else:
            argv = [sys.executable, "-m", "chernlab.cli"] + command.argv()
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        child = self.timed(argv, timeout)
        self.attempted += 1
        if child.timed_out:
            errors = [f"killed after {child.wall_s:.1f} s"]
        else:
            errors = check_output(command, child.exit_code, child.stdout)
        if errors:
            self.failed += 1
            print(f"FAILED {' '.join(command.argv())}: {errors[0]}",
                  child.stderr.strip()[-300:], file=sys.stderr)
            return
        spans = json.loads(spans_file.read_text()) if traced else None
        self.samples["traced" if traced else "plain"][index].append(
            Sample(child.wall_s, child.cpu_s, child.rss_mb, spans))

    def cycle(self, seconds: float, traced: bool) -> None:
        """Run the commands in order, round and round, one at a time, until
        ``seconds`` have passed and each has run once.  When ``traced``,
        each command runs plain and then traced.

        Between commands, SETUP_SAMPLES bare imports of chernlab.cli are
        timed at even intervals, so that set-up time is sampled over the
        same stretch of time as the commands."""
        start = time.perf_counter()
        index = 0
        while time.perf_counter() < self.deadline and not (
                index >= len(self.commands)
                and time.perf_counter() - start >= seconds):
            now = time.perf_counter()
            if now >= start + len(self.setup) * seconds / SETUP_SAMPLES:
                self.setup.append(self.timed(
                    [sys.executable, "-c", "import chernlab.cli"],
                    COMMAND_TIMEOUT_S))
            self.run(index % len(self.commands), False)
            if traced:
                self.run(index % len(self.commands), True)
            index += 1
        missed = max(0, len(self.commands) - index) * (2 if traced else 1)
        if missed:
            print(f"FAILED: {missed} commands not run before the deadline",
                  file=sys.stderr)
            self.attempted += missed
            self.failed += missed

    def pass_total(self, mode: str, field: str) -> float:
        """One pass's total of ``field``: the sum over the commands of the
        median of each command's samples."""
        return sum(statistics.median(getattr(s, field) for s in samples)
                   for samples in self.samples[mode])

    def report(self) -> None:
        for command, samples in zip(self.commands, self.samples["plain"]):
            walls = [s.wall_s for s in samples] or [math.nan]
            print(f"{command.subcommand:8} {Path(command.path).name:12} "
                  f"max-power {command.window:3}: {len(samples)} runs, "
                  f"median {statistics.median(walls):.3f} s measured")
        print(f"scale to the reference speed: {self.scale:.4f}, from "
              f"{len(self.calibrations)} calibrations")


def layer_metrics(per_command):
    """Per-layer metrics of one pass, from the spans of each command's traced
    samples: calls, total and self seconds of every traced function, plus
    the counts kept in the spans' extra slot.  Each command contributes the
    mean over its samples."""
    calls = defaultdict(float)
    total = defaultdict(float)
    self_time = defaultdict(float)
    extra = defaultdict(float)
    distinct = 0.0
    for samples in per_command:
        share = 1.0 / len(samples)
        for spans in samples:
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            keys = set()
            for (name, start, end, _, count), inner in zip(spans, child_time):
                calls[name] += share
                total[name] += (end - start) * share
                self_time[name] += (end - start - inner) * share
                if name == "ideals.quotient_length":
                    keys.add(count)
                elif count is not None:
                    extra[name] += count * share
            distinct += len(keys) * share
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.total_s"] = (total[name], "s")
        metrics[f"{name}.self_s"] = (self_time[name], "s")
    length_calls = calls["ideals.quotient_length"]
    metrics["ideals.quotient_length.distinct_ratio"] = (
        distinct / length_calls if length_calls else 0.0, "ratio")
    metrics["ideals.ideal_power.gens_out"] = (extra["ideals.ideal_power"],
                                              "count")
    metrics["groebner.buchberger.basis_size"] = (extra["groebner.buchberger"],
                                                 "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "chernlab").is_dir():
        print(f"no chernlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        commands = generate(args.workload, args.seed, scratch)
        files = sorted({c.path for c in commands})
        check = run_child([sys.executable, "-c", VALIDATE] + files, env,
                          COMMAND_TIMEOUT_S, scratch)
        if check.exit_code != 0:
            print("problem files do not load:", check.stderr.strip()[-2000:],
                  file=sys.stderr)
            return 2
        runner = Runner(commands, env, scratch, started + RUN_DEADLINE_S)
        runner.cycle(args.seconds, traced=bool(args.trace))
        if any(s.exit_code != 0 for s in runner.setup):
            print("importing chernlab.cli failed", file=sys.stderr)
            return 2
        measured = {}
        if runner.failed:
            metrics = {}
        elif args.trace:
            metrics = layer_metrics([[s.spans for s in samples] for samples
                                     in runner.samples["traced"]])
            traced_wall = runner.pass_total("traced", "wall_s")
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (
                traced_wall - runner.pass_total("plain", "wall_s"), "s")
            spans_out = RUNS / f"spans-{args.workload}-{args.seed}.json"
            spans_out.write_text(json.dumps(
                [[*span, f"{i}.{k}"]
                 for i, samples in enumerate(runner.samples["traced"])
                 for k, sample in enumerate(samples) for span in sample.spans]))
        else:
            measured = {
                "setup_s": statistics.median(s.wall_s for s in runner.setup),
                "wall_s": runner.pass_total("plain", "wall_s"),
                "cpu_s": runner.pass_total("plain", "cpu_s"),
            }
            metrics = {name: (value * runner.scale, "s")
                       for name, value in measured.items()}
            metrics["peak_rss_mb"] = (
                max(statistics.median(s.rss_mb for s in c)
                    for c in runner.samples["plain"]), "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runner.report()
    for name, value in measured.items():
        print(f"{name:48} {value:14.6f} s measured")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
