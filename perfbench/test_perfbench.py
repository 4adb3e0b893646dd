"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The CLI runs in child processes that find chernlab through PYTHONPATH,
set to the repository's src directory.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from check import check_output
from families import FAMILIES, hilbert_polynomial
from run import (CALIBRATION_SHARE, HERE, REFERENCE_S, ROOT, VALIDATE,
                 Runner, layer_metrics, run_child)
from workloads import PLANS, Command, generate

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _cli(tmp_path, command, traced=False):
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"),
                str(tmp_path / "spans.json")] + command.argv()
    else:
        argv = [sys.executable, "-m", "chernlab.cli"] + command.argv()
    return run_child(argv, ENV, 60.0, tmp_path)


def _first(tmp_path, workload, family, subcommand, seed=3):
    commands = generate(workload, seed, tmp_path)
    return next(c for c in commands
                if c.family == family and c.subcommand == subcommand)


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    runs = []
    for label, seed in (("a", 11), ("b", 11), ("c", 12)):
        directory = tmp_path / label
        directory.mkdir()
        commands = generate(workload, seed, directory)
        runs.append([(c.subcommand, os.path.basename(c.path), c.max_power,
                      open(c.path, "rb").read()) for c in commands])
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_generated_files_load(tmp_path, workload):
    files = sorted({c.path for c in generate(workload, 5, tmp_path)})
    child = run_child([sys.executable, "-c", VALIDATE] + files, ENV, 120.0,
                      tmp_path)
    assert child.exit_code == 0, child.stderr


def test_closed_forms_match_known_values():
    assert [hilbert_polynomial(FAMILIES["e4"].e, n) for n in (1, 2, 3)] \
        == [5, 13, 24]
    assert [hilbert_polynomial(FAMILIES["p4"].e, n) for n in (1, 2, 3, 4)] \
        == [5, 19, 49, 104]
    assert [hilbert_polynomial(FAMILIES["e2"].e, n) for n in (1, 2, 3)] \
        == [4, 13, 29]


def test_checker_rejects_corrupted_verify_report(tmp_path):
    command = _first(tmp_path, "family-sweep", "e1", "verify")
    child = _cli(tmp_path, command)
    assert check_output(command, child.exit_code, child.stdout) == []

    report = json.loads(child.stdout)
    report["new_hypothesis_check"] = {"passed": True}
    assert check_output(command, 0, json.dumps(report)) == []

    flipped = json.loads(child.stdout)
    flipped["hilbert"]["e"][1] = "1"
    assert check_output(command, 0, json.dumps(flipped))

    wrong = json.loads(child.stdout)
    row = next(r for r in wrong["hilbert"]["values"] if r["n"] == 3)
    row["length"] = str(int(row["length"]) + 1)
    assert check_output(command, 0, json.dumps(wrong))

    assert check_output(command, 1, child.stdout)


def test_checker_rejects_corrupted_hilbert_and_coeffs(tmp_path):
    hilbert = _first(tmp_path, "ladder", "e4", "hilbert")
    child = _cli(tmp_path, hilbert)
    assert check_output(hilbert, child.exit_code, child.stdout) == []
    rows = json.loads(child.stdout)
    rows[2]["length"] = "25"
    assert check_output(hilbert, 0, json.dumps(rows))
    assert check_output(hilbert, 0, json.dumps(rows[:-1]))

    coeffs = _first(tmp_path, "ladder", "e4", "coeffs")
    child = _cli(tmp_path, coeffs)
    assert check_output(coeffs, child.exit_code, child.stdout) == []
    doc = json.loads(child.stdout)
    doc["chern_sign"] = "zero"
    assert check_output(coeffs, 0, json.dumps(doc))


def test_tracing_leaves_output_unchanged(tmp_path):
    command = _first(tmp_path, "family-sweep", "e4", "verify")
    plain = _cli(tmp_path, command)
    traced = _cli(tmp_path, command, traced=True)
    assert traced.exit_code == plain.exit_code == 0
    assert traced.stdout == plain.stdout
    assert check_output(command, traced.exit_code, traced.stdout) == []

    spans = json.loads((tmp_path / "spans.json").read_text())
    names = {span[0] for span in spans}
    assert {"cli.main", "cli.load_problem", "verifier.run_verification",
            "resolutions.tor1_via_lengths", "groebner.buchberger"} <= names
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(0 <= span[3] < i for i, span in enumerate(spans) if i)


def test_timeout_kills_a_hanging_command(tmp_path):
    child = run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                      ENV, 0.5, tmp_path)
    assert child.timed_out
    assert child.wall_s < 10


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["hilbert.hilbert_samuel", 1.0, 5.0, 0, None],
             ["ideals.quotient_length", 2.0, 4.0, 1, 7],
             ["ideals.quotient_length", 6.0, 7.0, 0, 7],
             ["ideals.ideal_power", 8.0, 9.0, 0, 3]]
    metrics = layer_metrics([[spans]])
    assert metrics["cli.main.self_s"][0] == 4.0
    assert metrics["hilbert.hilbert_samuel.self_s"][0] == 2.0
    assert metrics["ideals.quotient_length.calls"][0] == 2
    assert metrics["ideals.quotient_length.distinct_ratio"][0] == 0.5
    assert metrics["ideals.ideal_power.gens_out"][0] == 3
    assert metrics["resolutions.tor1_via_lengths.calls"][0] == 0


def test_layer_metrics_average_each_commands_samples():
    once = [["cli.main", 0.0, 2.0, -1, None]]
    twice = [["cli.main", 0.0, 1.0, -1, None],
             ["ideals.ideal_power", 0.2, 0.4, 0, 6]]
    metrics = layer_metrics([[once], [twice, twice]])
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["cli.main.total_s"][0] == 3.0
    assert metrics["ideals.ideal_power.gens_out"][0] == 6


def test_command_window_defaults_to_2d_plus_4():
    assert Command("verify", "f", "e2", None).window == 10
    assert Command("verify", "f", "e2", 6).window == 6


def test_calibration_covers_its_share_of_each_child(tmp_path):
    runner = Runner([], ENV, tmp_path, deadline=0.0)
    child = runner.timed([sys.executable, "-c", "import time; time.sleep(1)"],
                         10.0)
    assert child.exit_code == 0
    calibrated = sum(runner.calibrations)
    assert calibrated > 0.8 * CALIBRATION_SHARE * child.wall_s
    assert calibrated < CALIBRATION_SHARE * child.wall_s + 0.5
    assert runner.scale == pytest.approx(
        REFERENCE_S * len(runner.calibrations) / calibrated)
