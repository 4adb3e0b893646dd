"""The benchmark's own output check, run in-process: every command of every
workload in ``perfbench/workloads.py``, at two seeds, must exit 0 and pass
``perfbench/check.py``'s closed-form comparison.  Both files are loaded by
path, as they are, so a wrong answer on a benchmark instance fails here and
not only in a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

from chernlab.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(patch, name):
    """Import ``perfbench/<name>.py`` under its own name, which the other
    benchmark modules import it by, for as long as ``patch`` is open."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        _load(patch, "families")
        yield _load(patch, "workloads"), _load(patch, "check")


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["ladder", "dense-hilbert",
                                      "family-sweep"])
def test_workload_outputs_pass_the_benchmark_check(bench, tmp_path, capsys,
                                                   workload, seed):
    workloads, check = bench
    assert workload in workloads.PLANS
    for command in workloads.generate(workload, seed, tmp_path):
        code = main(command.argv())
        out = capsys.readouterr().out
        assert (code, check.check_output(command, code, out)) == (0, []), \
            command.argv()
