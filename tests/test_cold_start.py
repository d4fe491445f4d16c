"""Cold-start contract of the ``repro`` process entry points.

A cold ``python -m repro`` process pays for its imports and for
interpreter finalization on every invocation, so:

* no ``repro`` process imports numpy — the scheduler's backends are the
  python reference loop and the native C kernel, and neither needs it;
* no ``place``, ``sweep`` or ``shard plan/run/merge`` process imports
  networkx — the pipeline runs on :class:`repro.core.graph.Graph`, and
  only the accessors that return a :class:`networkx.Graph` load it;
* both process entry points, ``python -m repro`` and
  ``python -m repro.cli``, call ``gc.freeze()`` once their imports are
  done, so the run's full collections and finalization skip the
  import-time objects.  ``cli.main()`` itself never freezes, because
  tests and embedding programs call it in-process.

Each process check runs in a fresh interpreter that reads its answer from
an ``atexit`` hook, i.e. after the command itself has finished.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: Registers the exit hook, then imports ``repro`` (module ``-``) or runs
#: the module the way ``python -m`` does.
PROBE = r"""
import atexit
import gc
import runpy
import sys


@atexit.register
def report():
    sys.stderr.write(
        f"\nprobe numpy={'numpy' in sys.modules} "
        f"networkx={'networkx' in sys.modules} "
        f"frozen={gc.get_freeze_count() > 0}\n"
    )


module, *args = sys.argv[1:]
if module == "-":
    import repro
else:
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)
"""


def _probe(module, *args):
    """``{"numpy": ..., "networkx": ..., "frozen": ...}`` at a fresh process's exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, module, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = completed.stderr.splitlines()[-1].split()
    assert report[0] == "probe", completed.stderr
    return {
        name: value == "True"
        for name, value in (item.split("=") for item in report[1:])
    }


@pytest.mark.parametrize("command", [
    ["-"],
    ["repro", "place", "qft6", "trans-crotonic-acid"],
    ["repro", "sweep", "qft6", "trans-crotonic-acid",
     "--thresholds", "100", "200", "--jobs", "2"],
], ids=["import", "place", "sweep-jobs-2"])
def test_no_repro_process_imports_numpy(command):
    assert not _probe(*command)["numpy"]


@pytest.mark.parametrize("command", [
    ["-"],
    # The exact engine at the default (minimal connecting) threshold.
    ["repro", "place", "random:6x18x3", "trans-crotonic-acid", "--output", "json"],
    ["repro", "place", "random:12x40x3", "grid:6x6", "--placer", "greedy",
     "--output", "json"],
    ["repro", "sweep", "random:6x18x3", "trans-crotonic-acid", "--jobs", "2",
     "--output", "json"],
], ids=["import", "place", "place-greedy-grid", "sweep-jobs-2"])
def test_no_repro_process_imports_networkx(command):
    assert not _probe(*command)["networkx"]


def test_no_shard_process_imports_networkx(tmp_path):
    plan = ["repro", "shard", "plan", "random:6x18x3", "trans-crotonic-acid",
            "--shards", "2", "--out-dir", str(tmp_path)]
    runs = [
        ["repro", "shard", "run", "--shard-file", str(tmp_path / f"shard-{index}.pkl"),
         "--out", str(tmp_path / f"out-{index}.json")]
        for index in range(2)
    ]
    merge = ["repro", "shard", "merge", "--plan", str(tmp_path / "plan.json"),
             str(tmp_path / "out-0.json"), str(tmp_path / "out-1.json"),
             "--output", "json"]
    for command in [plan, *runs, merge]:
        assert not _probe(*command)["networkx"], command[1:3]


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_process_entry_points_freeze_the_gc(module):
    assert _probe(module, "list")["frozen"]


def test_in_process_main_leaves_the_gc_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["list"]) == 0
    assert gc.get_freeze_count() == before
