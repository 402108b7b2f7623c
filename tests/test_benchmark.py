"""The benchmark under bench/ still attaches to this checkout's package, and its output checks pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls():
    # Tracer.install rebinds package names by name (compose_forms,
    # solve_norm_equation, class_of_prime, category_of, the cli handlers, ...),
    # so it raises when src/ drops one.  A subprocess, because load_package
    # re-imports aptgroup afresh; no bytecode is written under bench/.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from harness import load_package\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install(load_package(), {})\n"
        "tracer.uninstall()\n"
        "print('attached')\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "attached\n"


@pytest.mark.parametrize("workload", ["basis-cold", "decompose-warm", "cli-mix"])
def test_workload_outputs_are_correct(workload):
    # one round (--seconds 0) of the workload, every op's output checked
    # against the recorded values; it writes its case log under bench/out/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
