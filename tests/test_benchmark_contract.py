"""The names the benchmark (perfbench/) looks up in the program.

perfbench wraps or reads some names that no other caller uses, so renaming
or deleting one breaks the benchmark while every other test passes.  This
runs its negative control and one traced jacobian_replay round, which
together wrap, call and read all of them, and checks the names the traced
round skips (the set-up probe's make_ctx) directly.
"""

import json
import subprocess
import sys
from pathlib import Path

from operstokes import exactla, immersion, isomono, stokes

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench(*argv):
    proc = subprocess.run([sys.executable, str(RUN), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_benchmark_finds_what_it_wraps():
    for owner, name in ((isomono, "joint_system"),
                        (stokes.EntireBasis, "state_matrix"),
                        (exactla, "exact_solve"), (exactla, "commutator"),
                        (stokes, "make_ctx")):
        assert callable(getattr(owner, name)), name
    assert "holomorphy" in immersion.JacobianReport.__dataclass_fields__
    assert "every corruption was caught" in perfbench("--self-test-corrupt")
    result = json.loads(perfbench(
        "--workload", "jacobian_replay", "--seed", "1", "--seconds", "0",
        "--trace", "1").splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3
