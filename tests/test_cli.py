import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as QQ

import pytest

import operstokes
from operstokes import cli
from operstokes.cli import main
from operstokes.poly import Poly

WEBER = ["--n", "2", "--k", "1", "--poly", "0,0,1"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [f"n={n} ok (a-formula=ok c-corner=ok c-next=ok "
                     f"c-null=ok commuting=ok signs=ok span=ok)"
                     if n >= 3 else
                     f"n={n} ok (a-formula=ok c-corner=ok commuting=ok "
                     f"signs=ok span=ok)"
                     for n in (2, 3, 4)]


def test_verify_corruption_is_detected(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--self-test-corrupt")
    assert code == 0
    assert "self-test corrupt: ok (corruption detected)" in out


def test_verify_rejects_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "1")
    assert code == 2
    assert "error:" in err


def test_basis_output(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3")
    assert code == 0
    assert "v 1 -1" in out and "v 2 2" in out
    assert "violations: 0" in out


def test_basis_needs_n(capsys):
    code, _, err = run(capsys, "basis")
    assert code == 2 and "error:" in err


def test_kernel_document(capsys):
    code, out, _ = run(capsys, "kernel", *WEBER)
    assert code == 0
    doc = json.loads(out)
    assert doc["tangent_dim"] == 0
    assert doc["injective"] is True
    assert doc["homogeneous_kernel_dim"] == 1
    assert doc["traceless_homogeneous_kernel_dim"] == 0
    assert doc["exact"] is True


def test_kernel_timing_names_the_certificate(capsys):
    code, out, _ = run(capsys, "kernel", *WEBER)
    assert code == 0
    assert "certificate" not in json.loads(out)
    code, out, _ = run(capsys, "kernel", *WEBER, "--timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] == "identity mod 2^61-1"
    assert doc["timing"] >= 0


def test_kernel_document_serializes_witness(capsys, monkeypatch):
    real = cli.solvability

    def with_witness(op, D):
        return dataclasses.replace(real(op, D), tangent_dim=1,
                                   witness=(Poly([QQ(1, 3), 2]), []))

    monkeypatch.setattr(cli, "solvability", with_witness)
    code, out, _ = run(capsys, "kernel", *WEBER)
    assert code == 0
    doc = json.loads(out)
    assert doc["injective"] is False
    assert doc["witness"] == {"pdot": ["1/3", "2/1"], "omega_terms": 0}


def test_kernel_rejects_inexact_point(capsys):
    code, _, err = run(capsys, "kernel", "--n", "2", "--k", "1",
                       "--poly", "0.5+0.1j", "--degree", "2")
    assert code == 2
    assert "exact rational" in err


def test_stokes_document(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "stokes", *WEBER, "--output", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 2 and doc["k"] == 1 and doc["d"] == 2
    assert doc["det_twist"] == -1
    assert all(abs(re) <= 1e-12 and abs(im) <= 1e-12
               for re, im in doc["lambda"])
    assert len(doc["directions"]) == 8
    assert len(doc["stokes_matrices"]) == 4
    assert sorted(doc["permutation"]) == [0, 1]
    assert doc["residuals"]["identity"] <= 1e-8
    assert doc["settings"]["M"] == 40
    assert doc["converged"] is True
    assert "timing" not in doc


def test_stokes_document_q_comes_from_the_run(capsys):
    # Q is the z^3 run's, rounded once to doubles
    code, out, _ = run(capsys, "stokes", "--n", "3", "--k", "1",
                       "--poly", "0,0,0,1")
    assert code == 0
    root = math.sqrt(3) / 4
    assert json.loads(out)["Q"][1] == [[0.5, 0.0], [-0.25, root],
                                       [-0.25, -root]]


def test_missed_tolerance_maps_to_numeric_exit(capsys):
    # on a fixed circle this small the truncated formal frame cannot reach
    # 1e-10: the run still writes its document, flags it and exits 3
    code, out, err = run(capsys, "stokes", *WEBER, "--radius", "2.5")
    assert code == 3
    assert "numerical failure" in err
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["residuals"]["consistency"] > 3 * doc["settings"]["tol"]


def test_frame_tail_above_request_maps_to_numeric_exit(capsys):
    # on a fixed circle inside the tail-safe one, the A and B builds agree
    # to the request, but the truncated formal frame they share does not
    # reach it: the run says so and exits 3
    code, out, err = run(capsys, "stokes", "--n", "2", "--k", "1",
                         "--poly", "1/3,0,1", "--radius", "4")
    assert code == 3
    assert err.startswith("numerical failure: asymptotic residual")
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["residuals"]["consistency"] <= 3 * doc["settings"]["tol"]
    assert doc["residuals"]["asymptotic"] > doc["settings"]["tol"]


def test_infeasible_request_keeps_its_document(capsys):
    # no circle in double range is tail-safe to 1e-300 at the default order:
    # the run still writes its document, flags it and exits 3
    code, out, err = run(capsys, "stokes", *WEBER, "--radius-tol", "1e-300")
    assert code == 3
    assert err.startswith("numerical failure: reading consistency")
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["residuals"]["consistency"] > 3 * doc["settings"]["tol"]
    assert math.isfinite(doc["settings"]["R"])


def test_jacobian_missed_tolerance_maps_to_numeric_exit(capsys):
    # the same undersized circle under the Jacobian: the document is still
    # written, flagged, and the run exits 3
    code, out, err = run(capsys, "jacobian", *WEBER, "--radius", "2.5")
    assert code == 3
    assert "numerical failure: base run" in err
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["base_residuals"]["consistency"] > 3e-10
    code, out, err = run(capsys, "jacobian", *WEBER)
    assert code == 0 and err == ""
    assert json.loads(out)["converged"] is True


def test_timing_flag_adds_total_time(capsys):
    for sub in ("stokes", "jacobian"):
        code, out, _ = run(capsys, sub, *WEBER, "--timing")
        assert code == 0
        assert json.loads(out)["timing"]["total_s"] > 0
    # text documents gain one trailing line and are otherwise unchanged
    _, plain, _ = run(capsys, "basis", "--n", "3")
    code, timed, _ = run(capsys, "basis", "--n", "3", "--timing")
    assert code == 0 and timed.startswith(plain)
    extra = timed[len(plain):].splitlines()
    assert len(extra) == 1 and extra[0].startswith("seconds: ")
    assert float(extra[0].split()[1]) > 0
    _, plain, _ = run(capsys, "verify", "--n-max", "4")
    code, timed, _ = run(capsys, "verify", "--n-max", "4", "--timing")
    assert code == 0 and timed.startswith(plain)
    extra = timed[len(plain):].splitlines()
    assert len(extra) == 1 and extra[0].startswith("seconds per n: ")
    per_n = dict(item.split("=") for item in extra[0].split(": ")[1].split())
    assert sorted(per_n) == ["2", "3", "4"]
    assert all(float(t) > 0 for t in per_n.values())


def test_stokes_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "stokes", *WEBER, "--output", str(a))[0] == 0
    assert run(capsys, "stokes", *WEBER, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_stokes_csv(capsys, tmp_path):
    target = tmp_path / "rays.csv"
    code, _, _ = run(capsys, "stokes", *WEBER, "--csv", str(target),
                     "--output", str(tmp_path / "doc.json"))
    assert code == 0
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "index,fraction_of_pi,radians"
    assert len(rows) == 9
    assert rows[1].startswith("1,1/4,")


def test_config_input(capsys, tmp_path):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps(
        {"n": 2, "k": 1, "coefficients": [[0.3, 0.2]]}))
    code, out, _ = run(capsys, "stokes", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [[0.3, 0.2]]
    assert doc["residuals"]["identity"] <= 1e-7


def test_config_string_coefficients_are_exact(capsys, tmp_path):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"n": 2, "k": 1, "coefficients": ["1/3"]}))
    code, out, _ = run(capsys, "kernel", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["tangent_dim"] == 0


def test_config_and_poly_conflict(capsys, tmp_path):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"n": 2, "k": 1, "coefficients": [[0, 0]]}))
    code, _, err = run(capsys, "stokes", "--config", str(cfg),
                       "--poly", "0,0,1")
    assert code == 2 and "not both" in err


def test_poly_normalization_errors(capsys):
    code, _, err = run(capsys, "stokes", "--n", "2", "--k", "1",
                       "--poly", "0,1,1")
    assert code == 2 and "z^{d-1}" in err
    code, _, err = run(capsys, "stokes", "--n", "2", "--k", "1",
                       "--poly", "0,0,0,1")
    assert code == 2 and "coefficients" in err
    code, _, err = run(capsys, "stokes", "--n", "1", "--k", "1",
                       "--poly", "0,1")
    assert code == 2 and "n >= 2" in err


def test_zero_denominator_is_usage_error(capsys, tmp_path):
    # Fraction("1/0") raises ZeroDivisionError, which the numeric exit must
    # not catch: --poly, --v0 and a config coefficient all exit 2
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"n": 2, "k": 1, "coefficients": ["1/0"]}))
    point = ["--n", "2", "--k", "1", "--degree", "2"]
    for argv, named in (([*point, "--poly", "1/0"], "coefficient '1/0'"),
                        ([*WEBER, "--v0", "1/0"], "--v0 '1/0'"),
                        (["--config", str(cfg)], "coefficient '1/0'")):
        code, out, err = run(capsys, "stokes", *argv)
        assert code == 2 and out == ""
        assert f"zero denominator in {named}" in err


def test_degree_other_than_nk_is_usage_error(capsys):
    # the family has d = n k, and the error names the flag and n k rather
    # than the coefficient count OperPoint would then ask for
    code, out, err = run(capsys, "stokes", "--n", "2", "--k", "2",
                         "--degree", "3", "--poly", "1,2")
    assert code == 2 and out == ""
    assert "--degree 3 must equal n*k = 4" in err


def test_unwritable_paths_are_usage_errors(capsys, tmp_path):
    # a path in a missing directory is a usage error (exit 2, naming the
    # path), not a traceback with the suite-failure code 1
    missing = tmp_path / "missing"
    for argv in (["kernel", *WEBER, "--output", str(missing / "x.json")],
                 ["stokes", *WEBER, "--csv", str(missing / "x.csv")]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(missing) in err


def test_non_finite_coefficient_is_usage_error(capsys):
    code, out, err = run(capsys, "stokes", "--n", "2", "--k", "1",
                         "--degree", "2", "--poly", "inf")
    assert code == 2 and out == ""
    assert "c_0 must be finite" in err


def test_base_direction_on_ray_is_usage_error(capsys):
    code, _, err = run(capsys, "stokes", *WEBER, "--v0", "1/4")
    assert code == 2
    assert "anti-Stokes" in err


def test_unreadable_octic_maps_to_numeric_exit(capsys):
    # at p = z^8 the fixed circle 6 is too large to read to the request:
    # the run writes its document, flags it and exits 3
    code, out, err = run(capsys, "stokes", "--n", "2", "--k", "4",
                         "--poly", "0,0,0,0,0,0,0,0,1", "--radius", "6")
    assert code == 3
    assert "numerical failure" in err
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["residuals"]["consistency"] > 3 * doc["settings"]["tol"]


def test_overflowing_reading_prints_only_the_failure():
    # a fresh interpreter, since pytest's capture swallows numpy's warnings:
    # at p = z^8 the reading on the fixed circle 5 misses the request; the
    # run still writes its document, and its own one-line report is all of
    # stderr
    proc = subprocess.run(
        [sys.executable, "-m", "operstokes.cli", "stokes", "--n", "2", "--k",
         "4", "--poly", "0,0,0,0,0,0,0,0,1", "--radius", "5"],
        env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["converged"] is False
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("argv, named", [
    (["stokes", "--radius-tol", "-1"],
     "radius_tol must be finite and > 0, got -1.0"),
    (["stokes", "--radius-tol", "0"],
     "radius_tol must be finite and > 0, got 0.0"),
    (["stokes", "--radius", "-3"],
     "radius must be finite and >= 0, got -3.0"),
    (["jacobian", "--rank-tol", "-1"],
     "rank_tol must lie in (0, 1], got -1.0"),
    (["jacobian", "--fd-step", "0"],
     "step h must be finite and > 0, got 0.0"),
    (["kernel", "--D", "-1"],
     "degree cap D must be >= 0, got -1"),
], ids=["radius-tol-negative", "radius-tol-zero", "radius-negative",
        "rank-tol-negative", "fd-step-zero", "D-negative"])
def test_out_of_range_numbers_are_usage_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv, *WEBER)
    assert code == 2 and out == ""
    assert named in err


def test_lost_closure_maps_to_numeric_exit(capsys):
    code, _, err = run(capsys, "jacobian", *WEBER, "--fd-step", "50")
    assert code == 3
    assert "numerical failure" in err


def test_jacobian_document(capsys):
    code, out, _ = run(capsys, "jacobian", "--n", "2", "--k", "2",
                       "--poly", "0,0,0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert doc["full_rank"] is True
    assert doc["sv_gap"] >= 1e-4
    assert len(doc["singular_values"]) == 3


def test_env_override_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("OPERSTOKES_TRUNC_ORDER", "12")
    _, out, _ = run(capsys, "stokes", *WEBER)
    assert json.loads(out)["settings"]["M"] == 12
    _, out, _ = run(capsys, "stokes", *WEBER, "--trunc-order", "14")
    assert json.loads(out)["settings"]["M"] == 14
    monkeypatch.setenv("OPERSTOKES_D", "6")
    _, out, _ = run(capsys, "kernel", *WEBER)
    assert json.loads(out)["D"] == 6
    _, out, _ = run(capsys, "kernel", *WEBER, "--D", "5")
    assert json.loads(out)["D"] == 5


def _fresh_env():
    """Environment for a fresh interpreter that imports this operstokes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(operstokes.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter, so modules loaded by other tests do not count
    probe = ("import sys, operstokes.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_seed_is_not_a_flag(capsys):
    # no pipeline draws a random number, so no document records a seed
    for sub in ("stokes", "jacobian", "kernel"):
        with pytest.raises(SystemExit) as exc:
            main([sub, *WEBER, "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
