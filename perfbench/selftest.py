"""Negative control: every checker must reject a corrupted output.

Real outputs of cheap inputs are taken from the program, each check is
first confirmed to pass on them, and then each check is fed a copy with one
targeted corruption (a perturbed Stokes entry, a wrong table value, a wrong
kernel dimension, ...) and must fail.  A check the control does not cover,
or a corruption that goes unnoticed, fails the control.
"""

import copy
from fractions import Fraction

import numpy as np
from operstokes import immersion, isomono, sl2, stokes
from operstokes.isomono import OperPoint

import checks

EPS = 1e-6


def _samples():
    weber = OperPoint(2, 1, (Fraction(1, 3),))
    square = OperPoint(2, 1, (0,))
    cubic = OperPoint(3, 1, (0, 0))
    wc = OperPoint(2, 1, (0.2 + 0.1j,))
    kernel_point = OperPoint(2, 2, (Fraction(1, 5), Fraction(-2, 7),
                                    Fraction(3, 4)))
    basis = sl2.build_weight_basis(sl2.principal_sl2(4))
    tables = sl2.compute_structure_tables(basis)
    rep = isomono.solvability(kernel_point)
    return {
        "weber": (checks.check_stokes,
                  checks.stokes_view(weber, stokes.stokes_data(weber))),
        "square": (checks.check_stokes,
                   checks.stokes_view(square, stokes.stokes_data(square))),
        "cubic": (checks.check_stokes,
                  checks.stokes_view(cubic, stokes.stokes_data(cubic))),
        "jacobian": (checks.check_jacobian,
                     checks.jacobian_view(wc, immersion.jacobian(wc),
                                          stokes.stokes_data(wc))),
        "tables": (checks.check_tables, checks.tables_view(
            basis, tables, sl2.verify_sign_property(tables))),
        "kernel": (checks.check_solvability, checks.solvability_view(
            kernel_point, rep, isomono.joint_system(kernel_point, rep.D))),
    }


def _bump_entry(t, r, s):
    def corrupt(v):
        v.matrices[t][r, s] += EPS
    return corrupt


def _bump_offdiag(t):
    def corrupt(v):
        n = v.n
        v.matrices[t] = v.matrices[t] + EPS * (np.ones((n, n)) - np.eye(n))
    return corrupt


def _set(attr, value):
    def corrupt(v):
        setattr(v, attr, value)
    return corrupt


def _lam(v):
    v.lam[0] += EPS


def _drop_rank(v):
    v.jacobian[:] = 0


def _jac_entry(v):
    v.jacobian[0, 0] += 1e-3


def _triple(v):
    v.h[0][0] += 1


def _weight(v):
    v.vectors[(1, 1)][1][0] = 1      # off its band: no longer a weight vector


def _string(v):
    v.vectors[(1, 0)][0][0] += 1     # breaks [f, v_{1,1}] = a v_{1,0}


def _a_table(v):
    v.a[(1, 0)] += 1


def _c_table(v):
    v.c[(v.n - 1, 0, 0)] += 1


def _corner(v):
    v.c[(v.n - 1, v.n - 1, v.n - 2)] += 1


def _sign(v):
    key = (v.n - 1, v.n - 1, v.n - 2)
    v.c[key] = -v.c[key]


def _identity_row(v):
    col = v.D * v.n * v.n          # Omega_0 entry (0, 0)
    v.rows[0][col] += 1


# check name -> (sample, corruption)
CORRUPTIONS = {
    "closure": ("weber", _bump_entry(0, 0, 1)),
    "unitriangular": ("weber", _bump_entry(0, 0, 0)),
    "traceless": ("weber", _lam),
    "weber_traces": ("weber", _bump_offdiag(1)),
    "monomial_charpoly": ("square", _bump_offdiag(1)),
    "monomial_traces": ("square", _bump_offdiag(1)),
    "cubic_entries": ("cubic", _bump_entry(0, 0, 2)),
    "rank": ("jacobian", _drop_rank),
    "weber_derivative": ("jacobian", _jac_entry),
    "sl2_triple": ("tables", _triple),
    "weights": ("tables", _weight),
    "ad_f_strings": ("tables", _string),
    "a_table": ("tables", _a_table),
    "c_table": ("tables", _c_table),
    "c_corner": ("tables", _corner),
    "sign_pattern": ("tables", _sign),
    "tangent_dim": ("kernel", _set("tangent_dim", 1)),
    "scalar_kernel": ("kernel", _set("homogeneous_kernel_dim", 2)),
    "identity_in_kernel": ("kernel", _identity_row),
    "kernel_mod_p": ("kernel", _set("joint_kernel_dim", 2)),
}


def main():
    samples = _samples()
    ok = True
    names = set()
    for key, (checker, view) in samples.items():
        for c in checker(view):
            names.add(c.name)
            if not c.ok:
                ok = False
                print(f"clean {key}: {c.name} fails on the real output "
                      f"({c.detail})")
    for name in sorted(names - set(CORRUPTIONS)):
        ok = False
        print(f"{name}: no corruption covers this check")
    for name, (key, corrupt) in CORRUPTIONS.items():
        checker, view = samples[key]
        bad = copy.deepcopy(view)
        corrupt(bad)
        verdict = [c for c in checker(bad) if c.name == name]
        caught = bool(verdict) and not verdict[0].ok
        ok = ok and caught
        detail = verdict[0].detail if verdict else "check not run"
        print(f"{name}: {'caught' if caught else 'MISSED'} ({detail})")
    print("self-test corrupt: " + ("ok, every corruption was caught" if ok
                                   else "FAIL"))
    return 0 if ok else 1
