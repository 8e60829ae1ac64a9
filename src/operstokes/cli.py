"""Batch front end: every pipeline behind one reproducible command.

Subcommands
    basis      print the weight basis and structure tables for one n
    verify     run the exact Lie-algebra suites for 2 <= n <= n-max
    kernel     exact solvability of the joint deformation system
    stokes     numerical Stokes data of one oper point
    jacobian   differential of the monodromy map, singular values, rank

Flags are the only input: an oper point is --n, --k and --poly (with or
without --degree), and no environment variable or file sets a value.
Identical configurations produce byte-identical documents: timing is only
emitted under --timing, and all floats serialize via repr (shortest
round-trip).  Complex numbers appear as [re, im] pairs.

Exit codes: 0 success, 1 mathematical-suite failure, 2 usage error (an
--output path that cannot be written among them), 3 numerical
non-convergence (a stokes run that missed its requested tolerance still
writes its document, with "converged": false).
"""

import argparse
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .exactla import rational_str
from .isomono import OperPoint, solvability
from .immersion import jacobian as jacobian_report
from .sl2 import (a_formula, build_weight_basis, commuting_action_check,
                  compute_structure_tables, principal_sl2,
                  verify_sign_property)
from .stokes import StokesSettings, det_twist, dominance_order, stokes_data

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# flags

def _add_common(sub):
    sub.add_argument("--output",
                     help="write the document to this file instead of stdout")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock timings (breaks byte "
                          "determinism, off by default)")


def _add_oper_flags(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--degree", type=int,
                     help="degree d of the monic polynomial; with it --poly "
                          "lists only c_0..c_{d-2}")
    sub.add_argument("--poly",
                     help="ascending comma-separated coefficients; full "
                          "list ending in the leading 1, or the free "
                          "coefficients when --degree is given")


def _add_numeric_flags(sub):
    sub.add_argument("--trunc-order", type=int, default=40,
                     help="order M of the formal series (default %(default)s)")
    sub.add_argument("--radius-tol", type=float, default=1e-10)
    sub.add_argument("--radius", type=float, default=0.0,
                     help="fixed reading radius (0 = adaptive)")
    sub.add_argument("--v0",
                     help="base direction as a fraction of pi, e.g. 1/16")


def _parse_coefficient(text):
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in coefficient {text!r}")
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        raise UsageError(f"cannot parse coefficient {text!r}")


def _oper_from_args(args):
    if args.n is None or args.k is None or args.poly is None:
        raise UsageError("need --n, --k and --poly")
    entries = [_parse_coefficient(t) for t in args.poly.split(",")]
    if args.degree is not None:
        if args.degree != args.n * args.k:
            raise UsageError(f"--degree {args.degree} must equal n*k = "
                             f"{args.n * args.k} for --n {args.n} --k "
                             f"{args.k}")
        if len(entries) != args.degree - 1:
            raise UsageError(f"--degree {args.degree} wants the "
                             f"{args.degree - 1} coefficients c_0..c_"
                             f"{args.degree - 2}, got {len(entries)}")
        coeffs = entries
    else:
        if len(entries) < 2 or entries[-1] != 1:
            raise UsageError("--poly without --degree must be the full "
                             "ascending list ending in the leading 1")
        if entries[-2] != 0:
            raise UsageError("the z^{d-1} coefficient must be 0 in this "
                             "normalized family")
        coeffs = entries[:-2]
    return OperPoint(args.n, args.k, tuple(coeffs))


def _settings_from_args(args):
    v0 = None
    if getattr(args, "v0", None):
        try:
            v0 = Fraction(args.v0)
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in --v0 {args.v0!r}")
        except ValueError:
            raise UsageError(f"cannot parse --v0 {args.v0!r} as a fraction")
    return StokesSettings(
        trunc_order=args.trunc_order, radius_tol=args.radius_tol,
        radius=args.radius, v0=v0)


# ---------------------------------------------------------------------------
# serialization

def _c2(z):
    z = complex(z)
    return [z.real, z.imag]


def _cmat(mat):
    return [[_c2(v) for v in row] for row in np.asarray(mat)]


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc):
    _emit(args, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(args):
    if args.n is None or args.n < 2:
        raise UsageError("basis needs --n >= 2")
    t0 = time.perf_counter()
    tri = principal_sl2(args.n)
    basis = build_weight_basis(tri)
    tables = compute_structure_tables(basis)
    sign = verify_sign_property(tables)
    elapsed = time.perf_counter() - t0
    out = io.StringIO()
    out.write(f"weight basis of sl({args.n}): v_ij = (ad_e)^(i+j) f_i\n")
    for (i, j) in basis.indices():
        out.write(f"v {i} {j}\n")
        for row in basis.vec(i, j):
            out.write("  " + " ".join(rational_str(v) for v in row) + "\n")
    out.write(tables.serialize())
    out.write(f"sign strings checked: {sign.strings_checked}\n")
    out.write(f"recursions checked: {sign.recursions_checked}\n")
    out.write(f"violations: {len(sign.violations)}\n")
    if args.timing:
        out.write(f"seconds: {elapsed!r}\n")
    _emit(args, out.getvalue())
    return EXIT_OK if sign.ok else EXIT_SUITE


def _verify_one(n, corrupt=False):
    """Exact suite at one rank; returns (ok, line)."""
    tri = principal_sl2(n)
    basis = build_weight_basis(tri)          # raises if span/grading fail
    tables = compute_structure_tables(basis)  # raises if a-formula fails
    checks = {
        "span": True,
        "a-formula": all(tables.a_val(i, j) == a_formula(i, j)
                         for (i, j) in tables.a),
        "commuting": commuting_action_check(basis),
        "c-corner": tables.c_val(n - 1, n - 1, n - 2) == 2 * (n - 1),
    }
    if n >= 3:
        checks["c-next"] = tables.c_val(n - 1, n - 2, n - 2) == 2
        checks["c-null"] = tables.c_val(n - 2, n - 2, n - 2) == 0
    if corrupt:
        key = max(k for k in tables.c if tables.c[k] != 0)
        tables.c[key] = -tables.c[key]
    sign = verify_sign_property(tables)
    checks["signs"] = sign.ok
    ok = all(checks.values())
    detail = " ".join(f"{name}={'ok' if good else 'FAIL'}"
                      for name, good in sorted(checks.items()))
    return ok, f"n={n} {'ok' if ok else 'FAIL'} ({detail})"


def cmd_verify(args):
    if args.n_max < 2:
        raise UsageError("verify needs --n-max >= 2")
    lines, all_ok, seconds = [], True, []
    for n in range(2, args.n_max + 1):
        t0 = time.perf_counter()
        ok, line = _verify_one(n)
        seconds.append(f"{n}={time.perf_counter() - t0!r}")
        all_ok = all_ok and ok
        lines.append(line)
    if args.self_test_corrupt:
        ok, _ = _verify_one(max(3, min(args.n_max, 4)), corrupt=True)
        lines.append("self-test corrupt: "
                     + ("ok (corruption detected)" if not ok
                        else "FAIL (corruption went unnoticed)"))
        all_ok = all_ok and not ok
    if args.timing:
        lines.append("seconds per n: " + " ".join(seconds))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_SUITE


def cmd_kernel(args):
    op = _oper_from_args(args)
    if not op.exact:
        raise UsageError("kernel certificates need exact rational "
                         "coefficients")
    rep = solvability(op, args.D)
    doc = {
        "subcommand": "kernel",
        "n": rep.op.n, "k": rep.op.k, "d": rep.op.d, "D": rep.D,
        "joint_kernel_dim": rep.joint_kernel_dim,
        "tangent_dim": rep.tangent_dim,
        "homogeneous_kernel_dim": rep.homogeneous_kernel_dim,
        "traceless_homogeneous_kernel_dim":
            rep.traceless_homogeneous_kernel_dim,
        "exact": True,
        "injective": rep.tangent_dim == 0,
        "witness": None if rep.witness is None else {
            "pdot": [rational_str(v) for v in rep.witness[0].coeffs],
            "omega_terms": len(rep.witness[1]),
        },
    }
    if args.timing:
        doc["timing"] = rep.timing
        doc["certificate"] = rep.certificate
    _emit_json(args, doc)
    return EXIT_OK


def _stokes_document(data):
    op, plan = data.op, data.plan
    directions = [{"of_pi": str(th % 2), "radians": float(th % 2) * math.pi}
                  for th in plan.layout.rays]
    return {
        "subcommand": "stokes",
        "n": op.n, "k": op.k, "d": op.d,
        "coefficients": [_c2(c) for c in op.coeffs],
        "lambda": [_c2(v) for v in data.lam],
        "Q": [[_c2(v) for v in data.qcoeffs[j]]
              for j in range(1, op.k + 2)],
        "directions": directions,
        "stokes_factors": [_cmat(m) for m in data.factors],
        "stokes_matrices": [_cmat(m) for m in data.matrices],
        "permutation": list(dominance_order(plan.layout)),
        "first_upper": True,
        "det_twist": det_twist(op),
        "converged": data.converged,
        "residuals": {name: float(val)
                      for name, val in sorted(data.residuals.items())},
        "settings": {
            "M": plan.settings.trunc_order,
            "R": plan.rho,
            "tol": plan.settings.radius_tol,
            "precision_bits": plan.bits,
        },
    }


def cmd_stokes(args):
    op = _oper_from_args(args)
    settings = _settings_from_args(args)
    t0 = time.perf_counter()
    data = stokes_data(op, settings)
    elapsed = time.perf_counter() - t0
    doc = _stokes_document(data)
    if args.timing:
        doc["timing"] = {"total_s": elapsed}
    _emit_json(args, doc)
    if not data.converged:
        print(f"numerical failure: {' and '.join(data.missed_names())} "
              f"missed the requested tolerance {settings.radius_tol!r}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_jacobian(args):
    op = _oper_from_args(args)
    settings = _settings_from_args(args)
    t0 = time.perf_counter()
    rep = jacobian_report(op, settings=settings, rank_tol=args.rank_tol)
    elapsed = time.perf_counter() - t0
    doc = {
        "subcommand": "jacobian",
        "n": op.n, "k": op.k, "d": op.d,
        "params": [_c2(c) for c in op.coeffs],
        "rank_tol": rep.rank_tol,
        "jacobian": _cmat(rep.jacobian),
        "singular_values": list(rep.singular_values),
        "rank": rep.rank,
        "full_rank": rep.rank == op.d - 1,
        "sv_gap": rep.sv_gap,
        "holomorphy": rep.holomorphy,
        "converged": rep.converged,
        "base_residuals": {name: float(val) for name, val
                           in sorted(rep.base.residuals.items())},
    }
    if args.timing:
        doc["timing"] = {"total_s": elapsed}
    _emit_json(args, doc)
    if not rep.converged:
        print(f"numerical failure: base run missed the requested "
              f"tolerance {settings.radius_tol!r}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="operstokes",
        description="Stokes data of cyclic opers: exact certificates and "
                    "numerical monodromy")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("basis", help="weight basis and structure tables")
    p.add_argument("--n", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser("verify", help="exact Lie-algebra suites")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--self-test-corrupt", action="store_true",
                   help="negative control: corrupt one table entry and "
                        "demand the suite notices")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("kernel", help="exact deformation-kernel report")
    _add_oper_flags(p)
    p.add_argument("--D", type=int,
                   help="polynomial degree cap of the deformation system")
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("stokes", help="numerical Stokes data")
    _add_oper_flags(p)
    _add_numeric_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_stokes)

    p = subs.add_parser("jacobian", help="differential of the monodromy map")
    _add_oper_flags(p)
    _add_numeric_flags(p)
    p.add_argument("--rank-tol", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=cmd_jacobian)
    return parser


def main(argv=None):
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        # OSError: an --output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ZeroDivisionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
