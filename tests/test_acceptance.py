"""Acceptance gate: every deliverable criterion, one pass/fail line each.

Each test covers one criterion end to end, checks the stated tolerances and
its runtime budget, and prints a single PASS line (run with -s or read the
captured output); a failed criterion fails its test and prints nothing.
"""

import random
import time
from fractions import Fraction as QQ

import numpy as np

from operstokes.exactla import exact_rank
from operstokes.immersion import jacobian, kernel_cross_check
from operstokes.isomono import (OperPoint, reduction_residual_pair,
                                solvability, weight_expression_check)
from operstokes.poly import Poly
from operstokes.sl2 import (a_formula, build_weight_basis,
                            compute_structure_tables, principal_sl2,
                            verify_sign_property)
from operstokes.stokes import StokesSettings, sector_layout, stokes_data


def rand_rational_point(rng, n, k, span=9):
    return OperPoint(n, k, tuple(QQ(rng.randint(-span, span),
                                    rng.randint(1, 4))
                                 for _ in range(n * k - 1)))


def box_rational(rng, box=QQ(1, 2)):
    """p/q with 4 <= q <= 9 and |p/q| <= box."""
    q = rng.randint(4, 9)
    bound = int(box * q)
    return QQ(rng.randint(-bound, bound), q)


def rand_complex_point(rng, n, k, scale=0.5):
    return OperPoint(n, k, tuple(complex(rng.uniform(-scale, scale),
                                         rng.uniform(-scale, scale))
                                 for _ in range(n * k - 1)))


def test_exact_structure_suite():
    t0 = time.monotonic()
    for n in range(2, 13):
        basis = build_weight_basis(principal_sl2(n))
        stack = np.array([np.ravel(basis.vec(i, j))
                          for (i, j) in basis.indices()], dtype=object)
        assert exact_rank(stack) == n * n - 1          # (a) span
        tables = compute_structure_tables(basis)
        assert all(tables.a_val(i, j) == a_formula(i, j)
                   for (i, j) in tables.a)              # (b) a-values
        assert tables.c_val(n - 1, n - 1, n - 2) == 2 * (n - 1)  # (c)
        if n >= 3:
            assert tables.c_val(n - 1, n - 2, n - 2) == 2
            assert tables.c_val(n - 2, n - 2, n - 2) == 0
        sign = verify_sign_property(tables)             # (d) signs
        assert sign.ok and sign.recursions_checked > 0
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(f"PASS exact structure suite: n=2..12 span/a/c/sign exact "
          f"({elapsed:.1f}s <= 60s)")


def test_reduction_equivalence():
    t0 = time.monotonic()
    rng = random.Random(314)
    for (n, d) in [(2, 2), (2, 4), (3, 3), (4, 4)]:
        k = d // n
        for _ in range(100):
            op = rand_rational_point(rng, n, k, span=6)
            omega = {}
            for i in range(1, n):
                for j in range(-i, i + 1):
                    if rng.random() < 0.7:
                        omega[(i, j)] = Poly(
                            [QQ(rng.randint(-6, 6), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 5))])
            pdot = Poly([QQ(rng.randint(-6, 6)) for _ in range(d - 1)])
            lhs, rhs = reduction_residual_pair(op, omega, pdot)
            keys = {(i, j) for i in range(1, n) for j in range(-i, i + 1)}
            for key in keys:
                assert lhs.get(key, Poly([])) == rhs.get(key, Poly([]))
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"PASS reduction equivalence: 4 families x 100 random pairs, "
          f"matrix and scalar residuals identical ({elapsed:.1f}s <= 120s)")


def test_injectivity_certificate():
    t0 = time.monotonic()
    rng = random.Random(1729)
    for (n, d, D) in [(2, 2, 20), (2, 4, 20), (3, 3, 20), (3, 6, 24),
                      (4, 4, 24), (5, 5, 20), (6, 6, 24), (3, 9, 24),
                      (2, 10, 24)]:
        for _ in range(3):
            rep = solvability(rand_rational_point(rng, n, d // n), D)
            assert rep.op.exact
            assert rep.tangent_dim == 0
            assert rep.homogeneous_kernel_dim == 1
            assert rep.traceless_homogeneous_kernel_dim == 0
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    print(f"PASS injectivity certificate: tangent kernel 0 and homogeneous "
          f"kernel = scalars at 9 configurations x 3 random points "
          f"({elapsed:.1f}s <= 600s)")


def test_certificate_sweep():
    # one seeded rational point for every (n, k) with d = nk <= 8, at the
    # default degree cap D = 2(d + n): the paper's injectivity certificate
    # across the grid, each point drawn from random.Random(1000 n + k)
    t0 = time.monotonic()
    grid = [(n, k) for n in range(2, 9) for k in range(1, 5) if n * k <= 8]
    for n, k in grid:
        rep = solvability(rand_rational_point(random.Random(1000 * n + k),
                                              n, k))
        assert rep.op.exact
        assert rep.tangent_dim == 0
        assert rep.joint_kernel_dim == 1
        assert rep.homogeneous_kernel_dim == 1
        assert rep.traceless_homogeneous_kernel_dim == 0
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(f"PASS certificate sweep: tangent kernel 0 and joint kernel 1 at "
          f"{len(grid)} seeded points, every (n, k) with d <= 8 "
          f"({elapsed:.1f}s <= 60s)")


def test_weight_expression_structure():
    t0 = time.monotonic()
    for n in range(2, 7):
        wr = weight_expression_check(n)
        assert wr.ok, (n, wr.violations)
        for i, groups in wr.per_string.items():
            for g in groups:                       # (1) grouping by leader
                assert g.weight == i - g.leader    # (2) uniform weight
                assert all(a + b == g.weight for _, a, b in g.terms)
                assert all((1 if c > 0 else -1) == g.sign
                           for c, _, _ in g.terms)  # (3) uniform sign
        assert set(wr.pdot_terms) == {n - 1}
        assert wr.pdot_terms[n - 1] == 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"PASS weight expression structure: grouping/weight/sign laws "
          f"exact for n<=6 ({elapsed:.1f}s <= 120s)")


def test_stokes_pipeline():
    t0 = time.monotonic()
    refined = StokesSettings(trunc_order=30, radius_tol=1e-12)
    lines = []
    for op in (OperPoint(2, 1, (0,)), OperPoint(3, 1, (0, 0))):
        base = stokes_data(op, StokesSettings())
        assert base.residuals["identity"] <= 1e-6
        assert base.residuals["unipotency"] <= 1e-6
        assert base.residuals["trace"] <= 1e-12
        sharp = stokes_data(op, refined)
        for name in ("identity", "unipotency"):
            assert sharp.residuals[name] * 10 <= base.residuals[name], (
                op.n, name, base.residuals[name], sharp.residuals[name])
        lines.append(f"n={op.n}: id {base.residuals['identity']:.1e}"
                     f"->{sharp.residuals['identity']:.1e}")
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    print(f"PASS numerical monodromy pipeline: closure/unipotency/trace in "
          f"tolerance and >=10x refinement shrink ({'; '.join(lines)}; "
          f"{elapsed:.1f}s <= 300s)")


def test_immersion_jacobian():
    t0 = time.monotonic()
    rng = random.Random(2718)
    for (n, d) in [(2, 2), (2, 4), (3, 3)]:
        k = d // n
        center = OperPoint(n, k, (0,) * (d - 1))
        for op in (center, rand_complex_point(rng, n, k)):
            ranks = []
            for h in (1e-3, 1e-4):
                rep = jacobian(op, h=h)
                assert rep.rank == d - 1, (n, d, h, rep.singular_values)
                assert rep.sv_gap >= 1e-4
                ranks.append(rep.rank)
            assert ranks[0] == ranks[1]
    elapsed = time.monotonic() - t0
    assert elapsed <= 900.0
    print(f"PASS immersion differential: full rank d-1 with gap >= 1e-4 at "
          f"central and perturbed points, stable over h in {{1e-3, 1e-4}} "
          f"({elapsed:.1f}s <= 900s)")


def test_exact_numeric_cross_check():
    t0 = time.monotonic()
    rng = random.Random(1)
    points = [OperPoint(n, k, (0,) * (n * k - 1))
              for (n, k) in [(2, 1), (3, 1)]]
    points += [OperPoint(n, k, tuple(box_rational(rng)
                                     for _ in range(n * k - 1)))
               for (n, k) in [(2, 2), (2, 3), (2, 4)]]
    for op in points:
        rep = kernel_cross_check(op)
        assert rep.agree
        assert rep.solvability.tangent_dim == 0
        assert rep.jacobian.rank == op.d - 1
        assert rep.jacobian.sv_gap >= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    print(f"PASS exact/numeric cross-check: kernel verdicts agree at the "
          f"monomials of (n,k) = (2,1) and (3,1) and at one rational point "
          f"each of (2,2), (2,3) and (2,4) ({elapsed:.1f}s <= 600s)")


def test_direction_layout_facts():
    t0 = time.monotonic()
    for n in range(2, 6):
        for k in range(1, 4):
            op = OperPoint(n, k, (0,) * (n * k - 1))
            layout = sector_layout(op.n, op.k)
            assert layout.r == 2 * n * (k + 1)
            rays = {th % 2 for th in layout.rays}
            assert {(th + QQ(1, k + 1)) % 2 for th in rays} == rays
            if n % 2:
                assert QQ(0) not in rays
                assert {(-th) % 2 for th in rays} == rays
    elapsed = time.monotonic() - t0
    assert elapsed <= 1.0
    print(f"PASS direction layout facts: counts, rotation invariance and "
          f"odd-n symmetry exact for n<=5, k<=3 ({elapsed:.2f}s <= 1s)")
