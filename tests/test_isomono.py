import random
import re
from fractions import Fraction as QQ

import numpy as np
import pytest

from operstokes import isomono
from operstokes.exactla import exact_rank, modular_rank, qzeros
from operstokes.immersion import jacobian
from operstokes.isomono import (IDENTITY_CERTIFICATE, OperPoint, ScalarSystem,
                                apply_deformation, connection_matrix,
                                corner_vector, degree_obstruction, joint_rows,
                                joint_system, matrix_from_scalar,
                                reduction_residual_pair, scalar_from_matrix,
                                solvability, weight_expression_check)
from operstokes.poly import Poly
from operstokes.sl2 import principal_sl2

Z2 = OperPoint(2, 1, (QQ(0),))  # p = z^2


def qeye(n):
    return np.array([[QQ(int(i == j)) for j in range(n)] for i in range(n)],
                    dtype=object)


def mp_trim(ms):
    """A matrix polynomial without its trailing zero coefficients."""
    while len(ms) > 1 and not np.any(ms[-1] != 0):
        ms = ms[:-1]
    return ms


def rand_point(rng, n, k, span=9):
    d = n * k
    return OperPoint(n, k, tuple(QQ(rng.randint(-span, span), rng.randint(1, 4))
                                 for _ in range(d - 1)))


def test_oper_point_validation():
    with pytest.raises(ValueError):
        OperPoint(1, 1, ())
    with pytest.raises(ValueError):
        OperPoint(2, 0, ())
    with pytest.raises(ValueError):
        OperPoint(2, 1, (QQ(1), QQ(2)))  # d=2 needs exactly one coefficient
    op = OperPoint(3, 2, tuple(QQ(m) for m in range(5)))
    assert op.d == 6
    assert op.p().degree == 6
    assert op.p().coeff(5) == 0  # no z^{d-1} term
    assert op.p_coeff(6) == 1
    assert op.exact


@pytest.mark.parametrize("make, named", [
    (lambda: OperPoint(2.0, 1, (QQ(0),)), "n must be an int, got 2.0"),
    (lambda: OperPoint(2.9, 1, (QQ(0),)), "n must be an int, got 2.9"),
    (lambda: OperPoint(True, 1, (QQ(0),)), "n must be an int, got True"),
    (lambda: OperPoint("3", 1, (QQ(0),)), "n must be an int, got '3'"),
    (lambda: OperPoint(2, 2.9, (QQ(0),)), "k must be an int, got 2.9"),
    (lambda: OperPoint(2, True, (QQ(0),)), "k must be an int, got True"),
    (lambda: OperPoint(2, "3", (QQ(0),)), "k must be an int, got '3'"),
    (lambda: solvability(Z2, D=True), "D must be an int, got True"),
    (lambda: solvability(Z2, D=2.5), "D must be an int, got 2.5"),
    (lambda: jacobian(Z2, rank_tol=True),
     "rank_tol must be a real number, got True"),
    (lambda: OperPoint(2, 1, (True,)),
     "coefficient c_0 must be a number, got True"),
    (lambda: OperPoint(2, 1, ("1/3",)),
     "coefficient c_0 must be a number, got '1/3'"),
    (lambda: OperPoint(3, 1, (QQ(1, 5), None)),
     "coefficient c_1 must be a number, got None"),
], ids=["n-2.0", "n-2.9", "n-true", "n-str", "k-2.9", "k-true", "k-str",
        "D-true", "D-2.5", "rank_tol-true", "c0-true", "c0-str",
        "c1-none"])
def test_sizes_and_steps_must_be_numbers_of_their_kind(make, named):
    # a float n would make d a float that fails deep in solvability, a bool
    # would read as 1, and a str or None coefficient would fail later with a
    # TypeError: each is refused where it enters, naming the field
    with pytest.raises(ValueError, match=re.escape(named)):
        make()


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex("nan")],
                         ids=["nan", "inf", "complex-nan"])
def test_oper_point_rejects_non_finite_coefficients(value):
    # a non-finite coefficient fails at construction, naming it, instead of
    # failing every reading circle of a run
    with pytest.raises(ValueError, match="c_1 must be finite"):
        OperPoint(3, 1, (QQ(1, 5), value))


def test_connection_matrix_n2():
    a = connection_matrix(Z2)
    assert a[0][0, 1] == 1 and a[2][1, 0] == 1
    assert not np.any(a[1] != 0)
    assert all(sum(m[t, t] for t in range(2)) == 0 for m in a)


def test_connection_matrix_n3_structure():
    op = OperPoint(3, 1, (QQ(5), QQ(-7)))
    a = connection_matrix(op)
    tri = principal_sl2(3)
    assert a[0][0, 1] == 1 and a[0][1, 2] == 2  # superdiagonal weights of e
    assert np.array_equal(a[0], np.array(tri.e) + QQ(5) * corner_vector(3))
    assert a[1][2, 0] == QQ(-7)
    assert a[3][2, 0] == 1


def test_deformation_operator_oracles():
    # identity is always horizontal
    res = apply_deformation(Z2, [qeye(2)], Poly([]))
    assert all(not np.any(m != 0) for m in res)
    # T(A) = dA/dz = p' f
    a = connection_matrix(Z2)
    res = mp_trim(apply_deformation(Z2, a, Poly([])))
    assert not np.any(res[0] != 0)
    assert np.array_equal(res[1], 2 * corner_vector(2))
    # T(e) for p = z^2 is z^2 h
    tri = principal_sl2(2)
    res = mp_trim(apply_deformation(Z2, [np.array(tri.e)], Poly([])))
    assert np.array_equal(res[2], tri.h)
    assert not np.any(res[0] != 0) and not np.any(res[1] != 0)


def dense_joint_system(op, D):
    """The joint system built densely, entry by entry: the oracle for the
    sparse rows."""
    n, d = op.n, op.d

    def col(b, a, c):
        return (D - b) * n * n + a * n + c

    ncols = n * n * (D + 1)
    rows = []
    for m in range(D + d, -1, -1):
        for a in range(n):
            for c in range(n):
                row = [0] * ncols
                if m + 1 <= D:
                    row[col(m + 1, a, c)] += m + 1
                if m <= D:
                    if a + 1 < n:
                        row[col(m, a + 1, c)] += -(a + 1)
                    if c >= 1:
                        row[col(m, a, c - 1)] += c
                for b in range(max(0, m - d), min(m, D) + 1):
                    pc = op.p_coeff(m - b)
                    if not pc:
                        continue
                    if a == n - 1:
                        row[col(b, 0, c)] += -pc
                    if c == 0:
                        row[col(b, a, n - 1)] += pc
                rows.append(row)
    for r in rows:
        r.extend([0] * (d - 1))
    for m in range(d - 1):
        rows[(D + d - m) * n * n + (n - 1) * n][ncols + (d - 2 - m)] += -1
    return rows


def sweep_point(n, k):
    """The certificate sweep's seeded rational point (test_acceptance)."""
    rng = random.Random(1000 * n + k)
    return OperPoint(n, k, tuple(QQ(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(n * k - 1)))


ROW_POINTS = [(2, 1), (2, 2), (3, 1), (4, 2), (5, 1)]


def test_joint_rows_agree_with_direct_application():
    rng = random.Random(7)
    D = 4
    rows = joint_rows(Z2, D)
    ncols = 4 * (D + 1) + Z2.d - 1
    vec = [QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
    omega = []
    for b in range(D + 1):
        m = qzeros(2)
        for a in range(2):
            for c in range(2):
                m[a, c] = vec[(D - b) * 4 + a * 2 + c]
        omega.append(m)
    pdot = Poly(vec[4 * (D + 1):][::-1])
    out = [sum(x * vec[t] for t, x in r.items()) for r in rows]
    res = apply_deformation(Z2, omega, pdot)
    d = Z2.d
    for m in range(D + d + 1):
        for a in range(2):
            for c in range(2):
                direct = res[m][a, c] if m < len(res) else QQ(0)
                assert out[(D + d - m) * 4 + a * 2 + c] == direct


@pytest.mark.parametrize("n, k", ROW_POINTS)
def test_joint_rows_match_the_dense_construction(n, k):
    op = sweep_point(n, k)
    d = op.d
    for D in (0, d - 1, 2 * (d + n)):
        rows = joint_rows(op, D)
        oracle = dense_joint_system(op, D)
        dense = joint_system(op, D)
        assert dense == oracle
        assert [[type(x) for x in r] for r in dense] == \
            [[type(x) for x in r] for r in oracle]
        assert rows == [{t: x for t, x in enumerate(r) if x} for r in oracle]


@pytest.mark.parametrize("n, k", ROW_POINTS)
def test_modular_rank_matches_exact_rank_on_joint_rows(n, k):
    op = sweep_point(n, k)
    for D in (0, op.d - 1, 2 * (op.d + n)):
        rows = joint_rows(op, D)
        assert modular_rank(rows, isomono.CERTIFICATE_PRIME) \
            == exact_rank(rows)


def report_fields(rep):
    return {name: getattr(rep, name) for name in (
        "op", "D", "joint_kernel_dim", "tangent_dim",
        "homogeneous_kernel_dim", "traceless_homogeneous_kernel_dim",
        "witness")}


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (2, 3)])
def test_solvability_falls_back_at_an_unlucky_prime(monkeypatch, n, k):
    # mod 2 the rank drops and the even denominators are not invertible, so
    # the report comes from the rational elimination, with the same fields
    op = sweep_point(n, k)
    certified = solvability(op)
    assert certified.certificate == IDENTITY_CERTIFICATE
    monkeypatch.setattr(isomono, "CERTIFICATE_PRIME", 2)
    rows = joint_rows(op, certified.D)
    ncols = len(joint_system(op, certified.D)[0])
    assert modular_rank(rows, 2) != ncols - 1
    eliminated = solvability(op)
    assert eliminated.certificate == "elimination"
    assert report_fields(eliminated) == report_fields(certified)


MONOMIALS = [(n, k) for n in range(2, 13) for k in range(1, 13 // n + 1)
             if n * k <= 12]


@pytest.mark.parametrize("n, k", MONOMIALS,
                         ids=[f"{n}-{k}" for n, k in MONOMIALS])
def test_monomial_points_are_certified_by_the_identity(n, k):
    # the hinge of the generic certificate: at p = z^d, n | d <= 12, the
    # joint rows have kernel 1 mod 2^61-1, and Omega = I (pdot = 0) solves
    # them, so the kernel over Q is span(I) there and, the rows being
    # polynomial in c, at a generic point
    op = OperPoint(n, k, (0,) * (n * k - 1))
    rep = solvability(op)
    assert rep.certificate == IDENTITY_CERTIFICATE
    assert (rep.joint_kernel_dim, rep.tangent_dim) == (1, 0)
    rows = joint_rows(op, rep.D)
    identity = {isomono._omega_col(rep.D, n, 0, a, a) for a in range(n)}
    assert all(sum(x for col, x in row.items() if col in identity) == 0
               for row in rows)
    assert not any(np.any(m != 0) for m in
                   apply_deformation(op, [qeye(n)], Poly([])))


def test_solvability_checks_the_identity_witness(monkeypatch):
    # one entry off in a column of Omega_0's diagonal breaks Omega = I
    op = sweep_point(3, 1)
    D = 2 * (op.d + op.n)
    diagonal = D * 9 + 4
    real = isomono.joint_rows

    def perturbed(op, D):
        rows = real(op, D)
        hit = next(r for r in rows if diagonal in r)
        hit[diagonal] += 1
        return rows

    monkeypatch.setattr(isomono, "joint_rows", perturbed)
    with pytest.raises(ArithmeticError, match="Omega = I"):
        solvability(op)


def rows_without_pdot(monkeypatch):
    """Make joint_rows drop the pdot columns, so that every pdot with
    Omega = 0 is in the kernel and the rational elimination runs."""
    real = isomono.joint_rows

    def dropped(op, D):
        base = op.n * op.n * (D + 1)
        return [{t: x for t, x in row.items() if t < base}
                for row in real(op, D)]

    monkeypatch.setattr(isomono, "joint_rows", dropped)


@pytest.mark.parametrize("n, k, D", [(2, 1, 4), (2, 2, 6)])
def test_solvability_resubstitutes_its_witness(monkeypatch, n, k, D):
    # a kernel vector with pdot != 0 is put back into the deformation
    # equation, which the rows without pdot no longer match
    rows_without_pdot(monkeypatch)
    with pytest.raises(ArithmeticError,
                       match="kernel vector failed exact re-substitution"):
        solvability(OperPoint(n, k, (QQ(0),) * (n * k - 1)), D)


def test_solvability_reports_a_witness(monkeypatch):
    # with the equation blind to pdot too, the first kernel vector with
    # pdot != 0 is the witness: pdot = z^2, the top pdot column, and
    # Omega = 0
    rows_without_pdot(monkeypatch)
    real = isomono.apply_deformation
    monkeypatch.setattr(isomono, "apply_deformation",
                        lambda op, omega, pdot: real(op, omega, Poly([])))
    op = OperPoint(2, 2, (QQ(0),) * 3)
    rep = solvability(op, 6)
    assert rep.certificate == "elimination"
    assert rep.tangent_dim == op.d - 1
    pdot, omega = rep.witness
    assert pdot == Poly([QQ(0), QQ(0), QQ(1)])
    assert len(omega) == 7 and not any(np.any(m != 0) for m in omega)


def test_solvability_basic():
    rep = solvability(Z2, D=10)
    assert rep.joint_kernel_dim == 1
    assert rep.tangent_dim == 0
    assert rep.homogeneous_kernel_dim == 1
    assert rep.traceless_homogeneous_kernel_dim == 0
    assert rep.witness is None
    assert rep.op is Z2
    assert rep.certificate == IDENTITY_CERTIFICATE


def test_solvability_default_cap():
    rep = solvability(Z2)
    assert rep.D == 2 * (Z2.d + Z2.n)
    assert rep.tangent_dim == 0


def test_solvability_monotone_in_D():
    rng = random.Random(11)
    op = rand_point(rng, 2, 2)
    dims = [solvability(op, D=D).tangent_dim for D in (4, 8, 12)]
    assert dims == sorted(dims)
    assert dims == [0, 0, 0]


def test_solvability_n3():
    rep = solvability(OperPoint(3, 1, (QQ(0), QQ(0))), D=12)
    assert rep.tangent_dim == 0
    assert rep.homogeneous_kernel_dim == 1


def test_solvability_rejects_inexact_point():
    op = OperPoint(2, 1, (0.3 + 0.1j,))
    assert not op.exact
    with pytest.raises(ValueError):
        solvability(op, D=8)


def test_joint_system_shape():
    rows = joint_system(Z2, 5)
    assert len(rows) == 4 * (5 + Z2.d + 1)
    assert len(rows[0]) == 4 * 6 + Z2.d - 1


def test_scalar_system_counts_and_n2_bottom_equation():
    sys2 = ScalarSystem(2)
    assert len(sys2.equations) == 3
    bottom = sys2.equations[(1, -1)]
    assert (QQ(1), ("pd", 0)) in bottom
    assert (QQ(2), ("pom", 0, 1, 0)) in bottom
    for n in (3, 4, 5):
        assert len(ScalarSystem(n).equations) == n * n - 1


def test_scalar_system_symbols_in_range():
    for n in (2, 3, 4):
        sysn = ScalarSystem(n)
        for (i, j), terms in sysn.equations.items():
            assert 1 <= i <= n - 1 and -i <= j <= i
            for _, atom in terms:
                if atom[0] in ("om", "pom"):
                    i2, j2 = atom[-2:]
                    assert 1 <= i2 <= n - 1 and -i2 <= j2 <= i2


def three_branch_equations(n):
    """The scalar system as first written, in tags, with the bottom
    equations of each string built by three loops (j < 0 and j = 0 below
    the corner, the corner -i of a string i < n-1, and the corner of the
    last string with its pdot), its tags then mapped to atoms: the oracle
    for ScalarSystem's one rule."""
    _, _, tables = isomono.algebra_data(n)
    equations = {}
    for i in range(1, n):
        for j in range(1, i + 1):
            equations[(i, j)] = [(QQ(1), ("omega", i, j - 1))]
        for jj in range(0, i):
            terms = [(QQ(1), ("omega", i, -jj - 1))]
            for kk in range(0, jj + 1):
                cv = tables.c_val(i, jj, kk)
                if cv:
                    terms.append((cv, ("p_omega", n - 1 - kk, n - 1 - jj)))
            equations[(i, -jj)] = terms
        if i < n - 1:
            terms = []
            for kk in range(0, i + 1):
                cv = tables.c_val(i, i, kk)
                if cv:
                    terms.append((cv, ("p_omega", n - 1 - kk, n - 1 - i)))
            equations[(i, -i)] = terms
        else:
            terms = [(QQ(1), ("pdot",))]
            for kk in range(0, n - 1):
                cv = tables.c_val(n - 1, n - 1, kk)
                if cv:
                    terms.append((cv, ("p_omega", n - 1 - kk, 0)))
            equations[(n - 1, -(n - 1))] = terms
    atoms = {"omega": ("om",), "p_omega": ("pom", 0), "pdot": ("pd", 0)}
    return {key: [(c, atoms[tag[0]] + tag[1:]) for c, tag in terms]
            for key, terms in equations.items()}


@pytest.mark.parametrize("n", range(2, 11))
def test_scalar_system_matches_the_three_branch_construction(n):
    # key for key in order, term for term in order, coefficient types too
    got = list(ScalarSystem(n).equations.items())
    want = list(three_branch_equations(n).items())
    assert got == want
    assert [[type(c) for c, _ in terms] for _, terms in got] == \
        [[type(c) for c, _ in terms] for _, terms in want]


def test_scalar_matrix_roundtrip():
    rng = random.Random(5)
    n = 3
    omega = {(i, j): Poly([QQ(rng.randint(-4, 4)) for _ in range(3)])
             for i in range(1, n) for j in range(-i, i + 1)}
    mats = matrix_from_scalar(n, omega)
    back = scalar_from_matrix(n, mats)
    for key, pol in omega.items():
        assert back.get(key, Poly([])) == pol


def test_reduction_equivalence_random():
    rng = random.Random(23)
    for (n, k) in [(2, 2), (3, 3)]:
        for _ in range(10):
            op = rand_point(rng, n, k)
            omega = {}
            for i in range(1, n):
                for j in range(-i, i + 1):
                    if rng.random() < 0.7:
                        omega[(i, j)] = Poly([QQ(rng.randint(-6, 6), rng.randint(1, 3))
                                              for _ in range(rng.randint(1, 5))])
            pdot = Poly([QQ(rng.randint(-6, 6)) for _ in range(op.d - 1)])
            lhs, rhs = reduction_residual_pair(op, omega, pdot)
            keys = {(i, j) for i in range(1, n) for j in range(-i, i + 1)}
            for key in keys:
                assert lhs.get(key, Poly([])) == rhs.get(key, Poly([]))


def test_weight_expression_n2_classical_operator():
    wr = weight_expression_check(2)
    assert wr.ok, wr.violations
    (grp,) = wr.per_string[1]
    assert grp.m == 1 and grp.weight == 1 and grp.sign == 1
    assert sorted(grp.terms) == [(QQ(2), 1, 0), (QQ(4), 0, 1)]
    assert wr.pdot_terms[1] == 1


def test_weight_expression_small_n():
    for n in (3, 4, 5):
        wr = weight_expression_check(n)
        assert wr.ok, (n, wr.violations)
        for i, groups in wr.per_string.items():
            for g in groups:
                assert g.weight == i - g.leader
                assert all((1 if c > 0 else -1) == g.sign for c, _, _ in g.terms)
                assert all(a + b == g.weight for _, a, b in g.terms)
        assert set(wr.pdot_terms) == {n - 1}


def test_weight_expression_accepts_oper_point():
    wr = weight_expression_check(Z2)
    assert wr.ok


def test_degree_obstruction_n2():
    rep = degree_obstruction(Z2, 7)
    assert rep.contradiction
    (row,) = rep.rows
    assert (row.i, row.leader) == (1, 0)
    assert row.lhs_degree == 7 - 3
    assert row.rhs_degree == 2 + 7 - 1
    assert not row.holds
    assert (rep.n, rep.d, rep.d0) == (2, 2, 7)


def test_degree_obstruction_dict_degrees():
    op = OperPoint(3, 2, tuple(QQ(0) for _ in range(5)))
    rep = degree_obstruction(op, {1: 3, 2: 9})
    assert rep.d0 == 9
    assert all(r.i == 2 for r in rep.rows)
    assert rep.contradiction
