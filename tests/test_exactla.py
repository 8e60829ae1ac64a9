from fractions import Fraction as QQ
from functools import reduce
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from operstokes.exactla import (commutator, exact_nullspace, exact_rank,
                                exact_solve, mat_trace, modular_rank, qzeros,
                                rational_str)


def qmat(rows):
    """Matrix of Fractions (numpy object array) from an iterable of rows."""
    return np.array([[QQ(x) for x in row] for row in rows], dtype=object)


def qeye(n):
    return qmat([[int(i == j) for j in range(n)] for i in range(n)])


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def rand_matrix(draw, rows, cols):
    """Mostly zeros, with some rows and columns zero throughout."""
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return [[draw(rationals) if r not in zero_rows and c not in zero_cols
             and draw(st.integers(0, 2)) == 0 else QQ(0)
             for c in range(cols)] for r in range(rows)]


def sympy_nullspace(rows):
    """sympy's kernel basis (one at its free column, zero at the others),
    each vector scaled to primitive integers."""
    out = []
    for v in sympy.Matrix(rows).nullspace():
        den = reduce(sympy.ilcm, (x.q for x in v))
        ints = [int(x * den) for x in v]
        g = reduce(gcd, ints)
        out.append([x // g for x in ints])
    return out


def test_qmat_roundtrip():
    m = qmat([[1, QQ(1, 2)], [0, 3]])
    assert m[0, 1] == QQ(1, 2)
    assert m.dtype == object


def test_rank_known():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [3, 4]]) == 2
    assert exact_rank(qzeros(3)) == 0
    assert exact_rank(qeye(5)) == 5


def test_nullspace_known():
    ker = exact_nullspace([[1, 2], [2, 4]])
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 + v[1] * 2 == 0


def test_nullspace_trivial():
    assert exact_nullspace(qeye(4)) == []


def test_solve_particular_and_kernel():
    sol = exact_solve([[1, 1], [2, 2]], [3, 6])
    assert sol is not None
    x, ker = sol
    assert x[0] + x[1] == 3
    assert len(ker) == 1


def test_solve_inconsistent():
    assert exact_solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        exact_solve([[1, 1], [1, 2]], [3])
    with pytest.raises(ValueError):
        exact_solve([[1, 1]], [3, 4])


def test_floats_are_rejected():
    with pytest.raises(AttributeError):
        exact_rank([[QQ(1), 0.5]])
    with pytest.raises(AttributeError):
        modular_rank([[1, 0.0], [0, 1]], 7)
    with pytest.raises(AttributeError):
        exact_nullspace([[1, 0.0], [0, 1]])
    with pytest.raises(AttributeError):
        exact_solve([[1, 2], [3, 4]], [QQ(1), 2.0])


def test_trace_and_commutator():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert mat_trace(commutator(a, b)) == 0
    assert mat_trace(a) == 5


def test_rational_str():
    assert rational_str(QQ(3, 4)) == "3/4"
    assert rational_str(QQ(-2)) == "-2/1"


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(data, r, c):
    m = rand_matrix(data.draw, r, c)
    rank, ker = exact_rank(m), exact_nullspace(m)
    assert rank + len(ker) == c
    assert rank == sympy.Matrix(m).rank()
    assert [list(v) for v in ker] == sympy_nullspace(m)


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_nullspace_vectors_annihilate(data, r, c):
    rows = rand_matrix(data.draw, r, c)
    m = qmat(rows)
    for v in exact_nullspace(rows):
        res = m @ v
        assert all(x == 0 for x in res)


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_primitive_integers(data, r, c):
    rows = rand_matrix(data.draw, r, c)
    m = qmat(rows)
    for v in exact_nullspace(rows):
        assert all(type(x) is int for x in v)
        assert reduce(gcd, v) == 1
        assert [x for x in v if x][-1] > 0
        assert all(x == 0 for x in m @ v)


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_solve_resubstitution(data, r, c):
    rows = rand_matrix(data.draw, r, c)
    m = qmat(rows)
    x_true = np.array([data.draw(rationals) for _ in range(c)], dtype=object)
    b = m @ x_true
    sol = exact_solve(rows, list(b))
    assert sol is not None
    x, ker = sol
    res = m @ np.array(x, dtype=object) - b
    assert all(e == 0 for e in res)
    for v in ker:
        assert all(e == 0 for e in m @ v)


def test_rank_scale_invariance():
    rows = [[QQ(1, 3), QQ(2, 7)], [QQ(5), QQ(-1, 2)], [QQ(0), QQ(11, 13)]]
    scaled = [[q * QQ(30031, 17) for q in row] for row in rows]
    assert exact_rank(rows) == exact_rank(scaled)


def sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


PRIME = 2 ** 61 - 1


def test_modular_rank_known():
    deficient = [[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, -1, 5], [2, 2, 2, 9]]
    assert exact_rank(deficient) == 2
    assert modular_rank(deficient, PRIME) == 2
    assert modular_rank(sparse(deficient), PRIME) == 2
    assert modular_rank(qeye(5), PRIME) == 5
    assert modular_rank(qzeros(3), PRIME) == 0
    # det 6: rank 2 over Q and mod 5, 1 mod 2 and mod 3
    m = [[2, 0], [1, 3]]
    assert [modular_rank(m, p) for p in (2, 3, 5)] == [1, 1, 2]
    # a denominator that p divides has no residue
    assert modular_rank([[QQ(1, 6), 1]], 3) is None
    assert modular_rank([[QQ(1, 6), 1]], 5) == 1


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_modular_rank_matches_exact_rank(data, r, c):
    m = rand_matrix(data.draw, r, c)
    assert modular_rank(sparse(m), PRIME) == exact_rank(m)


@given(st.data(), st.integers(1, 8), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_sparse_rows_give_the_dense_kernel(data, r, c):
    m = rand_matrix(data.draw, r, c)
    assert exact_rank(sparse(m)) == exact_rank(m)
    assert [list(v) for v in exact_nullspace(sparse(m), c)] == \
        [list(v) for v in exact_nullspace(m)]
