from fractions import Fraction as QQ

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operstokes.exactla import (commutator, exact_nullspace, exact_solve,
                                qzeros)
from operstokes.sl2 import (a_formula, band_matrix, band_of, bracket,
                            build_weight_basis, commuting_action_check,
                            compute_structure_tables, lowest_weight_vectors,
                            principal_sl2, verify_sign_property)


def tables_for(n):
    basis = build_weight_basis(principal_sl2(n))
    return basis, compute_structure_tables(basis)


def test_triple_relations_n5():
    tri = principal_sl2(5)
    assert np.array_equal(commutator(tri.e, tri.f), tri.h)
    assert tri.h[0, 0] == 4 and tri.h[4, 4] == -4


def test_lowest_weight_vectors_n4():
    tri = principal_sl2(4)
    f1, f2, f3 = lowest_weight_vectors(tri)
    assert f1 == tri.bands[1]
    assert np.array_equal(band_matrix(f1), tri.f)
    # f_2 = 3 E_{3,1} + E_{4,2} (coprime positive integers)
    assert f2 == (-2, (0, 0, 3, 1))
    want = qzeros(4)
    want[2, 0] = QQ(3)
    want[3, 1] = QQ(1)
    assert np.array_equal(band_matrix(f2), want)
    assert f3 == (-3, (0, 0, 0, 1))
    want3 = qzeros(4)
    want3[3, 0] = QQ(1)
    assert np.array_equal(band_matrix(f3), want3)


def test_lowest_vectors_killed_by_f():
    for n in (3, 5):
        tri = principal_sl2(n)
        for fi in lowest_weight_vectors(tri):
            assert not any(bracket(tri.bands[1], fi)[1])


def test_lowest_weight_vectors_match_kernel_oracle():
    # independent oracle: f_i spans the kernel of ad_f on the band S(-i),
    # found by elimination and scaled to a primitive integer vector
    for n in range(2, 10):
        tri = principal_sl2(n)
        f = tri.bands[1]
        for i, fi in enumerate(lowest_weight_vectors(tri), 1):
            # column s: ad_f of the unit vector in row s of S(-i)
            cols = [bracket(f, (-i, tuple(int(r == s) for r in range(n))))[1]
                    for s in range(i, n)]
            kernel = exact_nullspace([[col[r] for col in cols]
                                      for r in range(n)])
            assert len(kernel) == 1
            assert fi == (-i, (0,) * i + tuple(kernel[0]))


def test_weight_vectors_n3_explicit():
    basis, _ = tables_for(3)
    v20 = basis.vec(2, 0)
    assert [v20[a, a] for a in range(3)] == [QQ(2), QQ(-4), QQ(2)]
    v21 = basis.vec(2, 1)
    assert v21[0, 1] == QQ(-6) and v21[1, 2] == QQ(12)
    v22 = basis.vec(2, 2)
    assert v22[0, 2] == QQ(24)
    # v_{1,0} = h, v_{1,1} = -2e
    tri = basis.tri
    assert np.array_equal(basis.vec(1, 0), tri.h)
    assert np.array_equal(basis.vec(1, 1), -2 * np.ones((), dtype=object) * tri.e)


def test_band_membership_and_weights():
    basis, _ = tables_for(4)
    h = basis.tri.bands[2]
    # band coordinates are Python ints, not Fractions
    assert all(type(x) is int for _, xs in basis.tri.bands for x in xs)
    for (i, j) in basis.indices():
        band, xs = basis.band(i, j)
        assert band == j
        assert all(type(x) is int for x in xs)
        assert bracket(h, (j, xs)) == (j, tuple(2 * j * x for x in xs))
        dense = basis.vec(i, j)
        assert np.array_equal(band_matrix(basis.band(i, j)), dense)
        assert all(dense[a, b] == 0
                   for a in range(4) for b in range(4) if b - a != j)


@st.composite
def band_pair(draw):
    n = draw(st.integers(2, 6))

    def element():
        j = draw(st.integers(-(n - 1), n - 1))
        return j, tuple(draw(st.integers(-9, 9)) if 0 <= r + j < n else 0
                        for r in range(n))

    return element(), element()


@settings(max_examples=200, deadline=None)
@given(band_pair())
@example(((3, (5, 0, 0, 0)), (1, (2, 3, -1, 0))))   # S(3) + S(1) leaves sl(4)
@example(((-2, (0, 0, 4)), (-1, (0, 1, 7))))         # S(-2) + S(-1) leaves sl(3)
def test_bracket_matches_dense_commutator(pair):
    x, y = pair
    assert np.array_equal(band_matrix(bracket(x, y)),
                          commutator(band_matrix(x), band_matrix(y)))


def test_vec_out_of_range_raises():
    basis, tables = tables_for(3)
    with pytest.raises(KeyError):
        basis.vec(2, 3)
    with pytest.raises(KeyError):
        tables.a_val(3, 0)
    with pytest.raises(KeyError):
        tables.c_val(1, 2, 0)
    with pytest.raises(KeyError):
        basis.band(2, 3)


def test_a_table_matches_formula():
    for n in (2, 3, 4, 6):
        _, tables = tables_for(n)
        for (i, j), v in tables.a.items():
            assert v == a_formula(i, j) == (i + j) * (i - j + 1)
        assert tables.a_val(1, 0) == 2  # ad_f h = 2f


def test_c_table_n3_explicit():
    _, t = tables_for(3)
    assert t.c_val(1, 0, 0) == QQ(-12)
    assert t.c_val(2, 0, 0) == QQ(0)
    assert t.c_val(2, 1, 1) == QQ(2)
    assert t.c_val(1, 1, 1) == QQ(0)
    assert t.c_val(2, 2, 1) == QQ(4)


def test_c_table_generic_edge_values():
    for n in (3, 4, 5, 6):
        _, t = tables_for(n)
        assert t.c_val(n - 1, n - 1, n - 2) == 2 * (n - 1)
        assert t.c_val(n - 1, n - 2, n - 2) == 2
        if n >= 4:
            assert t.c_val(n - 2, n - 2, n - 2) == 0


def test_sign_property_and_recursion():
    for n in range(2, 17):
        _, t = tables_for(n)
        rep = verify_sign_property(t)
        assert rep.ok, rep.violations
        assert rep.strings_checked >= 1
        assert rep.recursions_checked >= 1


def test_commuting_actions():
    for n in range(2, 11):
        basis, _ = tables_for(n)
        assert commuting_action_check(basis)


def test_decompose_roundtrip():
    basis, _ = tables_for(4)
    x = qzeros(4)
    # random-looking traceless combination
    x += 3 * np.ones((), dtype=object) * basis.vec(2, 1)
    x += QQ(-1, 2) * np.ones((), dtype=object) * basis.vec(3, -2)
    x += 5 * np.ones((), dtype=object) * basis.vec(1, 0)
    coeffs = basis.decompose(x)
    assert coeffs == {(2, 1): QQ(3), (3, -2): QQ(-1, 2), (1, 0): QQ(5)}


@st.composite
def traceless_matrix(draw):
    n = draw(st.integers(2, 8))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    xs = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    m = qzeros(n)
    for a in range(n):
        for b in range(n):
            m[a, b] = QQ(xs[a * n + b])
    m[n - 1, n - 1] -= sum(m[a, a] for a in range(n))
    return m


@settings(max_examples=150, deadline=None)
@given(traceless_matrix())
def test_decompose_matches_elimination_oracle(x):
    n = x.shape[0]
    basis = build_weight_basis(principal_sl2(n))
    want = {}
    for j in range(-(n - 1), n):
        members = range(max(abs(j), 1), n)
        cols = [basis.band(i, j)[1] for i in members]
        sol = exact_solve([[col[r] for col in cols] for r in range(n)],
                          band_of(x, j)[1])
        assert sol is not None and not sol[1]
        want.update({(i, j): c for i, c in zip(members, sol[0]) if c})
    coeffs = basis.decompose(x)
    assert coeffs == want
    rebuilt = qzeros(n)
    for (i, j), c in coeffs.items():
        rebuilt = rebuilt + c * basis.vec(i, j)
    assert np.array_equal(rebuilt, x)


def test_decompose_rejects_trace():
    basis, _ = tables_for(3)
    eye = np.array([[QQ(int(i == j)) for j in range(3)] for i in range(3)],
                   dtype=object)
    with pytest.raises(ValueError):
        basis.decompose(eye)


def test_serialize_deterministic():
    _, t = tables_for(3)
    s1 = t.serialize()
    s2 = compute_structure_tables(build_weight_basis(principal_sl2(3))).serialize()
    assert s1 == s2
    assert "a 1 0 2/1" in s1
    assert s1.endswith("\n")
