"""Symmetric function algebra against a brute-force enumeration oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkverify import symfun
from hkverify.errors import GardingConeError


def sigma_oracle(lam, m):
    """Sum over index subsets, the definition verbatim.  Test-only."""
    lam = [float(x) for x in lam]
    if m == 0:
        return 1.0
    if m > len(lam):
        return 0.0
    return math.fsum(math.prod(c) for c in itertools.combinations(lam, m))


def random_symmetric(rng, n, scale=2.0):
    a = rng.normal(0.0, scale, size=(n, n))
    return (a + a.T) / 2.0


finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


class TestSigma:
    def test_frozen_values(self):
        assert symfun.sigma_m((1.0, 2.0, 3.0), 2) == 11.0
        assert symfun.sigma_m((1.0, 2.0, 3.0), 0) == 1.0
        assert symfun.sigma_m((1.0, 2.0, 3.0), 4) == 0.0
        assert symfun.sigma_m((5.0,), 1) == 5.0

    def test_matches_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            lam = rng.uniform(-3.0, 3.0, size=n)
            for m in range(0, n + 2):
                want = sigma_oracle(lam, m)
                got = symfun.sigma_m(lam, m)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @given(st.lists(finite_floats, min_size=1, max_size=6), st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_oracle_property(self, lam, m):
        want = sigma_oracle(lam, m)
        got = symfun.sigma_m(lam, m)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    @given(st.lists(finite_floats, min_size=2, max_size=6))
    @example([1.0, 8.318191355429434, -4.078125, 4.6875, 8.125, -7.28125])
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, lam):
        # each order's recursion errs by at most ~2n roundings of the size
        # of the terms that cancel, sigma_m of |lam|, not of their sum, plus
        # a subnormal step per rounding where the terms underflow
        m = len(lam) // 2 + 1
        scale = symfun.sigma_m(np.abs(lam), m)
        diff = symfun.sigma_m(lam, m) - symfun.sigma_m(lam[::-1], m)
        fp = np.finfo(float)
        assert abs(diff) <= 4 * len(lam) * (fp.eps * scale + fp.smallest_subnormal)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symfun.sigma_m((1.0, 2.0), -1)
        with pytest.raises(ValueError):
            symfun.sigma_m((), 1)
        with pytest.raises(ValueError):
            symfun.sigma_m((1.0, math.nan), 1)
        with pytest.raises(ValueError):
            symfun.sigma_m([[1.0, 2.0]], 1)


class TestEm:
    def test_frozen_values(self):
        assert symfun.e_m((1.0, 2.0, 3.0), 2) == pytest.approx(11.0 / 3.0, rel=1e-15)
        assert symfun.e_m((1.0, 2.0, 3.0), 0) == 1.0
        assert symfun.e_m((1.0, 2.0, 3.0), 5) == 0.0

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_equal_eigenvalues_give_powers(self, c, n, m):
        # E_m(c, ..., c) = c^m, any tuple length >= m
        if m > n:
            return
        got = symfun.e_m([c] * n, m)
        assert got == pytest.approx(c ** m, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        lam = rng.uniform(-2.0, 2.0, size=(7, 4, 3))
        for m in range(0, 5):
            got = symfun.e_m_values(lam, m)
            assert got.shape == (7, 4)
            for i in range(7):
                for j in range(4):
                    assert got[i, j] == pytest.approx(
                        symfun.e_m(lam[i, j], m), rel=1e-14, abs=1e-14)

    def test_vectorized_conventions(self):
        lam = np.ones((5, 2))
        assert np.all(symfun.e_m_values(lam, 0) == 1.0)
        assert np.all(symfun.e_m_values(lam, 3) == 0.0)
        with pytest.raises(ValueError):
            symfun.e_m_values(1.0, 1)


class TestMatrixRoutes:
    def test_frozen_values(self):
        d = np.diag([1.0, 2.0, 3.0])
        assert symfun.e_m_matrix(d, 2) == pytest.approx(11.0 / 3.0, rel=1e-13)
        assert symfun.e_m_matrix(np.eye(3), 3) == pytest.approx(1.0, rel=1e-13)
        assert symfun.e_m_matrix(d, 4) == 0.0

    def test_eigen_and_minors_agree(self, rng):
        # two independent routes to E_m(A); also cross-checked against the
        # eigenvalue oracle through LAPACK
        for _ in range(200):
            n = int(rng.integers(1, 6))
            a = random_symmetric(rng, n)
            for m in range(1, n + 1):
                via_eigen = symfun.e_m_matrix(a, m, method="eigen")
                via_minors = symfun.e_m_matrix(a, m, method="minors")
                oracle = sigma_oracle(np.linalg.eigvalsh(a), m) / math.comb(n, m)
                scale = 1.0 + abs(oracle)
                assert abs(via_eigen - via_minors) <= 1e-12 * scale
                assert abs(via_eigen - oracle) <= 1e-12 * scale

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symfun.e_m_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
        with pytest.raises(ValueError):
            symfun.e_m_matrix(np.eye(2), 1, method="magic")
        with pytest.raises(ValueError):
            symfun.e_m_matrix(np.eye(2), -1)


class TestDerivative:
    def test_frozen_values(self):
        got = symfun.d_e_m(np.diag([3.0, 7.0]), 1)
        assert np.allclose(got, np.eye(2) / 2.0, atol=1e-15)
        got = symfun.d_e_m(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.allclose(got, np.diag([5.0, 4.0, 3.0]) / 3.0, atol=1e-13)

    def test_matches_finite_differences(self, rng):
        # central differences of E_m under a symmetric pair perturbation;
        # the pair picks up entry (i,j) + entry (j,i) of the derivative
        step = 1e-6
        for _ in range(5):
            for n in range(1, 5):
                a = random_symmetric(rng, n)
                for m in range(1, n + 1):
                    d = symfun.d_e_m(a, m)
                    for i in range(n):
                        for j in range(i, n):
                            bump = np.zeros((n, n))
                            bump[i, j] = bump[j, i] = step
                            fd = (symfun.e_m_matrix(a + bump, m)
                                  - symfun.e_m_matrix(a - bump, m)) / (2.0 * step)
                            want = d[i, j] + d[j, i] if i != j else d[i, i]
                            assert abs(fd - want) <= 1e-6

    def test_contraction_with_matrix(self, rng):
        # trace(dE_m(A) A) = m E_m(A)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = random_symmetric(rng, n)
            for m in range(1, n + 1):
                lhs = float(np.trace(symfun.d_e_m(a, m) @ a))
                rhs = m * symfun.e_m_matrix(a, m)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_contraction_with_identity(self, rng):
        # trace(dE_m(A)) = m E_{m-1}(A)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = random_symmetric(rng, n)
            for m in range(1, n + 1):
                lhs = float(np.trace(symfun.d_e_m(a, m)))
                rhs = m * symfun.e_m_matrix(a, m - 1)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_contraction_with_square(self, rng):
        # trace(dE_m(A) A^2) = n E_1 E_m - (n - m) E_{m+1}; the two terms
        # cancel, so roundoff scales with them rather than with the result
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = random_symmetric(rng, n)
            for m in range(1, n + 1):
                lhs = float(np.trace(symfun.d_e_m(a, m) @ a @ a))
                t1 = n * symfun.e_m_matrix(a, 1) * symfun.e_m_matrix(a, m)
                t2 = (n - m) * symfun.e_m_matrix(a, m + 1)
                assert abs(lhs - (t1 - t2)) <= 1e-12 * (1.0 + abs(t1) + abs(t2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            symfun.d_e_m(np.eye(2), 0)
        with pytest.raises(ValueError):
            symfun.d_e_m(np.eye(2), 3)


class TestCone:
    def test_frozen_values(self):
        assert symfun.cone_member((3.0, -1.0), 1) is True
        assert symfun.cone_member((3.0, -1.0), 2) is False
        assert symfun.cone_member((1.0, 1.0, 1.0), 3) is True

    def test_range_check(self):
        with pytest.raises(ValueError):
            symfun.cone_member((1.0, 2.0), 0)
        with pytest.raises(ValueError):
            symfun.cone_member((1.0, 2.0), 3)


class TestNewtonMaclaurin:
    def test_frozen_value(self):
        # E_1 E_1 - E_2 at (1,2,3): 4 - 11/3 = 1/3
        got = symfun.newton_maclaurin_deficit((1.0, 2.0, 3.0), 2)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
           st.integers(2, 5))
    @settings(max_examples=200, deadline=None)
    def test_equality_at_equal_eigenvalues(self, c, n):
        for m in range(2, n + 1):
            assert abs(symfun.newton_maclaurin_deficit([c] * n, m)) <= 1e-12

    def test_nonnegative_in_cone(self, rng):
        # random cone samples: half all-positive tuples (inside every cone),
        # half signed tuples filtered by membership
        count = 0
        while count < 2000:
            n = int(rng.integers(2, 6))
            lam = rng.uniform(-1.0, 3.0, size=n)
            if not np.all(lam > 0.0) and not symfun.cone_member(lam, 2):
                continue
            m = int(rng.integers(2, n + 1)) if np.all(lam > 0.0) else 2
            deficit = symfun.newton_maclaurin_deficit(lam, m)
            scale = 1.0 + abs(symfun.e_m(lam, 1) * symfun.e_m(lam, m - 1))
            assert deficit >= -1e-12 * scale
            # equality only at lam = c * ones; these samples are far from it
            if float(np.max(lam) - np.min(lam)) >= 1e-6:
                assert deficit > 1e-12 or deficit >= 0.0
            count += 1

    def test_cone_violation_payload(self):
        with pytest.raises(GardingConeError) as exc:
            symfun.newton_maclaurin_deficit((3.0, -1.0), 2)
        err = exc.value
        assert err.m == 2
        assert err.sigmas == (2.0, -3.0)
        assert err.first_failing == 2
        assert "sigma_2" in str(err)

    def test_range_check(self):
        with pytest.raises(ValueError):
            symfun.newton_maclaurin_deficit((1.0, 2.0), 3)
