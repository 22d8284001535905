"""The symmetric-function kernel against a brute-force enumeration oracle.

`symfun._sigma` is the prefix recursion and `symfun.e_m_values` its
normalized, stacked form, E_m = sigma_m / C(n, m) along the last axis.
The derivative, cone and Newton-MacLaurin tests restate those notions on
eigenvalue tuples through the kernel, the way the checks consume it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkverify import symfun


def sigma_oracle(lam, m):
    """Sum over index subsets, the definition verbatim.  Test-only."""
    lam = [float(x) for x in lam]
    if m == 0:
        return 1.0
    if m > len(lam):
        return 0.0
    return math.fsum(math.prod(c) for c in itertools.combinations(lam, m))


def sigma(lam, m):
    """sigma_m of one tuple through the kernel's recursion."""
    return symfun._sigma([float(x) for x in lam], m, 1.0)


def e_m_gradient(lam, m):
    """dE_m / dlam_i = sigma_{m-1}(lam without i) / C(n, m) along the last axis.

    Taken from the kernel on the n deleted tuples: their E_{m-1} is
    sigma_{m-1} / C(n-1, m-1), and C(n-1, m-1) / C(n, m) = m / n.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    deleted = np.stack([np.delete(lam, i, axis=-1) for i in range(n)], axis=-2)
    return m / n * symfun.e_m_values(deleted, m - 1)


def nm_deficit(lam, m):
    """Newton-MacLaurin deficit E_1 E_{m-1} - E_m along the last axis."""
    e = symfun.e_m_values
    return e(lam, 1) * e(lam, m - 1) - e(lam, m)


def random_symmetric(rng, count, n, scale=2.0):
    a = rng.normal(0.0, scale, size=(count, n, n))
    return (a + np.swapaxes(a, -1, -2)) / 2.0


finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


class TestSigma:
    def test_frozen_values(self):
        assert sigma((1.0, 2.0, 3.0), 2) == 11.0
        assert sigma((1.0, 2.0, 3.0), 0) == 1.0
        assert sigma((1.0, 2.0, 3.0), 4) == 0.0
        assert sigma((5.0,), 1) == 5.0
        # columns may be arrays: one recursion over a stack of tuples
        stacked = symfun._sigma([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 2, np.ones(2))
        assert stacked.tolist() == [3.0, 8.0]

    def test_matches_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            lam = rng.uniform(-3.0, 3.0, size=n)
            for m in range(0, n + 2):
                want = sigma_oracle(lam, m)
                got = sigma(lam, m)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @given(st.lists(finite_floats, min_size=1, max_size=6), st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_oracle_property(self, lam, m):
        want = sigma_oracle(lam, m)
        got = sigma(lam, m)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    @given(st.lists(finite_floats, min_size=2, max_size=6))
    @example([1.0, 8.318191355429434, -4.078125, 4.6875, 8.125, -7.28125])
    @example([0.0, 0.75, 2.225073858507e-311, 2.225073858507e-311, 3.0, 9.0])
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, lam):
        # Error of the recursion e_j <- fl(e_j + fl(x_i e_{j-1})) of
        # symfun._sigma.  A product rounds as ab(1 + d) + t with |d| <= u =
        # eps/2 and |t| <= s/2, s the smallest subnormal; a sum rounds as
        # (a + b)(1 + d), exactly when the result is subnormal.  Unrolled,
        # each monomial of sigma_m passes through at most 2n roundings, and
        # a product's t at column i, order j reaches e_m multiplied by the
        # later columns' sigma_{m-j}(x_{i+1..n}) (times at most (1 + u)^2n).
        # So with S = sum_{k<m} sigma_k(|lam|), over n columns,
        #   |computed - sigma_m| <= gamma_2n sigma_m(|lam|) + n (s/2) S (1 + u)^2n,
        # and two orders differ by at most twice that, about
        # 2n eps sigma_m(|lam|) + n s S; asserted with a factor 2 to spare
        m = len(lam) // 2 + 1
        scale = sigma(np.abs(lam), m)
        growth = sum(sigma(np.abs(lam), k) for k in range(m))
        diff = sigma(lam, m) - sigma(lam[::-1], m)
        fp = np.finfo(float)
        bound = 2 * len(lam) * (2 * fp.eps * scale + fp.smallest_subnormal * growth)
        assert abs(diff) <= bound

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symfun._sigma([1.0, 2.0], -1, 1.0)
        with pytest.raises(ValueError):
            symfun.e_m_values(np.ones((3, 2)), -1)
        with pytest.raises(ValueError):
            symfun.e_m_values(1.0, 1)


class TestEm:
    def test_frozen_values(self):
        lam = (1.0, 2.0, 3.0)
        assert float(symfun.e_m_values(lam, 2)) == pytest.approx(11.0 / 3.0, rel=1e-15)
        assert float(symfun.e_m_values(lam, 0)) == 1.0
        assert float(symfun.e_m_values(lam, 5)) == 0.0

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_equal_eigenvalues_give_powers(self, c, n, m):
        # E_m(c, ..., c) = c^m, any tuple length >= m
        if m > n:
            return
        got = symfun.e_m_values(np.full((3, n), c), m)
        assert got.shape == (3,)
        assert got == pytest.approx(np.full(3, c ** m), rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        # the stacked recursion does the same float operations per node
        lam = rng.uniform(-2.0, 2.0, size=(7, 4, 3))
        for m in range(0, 5):
            got = symfun.e_m_values(lam, m)
            assert got.shape == (7, 4)
            for i in range(7):
                for j in range(4):
                    assert got[i, j] == symfun.e_m_values(lam[i, j], m)
                    want = sigma_oracle(lam[i, j], m) / math.comb(3, m) if m <= 3 else 0.0
                    assert got[i, j] == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_vectorized_conventions(self):
        lam = np.ones((5, 2))
        assert np.all(symfun.e_m_values(lam, 0) == 1.0)
        assert np.all(symfun.e_m_values(lam, 3) == 0.0)
        with pytest.raises(ValueError):
            symfun.e_m_values(1.0, 1)

    @pytest.mark.parametrize("m", [2.0, "1", True, None], ids=repr)
    def test_order_follows_the_integer_rule(self, m):
        with pytest.raises(ValueError, match=f"order m must be an integer, got {m!r}"):
            symfun.e_m_values(np.ones((5, 2)), m)

    def test_numpy_integer_order(self):
        lam = np.array([[1.0, 2.0, 3.0]])
        assert symfun.e_m_values(lam, np.int64(2)) == symfun.e_m_values(lam, 2)


class TestMatrixRoutes:
    def test_frozen_values(self):
        # a stack of matrices through LAPACK's eigenvalues, then the kernel
        a = np.stack([np.diag([1.0, 2.0, 3.0]), np.eye(3)])
        lam = np.linalg.eigvalsh(a)
        assert symfun.e_m_values(lam, 2) == pytest.approx([11.0 / 3.0, 1.0], rel=1e-13)
        assert symfun.e_m_values(lam, 3) == pytest.approx([6.0, 1.0], rel=1e-13)
        assert symfun.e_m_values(lam, 4).tolist() == [0.0, 0.0]

    def test_eigen_and_minors_agree(self, rng):
        # E_m of a symmetric matrix is the normalized sum of its m-by-m
        # principal minors; the kernel reaches it through the eigenvalues
        for n in range(1, 6):
            a = random_symmetric(rng, 40, n)
            lam = np.linalg.eigvalsh(a)
            for m in range(1, n + 1):
                via_eigen = symfun.e_m_values(lam, m)
                minors = sum(np.linalg.det(a[:, rows][:, :, rows])
                             for rows in itertools.combinations(range(n), m))
                oracle = np.array([sigma_oracle(row, m) for row in lam])
                scale = 1.0 + np.abs(oracle) / math.comb(n, m)
                assert np.all(np.abs(via_eigen - minors / math.comb(n, m)) <= 1e-12 * scale)
                assert np.all(np.abs(via_eigen - oracle / math.comb(n, m)) <= 1e-12 * scale)


class TestDerivative:
    def test_frozen_values(self):
        assert e_m_gradient((3.0, 7.0), 1).tolist() == [0.5, 0.5]
        assert e_m_gradient((1.0, 2.0, 3.0), 2) == pytest.approx(
            np.array([5.0, 4.0, 3.0]) / 3.0, rel=1e-15)
        assert e_m_gradient((4.0,), 1).tolist() == [1.0]

    def test_matches_finite_differences(self, rng):
        # central differences of E_m in each eigenvalue, all n bumps stacked
        step = 1e-6
        for _ in range(5):
            for n in range(1, 5):
                lam = rng.normal(0.0, 2.0, size=n)
                bumps = step * np.eye(n)
                for m in range(1, n + 1):
                    fd = (symfun.e_m_values(lam + bumps, m)
                          - symfun.e_m_values(lam - bumps, m)) / (2.0 * step)
                    assert np.all(np.abs(fd - e_m_gradient(lam, m)) <= 1e-6)

    def test_contraction_with_matrix(self, rng):
        # sum_i lam_i dE_m/dlam_i = m E_m (Euler: E_m is m-homogeneous)
        for n in range(1, 6):
            lam = rng.normal(0.0, 2.0, size=(300, n))
            for m in range(1, n + 1):
                lhs = np.sum(lam * e_m_gradient(lam, m), axis=-1)
                rhs = m * symfun.e_m_values(lam, m)
                assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))

    def test_contraction_with_identity(self, rng):
        # sum_i dE_m/dlam_i = m E_{m-1}
        for n in range(1, 6):
            lam = rng.normal(0.0, 2.0, size=(300, n))
            for m in range(1, n + 1):
                lhs = np.sum(e_m_gradient(lam, m), axis=-1)
                rhs = m * symfun.e_m_values(lam, m - 1)
                assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))

    def test_contraction_with_square(self, rng):
        # sum_i lam_i^2 dE_m/dlam_i = n E_1 E_m - (n - m) E_{m+1}; the two
        # terms cancel, so roundoff scales with them rather than the result
        for n in range(1, 6):
            lam = rng.normal(0.0, 2.0, size=(300, n))
            for m in range(1, n + 1):
                lhs = np.sum(lam * lam * e_m_gradient(lam, m), axis=-1)
                t1 = n * symfun.e_m_values(lam, 1) * symfun.e_m_values(lam, m)
                t2 = (n - m) * symfun.e_m_values(lam, m + 1)
                assert np.all(np.abs(lhs - (t1 - t2))
                              <= 1e-12 * (1.0 + np.abs(t1) + np.abs(t2)))


class TestCone:
    def test_frozen_values(self):
        # the order-m Garding cone is E_i > 0 for every i <= m, read the way
        # the Alexandrov check reads it: one stacked kernel call per order
        lam = np.array([[3.0, -1.0], [1.0, 1.0]])
        assert symfun.e_m_values(lam, 1).tolist() == [1.0, 1.0]
        assert symfun.e_m_values(lam, 2).tolist() == [-3.0, 1.0]
        ones = np.ones(3)
        assert all(float(symfun.e_m_values(ones, i)) > 0.0 for i in range(1, 4))


class TestNewtonMaclaurin:
    def test_frozen_value(self):
        # E_1 E_1 - E_2 at (1,2,3): 4 - 11/3 = 1/3
        got = float(nm_deficit((1.0, 2.0, 3.0), 2))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
           st.integers(2, 5))
    @settings(max_examples=200, deadline=None)
    def test_equality_at_equal_eigenvalues(self, c, n):
        for m in range(2, n + 1):
            assert abs(float(nm_deficit([c] * n, m))) <= 1e-12

    def test_nonnegative_in_cone(self, rng):
        # all-positive tuples lie inside every cone and take every order m;
        # signed tuples are kept when they lie in the order-2 cone
        count = 0
        for n in range(2, 6):
            lam = rng.uniform(-1.0, 3.0, size=(1000, n))
            positive = np.all(lam > 0.0, axis=-1)
            in_cone = (symfun.e_m_values(lam, 1) > 0.0) & (symfun.e_m_values(lam, 2) > 0.0)
            for m, rows in [(2, in_cone)] + [(m, positive) for m in range(3, n + 1)]:
                sample = lam[rows]
                deficit = nm_deficit(sample, m)
                scale = 1.0 + np.abs(symfun.e_m_values(sample, 1)
                                     * symfun.e_m_values(sample, m - 1))
                assert np.all(deficit >= -1e-12 * scale)
                # equality only at lam = c * ones; these samples are far from it
                spread = np.ptp(sample, axis=-1) >= 1e-6
                assert np.all(deficit[spread] >= 0.0)
                count += len(sample)
        assert count >= 2000

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    @example(1.0, 1.0)
    @example(0.1, 0.1)
    @example(3.0, 3.0000000000000004)
    @settings(max_examples=300, deadline=None)
    def test_slack_integrand(self, a, b):
        # the alexandrov-nm-slack integrand e1/e2 - 1/e1 at n = 2, where the
        # order-2 cone is a, b > 0; exactly ((a - b)/2)^2 / (e1 e2) >= 0.
        # Kernel: e1 = fl(a + b)/2, e2 = fl(ab), each within u = eps/2, and
        # the two quotients round once more, so q1 = e1/e2 and q2 = 1/e1 are
        # off by at most 3u q1 + 2u q2 (to first order) and the computed
        # slack is within 2 eps (q1 + q2) of the exact one, above -that
        e1, e2 = symfun.e_m_values((a, b), 1), symfun.e_m_values((a, b), 2)
        q1, q2 = float(e1 / e2), float(1.0 / e1)
        slack = float(e1 / e2 - 1.0 / e1)
        fa, fb = Fraction(a), Fraction(b)
        exact = ((fa - fb) / 2) ** 2 / ((fa + fb) / 2 * fa * fb)
        bound = 2 * np.finfo(float).eps * (q1 + q2)
        assert slack >= -bound
        assert abs(Fraction(slack) - exact) <= Fraction(bound)
        if a == b:
            assert abs(slack) <= bound
