import math

import numpy as np
import pytest

from horocount import latcount
from horocount.latcount import CountingError, EllipsoidSpec, shell_table
from horocount.moebius import (
    error_relation_check,
    mu_tail,
    sieve,
    verify_inversion,
    zeta_tail,
)
from horocount.quadform import GroupElement, QuadForm, act, constants, zeta


def mu_by_factorization(n):
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


class TestSieve:
    def test_first_values(self):
        assert list(sieve(10)[1:11]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_square_factor(self):
        assert sieve(10)[4] == 0

    def test_against_factorization(self):
        # limits on both sides of squares and of a prime just above a square root
        for limit in (1, 2, 10, 48, 49, 50, 97, 1000, 4099):
            ref = np.array([0] + [mu_by_factorization(k) for k in range(1, limit + 1)], dtype=np.int8)
            mu = sieve(limit)
            assert mu.dtype == np.int8 and np.array_equal(mu, ref), limit

    def test_mertens(self):
        mertens = int(sieve(100)[1:].sum())
        assert mertens == sum(mu_by_factorization(k) for k in range(1, 101))
        assert mertens == 1

    def test_read_only(self):
        # the cached array is shared by every caller: a write would change
        # later counts (mu(2) = 1 doubles n1 of I_2 at R = 3)
        mu = sieve(10)
        with pytest.raises(ValueError):
            mu[2] = 1
        assert mu.dtype == np.int8 and mu[2] == -1

    def test_rejects_zero(self):
        with pytest.raises(CountingError):
            sieve(0)

    def test_small_dtypes_bound_the_peak(self):
        # int8 mu, int32 tracked products and an int32 range: about 10 bytes
        # per entry at the peak (24 with int64 scratch); beyond int32 it refuses
        import tracemalloc

        limit = 200_000
        tracemalloc.start()
        sieve.__wrapped__(limit)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 12 * limit
        with pytest.raises(CountingError, match="2\\^31"):
            sieve(2 ** 31)

    def test_dirichlet_inverse(self):
        # tau = indicator of squares, nu(k^2) = mu(k): tau * nu = delta_1
        n_max = 10_000
        mu = sieve(int(math.isqrt(n_max)) + 1)

        def tau(n):
            r = math.isqrt(n)
            return 1 if r * r == n else 0

        def nu(n):
            r = math.isqrt(n)
            return int(mu[r]) if r * r == n else 0

        rng = np.random.default_rng(21)
        probes = list(rng.integers(2, n_max, size=60)) + [1, 4, 36, 9973]
        for n in probes:
            n = int(n)
            conv = sum(tau(k) * nu(n // k) for k in range(1, n + 1) if n % k == 0)
            assert conv == (1 if n == 1 else 0), n


class TestInversion:
    def test_d2_identity(self):
        rep = verify_inversion(EllipsoidSpec(QuadForm.identity(2), 5.0))
        assert rep.ok and rep.levels_checked == 25

    def test_d3_identity(self):
        rep = verify_inversion(EllipsoidSpec(QuadForm.identity(3), 4.0))
        assert rep.ok and rep.levels_checked == 16

    def test_skew_integer_form(self):
        q = act(QuadForm.identity(2), GroupElement.from_matrix([[3, 1], [2, 1]]))
        assert verify_inversion(EllipsoidSpec(q, 10.0)).ok

    def test_single_term_level(self):
        # at the lowest level the identity is a single term r1 = r0
        r0, r1 = shell_table(QuadForm.identity(2), 1)
        assert r1[1] == r0[1] == 4

    def test_reports_first_violation(self, monkeypatch):
        # drop (1, 0), and with it (-1, 0), from the half-lattice that
        # shell_table bins (I_2 is reduced, so u = I): level 1 stays
        # consistent (r0 = r1 = 2), level 4 gets r0 = 4 against r1(4) + r1(1) = 2
        real = latcount._reduced_points

        def dropped(form, bound, mode):
            u, pts, vals = real(form, bound, mode)
            keep = ~((pts[:, 0] == 1) & (pts[:, 1] == 0))
            return u, pts[keep], vals[keep]

        monkeypatch.setattr(latcount, "_reduced_points", dropped)
        rep = verify_inversion(EllipsoidSpec(QuadForm.identity(2), 5.0))
        assert not rep.ok and rep.levels_checked == 4
        assert rep.first_violation == {"level": 4, "identity": "r0_from_r1", "lhs": 4, "rhs": 2}

    def test_rejects_float_gram(self):
        q = QuadForm.from_gram([[1.3, 0.1], [0.1, 1.0]])
        with pytest.raises(CountingError):
            verify_inversion(EllipsoidSpec(q, 3.0))

    def test_rejects_near_integral_gram(self):
        # det 1 in float, but its rounding has determinant 2: no integer gram
        q = QuadForm.from_gram([[2 - 1 / 500001, 1000], [1000, 500001]])
        assert q.mint is None
        with pytest.raises(CountingError, match="integer gram"):
            verify_inversion(EllipsoidSpec(q, 3.0))

    def test_synthetic_roundtrip(self):
        # random primitive shells pushed to full shells and recovered exactly
        rng = np.random.default_rng(22)
        top = 200
        r1 = rng.integers(0, 30, size=top + 1).astype(int)
        r1[0] = 0
        r0 = np.zeros(top + 1, dtype=int)
        for x in range(1, top + 1):
            r0[x] = sum(r1[x // (k * k)] for k in range(1, math.isqrt(x) + 1)
                        if x % (k * k) == 0)
        mu = sieve(math.isqrt(top) + 1)
        for x in range(1, top + 1):
            rec = sum(int(mu[k]) * int(r0[x // (k * k)])
                      for k in range(1, math.isqrt(x) + 1) if x % (k * k) == 0)
            assert rec == r1[x]


class TestErrorRelation:
    def test_d2_example(self):
        rep = error_relation_check(EllipsoidSpec(QuadForm.identity(2), 2.0))
        assert rep.ok
        assert rep.details["e1"] == pytest.approx(8.0 - 24.0 / math.pi, rel=1e-12)
        assert rep.residual_primitive_from_full < 1e-6
        assert rep.residual_full_from_primitive < 1e-6

    def test_d3(self):
        rep = error_relation_check(EllipsoidSpec(QuadForm.identity(3), 3.0))
        assert rep.ok
        assert rep.residual_primitive_from_full < 1e-6

    @pytest.mark.parametrize("d, radius", [(2, 200.0), (3, 60.0)])
    def test_budget_is_rounding_only(self, d, radius):
        # closed-form tails leave only float rounding in the budget
        rep = error_relation_check(EllipsoidSpec(QuadForm.identity(d), radius))
        assert rep.ok
        assert rep.budget < 1e-9 * constants(d).omega * radius ** d

    @pytest.mark.parametrize("gram", [[[0.25, 0.0], [0.0, 4.0]], [[0.01, 0.0], [0.0, 100.0]],
                                      [[0.5, 0.1], [0.1, 2.02]]])
    @pytest.mark.parametrize("radius", [0.5, 2.3, 10.7])
    def test_forms_with_short_vectors(self, gram, radius):
        # nonzero vectors with Q(v) < 1 keep N0(R/k) > 1 past k = R, so
        # the sums must run further than floor(R)
        q = QuadForm.from_gram(gram)
        rep = error_relation_check(EllipsoidSpec(q, radius))
        assert rep.ok
        n1 = latcount.count_primitive_moebius(EllipsoidSpec(q, radius)).n1
        assert rep.details["e1"] == n1 - constants(2).omega * radius ** 2 / zeta(2)
        if radius == 0.5 and gram[0][0] < 0.5:
            assert n1 == 2  # +-(1, 0): R < 1 does not make N0(R) = 1

    def test_small_radius_reduces_to_tails(self):
        rep = error_relation_check(EllipsoidSpec(QuadForm.identity(2), 0.5))
        assert rep.ok
        assert rep.residual_primitive_from_full < 1e-9
        assert rep.residual_full_from_primitive < 1e-9


class TestTails:
    def test_zeta_tail_matches_zeta(self):
        for d in (2, 3):
            for r in (0.5, 2.0, 17.0):
                val, width = zeta_tail(d, r)
                partial = sum(k ** -float(d) for k in range(1, math.floor(r) + 1))
                assert val == pytest.approx(zeta(d) - partial, abs=1e-12 + width)

    def test_mu_tail_complement(self):
        # sum_{k<=r} mu(k)/k^d + tail = 1/zeta(d)
        mu = sieve(100)
        for d in (2, 3):
            for r in (1.0, 7.0, 40.0):
                head = sum(int(mu[k]) * k ** -float(d)
                           for k in range(1, math.floor(r) + 1))
                tail, width = mu_tail(d, r)
                assert head + tail == pytest.approx(1.0 / zeta(d), abs=1e-13)
