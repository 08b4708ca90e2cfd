import math

import numpy as np
import pytest
import scipy.integrate

from horocount.equidist import (
    EquidistError,
    HoroAverage,
    REFINEMENT_FACTOR,
    QuadratureSpec,
    _effective_torus,
    _fiber_values,
    _modular_grid,
    _next_odd_prime,
    _torus_points,
    bump_profile,
    check_thm12_bound,
    cusp_orbit_check,
    decay_series,
    default_cutoff_height,
    estimate_f_norm,
    eval_test_function,
    fiber_integral,
    good_t_locator,
    horosphere_average,
    indicator_profile,
    integrated_error_bound,
    locator_threshold_t0,
    modular_base_gram,
    shortest_primitive_value,
    space_average,
    transported_quadrature_ratio,
    truncated_average,
)
from horocount.quadform import GroupElement, QuadForm, act, constants, geodesic_r, rate_mu


class TestProfiles:
    def test_indicator_integral(self):
        for d in (2, 3, 4):
            for s in (0.5, 1.0, 2.0):
                h = indicator_profile(s)
                assert h.integral(d) == pytest.approx(constants(d).omega * s ** (d / 2.0), rel=1e-12)

    def test_bump_integral_against_quadrature(self):
        for d in (2, 3):
            for s, p in ((1.0, 0.5), (2.0, 0.25)):
                h = bump_profile(s, p)
                dim_sphere = d * constants(d).omega
                oracle, err = scipy.integrate.quad(
                    lambda r: h.value_scalar(r * r) * dim_sphere * r ** (d - 1),
                    0.0, math.sqrt(s), points=[math.sqrt(p)],
                    epsabs=1e-12, limit=200)
                assert h.integral(d) == pytest.approx(oracle, abs=1e-9)

    def test_bump_unit_halfplateau_closed_form(self):
        assert bump_profile(1.0).integral(2) == pytest.approx(0.75 * math.pi, rel=1e-12)

    def test_values(self):
        h = bump_profile(1.0, 0.5)
        assert h.value_scalar(0.2) == 1.0
        assert h.value_scalar(1.1) == 0.0
        assert h.value_scalar(0.75) == pytest.approx(0.5, rel=1e-12)
        ind = indicator_profile(1.0)
        assert ind.value_scalar(1.0) == 1.0 and ind.value_scalar(1.0000001) == 0.0

    def test_validation(self):
        with pytest.raises(EquidistError):
            indicator_profile(0.0)
        with pytest.raises(EquidistError):
            bump_profile(1.0, 1.0)


class TestEvalTestFunction:
    def test_unit_disc(self):
        assert eval_test_function(QuadForm.identity(2), indicator_profile(1.0)) == 4.0

    def test_short_support_empty(self):
        for d in (2, 3, 4):
            assert eval_test_function(QuadForm.identity(d), indicator_profile(0.5)) == 0.0

    def test_invariance_exact(self):
        rng = np.random.default_rng(51)
        h = indicator_profile(2.0)
        base = eval_test_function(QuadForm.identity(2), h)
        gamma = np.eye(2, dtype=int)
        for _ in range(20):
            step = np.array([[1, int(rng.integers(-2, 3))], [0, 1]])
            if rng.random() < 0.5:
                step = step.T
            gamma = gamma @ step
            moved = act(QuadForm.identity(2), GroupElement.from_matrix(gamma.astype(float)))
            assert eval_test_function(moved, h) == base


class TestSpaceAverage:
    def test_d2(self):
        assert space_average(indicator_profile(1.0), 2) == pytest.approx(6.0 / math.pi, rel=1e-12)

    def test_d3(self):
        assert space_average(indicator_profile(1.0), 3) == pytest.approx(3.4846855, abs=1e-6)

    def test_vanishing_support(self):
        assert space_average(indicator_profile(1e-12), 2) == pytest.approx(0.0, abs=1e-11)


class TestFiber:
    def test_d2_t0_exact_value(self):
        # a.e. integrand is 2; the midpoint grid hits x = 0 where it is 4
        for n in (157, 315):
            val = fiber_integral(0.0, None, indicator_profile(1.0), n)
            assert val == pytest.approx(2.0 + 2.0 / n, rel=1e-12)

    def test_d2_small_support_zero(self):
        assert fiber_integral(0.0, None, indicator_profile(0.5), 101) == 0.0

    def test_d3_grid_convergence(self):
        h = indicator_profile(1.0)
        base = GroupElement.identity(2)
        a = fiber_integral(0.0, base, h, 64)
        b = fiber_integral(0.0, base, h, 128)
        assert abs(a - b) < 1e-2

    def test_fast_path_matches_generic_eval(self):
        rng = np.random.default_rng(52)
        lam = mu = 1.0 / math.sqrt(2.0)
        for h in (indicator_profile(1.0), bump_profile(1.3, 0.4)):
            for t in (0.0, 1.3, 4.7, -0.8):
                xs = rng.uniform(-0.5, 0.5, 5)
                fast = _fiber_values(2, t, None, h, xs[:, None])
                for x, f in zip(xs, fast):
                    m = np.array([[math.exp(-lam * t / 2.0), 0.0],
                                  [math.exp(mu * t / 2.0) * x, math.exp(mu * t / 2.0)]])
                    slow = eval_test_function(QuadForm.from_gram(m.T @ m), h)
                    assert f == pytest.approx(slow, abs=1e-9)

    def test_fiber_family_is_level_shift_of_shears(self):
        # the level-t fiber form over x is the level shift of the unit
        # shear at x: closes the loop between the group machinery and the
        # assembled fiber family
        from horocount.quadform import act, phi_t
        rng = np.random.default_rng(57)
        h = bump_profile(1.0)
        for t in (0.7, 2.9):
            xs = rng.uniform(-0.5, 0.5, 4)
            fast = _fiber_values(2, t, None, h, xs[:, None])
            for x, f in zip(xs, fast):
                shear = GroupElement.from_matrix([[1.0, 0.0], [x, 1.0]])
                moved = phi_t(act(QuadForm.identity(2), shear), t)
                assert f == pytest.approx(eval_test_function(moved, h), abs=1e-9)

    def test_fast_path_matches_generic_eval_d3(self):
        rng = np.random.default_rng(53)
        lam, mu = 1.0 / math.sqrt(6.0), 2.0 / math.sqrt(6.0)
        base = QuadForm.from_gram(modular_base_gram(0.21, 1.4))
        h = indicator_profile(1.0)
        for t in (0.0, 2.1):
            xs = rng.uniform(-0.5, 0.5, (4, 2))
            fast = _fiber_values(3, t, base, h, xs)
            for x, f in zip(xs, fast):
                m = np.zeros((3, 3))
                # any h with h^T h = base gram serves as the base representative
                m[:2, :2] = math.exp(-lam * t / 2.0) * base.solvable_rep()
                m[2, :2] = math.exp(mu * t / 2.0) * x
                m[2, 2] = math.exp(mu * t / 2.0)
                slow = eval_test_function(QuadForm.from_gram(m.T @ m), h)
                assert f == pytest.approx(slow, abs=1e-9)


class TestResidueKernel:
    """The d = 3 torus mean is an exact n-point residue sum: it must match
    the pointwise fiber values averaged over the full n x n grid."""

    def test_matches_full_torus_grid(self):
        bases = [QuadForm.from_gram(modular_base_gram(0.21, 1.4)),
                 QuadForm.from_gram(modular_base_gram(0.1, 8.0)),
                 QuadForm.identity(2)]
        # w = (0, 2) has g0 = 2 and Q = 4 / 8 = 0.5, inside the w-bound
        # e^{lambda t} >= e^{-0.8 / sqrt 6} > 0.72 at every level below
        assert bases[1].evaluate([0, 2]) == pytest.approx(0.5)
        for h in (indicator_profile(1.0), bump_profile(1.0, 0.5)):
            for n in (9, 17, 34, 64):
                xpts = _torus_points(n, 2)
                for t in (-0.8, 0.0, 1.3, 3.3):
                    for base in bases:
                        full = float(_fiber_values(3, t, base, h, xpts).mean())
                        assert fiber_integral(t, base, h, n) == pytest.approx(full, abs=1e-12)

    def test_rejects_small_grid(self):
        with pytest.raises(EquidistError):
            fiber_integral(0.0, QuadForm.identity(2), bump_profile(1.0), 7)


def _per_base_average(t, h, q):
    """horosphere_average(d=3) by the per-base-point algorithm: a QuadForm,
    an enumeration and pointwise fiber values over the full torus grid at
    every base node, for the coarse and the refined grids."""
    def once(n, nx, ny):
        y_top = default_cutoff_height(t) if q.base_cutoff_height is None else q.base_cutoff_height
        xs, ys, wts = _modular_grid(nx, ny, y_top)
        xpts = _torus_points(n, 2)
        total = 0.0
        for x, y, wt in zip(xs, ys, wts):
            base = QuadForm.from_gram(modular_base_gram(float(x), float(y)))
            total += wt * float(_fiber_values(3, t, base, h, xpts).mean())
        return total / float(wts.sum())

    n, rf = _effective_torus(q.torus_grid, 3, t), REFINEMENT_FACTOR
    nx, ny = q.base_grid
    coarse = once(n, nx, ny)
    fine = once(_next_odd_prime(n * rf), nx * rf, ny * rf)
    return fine, 1.5 * abs(fine - coarse) + 1e-9 * (1.0 + abs(fine))


class TestAverages:
    def test_d3_matches_per_base_loop(self):
        q = QuadratureSpec(torus_grid=9, base_grid=(8, 8))
        for h in (indicator_profile(1.0), bump_profile(1.0, 0.5)):
            for t in (0.0, 0.9, 2.2):
                a = horosphere_average(t, h, q, d=3)
                value, est = _per_base_average(t, h, q)
                assert a.value == pytest.approx(value, abs=1e-12)
                assert a.quad_error_estimate == pytest.approx(est, abs=1e-12)

    def test_d2_t0(self):
        a = horosphere_average(0.0, indicator_profile(1.0), d=2)
        assert abs(a.value - 2.0) <= a.quad_error_estimate
        assert a.target == pytest.approx(6.0 / math.pi, rel=1e-12)
        assert a.err == pytest.approx(a.value - a.target, rel=1e-12)

    def test_d2_large_t_near_target(self):
        a = horosphere_average(12.0, indicator_profile(1.0), d=2)
        assert abs(a.err) < 0.05

    def test_d3_smoke(self):
        a = horosphere_average(0.0, bump_profile(1.0), d=3)
        assert math.isfinite(a.value)
        assert a.quad_error_estimate > 0.0

    def test_d3_refinement_invariant(self):
        q = QuadratureSpec(torus_grid=17, base_grid=(10, 12))
        a = horosphere_average(1.0, bump_profile(1.0), q, d=3)
        q2 = QuadratureSpec(torus_grid=34, base_grid=(20, 24))
        b = horosphere_average(1.0, bump_profile(1.0), q2, d=3)
        assert abs(b.value - a.value) < 3.0 * max(a.quad_error_estimate, 1e-6)

    def test_rejects_bad_dim(self):
        with pytest.raises(EquidistError):
            horosphere_average(0.0, indicator_profile(1.0), d=4)

    def test_quadspec_validation(self):
        with pytest.raises(EquidistError):
            QuadratureSpec(torus_grid=4)
        with pytest.raises(EquidistError):
            QuadratureSpec(base_grid=(4, 24))
        with pytest.raises(EquidistError):
            QuadratureSpec(base_cutoff_height=0.5)

    def test_default_cutoff(self):
        assert default_cutoff_height(0.0) == 8.0
        assert default_cutoff_height(10.0) == pytest.approx(math.exp(10.0 / math.sqrt(2.0)))


class TestLocator:
    def test_synthetic_t0(self):
        assert locator_threshold_t0(1.0, 0.5, 0.1, 1.0, 1.0) == pytest.approx(
            10.0 * math.log(1.2), rel=1e-12)

    def test_zero_function_all_hits(self):
        ts = np.linspace(0.0, 5.0, 400)
        hits = good_t_locator(ts, np.zeros_like(ts), 1.0, 0.5, 0.1, 1.0, 1.0)
        assert len(hits) == len(ts)

    def test_huge_kappa_all_hits(self):
        # with a huge ctilde the step precondition stays satisfiable
        ts = np.linspace(0.0, 5.0, 200)
        gs = np.sin(ts)
        hits = good_t_locator(ts, gs, 1.0, 0.5, 0.1, 1e6, 1e9)
        assert len(hits) == len(ts)

    def test_step_validation(self):
        ts = np.linspace(0.0, 30.0, 10)
        with pytest.raises(EquidistError):
            good_t_locator(ts, np.zeros_like(ts), 1.0, 0.5, 0.1, 1.0, 1.0)

    def test_window_coverage(self):
        alpha, beta, eps, ctilde = 1.0, 0.5, 0.1, 1.0
        t0 = locator_threshold_t0(alpha, beta, eps, 1.0, ctilde)
        s_end = t0 + 12.0
        step = (4.0 * ctilde * math.exp(-eps * s_end)) / 4.0 * 0.9
        ts = np.arange(t0, s_end, step)
        gs = 0.5 * np.exp(-0.5 * ts) * np.cos(np.exp(0.5 * ts))
        hits = np.asarray(good_t_locator(ts, gs, alpha, beta, eps, 1.0, ctilde))
        for w in np.linspace(t0, s_end - 4.5, 40):
            w_end = w + 4.0 * math.exp(-eps * w)
            assert np.any((hits >= w) & (hits <= w_end)), w

    def test_consecutive_hit_gaps_bounded(self):
        # above the threshold, consecutive hits are never separated by
        # more than phi(T) = (4 ctilde / kappa) e^{-eps T}
        alpha, beta, eps, kappa, ctilde = 1.0, 0.5, 0.1, 1.0, 1.0
        t0 = locator_threshold_t0(alpha, beta, eps, kappa, ctilde)
        s_end = t0 + 12.0
        step = (4.0 * ctilde / kappa * math.exp(-eps * s_end)) / 4.0 * 0.9
        ts = np.arange(t0, s_end, step)
        gs = 0.5 * np.exp(-0.5 * ts) * np.cos(np.exp(0.5 * ts))
        hits = np.asarray(good_t_locator(ts, gs, alpha, beta, eps, kappa, ctilde))
        assert len(hits) >= 2
        gaps = np.diff(hits)
        phis = (4.0 * ctilde / kappa) * np.exp(-eps * hits[:-1])
        assert np.all(gaps <= phis + step)


class TestThm12Bound:
    def _series(self, errs):
        return [HoroAverage(t=t, value=0.0, target=0.0, err=e, quad_error_estimate=0.0)
                for t, e in errs]

    def test_zero_function_passes(self):
        series = self._series([(t, 0.0) for t in np.linspace(0.5, 10.0, 12)])
        rep = check_thm12_bound(series, f_norm=1.0, grad_bound=1.0, d=2)
        assert rep["passed"]

    def test_corrupted_series_fails(self):
        # the theory amplitude is slack, so the corruption factor must
        # actually clear it for the negative control to bite
        t_grid = np.linspace(1.0, 8.0, 10)
        averages, _, _ = decay_series(bump_profile(1.0), t_grid, d=2, envelope=False)
        f_norm, _ = estimate_f_norm(bump_profile(1.0), n=1500, seed=3)
        corrupted = self._series([(a.t, 1e5 * a.err) for a in averages])
        rep_ok = check_thm12_bound(averages, f_norm, 1.0, d=2)
        rep_bad = check_thm12_bound(corrupted, f_norm, 1.0, d=2)
        assert rep_ok["passed"]
        assert not rep_bad["passed"]

    def test_requires_norms(self):
        with pytest.raises(EquidistError):
            check_thm12_bound([], None, 1.0, 2)


class TestEnumerationBudget:
    def test_oversized_support_rejected(self):
        from horocount.latcount import EnumerationBudgetError
        with pytest.raises(EnumerationBudgetError):
            eval_test_function(QuadForm.identity(2), indicator_profile(1e18))


class TestShortestPrimitive:
    def test_identity(self):
        assert shortest_primitive_value(QuadForm.identity(2)) == 1.0
        assert shortest_primitive_value(QuadForm.identity(4)) == 1.0

    def test_along_ray(self):
        for d in (2, 3):
            for t in (1.0, 3.0):
                q = act(QuadForm.identity(d), geodesic_r(d, t))
                assert shortest_primitive_value(q) == pytest.approx(
                    math.exp(-rate_mu(d) * t), rel=1e-9)

    def test_invariance(self):
        gamma = GroupElement.from_matrix([[1, 3], [1, 4]])
        q = act(QuadForm.identity(2), gamma)
        assert shortest_primitive_value(q) == shortest_primitive_value(QuadForm.identity(2))


class TestCuspOrbit:
    def test_deep_cusp_true(self):
        alpha = math.sqrt(3.0) / 2.0
        t = 8.0
        y = 4.0 * math.exp(alpha * t / math.sqrt(2.0))
        base = QuadForm.from_gram(modular_base_gram(0.1, y))
        assert cusp_orbit_check(base, t, 0.0, grid=9) is True

    def test_identity_base_false(self):
        base = QuadForm.identity(2)
        assert cusp_orbit_check(base, 8.0, -5.0, grid=9) is False

    def test_huge_horoball_true(self):
        base = QuadForm.identity(2)
        assert cusp_orbit_check(base, 0.0, 10.0, grid=9) is True


class TestTruncation:
    def test_alpha_large_no_truncation(self):
        q = QuadratureSpec(torus_grid=15, base_grid=(10, 12))
        trunc, full, diff = truncated_average(1.0, 6.0, bump_profile(1.0), q)
        budget = trunc.quad_error_estimate + full.quad_error_estimate + 1e-6
        assert abs(diff) <= budget

    def test_rejects_small_alpha(self):
        with pytest.raises(EquidistError):
            truncated_average(1.0, 0.5, bump_profile(1.0))

    def test_difference_shrinks_in_t(self):
        q = QuadratureSpec(torus_grid=15, base_grid=(10, 14))
        alpha = math.sqrt(3.0) / 2.0
        diffs = []
        for t in (1.0, 3.0, 5.0):
            _, _, diff = truncated_average(t, alpha, bump_profile(1.0), q)
            diffs.append(abs(diff))
        assert diffs[2] < diffs[0]


class TestIntegratedBound:
    def test_short_checkpoints(self):
        h = indicator_profile(1.0)
        f_norm, se = estimate_f_norm(h, n=1500, seed=9)
        rows = integrated_error_bound(h, 2, [4.0, 6.0], f_norm=f_norm, f_norm_se=se,
                                      step=0.2)
        assert all(r["passed"] for r in rows)
        assert rows[0]["lhs"] < rows[0]["rhs"]


class TestVolumeScaling:
    def test_d2(self):
        for t in (1.0, 3.0):
            ratio = transported_quadrature_ratio(2, t, grid=7)
            assert ratio == pytest.approx(math.exp(0.5 * t * math.sqrt(2.0)), rel=1e-9)

    def test_d3(self):
        ratio = transported_quadrature_ratio(3, 2.0, grid=4)
        assert ratio == pytest.approx(math.exp(math.sqrt(6.0)), rel=1e-9)
