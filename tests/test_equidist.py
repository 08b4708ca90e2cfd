import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from horocount import equidist
from horocount.equidist import (
    EquidistError,
    HoroAverage,
    REFINEMENT_FACTOR,
    QuadratureSpec,
    _cutoff_height,
    _modular_grid,
    bump_profile,
    check_thm12_bound,
    decay_series,
    estimate_f_norm,
    eval_test_function,
    fiber_integral,
    good_t_locator,
    horosphere_average,
    horosphere_averages,
    indicator_profile,
    integrated_error_bound,
    locator_threshold_t0,
    modular_base_gram,
    space_average,
    transported_quadrature_ratio,
)
from horocount.latcount import BLOCK, EnumerationBudgetError
from horocount.quadform import (
    GroupElement,
    QuadForm,
    act,
    constants,
    phi_t,
    rate_lambda,
    rate_mu,
)


class TestProfiles:
    def test_rejects_non_finite_support(self):
        for s in (math.nan, math.inf, 0.0, -1.0):
            for make in (indicator_profile, bump_profile):
                with pytest.raises(EquidistError, match="support_end"):
                    make(s)

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
                    lambda r: float(h.value(r * r)) * dim_sphere * r ** (d - 1),
                    0.0, math.sqrt(s), points=[math.sqrt(p)],
                    epsabs=1e-12, limit=200)
                assert h.integral(d) == pytest.approx(oracle, abs=1e-9)

    def test_bump_unit_halfplateau_closed_form(self):
        assert bump_profile(1.0).integral(2) == pytest.approx(0.75 * math.pi, rel=1e-12)

    def test_line_against_quadrature(self):
        # L(a) = int_R h(a + v^2) dv, below, inside and above the plateau
        for h in (indicator_profile(1.0), bump_profile(1.0, 0.5), bump_profile(1.3, 0.0)):
            for a in (-0.7, 0.0, 0.2, 0.5, 0.8, 1.0, 1.4):
                top = math.sqrt(max(h.support_end - a, 0.0))
                breaks = sorted({0.0, math.sqrt(max(h.plateau - a, 0.0)), top})
                oracle = 2.0 * sum(scipy.integrate.quad(lambda v: float(h.value(a + v * v)),
                                                        lo, hi, epsabs=1e-13)[0]
                                   for lo, hi in zip(breaks, breaks[1:]))
                assert float(h.line(a)) == pytest.approx(oracle, abs=1e-12)
        assert bump_profile(1.0).line(np.array([[0.0, 2.0]])).shape == (1, 2)

    def test_values(self):
        h = bump_profile(1.0, 0.5)
        assert float(h.value(0.2)) == 1.0
        assert float(h.value(1.1)) == 0.0
        assert float(h.value(0.75)) == pytest.approx(0.5, rel=1e-12)
        ind = indicator_profile(1.0)
        assert float(ind.value(1.0)) == 1.0 and float(ind.value(1.0000001)) == 0.0

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


def _fiber_gram(t, base_gram, x):
    """Gram of the level-t form at torus point x over a base gram:
    Q(w, k) = e^{-lambda t} Q_b(w) + e^{mu t} (<x, w> + k)^2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(x) + 1
    el, em = math.exp(-rate_lambda(d) * t), math.exp(rate_mu(d) * t)
    g = np.empty((d, d))
    g[:-1, :-1] = el * np.asarray(base_gram, dtype=float) + em * np.outer(x, x)
    g[:-1, -1] = g[-1, :-1] = em * x
    g[-1, -1] = em
    return g


def _midpoint_errors(t, base_gram, h, grids):
    """|midpoint mean of eval_test_function over the fiber - fiber_integral|
    for each per-axis grid size n."""
    exact = fiber_integral(t, None if len(base_gram) == 1 else QuadForm.from_gram(base_gram), h)
    errs = []
    for n in grids:
        xs = (np.arange(n) + 0.5) / n - 0.5
        pts = np.stack([g.ravel() for g in np.meshgrid(*([xs] * len(base_gram)), indexing="ij")],
                       axis=1)
        vals = [eval_test_function(QuadForm.from_gram(_fiber_gram(t, base_gram, x)), h)
                for x in pts]
        errs.append(abs(float(np.mean(vals)) - exact))
    return errs


class TestFiber:
    def test_d2_t0_exact_value(self):
        # only w = 0, k = +-1 meets the unit disc: the line integral of
        # w = 1 has zero length at a = 1
        assert fiber_integral(0.0, None, indicator_profile(1.0)) == 2.0

    def test_d2_small_support_zero(self):
        assert fiber_integral(0.0, None, indicator_profile(0.5)) == 0.0

    def test_fast_path_matches_generic_eval(self):
        # the exact d = 2 fiber mean is the limit of midpoint means of the
        # generic evaluator; tolerances are about twice the measured n = 256
        # errors (indicator 5.5e-3, bump 2.5e-5)
        for h, tol in ((indicator_profile(1.0), 1e-2), (bump_profile(1.3, 0.4), 1e-4)):
            for t in (1.3, 4.7):
                errs = _midpoint_errors(t, [[1.0]], h, (16, 64, 256))
                assert errs[2] < errs[1] < errs[0]
                assert errs[2] <= tol

    def test_d3_grid_convergence(self):
        # d = 3 bases, one with a pair of gcd 2: w = (0, 2) has Q = 4 / 8 =
        # 0.5, inside the w-bound e^{lambda t} >= e^{-0.8 / sqrt 6} > 0.72;
        # the measured n = 32 errors are at most 1.1e-3
        bases = [modular_base_gram(0.21, 1.4), modular_base_gram(0.1, 8.0), np.eye(2)]
        assert QuadForm.from_gram(bases[1]).evaluate([0, 2]) == pytest.approx(0.5)
        h = bump_profile(1.0, 0.5)
        for t in (-0.8, 1.3):
            for base in bases:
                errs = _midpoint_errors(t, base, h, (8, 32))
                assert errs[1] <= min(errs[0], 2e-3)

    def test_fast_path_matches_generic_eval_d3(self):
        # the indicator's midpoint means converge too slowly to reach with
        # eval_test_function itself, so a vectorised count over a box of
        # primitive (w, k) is first checked against it pointwise, then its
        # fine-grid mean against the exact fiber mean; tolerance is about
        # twice the measured n = 1001 error (1.8e-3 at t = 0)
        rng = np.random.default_rng(53)
        base = modular_base_gram(0.21, 1.4)
        h = indicator_profile(1.0)
        box = np.array([v for v in np.ndindex(13, 13, 13)]) - 6
        box = box[np.gcd.reduce(np.abs(box), axis=1) == 1]
        ws, ks = box[:, :2].astype(float), box[:, 2].astype(float)
        qbs = np.einsum("ij,jk,ik->i", ws, base, ws)
        for t in (0.0, 2.1):
            el, em = math.exp(-rate_lambda(3) * t), math.exp(rate_mu(3) * t)
            # Q <= 1 needs e^{-lambda t} Q_b(w) <= 1, an ellipse whose axis
            # extents are sqrt(inv(base)_ii / el), and |<x, w> + k| <= 1:
            # both inside the box
            assert np.sqrt(np.diag(np.linalg.inv(base)) / el).max() < 6
            live = el * qbs <= 1.0
            assert np.abs(box[live, :2]).sum(axis=1).max() / 2 + 1 < 6
            w, k, qb = ws[live], ks[live], el * qbs[live]

            def counts(xs):
                s = xs @ w.T + k
                return np.sum(qb + em * s * s <= 1.0 + 1e-12, axis=1)

            xs = rng.uniform(-0.5, 0.5, (4, 2))
            for x, c in zip(xs, counts(xs)):
                slow = eval_test_function(QuadForm.from_gram(_fiber_gram(t, base, x)), h)
                assert c == slow
            grid = (np.arange(1001) + 0.5) / 1001 - 0.5
            pts = np.stack([g.ravel() for g in np.meshgrid(grid, grid, indexing="ij")], axis=1)
            mean = sum(counts(pts[i:i + 50000]).sum() for i in range(0, len(pts), 50000)) / len(pts)
            assert mean == pytest.approx(fiber_integral(t, QuadForm.from_gram(base), h), abs=4e-3)

    def test_fiber_family_is_level_shift_of_shears(self):
        # the level-t fiber form over x is the level shift of the unit
        # shear at x: closes the loop between the group machinery and the
        # assembled fiber family
        rng = np.random.default_rng(57)
        for t in (0.7, 2.9):
            for x in rng.uniform(-0.5, 0.5, 4):
                shear = GroupElement.from_matrix([[1.0, 0.0], [x, 1.0]])
                moved = phi_t(act(QuadForm.identity(2), shear), t)
                assert np.allclose(moved.gram, _fiber_gram(t, [[1.0]], x), rtol=1e-12, atol=1e-12)


class TestAverages:
    def test_d3_matches_per_base_loop(self):
        # the array program over all (base point, w) pairs equals
        # fiber_integral (a QuadForm and an enumeration) at every base node,
        # with the cusp cut at max(8, e^(t/sqrt 2))
        def once(t, h, nx, ny):
            xs, ys, wts = _modular_grid(nx, ny, max(8.0, math.exp(t / math.sqrt(2.0))))
            means = [fiber_integral(t, QuadForm.from_gram(modular_base_gram(x, y)), h)
                     for x, y in zip(xs.tolist(), ys.tolist())]
            return float(wts @ np.asarray(means)) / float(wts.sum())

        q, rf = QuadratureSpec(base_grid=(8, 8)), REFINEMENT_FACTOR
        for h in (indicator_profile(1.0), bump_profile(1.0, 0.5)):
            for t in (0.0, 0.9, 2.2):
                a = horosphere_average(t, h, q, d=3)
                fine, coarse = once(t, h, 8 * rf, 8 * rf), once(t, h, 8, 8)
                assert a.value == pytest.approx(fine, abs=1e-12)
                est = 1.5 * abs(fine - coarse) + 1e-9 * (1.0 + abs(fine))
                assert a.quad_error_estimate == pytest.approx(est, abs=1e-12)

    def test_d2_t0(self):
        a = horosphere_average(0.0, indicator_profile(1.0), d=2)
        assert abs(a.value - 2.0) <= a.quad_error_estimate
        assert a.target == pytest.approx(6.0 / math.pi, rel=1e-12)
        assert a.err == pytest.approx(a.value - a.target, rel=1e-12)
        assert a.quad_error_estimate <= 1e-8

    def test_d2_hand_value(self):
        # at t = 1 only w = +-1 meets the unit disc (4 e^{-lambda} > 1) and
        # the w = 0 row misses it (e^{mu} > 1): 2 e^{-mu/2} L(e^{-lambda})
        lam = mu = 1.0 / math.sqrt(2.0)
        a = horosphere_average(1.0, indicator_profile(1.0), d=2)
        hand = 4.0 * math.exp(-mu / 2.0) * math.sqrt(1.0 - math.exp(-lam))
        assert a.value == pytest.approx(hand, rel=1e-12)

    def test_d2_large_t_near_target(self):
        a = horosphere_average(12.0, indicator_profile(1.0), d=2)
        assert abs(a.err) < 0.05

    def test_d3_smoke(self):
        a = horosphere_average(0.0, bump_profile(1.0), d=3)
        assert math.isfinite(a.value)
        assert a.quad_error_estimate > 0.0

    def test_d3_refinement_invariant(self):
        q = QuadratureSpec(base_grid=(10, 12))
        a = horosphere_average(1.0, bump_profile(1.0), q, d=3)
        q2 = QuadratureSpec(base_grid=(20, 24))
        b = horosphere_average(1.0, bump_profile(1.0), q2, d=3)
        assert abs(b.value - a.value) < 3.0 * max(a.quad_error_estimate, 1e-6)

    def test_rejects_bad_dim(self):
        with pytest.raises(EquidistError):
            horosphere_average(0.0, indicator_profile(1.0), d=4)

    def test_quadspec_validation(self):
        with pytest.raises(EquidistError):
            QuadratureSpec(base_grid=(4, 24))

    def test_default_cutoff(self):
        assert _cutoff_height(0.0) == 8.0
        assert _cutoff_height(10.0) == pytest.approx(math.exp(10.0 / math.sqrt(2.0)))


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

    def test_rejects_non_finite_parameters(self):
        ts = np.linspace(0.0, 5.0, 200)
        for at in range(5):
            for bad in (math.nan, math.inf):
                params = [1.0, 0.5, 0.1, 1e6, 1e9]
                params[at] = bad
                with pytest.raises(EquidistError, match="finite"):
                    good_t_locator(ts, np.zeros_like(ts), *params)

    def test_rejects_non_finite_samples(self):
        ts = np.linspace(0.0, 5.0, 200)
        for bad in (math.nan, math.inf, -math.inf):
            for at in (0, -1):
                for which in ("t", "g"):
                    t, g = ts.copy(), np.zeros_like(ts)
                    (t if which == "t" else g)[at] = bad
                    with pytest.raises(EquidistError, match="finite"):
                        good_t_locator(t, g, 1.0, 0.5, 0.1, 1.0, 1.0)

    def test_rejects_overflowing_phi_and_threshold(self):
        # phi(S) = 4 e^{-0.1 S} at S = -9999.9, and with eps = 1 the threshold
        # e^{0.5 t} at t = 1500, each overflow a float
        for ts, eps in (([-10000.0, -9999.9], 0.1), ([1499.9, 1500.0], 1.0)):
            with pytest.raises(EquidistError, match="finite"):
                good_t_locator(ts, [1.0, 1.0], 1.0, 0.5, eps, 1.0, 1.0)

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


def _w_counts(grid, h):
    """Number of w the d = 2 mean at each t of grid reads."""
    lam = rate_lambda(2)
    return [math.floor(math.sqrt((h.support_end + 1e-12 * max(1.0, h.support_end))
                                 * math.exp(lam * t))) for t in grid]


class TestD2Grid:
    """A d = 2 t-grid is one call, its w's in passes of at most PASS_PAIRS,
    whose values equal those of each t alone."""

    GRIDS = (np.linspace(1.0, 14.0, 40),  # one group
             np.linspace(-3.0, 14.0, 35),  # t < 0: w = 0 row only, no w at all
             np.linspace(20.0, 26.0, 25),  # single t's above BLOCK
             np.linspace(8.0, 22.0, 60))  # several groups of several t's

    @pytest.mark.parametrize("h", [bump_profile(1.0), indicator_profile(1.0),
                                   bump_profile(1.3, 0.0)], ids=["bump", "indicator", "plateau0"])
    def test_series_equals_single_t(self, h):
        for grid in self.GRIDS:
            averages, _, _ = decay_series(h, grid, d=2)
            assert [a.t for a in averages] == list(grid)
            assert [a.value for a in averages] == [fiber_integral(t, None, h) for t in grid]

    def test_grids_cover_the_grouping(self):
        counts = [_w_counts(grid, bump_profile(1.0)) for grid in self.GRIDS]
        assert sum(counts[0]) <= BLOCK
        assert counts[1][0] == 0
        assert max(counts[2]) > BLOCK and min(counts[2]) < BLOCK
        assert sum(counts[3]) > 2 * BLOCK and max(counts[3]) < BLOCK

    def test_one_phi_table_per_series(self, monkeypatch):
        # one phi(w)/w table up to the grid's largest w, however many groups
        calls = []
        table = equidist._phi_table
        monkeypatch.setattr(equidist, "_phi_table", lambda top: calls.append(top) or table(top))
        for grid in self.GRIDS:
            calls.clear()
            decay_series(bump_profile(1.0), grid, d=2)
            assert calls == [max(_w_counts(grid, bump_profile(1.0)))]

    def test_groups_stay_within_block(self, monkeypatch):
        monkeypatch.setattr(equidist, "PASS_PAIRS", BLOCK)
        sizes = []
        ragged = equidist.ragged
        monkeypatch.setattr(equidist, "ragged",
                            lambda lo, hi: sizes.append(int(hi.sum())) or ragged(lo, hi))
        grid = np.linspace(20.0, 26.0, 25)
        decay_series(bump_profile(1.0), grid, d=2)
        # the w counts run 1,177, 1,286, ..., 9,822, and the passes go from
        # the largest t down: each t from 2,185 w on is a group alone, then
        # within BLOCK = 4,096 two and two t's share a group, then the first three
        counts = _w_counts(grid, bump_profile(1.0))
        assert sizes == counts[:6:-1] + [sum(counts[5:7]), sum(counts[3:5]), sum(counts[:3])]

    def test_oversize_t_refused_before_any_array(self, monkeypatch):
        # from t = 120 the w-range would need about 2.6e18 entries; from
        # t = 1004 its bound overflows a float
        calls = []
        monkeypatch.setattr(equidist, "ragged", lambda *a: calls.append(1))
        with pytest.raises(EnumerationBudgetError):
            horosphere_average(120.0, bump_profile(1.0), d=2)
        with pytest.raises(EquidistError):
            horosphere_average(1100.0, bump_profile(1.0), d=2)
        with pytest.raises(EnumerationBudgetError):
            horosphere_averages([1.0, 2.0, 120.0], indicator_profile(1.0), d=2)
        # d = 3 at t = 30: the refined (32, 48) base grid bounds its pairs by
        # 5.6e9, checked from the grid's (x, y) alone
        with pytest.raises(EnumerationBudgetError):
            horosphere_average(30.0, bump_profile(1.0), d=3)
        assert calls == []


class TestD3Passes:
    """A d = 3 level goes through in runs of base points of at most
    PASS_PAIRS bounded pairs, with the values of the one-pass program."""

    # horosphere_average(9.5, h, d=3) of the one-pass program, as float.hex
    # of (value, quad_error_estimate); its refined (32, 48) grid bounds the
    # level's pairs by 2.46e5, its (16, 24) grid by 6.1e4
    ONE_PASS = {"bump": ("0x1.22b16c301f9e6p+1", "0x1.093afe1d7f89fp-9"),
                "indicator": ("0x1.bc532f4b4c181p+1", "0x1.97183af93eb54p-7")}

    @pytest.mark.parametrize("limit", [None, BLOCK], ids=["default", "block"])
    def test_split_level_equals_one_pass(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(equidist, "PASS_PAIRS", limit)
        passes = []
        pairs = equidist._pairs

        def spy(bounds, xs, ys):
            sizes = (np.floor(np.sqrt(bounds / ys)) + 1.0) * (2.0 * np.sqrt(bounds * ys) + 1.0)
            passes.append((len(ys), float(sizes.sum())))
            return pairs(bounds, xs, ys)

        monkeypatch.setattr(equidist, "_pairs", spy)
        bases = sum(len(_modular_grid(nx, ny, _cutoff_height(9.5))[0])
                    for nx, ny in ((32, 48), (16, 24)))
        for name, h in (("bump", bump_profile(1.0)), ("indicator", indicator_profile(1.0))):
            passes.clear()
            a = horosphere_average(9.5, h, d=3)
            assert (a.value.hex(), a.quad_error_estimate.hex()) == self.ONE_PASS[name]
            assert len(passes) >= (5 if limit is None else 60)
            assert sum(n for n, _ in passes) == bases
            assert all(n == 1 or size <= equidist.PASS_PAIRS for n, size in passes)


class TestLevelDriver:
    """Every level of a call shares one phi table, and a level is refused
    before its grid when its bounds are not finite."""

    def test_one_phi_table_per_d3_call(self, monkeypatch):
        # the refined and the coarse grid of each of three t's in one call
        calls = []
        table = equidist._phi_table
        monkeypatch.setattr(equidist, "_phi_table", lambda top: calls.append(top) or table(top))
        horosphere_averages([0.5, 1.7, 2.9], bump_profile(1.0), d=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_refused_without_warning(self, monkeypatch, t):
        grids = []
        monkeypatch.setattr(equidist, "_modular_grid", lambda *a: grids.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (2, 3):
                with pytest.raises(EquidistError, match="out of range"):
                    horosphere_average(t, bump_profile(1.0), d=d)
        assert grids == []


    def test_oversize_grid_refused_before_any_level(self, monkeypatch):
        # t = 30 needs 5.6e9 pairs; its level goes first, before the 39 below it
        calls = []
        monkeypatch.setattr(equidist, "_pairs", lambda *a: calls.append(1))
        with pytest.raises(EnumerationBudgetError, match="t = 30.0"):
            horosphere_averages(np.linspace(0.0, 30.0, 40), bump_profile(1.0), d=3)
        assert calls == []

    def test_values_keep_the_grid_order(self):
        # the levels go from the largest t down; each value returns to its t
        ts = [2.9, 0.5, 1.7, 0.5]
        got = horosphere_averages(ts, bump_profile(1.0), d=3)
        assert [a.t for a in got] == ts
        assert got == [horosphere_average(t, bump_profile(1.0), d=3) for t in ts]

    def test_oversize_base_grid_refused_before_any_grid(self, monkeypatch):
        # the two grids of a level at 6000 x 6000 hold 1.8e8 base points; at
        # 1414 x 1414 they hold 9.997e6, within latcount.POINT_CAP
        grids = []
        monkeypatch.setattr(equidist, "_modular_grid", lambda *a: grids.append(a))
        for grid in ((6000, 6000), (1415, 1414)):
            with pytest.raises(EnumerationBudgetError, match="base points"):
                QuadratureSpec(base_grid=grid)
        QuadratureSpec(base_grid=(1414, 1414))
        assert grids == []


class TestLargeNegativeT:
    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_w_sum_is_the_w0_row(self, d):
        # no w meets the support, so the mean is 2 h(e^{mu t}) exactly, with
        # e^{-lambda t} and e^{-mu t/2} (overflowing below about t = -1000)
        # never formed; at d = 3, t = -5 still has w = (0, 1) at y near 8
        for h in (bump_profile(1.0), indicator_profile(1.0)):
            averages = horosphere_averages([-1e300, -1500.0, -50.0], h, d=d)
            assert [a.value for a in averages] == [
                2.0 * float(h.value(math.exp(rate_mu(d) * t))) for t in (-1e300, -1500.0, -50.0)]
            assert fiber_integral(-1e300, None if d == 2 else QuadForm.identity(2), h) == 2.0


class TestThm12Bound:
    def _series(self, errs):
        return [HoroAverage(t=t, value=0.0, target=0.0, err=e, quad_error_estimate=0.0)
                for t, e in errs]

    def test_zero_function_passes(self):
        series = self._series([(t, 0.0) for t in np.linspace(0.5, 10.0, 12)])
        rep = check_thm12_bound(series, f_norm=1.0, grad_bound=1.0)
        assert rep["passed"]

    def test_corrupted_series_fails(self):
        # the theory amplitude is slack, so the corruption factor must
        # actually clear it for the negative control to bite
        t_grid = np.linspace(1.0, 8.0, 10)
        averages = [horosphere_average(t, bump_profile(1.0)) for t in t_grid]
        f_norm, _ = estimate_f_norm(bump_profile(1.0), n=1500, seed=3)
        corrupted = self._series([(a.t, 1e5 * a.err) for a in averages])
        rep_ok = check_thm12_bound(averages, f_norm, 1.0)
        rep_bad = check_thm12_bound(corrupted, f_norm, 1.0)
        assert rep_ok["passed"]
        assert not rep_bad["passed"]

    def test_requires_norms(self):
        with pytest.raises(EquidistError):
            check_thm12_bound([], None, 1.0)


class TestEnumerationBudget:
    def test_oversized_support_rejected(self):
        with pytest.raises(EnumerationBudgetError):
            eval_test_function(QuadForm.identity(2), indicator_profile(1e18))

    def test_single_base_level_refused_by_its_points(self):
        # at t = 40 the base enumeration would hold about 3.8e7 points
        with pytest.raises(EnumerationBudgetError, match="points"):
            fiber_integral(40.0, QuadForm.identity(2), bump_profile(1.0))


class TestIntegratedBound:
    def test_short_checkpoints(self):
        h = indicator_profile(1.0)
        f_norm, se = estimate_f_norm(h, n=1500, seed=9)
        rows = integrated_error_bound(h, [4.0, 6.0], f_norm, se)
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
