import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from horocount.latcount import CountingError, EnumerationBudgetError, count_primitive_many
from horocount.quadform import QuadForm, constants
from horocount.randlat import (
    FUNDAMENTAL_AREA,
    MAX_SAMPLES,
    WALK_CHUNK,
    WALK_SIGMA,
    LatticeSample,
    MeanSquareReport,
    Y_MIN,
    discrepancy,
    mean_square_check,
    sample_exact_d2,
    sample_walk,
)
from horocount.quadform import GroupElement
from test_quadform import reference_lll_reduce


def step_by_step_walk(rng, d, burn_in=200, thin=10, n=100):
    """Reference for sample_walk: one draw, one expm and the plain reference
    LLL per step, so a walk sample that drifts in its last bits shows."""
    g = np.eye(d)
    out = []
    for step in range(burn_in + thin * n):
        xi = WALK_SIGMA * rng.standard_normal((d, d))
        xi -= np.trace(xi) / d * np.eye(d)
        g = expm(xi) @ g
        u, _ = reference_lll_reduce(g.T @ g)
        g = g @ np.array(u, dtype=float)
        det = float(np.linalg.det(g))
        g = g / abs(det) ** (1.0 / d)
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            out.append(g.copy())
    return out


def per_sample_exact_d2(rng, n):
    """Reference for the exact sampler's bases: one sample at a time from
    each batch of draws, each basis built from Python floats."""
    out = []
    while len(out) < n:
        m = max(n - len(out), 16)
        x = rng.uniform(-0.5, 0.5, size=m)
        y = Y_MIN / (1.0 - rng.random(size=m))
        keep = x * x + y * y >= 1.0
        for xi, yi in zip(x[keep], y[keep]):
            if len(out) >= n:
                break
            s = 1.0 / math.sqrt(yi)
            out.append(np.array([[s, s * xi], [0.0, s * yi]]))
    return out


def fundamental_domain_im_cdf(y: float) -> float:
    """CDF of Im z under the normalized hyperbolic measure on the domain.

    Width at height v is 1 - 2 sqrt(1 - v^2) for v <= 1 and 1 above, and
    integrating width/v^2 gives the closed form used here.
    """
    if y <= Y_MIN:
        return 0.0

    def low_part(v):
        # integral of (1 - 2 sqrt(1 - u^2))/u^2 from Y_MIN to v
        def anti(u):
            return -1.0 / u + 2.0 * (math.sqrt(1.0 - u * u) / u + math.asin(u))
        return anti(v) - anti(Y_MIN)

    if y <= 1.0:
        mass = low_part(y)
    else:
        mass = low_part(1.0) + (1.0 - 1.0 / y)
    return mass / FUNDAMENTAL_AREA


def batch_discrepancies(samples, radius):
    """discrepancy of every sample, from one from_grams and one
    count_primitive_many call."""
    d = samples[0].basis.dim
    forms = QuadForm.from_grams([s.basis.mat.T @ s.basis.mat for s in samples])
    cst = constants(d)
    vol = cst.omega * radius ** d
    return np.array([abs(cst.zeta * res.n1 / vol - 1.0)
                     for res in count_primitive_many(forms, radius)])


class TestExactSampler:
    def test_unimodular(self):
        rng = np.random.default_rng(41)
        for s in sample_exact_d2(rng, 50):
            assert abs(np.linalg.det(s.basis.mat) - 1.0) < 1e-12

    def test_matches_per_sample_loop(self):
        # n = 15, 16 and 17 sit on the max(n - have, 16) batch edges
        from horocount import randlat

        for n in (1, 15, 16, 17, 600):
            for seed in (0, 1, 2):
                ref_rng = np.random.default_rng(seed)
                want = [b.tobytes() for b in per_sample_exact_d2(ref_rng, n)]
                after = ref_rng.random()
                rng = np.random.default_rng(seed)
                bases = randlat._exact_bases(rng, n)
                assert bases.shape == (n, 2, 2) and [b.tobytes() for b in bases] == want
                assert rng.random() == after
                rng = np.random.default_rng(seed)
                samples = sample_exact_d2(rng, n)
                assert all(type(s) is LatticeSample and type(s.basis) is GroupElement for s in samples)
                assert [s.basis.mat.tobytes() for s in samples] == want
                assert rng.random() == after

    def test_rejects_bad_sample_counts(self):
        from horocount import randlat

        for n in (0, -1, 2.5, 2.0, "3"):
            for draw in (randlat._exact_bases, sample_exact_d2):
                rng = np.random.default_rng(0)
                state = rng.bit_generator.state
                with pytest.raises(CountingError, match="integer number of samples"):
                    draw(rng, n)
                assert rng.bit_generator.state == state

    def test_im_z_tail_probability(self):
        rng = np.random.default_rng(42)
        n = 100_000
        samples = sample_exact_d2(rng, n)
        ys = np.array([s.basis.mat[1, 1] ** 2 for s in samples])
        p_hat = float(np.mean(ys > 2.0))
        p = 0.5 / FUNDAMENTAL_AREA
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3.0 * sigma

    def test_im_z_cdf_ks(self):
        rng = np.random.default_rng(43)
        n = 100_000
        samples = sample_exact_d2(rng, n)
        ys = np.array([s.basis.mat[1, 1] ** 2 for s in samples])
        ks = stats.kstest(ys, np.vectorize(fundamental_domain_im_cdf))
        assert ks.statistic < 0.01

    def test_cdf_endpoints(self):
        assert fundamental_domain_im_cdf(0.5) == 0.0
        assert fundamental_domain_im_cdf(1e9) == pytest.approx(1.0, abs=1e-9)
        assert fundamental_domain_im_cdf(2.0) == pytest.approx(1.0 - 0.5 / FUNDAMENTAL_AREA, rel=1e-12)

    def test_seed_stability_of_observable(self):
        # mean of a bounded invariant observable agrees across seeds at 3 sigma
        means, ses = [], []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            vals = np.array([min(discrepancy(s, 3.0), 5.0)
                             for s in sample_exact_d2(rng, 2000)])
            means.append(float(vals.mean()))
            ses.append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
        assert abs(means[0] - means[1]) < 3.0 * math.hypot(*ses)


class TestWalkSampler:
    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CountingError):
            sample_walk(rng, 2, burn_in=10)
        with pytest.raises(CountingError):
            sample_walk(rng, 1)

    def test_unimodular_and_bounded(self):
        rng = np.random.default_rng(44)
        samples = sample_walk(rng, 3, n=60, thin=5)
        for s in samples:
            assert abs(np.linalg.det(s.basis.mat) - 1.0) < 1e-9
            # reduction keeps the representative well conditioned
            assert np.linalg.cond(s.basis.mat) < 1e4

    def test_matches_step_by_step_walk(self):
        # the benchmark warm-up's settings, a walk that crosses several
        # chunk boundaries and ends inside a chunk, and one that ends on one
        burn_in = WALK_CHUNK * math.ceil(100 / WALK_CHUNK)
        for d in (2, 3, 4):
            for kw in ({"burn_in": 100, "thin": 1, "n": 8},
                       {"burn_in": 100, "thin": 2, "n": WALK_CHUNK + 5},
                       {"burn_in": burn_in, "thin": 1, "n": 2 * WALK_CHUNK}):
                rng, ref_rng = np.random.default_rng(60 + d), np.random.default_rng(60 + d)
                got = sample_walk(rng, d, **kw)
                want = step_by_step_walk(ref_rng, d, **kw)
                assert len(got) == len(want) == kw["n"]
                assert all(np.array_equal(s.basis.mat, w) for s, w in zip(got, want))
                # the generator is left where the step-by-step walk leaves it
                assert rng.random() == ref_rng.random()

    def test_matches_exact_sampler_d2(self):
        n = 10_000
        exact = sample_exact_d2(np.random.default_rng(45), n)
        walk = sample_walk(np.random.default_rng(46), 2, n=n, thin=5, burn_in=300)
        de = batch_discrepancies(exact, 5.0)
        dw = batch_discrepancies(walk, 5.0)
        for samples, values in ((exact, de), (walk, dw)):
            assert values[:200].tolist() == [discrepancy(s, 5.0) for s in samples[:200]]
        ks = stats.ks_2samp(de, dw)
        assert ks.statistic < 0.03

    def test_d4_smoke(self):
        samples = sample_walk(np.random.default_rng(7), 4, n=20, thin=2, burn_in=100)
        assert len(samples) == 20
        for s in samples[-5:]:
            assert abs(np.linalg.det(s.basis.mat) - 1.0) < 1e-9
            assert np.linalg.cond(s.basis.mat) < 1e4

    def test_chain_stability_d3(self):
        means, ses = [], []
        for seed in (1, 2, 3, 4):
            samples = sample_walk(np.random.default_rng(seed), 3, n=300, thin=5, burn_in=150)
            vals = np.array([min(discrepancy(s, 2.0), 5.0) for s in samples])
            means.append(float(vals.mean()))
            ses.append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
        grand = float(np.mean(means))
        for m, s in zip(means, ses):
            assert abs(m - grand) < 3.0 * s


class TestDiscrepancy:
    def test_square_lattice_example(self):
        sample = LatticeSample(basis=GroupElement.from_matrix(np.eye(2)))
        d = discrepancy(sample, 2.0)
        expected = abs(constants(2).zeta * 8.0 / (4.0 * math.pi) - 1.0)
        assert d == pytest.approx(expected, rel=1e-12)
        assert d == pytest.approx(0.04719755, abs=1e-7)

    def test_tiny_radius_gives_one(self):
        sample = LatticeSample(basis=GroupElement.from_matrix(np.eye(3)))
        assert discrepancy(sample, 1e-6) == pytest.approx(1.0)

    def test_invariance_under_unimodular(self):
        rng = np.random.default_rng(47)
        s = sample_exact_d2(rng, 1)[0]
        gamma = np.array([[2.0, 1.0], [1.0, 1.0]])
        moved = LatticeSample(basis=GroupElement.from_matrix(s.basis.mat @ gamma))
        assert discrepancy(moved, 4.0) == discrepancy(s, 4.0)


class TestMeanSquare:
    def test_d2_quick(self):
        rep = mean_square_check(2, 10.0, 1500, sampler="exact", seed=48)
        assert rep.passed
        assert rep.bound == pytest.approx(4.0 * constants(2).zeta / (math.pi * 100.0), rel=1e-12)
        assert rep.bound_e1sq == pytest.approx(2400.0 / math.pi, rel=1e-12)

    def test_d3_bound_value(self):
        cst = constants(3)
        rep = mean_square_check(3, 5.0, 120, sampler="walk", seed=49)
        vol = cst.omega * 125.0
        assert rep.bound == pytest.approx(2.0 * cst.zeta / vol, rel=1e-12)
        assert rep.bound_e1sq == pytest.approx(871.171363, abs=1e-4)

    def test_degenerate_single_sample(self):
        rep = mean_square_check(2, 5.0, 1, sampler="exact", seed=50)
        assert rep.degenerate and not rep.passed
        assert rep.n_samples == 1

    def test_rejects_unknown_sampler(self):
        with pytest.raises(CountingError):
            mean_square_check(2, 5.0, 10, sampler="magic")

    def test_exact_sampler_requires_d2(self):
        with pytest.raises(CountingError):
            mean_square_check(3, 5.0, 10, sampler="exact")

    def test_radii_list_matches_per_radius_calls(self):
        for d, radii, n, kw in ((2, [4.0, 9.0, 15.5], 300, {"sampler": "exact", "seed": 51}),
                                (3, [2.0, 3.5], 40, {"sampler": "walk", "seed": 52,
                                                     "burn_in": 100, "thin": 2})):
            reps = mean_square_check(d, radii, n, **kw)
            assert [r.radius for r in reps] == radii
            for rep, radius in zip(reps, radii):
                one = mean_square_check(d, radius, n, **kw)
                assert isinstance(one, MeanSquareReport)
                assert dataclasses.astuple(rep) == dataclasses.astuple(one)

    def test_radii_list_reduces_each_sample_once(self, monkeypatch):
        # each sample set is factored as one stack, not once per radius; the
        # exact samples are Gauss-reduced, so none takes an lll_reduce call,
        # and each walk sample takes at most one
        from horocount import latcount

        stacks, calls = [], []
        factors, lll = latcount._factors, latcount.lll_reduce
        monkeypatch.setattr(latcount, "_factors",
                            lambda forms, mode: stacks.append(len(forms)) or factors(forms, mode))
        monkeypatch.setattr(latcount, "lll_reduce", lambda g: calls.append(1) or lll(g))
        reps = mean_square_check(2, [5.0, 10.0, 20.0], 60, sampler="exact", seed=54)
        assert len(reps) == 3 and stacks == [60] and calls == []
        stacks.clear()
        reps = mean_square_check(3, [2.0, 3.5], 20, sampler="walk", seed=55, burn_in=100, thin=2)
        assert len(reps) == 2 and stacks == [20] and len(calls) <= 20

    def test_matches_per_sample_discrepancy(self):
        rep = mean_square_check(2, 6.0, 200, sampler="exact", seed=53)
        samples = sample_exact_d2(np.random.default_rng(53), 200)
        assert rep.mean_d2 == float(np.mean(np.array([discrepancy(s, 6.0) ** 2 for s in samples])))

    def test_rejects_invalid_input(self):
        for radius in (0.0, -2.0, [5.0, 0.0]):
            with pytest.raises(CountingError, match="radius"):
                mean_square_check(2, radius, 10, sampler="exact")
        for sampler, d in (("exact", 2), ("walk", 3)):
            with pytest.raises(CountingError):
                mean_square_check(d, [3.0, 5.0], 0, sampler=sampler)
        with pytest.raises(CountingError):
            mean_square_check(2, [3.0, 5.0], 10, sampler="magic")

    def test_oversize_radius_refused_before_sampling(self, monkeypatch):
        # every det-1 form would refuse these radii, so no sample is drawn
        from horocount import randlat

        calls = []
        monkeypatch.setattr(randlat, "sample_walk", lambda *a, **k: calls.append("walk"))
        monkeypatch.setattr(randlat, "sample_exact_d2", lambda *a, **k: calls.append("exact"))
        monkeypatch.setattr(randlat, "_exact_bases", lambda *a, **k: calls.append("exact"))
        for d, radius, sampler in ((3, 1e6, "walk"), (2, 1e9, "exact"), (2, [5.0, 1e9], "exact")):
            with pytest.raises(EnumerationBudgetError, match="budget"):
                mean_square_check(d, radius, 2, sampler=sampler)
        assert calls == []

    def test_oversize_samples_and_negative_seed_refused_before_sampling(self, monkeypatch):
        from horocount import randlat

        calls = []
        monkeypatch.setattr(randlat, "sample_walk", lambda *a, **k: calls.append("walk"))
        monkeypatch.setattr(randlat, "sample_exact_d2", lambda *a, **k: calls.append("exact"))
        monkeypatch.setattr(randlat, "_exact_bases", lambda *a, **k: calls.append("exact"))
        assert MAX_SAMPLES >= 10_000  # criterion 8 and CI draw 10,000 samples
        for d, sampler in ((2, "exact"), (3, "walk")):
            with pytest.raises(CountingError, match="samples"):
                mean_square_check(d, 5.0, MAX_SAMPLES + 1, sampler=sampler)
            with pytest.raises(CountingError, match="seed"):
                mean_square_check(d, 5.0, 2, sampler=sampler, seed=-1)
        assert calls == []
