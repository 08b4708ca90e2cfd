import math
import re
import tracemalloc

import numpy as np
import pytest

from horocount import orbits
from horocount.latcount import CountingError, EllipsoidSpec, count_primitive_moebius, enumerate_points
from horocount.orbits import (
    fit_error_exponent,
    radius_of_t,
    stabilizer_order,
    sweep,
    t_of_radius,
    theory_slope,
)
from horocount.quadform import GeometryError, GroupElement, QuadForm, act, constants
from test_latcount import full, random_form, random_unimodular


class TestRadiusMaps:
    def test_example(self):
        assert t_of_radius(2, 2.0) == pytest.approx(2.0 * math.sqrt(2.0) * math.log(2.0), rel=1e-14)
        assert t_of_radius(3, 1.0) == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 5):
            for r in rng.uniform(0.1, 50.0, size=10):
                assert radius_of_t(d, t_of_radius(d, float(r))) == pytest.approx(float(r), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(CountingError):
            t_of_radius(2, 0.0)

    @pytest.mark.parametrize("d", [1, True, 0, 2.5, -3, None])
    def test_rejects_dimensions(self, d):
        for radius_map in (t_of_radius, radius_of_t):
            with pytest.raises(GeometryError, match="dimension must be an integer >= 2"):
                radius_map(d, 2.0)

    def test_valid_dimensions_keep_their_values(self):
        # the dimension check computes nothing the maps return
        for d in (2, 3, 4, 7, np.int64(5)):
            for x in (0.3, 1.0, 2.0, 75.5):
                assert t_of_radius(d, x) == 2.0 * math.sqrt(d / (d - 1)) * math.log(x)
                assert radius_of_t(d, x) == math.exp(0.5 * x * math.sqrt((d - 1) / d))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(CountingError, match="radius must be positive and finite"):
            t_of_radius(2, x)
        with pytest.raises(CountingError, match="T must be finite"):
            radius_of_t(3, x)


def reference_stabilizer_order(q):
    """stabilizer_order as a depth-first search, one enumeration per column,
    as the reference it must equal: the same candidates, per-entry tolerance
    STABILIZER_TOL * sqrt(M_ii M_jj), cap, pair tables and det = 1 test,
    without the level bound."""
    d = q.dim
    m = q.gram
    tol = orbits.STABILIZER_TOL * np.sqrt(np.outer(np.diag(m), np.diag(m)))
    cols = []
    for j in range(d):
        target = float(m[j, j])
        pts, vals = full(*enumerate_points(q, target + tol[j, j], mode="float"))
        sel = np.abs(vals - target) <= tol[j, j]
        if np.count_nonzero(sel) > orbits.STABILIZER_CANDIDATE_CAP:
            raise CountingError("stabilizer candidate set too large for this form")
        cols.append(pts[sel].astype(float))
    table = {(i, j): np.abs(cols[i] @ m @ cols[j].T - m[i, j]) <= tol[i, j]
             for j in range(d) for i in range(j)}

    def extend(chosen, allowed):
        """Completions of the columns chosen so far; allowed[n] masks the
        candidates for column len(chosen) + n that fit them."""
        j = len(chosen)
        if j == d - 1:
            last = cols[j][allowed[0]]
            g = np.stack([np.broadcast_to(c, last.shape) for c in chosen] + [last], axis=-1)
            return int(np.count_nonzero(np.round(np.linalg.det(g)) == 1))
        return sum(extend(chosen + [cols[j][a]],
                          [mask & table[j, k][a] for k, mask in enumerate(allowed[1:], j + 1)])
                   for a in np.flatnonzero(allowed[0]))

    count = extend([], [np.ones(len(c), dtype=bool) for c in cols])
    alpha = constants(d).alpha
    assert count % alpha == 0 and count >= alpha
    return count // alpha


A_2 = [[2, -1], [-1, 2]]
A_3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A_4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D_4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
SKEW = [[1e-4, 0], [0, 1e4]]


def superdiagonal_shear(gram, c):
    """u^T M u for u = I + c (E_12 + E_23 + ...)."""
    u = np.eye(len(gram), dtype=np.int64) + np.diag([c] * (len(gram) - 1), 1)
    return (u.T @ np.asarray(gram, dtype=np.int64) @ u).tolist()


class TestStabilizer:
    def test_identity_forms(self):
        assert stabilizer_order(QuadForm.identity(2)) == 2
        assert stabilizer_order(QuadForm.identity(3)) == 24
        assert stabilizer_order(QuadForm.identity(4)) == 96

    def test_generic_form(self):
        g = GroupElement.from_matrix([[1.0, 0.0], [0.37, 1.0]])
        assert stabilizer_order(act(QuadForm.identity(2), g)) == 1

    @pytest.mark.parametrize("gram, order", [
        (A_2, 3),  # hexagonal
        (A_3, 24),  # face-centred cubic
        (A_4, 60),
        (D_4, 288),
    ])
    def test_root_lattices(self, gram, order):
        # rotation subgroup of the automorphism group, modulo the center
        assert stabilizer_order(QuadForm.from_gram(gram)) == order

    def test_invariant_under_integer_conjugation(self):
        gamma = GroupElement.from_matrix([[2, 1], [1, 1]])
        assert stabilizer_order(act(QuadForm.identity(2), gamma)) == 2

    def test_rejects_large_dim(self):
        with pytest.raises(CountingError):
            stabilizer_order(QuadForm.identity(5))

    def test_matches_reference(self):
        # root lattices, identities, seeded random forms, GL_d(Z) images of
        # the root lattices, a skew diagonal form and superdiagonal shears of
        # I_4, D_4 and A_4; at c = 15 the shears of D_4 and A_4 have too many
        # candidates, and both searches refuse them
        grams = [A_2, A_3, A_4, D_4, SKEW] + [np.eye(d).tolist() for d in (2, 3, 4)]
        forms = [QuadForm.from_gram(g) for g in grams]
        rng = np.random.default_rng(28)
        for d in (2, 3, 4):
            forms += [random_form(rng, d) for _ in range(50)]
        for gram in (A_2, A_3, A_4, D_4, np.eye(4, dtype=int).tolist()):
            for _ in range(3):
                u = np.array(random_unimodular(rng, gram, 12))
                forms.append(QuadForm.from_gram((u.T @ np.array(gram) @ u).tolist()))
        for q in forms:
            assert stabilizer_order(q) == reference_stabilizer_order(q), q.gram
        for c in (1, 4, 10, 15):
            for gram, order in ((np.eye(4, dtype=int), 96), (D_4, 288), (A_4, 60)):
                q = QuadForm.from_gram(superdiagonal_shear(gram, c))
                if c == 15 and order != 96:
                    for search in (stabilizer_order, reference_stabilizer_order):
                        with pytest.raises(CountingError, match="candidate set too large"):
                            search(q)
                else:
                    assert stabilizer_order(q) == reference_stabilizer_order(q) == order

    def test_skew_form_matches_in_its_own_scale(self, monkeypatch):
        # diag(1e-4, 1e4) has the stabilizer {+-I}.  An absolute tolerance of
        # 1e-7 max|M| = 1e-3 would admit the origin and (+-3, 0) for column 1,
        # and order 7; within 1e-7 sqrt(M_ii M_jj) per entry no column's
        # candidates hold the origin
        cols = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def concatenate(self, arrays):
                cols.append(np.concatenate(arrays))
                return cols[-1]

        monkeypatch.setattr(orbits, "np", Spy())
        assert stabilizer_order(QuadForm.from_gram(SKEW)) == 1
        assert len(cols) == 2 and all(np.abs(c).sum(axis=1).all() for c in cols)

    def test_level_bound_refuses_before_the_mask(self, monkeypatch):
        # an image of I_4 whose first two basis vectors are orthogonal of norm 257:
        # 2,064 candidates per column and 24,672 partial matrices on the first
        # two, so the third column's mask would hold 24,672 x 2,064 entries,
        # above STABILIZER_LEVEL_CAP; the reference still finds the order 96
        basis = np.array([[1, 0, 0, 16], [0, 1, -16, 0], [16, 0, 1, 0], [0, 0, 0, 1]]).T
        q = QuadForm.from_gram((basis.T @ basis).tolist())
        assert 24_672 * 2_064 > orbits.STABILIZER_LEVEL_CAP
        ones = np.ones

        def guarded(shape, *args, **kwargs):
            assert np.prod(shape) <= orbits.STABILIZER_LEVEL_CAP, f"array of shape {shape} built"
            return ones(shape, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "ones", guarded)
            with pytest.raises(CountingError, match="column 3 would pair 24672 partial matrices with 2064"):
                stabilizer_order(q)
        assert reference_stabilizer_order(q) == 96

    def test_refused_level_builds_no_table(self, monkeypatch):
        # the same image of I_4: level 2 builds the one pair table (1, 2) of
        # 2,064 x 2,064 bools, and level 3 is refused before its two tables
        basis = np.array([[1, 0, 0, 16], [0, 1, -16, 0], [16, 0, 1, 0], [0, 0, 0, 1]]).T
        q = QuadForm.from_gram((basis.T @ basis).tolist())
        empty, tables = np.empty, []

        def counted(shape, *args, **kwargs):
            out = empty(shape, *args, **kwargs)
            if out.dtype == bool and out.shape == (2_064, 2_064):
                tables.append(shape)
            return out

        monkeypatch.setattr(np, "empty", counted)
        with pytest.raises(CountingError, match="column 3"):
            stabilizer_order(q)
        assert len(tables) == 1

    def test_pair_tables_built_by_row_blocks(self):
        # the same refused image of I_4: level 2 holds its 2,064 x 2,064 mask and
        # its one pair table.  Built TABLE_ROWS rows at a time, each block dropped
        # before the next, the float64 products never outgrow one row block, so
        # the peak stays near the enumeration's points plus the mask and the
        # table (whole-table float64 products peaked near 86 MB traced)
        basis = np.array([[1, 0, 0, 16], [0, 1, -16, 0], [16, 0, 1, 0], [0, 0, 0, 1]]).T
        q = QuadForm.from_gram((basis.T @ basis).tolist())
        tracemalloc.start()
        try:
            pts, vals = enumerate_points(q, 257.0 * (1 + orbits.STABILIZER_TOL), mode="float")
            enum_peak, kept = tracemalloc.get_traced_memory()[1], pts.nbytes + vals.nbytes
            del pts, vals
            tracemalloc.reset_peak()
            with pytest.raises(CountingError, match="column 3"):
                stabilizer_order(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables, block = 2 * 2_064 ** 2, 8 * orbits.TABLE_ROWS * 2_064
        assert peak <= max(enum_peak, kept + tables + block) + 2 ** 21


class TestDictionary:
    def test_chimney_example(self):
        t = 2.0 * math.sqrt(2.0) * math.log(2.0)
        res = sweep(QuadForm.identity(2), [t])[0]
        assert res.count == 2
        assert res.sigma_q == 2
        assert res.predicted == pytest.approx((3.0 / math.pi) * 4.0, rel=1e-12)
        assert res.R == pytest.approx(2.0, rel=1e-12)

    def test_horoball_example(self):
        t = 2.0 * math.sqrt(2.0) * math.log(2.0)
        res = sweep(QuadForm.identity(2), [t], kind="horoball")[0]
        assert res.count == 4
        assert res.predicted == pytest.approx(12.0 / math.pi, rel=1e-12)

    def test_chimney_equals_horoball_prediction_d2(self):
        for t in (1.0, 4.0, 9.0):
            a = sweep(QuadForm.identity(2), [t])[0]
            b = sweep(QuadForm.identity(2), [t], kind="horoball")[0]
            assert a.predicted == pytest.approx(b.predicted, rel=1e-14)
            assert a.rel_error == pytest.approx(b.rel_error, rel=1e-12)

    def test_strip_asymptotic_form(self):
        # the d=2 prediction equals 3/(pi y) with y = e^{-T/sqrt 2}
        for t in (2.0, 5.0):
            res = sweep(QuadForm.identity(2), [t], kind="horoball")[0]
            y = math.exp(-t / math.sqrt(2.0))
            assert res.predicted == pytest.approx(3.0 / (math.pi * y), rel=1e-12)

    def test_dictionary_exactness(self):
        cst2 = constants(2)
        for t in (2.0, 4.5, 7.0):
            res = sweep(QuadForm.identity(2), [t])[0]
            n1 = count_primitive_moebius(
                EllipsoidSpec(QuadForm.identity(2), radius_of_t(2, t))).n1
            assert cst2.alpha * res.sigma_q * res.count == n1
            assert 2 * sweep(QuadForm.identity(2), [t], kind="horoball")[0].count == n1

    def test_empty_chimney(self):
        res = sweep(QuadForm.identity(2), [-1e9], sigma=2)[0]
        assert res.count == 0

    def test_divisibility_error(self):
        with pytest.raises(CountingError):
            sweep(QuadForm.identity(2), [2.0 * math.sqrt(2.0) * math.log(2.0)], sigma=3)

    def test_unimodular_invariance(self):
        gamma = GroupElement.from_matrix([[1, 1], [1, 2]])
        moved = act(QuadForm.identity(2), gamma)
        for t in (2.0, 5.0):
            a = sweep(QuadForm.identity(2), [t], sigma=2)[0]
            b = sweep(moved, [t], sigma=2)[0]
            assert a.count == b.count

    def test_symmetric_d3_form_flags_boundary(self):
        # the exact chimney division only holds off the symmetric locus;
        # the standard form in d = 3 sits on it (n1 = 26 at R = 2 is not a
        # multiple of sigma = 24) and must be reported, while the
        # horosphere dictionary stays exact for every form
        t = t_of_radius(3, 2.0)
        with pytest.raises(CountingError, match="symmetric locus"):
            sweep(QuadForm.identity(3), [t])
        n1 = count_primitive_moebius(EllipsoidSpec(QuadForm.identity(3), 2.0)).n1
        assert n1 == 26
        assert 2 * sweep(QuadForm.identity(3), [t], kind="horoball")[0].count == n1

    def test_dictionary_exactness_d3_generic(self):
        import numpy as np
        g = GroupElement.from_matrix(np.array([[1, 0, 0], [0.31, 1, 0], [0.11, 0.27, 1.0]]))
        q = act(QuadForm.identity(3), g)
        for t in (3.0, 6.0):
            res = sweep(q, [t])[0]
            n1 = count_primitive_moebius(EllipsoidSpec(q, radius_of_t(3, t))).n1
            assert res.sigma_q == 1
            assert res.count == n1

    def test_d5_needs_sigma(self):
        # I_5 has stabilizer order 1920, so a default sigma = 1 would
        # overstate its chimney count by that factor: refuse instead
        with pytest.raises(CountingError, match="sigma"):
            sweep(QuadForm.identity(5), [2.5])
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        q = QuadForm.from_gram(a.T @ a + np.eye(5))
        res = sweep(q, [2.5], sigma=1)[0]
        n1 = count_primitive_moebius(EllipsoidSpec(q, radius_of_t(5, 2.5))).n1
        assert res.sigma_q == 1
        assert res.count == n1 > 0


class TestFit:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 10.0, 30)
        series = [(t, math.exp(-0.5 * t)) for t in ts]
        fit = fit_error_exponent(series, envelope=False)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r2 > 0.999999

    def test_oscillating_envelope(self):
        ts = np.linspace(0.0, 20.0, 201)
        series = [(t, math.exp(-0.5 * t) * math.cos(t)) for t in ts]
        fit = fit_error_exponent(series, envelope=True)
        assert -0.55 <= fit.slope <= -0.45
        assert fit.n_points >= 4

    def test_degenerate_series(self):
        with pytest.raises(CountingError):
            fit_error_exponent([(0.0, 1.0), (1.0, 0.5), (2.0, 0.2)], envelope=False)
        ts = np.linspace(0.0, 5.0, 12)
        with pytest.raises(CountingError):
            # monotone series has no interior envelope maxima
            fit_error_exponent([(t, math.exp(-t)) for t in ts], envelope=True)

    def test_theory_slopes(self):
        assert theory_slope(2) == pytest.approx(-0.4844361, abs=1e-6)
        assert theory_slope(3) == pytest.approx(-0.6278755, abs=1e-6)
        assert theory_slope(4) == pytest.approx(-43.0 * math.sqrt(3.0) / 104.0, rel=1e-12)
        assert theory_slope(8) == pytest.approx(-math.sqrt(7.0 / 8.0), rel=1e-12)


def per_t_row(q, t, kind, sigma=1):
    """One sweep row from its own count_primitive_moebius call (reference)."""
    d = q.dim
    cst = constants(d)
    weight, denom, sigma_q = (cst.alpha * sigma, cst.alpha, sigma) if kind == "chimney" else (2, 2, 1)
    radius = radius_of_t(d, t)
    predicted = (cst.omega / (denom * cst.zeta)) * math.exp(0.5 * t * math.sqrt((d - 1) * d))
    if radius < 1e-12:
        return (t, radius, 0, sigma_q, predicted, -1.0)
    n1 = count_primitive_moebius(EllipsoidSpec(q, radius)).n1
    assert n1 % weight == 0
    return (t, radius, n1 // weight, sigma_q, predicted, (n1 / denom) / predicted - 1.0)


def row(c):
    return (c.T, c.R, c.count, c.sigma_q, c.predicted, c.rel_error)


class TestSweep:
    def test_rows_equal_per_t_counts(self):
        g = GroupElement.from_matrix(np.array([[1, 0, 0], [0.31, 1, 0], [0.11, 0.27, 1.0]]))
        f3 = act(QuadForm.identity(3), g)
        cases = (
            (QuadForm.identity(2), [12.0, -1e9, 8.0, 15.5, 9.25, 12.0], "horoball", 1),
            (QuadForm.identity(2), [9.0, 4.0, -1e9, 13.0], "chimney", 2),
            (QuadForm.identity(3), [7.0, 5.0, 9.5, 3.0], "horoball", 1),
            (QuadForm.identity(4), [6.0, 4.8, 7.5], "horoball", 1),
            (f3, [6.0, 3.5, -1e9, 8.0], "horoball", 1),
            (f3, [6.0, 3.5, 8.0, 5.0], "chimney", 1),
        )
        for q, ts, kind, sigma in cases:
            if kind == "chimney":
                got, one = sweep(q, ts, sigma=sigma), [sweep(q, [t], sigma=sigma)[0] for t in ts]
            else:
                got, one = sweep(q, ts, kind="horoball"), [sweep(q, [t], kind="horoball")[0] for t in ts]
            got = [row(c) for c in got]
            assert got == sorted(map(row, one))
            assert got == sorted(per_t_row(q, t, kind, sigma) for t in ts)
            if -1e9 in ts:  # R underflows to 0: an empty row, not a count
                assert got[0][:3] == (-1e9, 0.0, 0)

    def test_divisibility_error_names_first_t_in_input_order(self):
        ts = [5.0, 9.0, 2.0, 7.0]  # every T fails; 2.0 sorts first, 5.0 comes first
        n1 = count_primitive_moebius(EllipsoidSpec(QuadForm.identity(3), radius_of_t(3, 5.0))).n1
        with pytest.raises(CountingError, match=f"primitive count {n1} not divisible by 24; the form"):
            sweep(QuadForm.identity(3), ts, kind="chimney")
        with pytest.raises(CountingError, match="not divisible by 6"):
            sweep(QuadForm.identity(2), [-1e9, 8.0, 2.0 * math.sqrt(2.0) * math.log(2.0)],
                  kind="chimney", sigma=3)

    def test_sigma_must_be_a_positive_integer(self, monkeypatch):
        # a float, a bool or a sigma below 1 is refused with its value named,
        # before any count; a numpy integer is an integer
        calls, many = [], orbits.count_primitive_many
        monkeypatch.setattr(orbits, "count_primitive_many", lambda *a: calls.append(a) or many(*a))
        for bad in (2.0, 2.5, True, 0):
            with pytest.raises(CountingError, match=re.escape(f"sigma must be an integer >= 1, got {bad!r}")):
                sweep(QuadForm.identity(2), [8.0, 9.0], sigma=bad)
        assert calls == []
        rows = sweep(QuadForm.identity(2), [8.0, 9.0], sigma=np.int64(2))
        assert [(r.count, r.sigma_q) for r in rows] == [(134, 2), (282, 2)]
        assert all(type(r.count) is int and type(r.sigma_q) is int for r in rows)

    def test_sorted(self):
        ts = [4.0, 2.0, 6.0]
        out = sweep(QuadForm.identity(2), ts, kind="horoball")
        assert [r.T for r in out] == sorted(ts)

    def test_ratio_trend_negative_slope(self):
        radii = np.exp(np.linspace(math.log(8.0), math.log(256.0), 17))
        series = []
        for r in radii:
            t = t_of_radius(2, float(r))
            series.append((t, sweep(QuadForm.identity(2), [t], kind="horoball")[0].rel_error))
        fit = fit_error_exponent(series, envelope=True)
        assert fit.slope < 0.0
