import math

import numpy as np
import pytest

from horocount import latcount
from horocount.latcount import (
    CountingError,
    EllipsoidSpec,
    EnumerationBudgetError,
    count_full,
    count_primitive_direct,
    count_primitive_many,
    count_primitive_moebius,
    enumerate_points,
    error_terms,
    shell_table,
)
from horocount.quadform import (LLL_DELTA, LLL_SIZE_SLACK, GeometryError, GroupElement, QuadForm, act,
                                constants)


def brute_counts(form, radius):
    """Tiny independent oracle: per-point python loop over a box."""
    d = form.dim
    gram = form.gram
    rsq = radius ** 2
    inv_diag = np.diagonal(np.linalg.inv(gram))
    half = [int(math.floor(radius * math.sqrt(v))) + 1 for v in inv_diag]
    n0 = n1 = 0
    ranges = [range(-h, h + 1) for h in half]
    import itertools
    for pt in itertools.product(*ranges):
        v = np.array(pt, dtype=float)
        if v @ gram @ v <= rsq:
            n0 += 1
            if math.gcd(*(abs(x) for x in pt)) == 1:
                n1 += 1
    return n0, n1


def random_form(rng, d, scale=0.25):
    from scipy.linalg import expm
    s = scale * rng.standard_normal((d, d))
    s -= np.trace(s) / d * np.eye(d)
    a = expm(s)
    return QuadForm.from_gram(a.T @ a)


def numpy_brute_n0(gram, radius):
    """Points of a binary form with Q(v) <= radius^2, row by row over a box."""
    gram = np.asarray(gram, dtype=float)
    half = np.floor(radius * np.sqrt(np.diagonal(np.linalg.inv(gram)))).astype(int) + 1
    v0 = np.arange(-half[0], half[0] + 1, dtype=float)
    return sum(int(np.count_nonzero(
        gram[0, 0] * v0 * v0 + 2.0 * gram[0, 1] * v0 * v1 + gram[1, 1] * v1 * v1 <= radius ** 2))
        for v1 in range(-half[1], half[1] + 1))


def int_form(d, gamma):
    return act(QuadForm.identity(d), GroupElement.from_matrix(gamma))


def reference_walk(f, top, square=lambda x: x * x):
    """Reference for latcount._walk: the recursion over levels, one
    generator call per suffix.  Yields (suffix, lo, hi, c1, c0, t) per
    admissible suffix (v_2, ..., v_{d-1}) of the walk of one factored form
    over Q(v) <= top, each (v + c)^2 taken by square."""
    q, m, pad = f.q, f.m, latcount._PAD

    def rec(i, suffix, cent, t):
        rem = (top - t) / q[i]
        if rem < 0.0:
            return
        rad = math.sqrt(rem)
        c = cent[i]
        lo, hi = math.ceil(-c - rad) - pad, math.floor(-c + rad) + pad
        if i == 1:
            yield suffix, lo, hi, c, cent[0], t
            return
        mi = m[i]
        for v in range(lo, hi + 1):
            yield from rec(i - 1, (v,) + suffix, [cent[k] + mi[k] * v for k in range(i)],
                           t + q[i] * square(v + c))

    return rec(f.dim - 1, (), [0.0] * f.dim, 0.0)


def reference_half(f, top, square=lambda x: x * x):
    """The rows of reference_walk in the half v_{d-1} >= 0 that
    latcount._walk covers: at d = 2 the one row's range cut at v_1 = 0."""
    for suffix, lo, hi, *rest in reference_walk(f, top, square):
        if f.dim == 2 or suffix[-1] >= 0:
            yield (suffix, max(lo, 0) if f.dim == 2 else lo, hi, *rest)


def hex_row(owner, suffix, lo, hi, *floats):
    return (owner, tuple(suffix), lo, hi) + tuple(x.hex() for x in floats)


class TestCountFull:
    def test_disc_examples(self):
        q0 = QuadForm.identity(2)
        assert count_full(EllipsoidSpec(q0, 1.0)).n0 == 5
        assert count_full(EllipsoidSpec(q0, 2.0)).n0 == 13

    def test_tiny_radius_counts_origin(self):
        for d in (2, 3, 4):
            res = count_full(EllipsoidSpec(QuadForm.identity(d), 1e-6))
            assert res.n0 == 1

    def test_exact_matches_float_on_integer_gram(self):
        q = int_form(2, [[2, 1], [1, 1]])
        for r in (1.0, 3.7, 9.2):
            spec = EllipsoidSpec(q, r)
            assert count_full(spec, mode="exact").n0 == count_full(spec, mode="float").n0

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(8):
                form = random_form(rng, d)
                r = float(rng.uniform(0.5, 6.0))
                n0, n1 = brute_counts(form, r)
                spec = EllipsoidSpec(form, r)
                assert count_full(spec).n0 == n0
                assert count_primitive_direct(spec).n1 == n1
        # integral grams, counted by the exact rule (the oracle's float
        # arithmetic is exact on their small integer entries)
        for gamma, r in (([[2, 1], [1, 1]], 9.5), ([[3, 5], [1, 2]], 7.0),
                         ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 4.0), ([[1, 2, 3], [0, 1, 4], [0, 0, 1]], 3.0)):
            spec = EllipsoidSpec(int_form(len(gamma), gamma), r)
            n0, n1 = brute_counts(spec.form, r)
            assert count_full(spec, mode="exact").n0 == n0
            assert count_primitive_direct(spec, mode="exact").n1 == n1
            assert count_primitive_moebius(spec, mode="exact").n1 == n1

    def test_monotone_in_radius(self):
        q = int_form(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        prev0 = prev1 = -1
        for r in np.linspace(0.5, 8.0, 16):
            res = error_terms(EllipsoidSpec(q, float(r)))
            assert res.n0 >= prev0 and res.n1 >= prev1
            prev0, prev1 = res.n0, res.n1

    def test_parity(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            form = random_form(rng, d)
            for r in (2.0, 5.5):
                res = error_terms(EllipsoidSpec(form, r))
                assert res.n0 % 2 == 1
                assert res.n1 % 2 == 0

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(13)
        gammas = {
            2: [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]]],
            3: [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [2, 1, 0], [1, 1, 1]]],
        }
        for d, mats in gammas.items():
            form = random_form(rng, d)
            for r in (3.0, 6.0):
                base = count_full(EllipsoidSpec(form, r)).n0
                base1 = count_primitive_moebius(EllipsoidSpec(form, r)).n1
                for gm in mats:
                    moved = act(form, GroupElement.from_matrix(gm))
                    assert count_full(EllipsoidSpec(moved, r)).n0 == base
                    assert count_primitive_moebius(EllipsoidSpec(moved, r)).n1 == base1

    def test_block_crossing(self):
        # I_3 at R = 60 has more level-1 nodes (pairs (a, b)) than one
        # float-leaf block holds
        r = 60
        pairs = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                 if a * a + b * b <= r * r]
        assert len(pairs) > 2 * latcount.BLOCK
        want = sum(2 * math.isqrt(r * r - a * a - b * b) + 1 for a, b in pairs)
        spec = EllipsoidSpec(QuadForm.identity(3), float(r))
        assert count_full(spec, mode="exact").n0 == want
        assert count_full(spec, mode="float").n0 == want

    def test_large_entry_gram_counts(self):
        # integral with det 1 and GL_3(Z)-equivalent to the identity; the
        # float Cholesky of the gram itself fails, that of its exact LLL
        # reduction is the identity's
        gram = [[38957694870466, -810730334757, -4737644889],
                [-810730334757, 16871729138, 98592908],
                [-4737644889, 98592908, 576145]]
        spec = EllipsoidSpec(QuadForm.from_gram(gram), 40.0)
        ident = EllipsoidSpec(QuadForm.identity(3), 40.0)
        assert count_full(spec).n0 == 267761
        for mode in ("auto", "float"):
            for fn in (count_full, error_terms):
                got, want = fn(spec, mode=mode), fn(ident, mode=mode)
                assert got.mode == want.mode == ("exact" if mode == "auto" else "float")
                assert (got.n0, got.n1, got.boundary_ambiguous) == \
                    (want.n0, want.n1, want.boundary_ambiguous)
                assert want.n0 == 267761

    def test_near_integral_grams_count_their_own_form(self):
        # det-1 float grams within the integer rounding tolerance of a gram
        # of det 2 (resp. of a singular one) must be counted as stored; the
        # det-2 gram has 1999 points at R = 30, the stored one 2835
        for gram in ([[2 - 1 / 500001, 1000], [1000, 500001]], [[1e-6, 0.0], [0.0, 1e6]]):
            form = QuadForm.from_gram(gram)
            assert form.mint is None
            want = numpy_brute_n0(form.gram, 30.0)
            assert want == 2835 or gram[0][1] == 0
            for mode in ("auto", "float"):
                res = count_full(EllipsoidSpec(form, 30.0), mode=mode)
                assert res.mode == "float"
                assert res.n0 - res.boundary_ambiguous <= want <= res.n0
                assert res.n0 == 2835 or gram[0][1] == 0
            with pytest.raises(CountingError):
                count_full(EllipsoidSpec(form, 30.0), mode="exact")

    def test_rescaled_integer_gram_counts_exactly(self):
        # from_gram stores 4 I as (1 + 2^-52) I, whose integer gram is I
        form = QuadForm.from_gram([[4, 0], [0, 4]])
        spec, ident = EllipsoidSpec(form, 10.0), EllipsoidSpec(QuadForm.identity(2), 10.0)
        for fn in (count_full, count_primitive_moebius, count_primitive_direct):
            got, want = fn(spec), fn(ident)
            assert got.mode == "exact"
            assert (got.n0, got.n1, got.boundary_ambiguous) == (want.n0, want.n1, 0)
        assert count_full(spec).n0 == 317
        got, want = shell_table(form, 100), shell_table(ident.form, 100)
        assert [t.tolist() for t in got] == [t.tolist() for t in want]

    def test_overflow_guard(self):
        with pytest.raises(CountingError):
            count_full(EllipsoidSpec(QuadForm.identity(2), 1e18))

    def test_rejects_bad_radius(self):
        with pytest.raises(CountingError):
            EllipsoidSpec(QuadForm.identity(2), 0.0)

    def test_rejects_int_radius_beyond_the_float_range(self):
        # float(10**400) overflows; each call refuses before any float arithmetic
        ident = QuadForm.identity(2)
        for call in (lambda: count_full(EllipsoidSpec(ident, 10 ** 400)),
                     lambda: count_primitive_many([ident], [10 ** 400]),
                     lambda: count_primitive_many([ident], 10 ** 400)):
            with pytest.raises(CountingError, match="finite square"):
                call()


def random_unimodular(rng, m, top):
    """A random U in GL_d(Z), as Python ints, built from column additions
    with small multipliers and column swaps until U^T m U has an entry
    above top (each step grows the entries at most 16-fold)."""
    d = len(m)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    while max(abs(x) for row in transformed(u, m) for x in row) <= top:
        i, j = (int(x) for x in rng.choice(d, 2, replace=False))
        c = int(rng.integers(-3, 4))
        swap = rng.random() < 0.15
        for row in u:
            row[i] += c * row[j]
            if swap:
                row[i], row[j] = row[j], row[i]
    return u


def transformed(u, m):
    d = len(u)
    return [[sum(u[a][i] * m[a][b] * u[b][j] for a in range(d) for b in range(d))
             for j in range(d)] for i in range(d)]


class TestGLInvariance:
    def test_counts_invariant_under_random_unimodular(self):
        # N0 and N1 are functions on the space of lattices, so U^T M U must
        # count as M for every U in GL_d(Z).  U is kept small enough that
        # the gram entries stay below 2^53, where QuadForm.from_gram still
        # reads a float gram exactly; it decides the definiteness of an
        # integral det-1 gram from exact minors, so entries up to 2^48
        # construct.
        rng = np.random.default_rng(31)
        for d, radius in ((2, 30.0), (3, 9.0), (4, 4.5)):
            m = transformed(random_unimodular(rng, np.eye(d, dtype=int).tolist(), 2),
                            np.eye(d, dtype=int).tolist())
            spec = EllipsoidSpec(QuadForm.from_gram(m), radius)
            n0 = count_full(spec, mode="exact").n0
            n1 = count_primitive_moebius(spec, mode="exact").n1
            for top in (2 ** 6, 2 ** 10, 2 ** 14, 2 ** 18, 2 ** 18, 2 ** 18, 2 ** 30, 2 ** 40, 2 ** 48):
                moved = transformed(random_unimodular(rng, m, top), m)
                assert max(abs(x) for row in moved for x in row) < 2 ** 53
                mspec = EllipsoidSpec(QuadForm.from_gram(moved), radius)
                assert count_full(mspec, mode="exact").n0 == n0
                assert count_primitive_moebius(mspec, mode="exact").n1 == n1
                res = count_full(mspec, mode="float")
                assert n0 <= res.n0 <= n0 + res.boundary_ambiguous


class TestPrimitive:
    def test_direct_examples(self):
        assert count_primitive_direct(EllipsoidSpec(QuadForm.identity(2), 1.0)).n1 == 4
        assert count_primitive_direct(EllipsoidSpec(QuadForm.identity(2), 2.0)).n1 == 8
        assert count_primitive_direct(EllipsoidSpec(QuadForm.identity(3), 1.0)).n1 == 6

    def test_moebius_examples(self):
        assert count_primitive_moebius(EllipsoidSpec(QuadForm.identity(2), 2.0)).n1 == 8
        assert count_primitive_moebius(EllipsoidSpec(QuadForm.identity(2), 1.0)).n1 == 4

    def test_moebius_equals_direct(self):
        rng = np.random.default_rng(14)
        for d in (2, 3, 4):
            for _ in range(17):
                form = random_form(rng, d)
                r = float(rng.uniform(0.5, 12.0 if d < 4 else 7.0))
                spec = EllipsoidSpec(form, r)
                direct = count_primitive_direct(spec)
                via = count_primitive_moebius(spec)
                assert direct.boundary_ambiguous == 0
                assert via.n1 == direct.n1

    def test_moebius_exact_on_integer_grams(self):
        q = int_form(3, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
        for r in (2.0, 5.0, 11.3):
            spec = EllipsoidSpec(q, r)
            assert count_primitive_moebius(spec, mode="exact").n1 == \
                count_primitive_direct(spec, mode="exact").n1


    def test_moebius_stops_where_terms_vanish(self, monkeypatch):
        # skewed GL_d(Z) images of the identity have a tiny lambda_min, so
        # R / sqrt(lambda_min) once planned sieves of up to 3e8 entries;
        # the spy, at the binding that count_primitive_many calls, fails
        # before any such table is allocated
        real_sieve = latcount.sieve
        for gamma, r in (([[1, 10 ** 6], [0, 1]], 300.0),
                         ([[1, 40, 0], [0, 1, 25], [0, 0, 1]], 20.0)):
            cap = 2 * (math.floor(r) + 1)

            def spy(limit, cap=cap):
                if limit > cap:
                    raise AssertionError(f"sieve({limit}) requested, above {cap}")
                return real_sieve(limit)

            monkeypatch.setattr(latcount, "sieve", spy)
            g = np.array(gamma)
            got = count_primitive_moebius(EllipsoidSpec(QuadForm.from_gram(g.T @ g), r))
            want = count_primitive_moebius(EllipsoidSpec(QuadForm.identity(len(gamma)), r))
            assert got.mode == "exact"
            assert (got.n0, got.n1) == (want.n0, want.n1)


class TestMoebiusOneWalk:
    @staticmethod
    def per_k(spec):
        """N0, N1 and the band by one count_full per squarefree k <= K."""
        f = latcount._factor(spec.form, "float")
        kmax = math.floor(spec.radius / math.sqrt(min(f.q))) + 2
        assert count_full(EllipsoidSpec(spec.form, spec.radius / kmax), mode="float").n0 == 1
        mu = latcount.sieve(kmax)
        n0, n1, band = None, 0, 0
        for k in range(1, kmax + 1):
            if mu[k]:
                res = count_full(EllipsoidSpec(spec.form, spec.radius / k), mode="float")
                n0 = res.n0 if k == 1 else n0
                n1 += int(mu[k]) * (res.n0 - 1)
                band += res.boundary_ambiguous
        return kmax, (n0, n1, band)

    def test_float_matches_per_k_sum(self, monkeypatch):
        # R^2 = Q(n e_1) with 6 | n, so the terms at k = 2, 3 and 6 sit on
        # their boundary band too
        rng = np.random.default_rng(21)
        forms = []
        for d in (2, 3, 4):
            for _ in range(3):
                form = random_form(rng, d)
                u = (np.eye(d, dtype=int) + np.triu(rng.integers(-4, 5, size=(d, d)), 1))[::-1]
                u[0] *= round(np.linalg.det(u))  # det +1
                forms += [(form, 6), (act(form, GroupElement.from_matrix(u)), 6)]
            # deep in the cusp: min_i q_i = s^-2, so K is in the hundreds
            s = 120.0
            b = np.diag([1 / s] + [1.0] * (d - 2) + [s]) @ (np.eye(d) + np.triu(
                rng.uniform(-0.5, 0.5, size=(d, d)), 1))
            forms.append((QuadForm.from_gram(b.T @ b), 30 * 6))
        bands = deep = 0
        for form, n in forms:
            radius = n * math.sqrt(form.gram[0, 0])
            spec = EllipsoidSpec(form, radius)
            kmax, want = self.per_k(spec)
            got = count_primitive_moebius(spec, mode="float")
            assert (got.n0, got.n1, got.boundary_ambiguous) == want
            assert got.mode == "float"
            with monkeypatch.context() as m:  # many blocks and many slices of pairs
                m.setattr(latcount, "BLOCK", 5)
                small = count_primitive_moebius(spec, mode="float")
            assert (small.n0, small.n1, small.boundary_ambiguous) == want
            bands += got.boundary_ambiguous > 0
            deep += kmax >= 100
        assert bands >= len(forms) // 2
        assert deep == 3

    def test_exact_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(22)
        for d, radius in ((2, 40.0), (3, 9.0), (4, 5.0)):
            for _ in range(3):
                u = np.eye(d, dtype=int) + np.triu(rng.integers(-6, 7, size=(d, d)), 1)
                spec = EllipsoidSpec(QuadForm.from_gram(u.T @ u), radius)
                got = count_primitive_moebius(spec, mode="exact")
                assert got.mode == "exact" and got.boundary_ambiguous == 0
                assert got.n1 == count_primitive_direct(spec, mode="exact").n1
                assert got.n0 == count_full(spec, mode="exact").n0
                with monkeypatch.context() as m:  # many blocks and many slices of pairs
                    m.setattr(latcount, "BLOCK", 5)
                    small = count_primitive_moebius(spec, mode="exact")
                    assert (small.n0, small.n1) == (got.n0, got.n1)
                    assert count_primitive_direct(spec, mode="exact").n1 == got.n1


class TestCountPrimitiveMany:
    @staticmethod
    def batch(d, rng):
        """Random float forms, an integral (exact) form and GL_d(Z) images
        of both; in d = 2 also exact-sampler lattices, two deep in the cusp."""
        from horocount.randlat import sample_exact_d2

        forms = [random_form(rng, d) for _ in range(5)]
        u = np.eye(d, dtype=int) + np.triu(rng.integers(-3, 4, size=(d, d)), 1)
        forms += [int_form(d, u), act(forms[0], GroupElement.from_matrix(u.T))]
        if d == 2:
            forms += [QuadForm.from_gram(s.basis.mat.T @ s.basis.mat)
                      for s in sample_exact_d2(np.random.default_rng(5), 40)]
            for y in (400.0, 9000.0):
                b = np.array([[1.0, 0.3], [0.0, y]]) / math.sqrt(y)
                forms.append(QuadForm.from_gram(b.T @ b))
        return forms

    @staticmethod
    def fields(res):
        return res.n0, res.n1, res.boundary_ambiguous, res.mode

    def test_matches_per_form(self, monkeypatch):
        rng = np.random.default_rng(23)
        for d, radius in ((2, 7.3), (3, 3.4), (4, 2.6)):
            forms = self.batch(d, rng)
            want = [self.fields(count_primitive_moebius(EllipsoidSpec(q, radius))) for q in forms]
            assert [w[1] for w in want] == [count_primitive_direct(EllipsoidSpec(q, radius)).n1
                                            for q in forms]
            assert [self.fields(r) for r in count_primitive_many(forms, radius)] == want
            for block in (5, 64):  # blocks and slices of pairs that span several forms
                with monkeypatch.context() as m:
                    m.setattr(latcount, "BLOCK", block)
                    assert [self.fields(r) for r in count_primitive_many(forms, radius)] == want
            assert {w[3] for w in want} == {"float", "exact"}
            if d == 2:
                kmax = {latcount._moebius_limit(latcount._factor(q, "auto"), radius) for q in forms}
                assert min(kmax) < 20 and max(kmax) > 600

    def test_one_float_form_beside_a_deeper_exact_form(self, monkeypatch):
        # the float pass reads fewer thresholds than the batch's largest K
        rng = np.random.default_rng(26)
        forms = [random_form(rng, 3), int_form(3, [[1, 2, -1], [0, 1, 3], [0, 0, 1]])]
        want = [self.fields(count_primitive_moebius(EllipsoidSpec(q, 4.2))) for q in forms]
        limit = latcount._moebius_limit
        monkeypatch.setattr(latcount, "_moebius_limit",
                            lambda f, r: limit(f, r) + 12 * (f.mint is not None))
        assert [self.fields(r) for r in count_primitive_many(forms, 4.2)] == want

    def test_boundary_band_per_form(self):
        # the identity in float mode has 12 points on the circle of radius 5
        rng = np.random.default_rng(24)
        forms = [random_form(rng, 2), QuadForm.identity(2), random_form(rng, 2)]
        got = count_primitive_many(forms, 5.0, mode="float")
        want = [count_primitive_moebius(EllipsoidSpec(q, 5.0), mode="float") for q in forms]
        assert [self.fields(r) for r in got] == [self.fields(r) for r in want]
        assert got[1].boundary_ambiguous > 0 and got[1].mode == "float"

    def test_pairs_only_up_to_own_k(self, monkeypatch):
        # a batch evaluates exactly the (node, k) pairs of its forms' own
        # counts: a deep-cusp form does not widen the pairing of the others
        forms = self.batch(2, np.random.default_rng(25))
        seen = []
        level0 = latcount._FloatRule.level0

        def spy(self, bounds, t1, c0, owner=None):
            seen.append(np.broadcast(bounds, t1).size)
            return level0(self, bounds, t1, c0, owner)

        monkeypatch.setattr(latcount._FloatRule, "level0", spy)
        floats = [q for q in forms if q.mint is None]
        count_primitive_many(floats, 7.3)
        batched, seen[:] = sum(seen), []
        for q in floats:
            count_primitive_moebius(EllipsoidSpec(q, 7.3))
        assert batched == sum(seen)

    def test_empty_and_invalid(self):
        assert count_primitive_many([], 3.0) == []
        with pytest.raises(CountingError, match="dimension"):
            count_primitive_many([QuadForm.identity(2), QuadForm.identity(3)], 3.0)
        for radius in (0.0, -1.0):
            with pytest.raises(CountingError):
                count_primitive_many([QuadForm.identity(2)], radius)
        with pytest.raises(CountingError):
            count_primitive_many([QuadForm.identity(2)], 3.0, mode="magic")


class TestManyRadii:
    """count_primitive_many at a list of radii against one call per radius."""

    # unsorted, with a repeated radius, a pair whose thresholds coincide
    # (R/k and 2R/(2k)) and a radius below every shortest vector (K = 2)
    RADII = {2: [10.0, 20.0, 7.3, 0.6, 10.0, 3.1],
             3: [5.0, 2.5, 3.4, 0.6, 5.0],
             4: [3.0, 1.5, 2.6, 0.6, 3.0]}

    @staticmethod
    def batches(d, rng):
        mixed = TestCountPrimitiveMany.batch(d, rng)
        floats = [q for q in mixed if q.mint is None]
        exact = [q for q in mixed if q.mint is not None] + [QuadForm.identity(d)]
        return {"mixed": mixed, "float": floats, "exact": exact}

    def test_matches_per_radius_calls(self, monkeypatch):
        fields = TestCountPrimitiveMany.fields
        rng = np.random.default_rng(27)
        for d, radii in self.RADII.items():
            for name, forms in self.batches(d, rng).items():
                want = [[fields(r) for r in count_primitive_many(forms, radius)] for radius in radii]
                if name != "float":
                    assert {w[3] for w in want[0]} >= {"exact"}
                assert min(latcount._moebius_limit(latcount._factor(q, "auto"), 0.6) for q in forms) == 2
                for block in (None, 5, 64):
                    with monkeypatch.context() as m:
                        if block:
                            m.setattr(latcount, "BLOCK", block)
                        got = count_primitive_many(forms, radii)
                    assert [[fields(r) for r in row] for row in got] == want, (d, name, block)

    def test_one_radius_list_is_the_scalar_call(self):
        fields = TestCountPrimitiveMany.fields
        forms = [QuadForm.identity(2), random_form(np.random.default_rng(28), 2)]
        one = [fields(r) for r in count_primitive_many(forms, 6.5)]
        assert [[fields(r) for r in row] for row in count_primitive_many(forms, [6.5])] == [one]
        assert count_primitive_many(forms, []) == []
        assert count_primitive_many([], [2.0, 3.0]) == [[], []]
        for radii in ([3.0, 0.0], [-1.0, 3.0]):
            with pytest.raises(CountingError, match="positive"):
                count_primitive_many(forms, radii)

    def test_pairs_no_more_than_per_radius_calls(self, monkeypatch):
        # the merged pass pairs each node with each distinct threshold it
        # reaches once; the per-radius calls pair it once per radius
        seen = []
        for rule in (latcount._FloatRule, latcount._ExactRule):
            def spy(self, bounds, key, aux, owner=None, level0=rule.level0):
                seen.append(np.broadcast(bounds, key).size)
                return level0(self, bounds, key, aux, owner)

            monkeypatch.setattr(rule, "level0", spy)
        rng = np.random.default_rng(29)
        for d, radii in self.RADII.items():
            for forms in self.batches(d, rng).values():
                seen[:] = []
                count_primitive_many(forms, radii)
                merged = sum(seen)
                seen[:] = []
                for radius in radii:
                    count_primitive_many(forms, radius)
                # strictly fewer: the radii repeat one radius and share thresholds
                assert 0 < merged < sum(seen)


class TestCountBudget:
    """Counts refuse a predicted walk or Moebius table above ENUM_BUDGET
    before they build either."""

    DEEP = [[1e-8, 0.0], [0.0, 1e8]]  # at R = 1e4: a walk of 3 nodes, a table of 1e8 + 2

    def test_refused_before_sieve_and_walk(self, monkeypatch):
        calls = []
        monkeypatch.setattr(latcount, "sieve", lambda *a: calls.append("sieve"))
        monkeypatch.setattr(latcount, "_walk", lambda *a: calls.append("walk"))
        deep, ident = QuadForm.from_gram(self.DEEP), QuadForm.identity(2)
        for run in (lambda: count_full(EllipsoidSpec(QuadForm.identity(12), 9.0)),
                    lambda: count_full(EllipsoidSpec(ident, 1e9)),
                    lambda: latcount.n0_series(EllipsoidSpec(ident, 1e9)),
                    lambda: count_primitive_many([ident] * 3, [5.0, 1e9]),
                    lambda: count_primitive_many([ident, deep, ident], 1e4),
                    lambda: error_terms(EllipsoidSpec(deep, 1e4))):
            with pytest.raises(EnumerationBudgetError, match="budget"):
                run()
        assert calls == []

    def test_deep_form_counts_without_a_table(self):
        # one v_1 = 0 row holds the 2e8 + 1 points of |v_0| <= 1e8
        res = count_full(EllipsoidSpec(QuadForm.from_gram(self.DEEP), 1e4))
        assert res.n0 - res.boundary_ambiguous <= 2 * 10 ** 8 + 3 <= res.n0


class TestPointCap:
    """Enumerations refuse a box of prod_i (2 R / sqrt(q_i) + 1) points
    above POINT_CAP before they walk."""

    DEEP = TestCountBudget.DEEP

    def test_refused_before_the_walk(self, monkeypatch):
        calls = []
        monkeypatch.setattr(latcount, "_walk", lambda *a: calls.append("walk"))
        # each walk is within ENUM_BUDGET (at most 3.6e7 nodes); the deep
        # cusp's box is 2.4e7 points, about 2e7 of them in the ellipsoid
        for form, bound in ((QuadForm.identity(2), 1e10), (QuadForm.identity(3), 9e6),
                            (QuadForm.identity(4), 3000.0), (QuadForm.from_gram(self.DEEP), 1e6)):
            with pytest.raises(EnumerationBudgetError, match="points"):
                enumerate_points(form, bound)
        assert calls == []

    def test_deep_cusp_below_the_cap(self):
        # a box of 2.04e6 points holds the 2e6 + 1 of |v_0| <= 1e6
        pts, vals = enumerate_points(QuadForm.from_gram(self.DEEP), 1e4)
        assert len(pts) == 2 * 10 ** 6 + 1 and not pts[:, 1].any()

    def test_admits_the_ci_enumerations(self):
        # verify moebius at d = 2, R = 1000 (a box of 4.0e6 points) and d = 3, R = 60 (1.8e6)
        for d, radius in ((2, 1000.0), (3, 60.0)):
            latcount._check_budget([latcount._factor(QuadForm.identity(d), "auto")], radius,
                                   latcount.POINT_CAP)


class TestRadiusBudget:
    """check_radius_budget refuses only radii that count_primitive_many
    refuses for every det-1 form."""

    @staticmethod
    def threshold(d):
        # just above the smallest radius the lower bound refuses
        log_budget = math.log(latcount.ENUM_BUDGET) + 1e-6
        return math.exp((2.0 * log_budget - (d - 1) * math.log(2.0)) / d) * (1.0 + 1e-9)

    def test_never_refuses_an_admitted_radius(self, monkeypatch):
        from horocount.acceptance import random_form
        from horocount.randlat import sample_exact_d2

        calls = []
        monkeypatch.setattr(latcount, "sieve", lambda *a: calls.append("sieve"))
        monkeypatch.setattr(latcount, "_walk", lambda *a: calls.append("walk"))
        rng = np.random.default_rng(61)
        for d in (2, 3, 4, 5):
            radius = self.threshold(d)
            latcount.check_radius_budget(d, radius * (1.0 - 1e-6))
            with pytest.raises(EnumerationBudgetError, match="budget"):
                latcount.check_radius_budget(d, radius)
            forms = [random_form(rng, d) for _ in range(20)]
            if d == 2:
                forms += QuadForm.from_grams([s.basis.mat.T @ s.basis.mat
                                              for s in sample_exact_d2(rng, 20)])
            for e in (1e-7, 1e-3, 1.0, 1e4):  # deep cusps
                diag = np.ones(d)
                diag[0], diag[-1] = e, 1.0 / e
                forms.append(QuadForm.from_gram(np.diag(diag)))
            for form in forms:
                with pytest.raises(EnumerationBudgetError):
                    count_primitive_many([form], radius)
        assert calls == []


class TestShells:
    def test_unit_circle_shell(self):
        r0, r1 = shell_table(QuadForm.identity(2), 9)
        assert r0[[0, 1, 2, 4, 5]].tolist() == [1, 4, 4, 4, 8]
        assert r1[[0, 1, 2, 4, 5]].tolist() == [0, 4, 4, 0, 8]

    def test_non_represented_level(self):
        r0, r1 = shell_table(QuadForm.identity(2), 9)
        # 3 is not a sum of two squares
        assert r0[3] == 0 and r1[3] == 0

    def test_shell_inversion_identity(self):
        r0, r1 = shell_table(QuadForm.identity(2), 36)
        for x in range(1, 37):
            rhs = sum(r1[x // (k * k)] for k in range(1, int(math.isqrt(x)) + 1)
                      if x % (k * k) == 0)
            assert r0[x] == rhs

    def test_rejects_float_form(self):
        # a float form has no integer levels to read
        form = QuadForm.from_gram([[2.0, 0.3], [0.3, 1.0]])
        assert form.mint is None
        with pytest.raises(CountingError, match="integer gram"):
            shell_table(form, 2.0)

    def test_rejects_negative_top(self, monkeypatch):
        # refused with its top named, before any factor or walk
        calls = []
        monkeypatch.setattr(latcount, "_factors", lambda *a: calls.append("factor"))
        for top in (-1, -0.5, math.nan):
            with pytest.raises(CountingError, match=f"top >= 0, got {top!r}"):
                shell_table(QuadForm.identity(2), top)
        assert calls == []

    @pytest.mark.parametrize("d, top", [(2, 400), (3, 300)])
    def test_matches_per_level_scan(self, d, top):
        q = act(QuadForm.identity(d), GroupElement.from_matrix(np.eye(d) + np.eye(d, k=1)))
        pts, vals = enumerate_points(q, top, mode="exact")
        prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
        levels = list(range(top + 1))
        r0, r1 = shell_table(q, top)
        assert r0.tolist() == [int((vals == x).sum()) for x in levels]
        assert r1.tolist() == [int(((vals == x) & prim).sum()) for x in levels]

    @pytest.mark.parametrize("d, top", [(2, 5000), (3, 300), (4, 60)])
    def test_matches_full_enumeration_bincount(self, d, top):
        # shell_table bins the half v_{d-1} >= 0 of the reduced walk; its tables
        # equal the bincounts of the full enumeration in original coordinates
        eye = np.eye(d, dtype=int)
        gamma = (eye + 2 * np.eye(d, k=1, dtype=int)) @ (eye - np.eye(d, k=-1, dtype=int))
        for form in (QuadForm.identity(d), int_form(d, gamma.tolist())):
            pts, vals = enumerate_points(form, top, mode="exact")
            prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
            r0, r1 = shell_table(form, top)
            assert r0.dtype == r1.dtype == np.int64
            assert np.array_equal(r0, np.bincount(vals, minlength=top + 1))
            assert np.array_equal(r1, np.bincount(vals[prim], minlength=top + 1))


class TestErrorTerms:
    def test_example_values(self):
        res = error_terms(EllipsoidSpec(QuadForm.identity(2), 2.0))
        assert res.e0 == pytest.approx(13.0 - 4.0 * math.pi, rel=1e-12)
        assert res.e1 == pytest.approx(8.0 - 24.0 / math.pi, rel=1e-12)

    def test_relative_error_shrinks(self):
        cst = constants(2)
        rel = []
        for r in (50.0, 400.0):
            res = error_terms(EllipsoidSpec(QuadForm.identity(2), r), mode="exact")
            rel.append(abs(res.e0) / r ** 2)
        assert rel[1] < rel[0]


class TestKnownValues:
    def test_gauss_circle_radius_100(self):
        # classical disc count, cross-checked against an independent
        # numpy box scan
        spec = EllipsoidSpec(QuadForm.identity(2), 100.0)
        n0 = count_full(spec, mode="exact").n0
        assert n0 == 31417
        xs = np.arange(-100, 101)
        vals = xs[:, None] ** 2 + xs[None, :] ** 2
        assert int((vals <= 10000).sum()) == n0

    def test_ball_d3_radius_10(self):
        spec = EllipsoidSpec(QuadForm.identity(3), 10.0)
        n0 = count_full(spec, mode="exact").n0
        xs = np.arange(-10, 11)
        vals = (xs[:, None, None] ** 2 + xs[None, :, None] ** 2
                + xs[None, None, :] ** 2)
        assert n0 == int((vals <= 100).sum())
        assert count_full(spec, mode="float").n0 == n0

    def test_dim_five_counting(self):
        spec = EllipsoidSpec(QuadForm.identity(5), 2.5)
        n0 = count_full(spec, mode="exact").n0
        xs = np.arange(-3, 4)
        grids = np.meshgrid(*([xs] * 5), indexing="ij")
        vals = sum(g ** 2 for g in grids)
        assert n0 == int((vals <= 6.25).sum())


class TestFactors:
    """A float gram keeps u = I when its own Cholesky factor passes LLL's
    size and Lovasz tests; only the others take an lll_reduce call."""

    @staticmethod
    def reduced(q, m, rel=0.0):
        """LLL's two tests, read from a factor's q and m, each bound widened
        by the relative rel."""
        d = len(q)
        size = all(abs(m[i][k]) <= (0.5 + LLL_SIZE_SLACK) * (1.0 + rel) for i in range(d) for k in range(i))
        return size and all(q[k] * (1.0 + rel) >= (LLL_DELTA - m[k][k - 1] * m[k][k - 1]) * q[k - 1]
                            for k in range(1, d))

    @staticmethod
    def own_factor(gram):
        low = np.linalg.cholesky(gram)
        diag = np.diagonal(low)
        return (diag ** 2).tolist(), (low / diag).tolist()

    @staticmethod
    def stacks(monkeypatch):
        """Forms by stack: exact d = 2 samples, the grams of walk steps,
        near-tie grams, skewed float grams and one integral image."""
        from horocount import randlat
        from test_quadform import near_tie_grams, random_group_element

        walk = []
        lll = randlat.lll_reduce
        rng = np.random.default_rng(23)
        with monkeypatch.context() as patch:
            patch.setattr(randlat, "lll_reduce", lambda g: walk.append(g.copy()) or lll(g))
            for d in (2, 3, 4, 5):
                randlat.sample_walk(rng, d, burn_in=100, thin=1, n=10)
        stacks = {"exact": [s.basis.mat.T @ s.basis.mat for s in randlat.sample_exact_d2(rng, 300)]}
        for d in (2, 3, 4, 5):
            stacks[f"walk{d}"] = [g for g in walk if len(g) == d]
            stacks[f"near_tie{d}"] = near_tie_grams(rng, d, 150)
            stacks[f"skewed{d}"] = []
            for _ in range(30):
                shear = np.eye(d) + np.triu(rng.integers(-20, 21, (d, d)), 1)
                g = random_group_element(rng, d, scale=0.5).mat @ shear
                stacks[f"skewed{d}"].append(g.T @ g)
        out = {name: QuadForm.from_grams(np.array(grams)) for name, grams in stacks.items()}
        # an integral image, reduced in Python ints and counted in float mode
        out["skewed3"].append(int_form(3, [[1, 2, -1], [0, 1, 3], [0, 0, 1]]))
        return out

    def test_one_reduced_form_takes_no_lll_call(self, monkeypatch):
        calls = []
        lll = latcount.lll_reduce
        monkeypatch.setattr(latcount, "lll_reduce", lambda g: calls.append(1) or lll(g))
        spec = EllipsoidSpec(QuadForm.from_gram([[1.3, 0.1], [0.1, 1.0]]), 6.0)
        assert count_primitive_moebius(spec).n1 == count_primitive_direct(spec).n1
        assert count_full(spec).n0 > 0 and calls == []

    def test_reduces_exactly_the_forms_whose_own_factor_fails(self, monkeypatch):
        called = []
        lll = latcount.lll_reduce
        monkeypatch.setattr(latcount, "lll_reduce", lambda g: called.append(id(g)) or lll(g))
        for name, forms in self.stacks(monkeypatch).items():
            d = forms[0].dim
            eye = [[int(i == j) for j in range(d)] for i in range(d)]
            called.clear()
            fs = latcount._factors(forms, "float")
            fails = {id(form.gram) for form in forms
                     if form.mint is None and not self.reduced(*self.own_factor(form.gram))}
            assert {i for i in called if i not in {id(form.mint) for form in forms}} == fails
            assert len(called) == len(fails) + sum(form.mint is not None for form in forms)
            # u = I passes the tests on the own factor where no call was made;
            # where lll_reduce, on its own Gram-Schmidt, took no step, the
            # gram lies on a bound to within rounding
            for form, f in zip(forms, fs):
                assert f.mint is None
                if f.u == eye:
                    assert self.reduced(f.q, f.m, 0.0 if id(form.gram) not in fails else 1e-12)
            # a stack gives each form the factor it gets alone, bit for bit
            assert [repr(vars(f)) for f in fs] == [repr(vars(latcount._factor(form, "float"))) for form in forms]
            if name == "exact":
                assert not fails
            if "near_tie" in name:
                assert 0 < len(fails) < len(forms)

    def test_near_tie_counts_match_direct(self):
        from test_quadform import near_tie_grams

        rng = np.random.default_rng(29)
        for d in (2, 3, 4, 5):
            forms = QuadForm.from_grams(np.array(near_tie_grams(rng, d, 150)))
            many = count_primitive_many(forms, 3.0, mode="float")
            clear = [(res.n1, count_primitive_direct(EllipsoidSpec(form, 3.0), "float").n1)
                     for form, res in zip(forms, many) if res.boundary_ambiguous == 0]
            assert len(clear) > 120 and all(a == b for a, b in clear)


class TestArrayWalk:
    """latcount._walk yields the rows of the recursion over levels in the
    half v_{d-1} >= 0, bit for bit and in its order, in blocks of at most
    BLOCK level-1 nodes."""

    @staticmethod
    def walk(fs, top):
        rows = []
        for block in latcount._walk(fs, top):
            owner, suffix, lo, hi = block[:4]
            assert suffix.dtype == np.int64 and suffix.shape == (len(lo), fs[0].dim - 2)
            assert len(lo) == 1 or int((hi - lo + 1).sum()) <= latcount.BLOCK
            rows += [hex_row(*row) for row in zip(*(col.tolist() for col in block))]
        return rows

    @staticmethod
    def reference(fs, top):
        return [hex_row(i, *row) for i, f in enumerate(fs) for row in reference_half(f, top)]

    @staticmethod
    def cases():
        rng = np.random.default_rng(61)
        tops = {2: 400.0, 3: 150.5, 4: 40.0, 5: 16.3, 6: 9.0}
        for d, top in tops.items():
            shear = np.eye(d, dtype=int) + np.eye(d, k=1, dtype=int) + 2 * np.eye(d, k=2, dtype=int)
            for form in (QuadForm.identity(d), int_form(d, shear.tolist())):
                for mode in ("exact", "float"):
                    yield latcount._factor(form, mode), top
            for _ in range(2):
                yield latcount._factor(random_form(rng, d), "float"), top
        # several chunks per level at the default BLOCK
        yield latcount._factor(QuadForm.identity(5), "exact"), 400.0

    @pytest.mark.parametrize("block", [latcount.BLOCK, 5])
    def test_matches_recursion(self, monkeypatch, block):
        monkeypatch.setattr(latcount, "BLOCK", block)
        # each expansion of a level takes at most BLOCK children, or one parent's
        sizes = []
        ragged = latcount.ragged
        monkeypatch.setattr(latcount, "ragged", lambda lo, hi: sizes.append(
            (len(lo), int((hi - lo + 1).sum()))) or ragged(lo, hi))
        for f, top in self.cases():
            rows = self.walk([f], top)
            assert rows == self.reference([f], top)
            assert len(rows) > 1 if f.dim > 2 else len(rows) == 1
        assert sizes and all(parents == 1 or size <= block for parents, size in sizes)
        if block == 5:  # a parent with more children than BLOCK goes alone
            assert any(parents == 1 and size > block for parents, size in sizes)

    @pytest.mark.parametrize("block", [latcount.BLOCK, 5])
    def test_batch_matches_recursion_per_form(self, monkeypatch, block):
        # forms in turn, with trees from a few rows to thousands
        monkeypatch.setattr(latcount, "BLOCK", block)
        rng = np.random.default_rng(62)
        for d, top in ((3, 400.0), (4, 100.0)):
            forms = [random_form(rng, d, scale) for scale in (0.25, 1.5, 0.25, 0.05, 2.0)]
            # a deep cusp: the levels above 0 hold a handful of nodes each
            forms.insert(2, QuadForm.from_gram(np.diag([1e-6] + [1e6 ** (1 / (d - 1))] * (d - 1))))
            fs = latcount._factors(forms, "float")
            sizes = [sum(hi - lo + 1 for _, lo, hi, *_ in reference_half(f, top)) for f in fs]
            assert max(sizes) > 20 * min(sizes)
            assert self.walk(fs, top) == self.reference(fs, top)

    def test_squares_by_product(self):
        # C pow (Python's ** 2) and the product x * x differ in the last bit
        # on about one square in a thousand; the partial sums of these
        # 22,000 level-2 nodes of the half walks, with non-integer centres from
        # d = 4 on, take the product's bits where they differ
        rng = np.random.default_rng(5)
        fs = latcount._factors([random_form(rng, 4) for _ in range(360)], "float")
        want = self.reference(fs, 40.0)
        by_pow = [hex_row(i, *row) for i, f in enumerate(fs) for row in reference_half(f, 40.0, lambda x: x ** 2)]
        assert len(want) > 20_000 and want != by_pow
        assert self.walk(fs, 40.0) == want


class TestFloatNodes:
    """_FloatRule.nodes keys each level-1 node by t + q1 (v1 + c1)^2 with
    the square one product, bit for bit; reference_count reuses nodes and
    cannot see its arithmetic."""

    def test_keys_square_by_product(self):
        rng = np.random.default_rng(73)
        fs = latcount._factors([random_form(rng, 3) for _ in range(150)], "float")
        for rule_fs in (fs, fs[:1]):
            rule = latcount._FloatRule(rule_fs, [60.0])
            got, want, by_pow = [], [], []
            for rows in latcount._walk(rule_fs, 60.0):
                at, v1 = latcount.ragged(rows[2], rows[3])
                owner = None if len(rule_fs) == 1 else rows[0][at]
                key, c0 = rule.nodes(rows, at, v1.astype(float), owner)
                got += zip(key.tolist(), c0.tolist())
                for i, v, c1, c, t in zip(rows[0][at].tolist(), v1.tolist(),
                                          *(col[at].tolist() for col in rows[4:])):
                    q1, m10 = rule_fs[i].q[1], rule_fs[i].m[1][0]
                    want.append((t + q1 * ((v + c1) * (v + c1)), c + m10 * v))
                    by_pow.append(t + q1 * (v + c1) ** 2)
            assert got == want
            if rule_fs is fs:
                assert len(want) > 15_000 and [k for k, _ in want] != by_pow


def reference_count(rule):
    """Reference for latcount._count on a one-form rule: the rule's level-0
    counts summed over every node of the full walk (reference_walk, both
    signs of v_{d-1}) at every bound, as int64 totals per band edge and
    threshold."""
    f = rule.fs[0]
    rows = list(reference_walk(f, rule.top))
    suffix, lo, hi, c1, c0, t = (np.array(col) for col in zip(*rows))
    cols = (None, suffix.astype(np.int64).reshape(len(rows), f.dim - 2), lo, hi, c1, c0, t)
    at, v1 = latcount.ragged(lo, hi)
    key, aux = rule.nodes(cols, at, v1.astype(rule.bounds.dtype), None)
    totals = np.zeros(rule.bounds.shape, dtype=np.int64)
    for j, k in np.ndindex(rule.bounds.shape):
        totals[j, k] = int(rule.level0(rule.bounds[j, k], key, aux)[1].sum())
    return totals


def reference_points(form, bound, mode):
    """Reference for enumerate_points: the rule's level-0 intervals and
    values over every node of the full walk (reference_walk, both signs of
    v_{d-1}), in its depth-first order, mapped back by u."""
    f = latcount._factor(form, mode)
    bound = float(bound) if f.mint is None else math.floor(bound)
    rule = latcount._FloatRule([f], [bound]) if f.mint is None else latcount._ExactRule(f, [bound])
    rows = list(reference_walk(f, rule.top))
    suffix, lo, hi, c1, c0, t = (np.array(col) for col in zip(*rows))
    suffix = suffix.astype(np.int64).reshape(len(rows), f.dim - 2)
    at, v1 = latcount.ragged(lo, hi)
    key, aux = rule.nodes((None, suffix, lo, hi, c1, c0, t), at, v1.astype(rule.bounds.dtype), None)
    lo0, n = (x[0] for x in rule.level0(rule.bounds, key, aux))
    node, v0 = latcount.ragged(lo0.astype(np.int64), (lo0 + n - 1).astype(np.int64))
    vals = rule.values(v0.astype(rule.bounds.dtype), key[node], aux[node])
    w = np.column_stack([v0, v1[node], suffix[at[node]]])
    keep = vals <= bound
    return w[keep] @ np.array(f.u, dtype=np.int64).T, vals[keep]


def float_rule(fs, xs):
    """The float rule of latcount._n0_bands at the thresholds xs."""
    tol = [latcount._float_tolerance(x, fs[0].dim) for x in xs]
    return latcount._FloatRule(fs, [x + e for x, e in zip(xs, tol)], [x - e for x, e in zip(xs, tol)])


class TestHalfWalk:
    """Every walk covers only v_{d-1} >= 0, and _count weights each node by
    the +-v symmetry; its totals equal the full walk's sum bit for bit, in
    float mode too, since round-to-nearest is symmetric under negation."""

    @staticmethod
    def forms(d):
        gamma = (np.eye(d, dtype=int) + 3 * np.eye(d, k=1, dtype=int) + np.eye(d, k=2, dtype=int)).tolist()
        return (QuadForm.identity(d), int_form(d, gamma),
                QuadForm.from_gram(np.diag([1e-8] + [1e8 ** (1 / (d - 1))] * (d - 1))))

    @pytest.mark.parametrize("d, radius", [(2, 23.0), (3, 9.0), (4, 5.0), (5, 3.0)])
    def test_totals_match_full_walk(self, d, radius):
        ks = range(1, math.floor(radius) + 3)
        ambiguous = 0
        for form in self.forms(d):
            for mode in ("exact", "float") if form.mint is not None else ("float",):
                f = latcount._factor(form, mode)
                # float thresholds (R/k)^2 at integer R^2, where the identity has
                # boundary points; exact thresholds floor(R^2) // k^2
                xs = latcount._thresholds(f, radius, ks)
                rule = float_rule([f], xs) if mode == "float" else latcount._ExactRule(f, xs)
                got = latcount._count(rule)
                assert got.dtype == np.int64
                assert np.array_equal(got, reference_count(rule))
                ambiguous += int((got[0] - got[-1]).sum())
        assert ambiguous > 0

    def test_float_batch_matches_full_walk_per_form(self):
        rng = np.random.default_rng(71)
        for d, radii in ((2, (6.0, 9.5, 13.0)), (3, (3.0, 4.5, 6.0)), (4, (2.0, 3.0, 3.5))):
            forms = [random_form(rng, d, 0.5) for _ in range(22)]
            forms.insert(5, QuadForm.from_gram(np.diag([1e-8] + [1e8 ** (1 / (d - 1))] * (d - 1))))
            fs = latcount._factors(forms, "float")
            for radius in radii:
                xs = [(radius / k) ** 2 for k in range(1, 9)]
                sizes = rng.integers(1, len(xs) + 1, size=len(fs))
                got = latcount._count(float_rule(fs, xs), sizes)
                starts = np.cumsum(sizes) - sizes
                for f, start, size in zip(fs, starts, sizes):
                    want = reference_count(float_rule([f], xs[:size]))
                    assert np.array_equal(got[:, start:start + size], want)

    def test_sheared_images_count_as_their_source(self):
        # GL_d(Z) images: the exact counts equal the identity's, each from its half walk
        rng = np.random.default_rng(72)
        for d, radius in ((2, 31.0), (3, 8.5), (4, 4.5), (5, 3.2)):
            want = count_full(EllipsoidSpec(QuadForm.identity(d), radius), "exact").n0
            eye = np.eye(d, dtype=int).tolist()
            for _ in range(3):
                image = QuadForm.from_gram(transformed(random_unimodular(rng, eye, 10 ** 6), eye))
                f = latcount._factor(image, "exact")
                rule = latcount._ExactRule(f, latcount._thresholds(f, radius, [1]))
                assert latcount._count(rule)[0, 0] == reference_count(rule)[0, 0] == want

    def test_count_walks_only_the_half(self, monkeypatch):
        tops = []
        walk = latcount._walk

        def recorded(fs, top):
            for rows in walk(fs, top):
                suffix, lo = rows[1], rows[2]
                tops.append((suffix[:, -1] if suffix.shape[1] else lo).min())
                yield rows

        monkeypatch.setattr(latcount, "_walk", recorded)
        for d in (2, 3, 4):
            count_full(EllipsoidSpec(QuadForm.identity(d), 4.0), "float")
            count_primitive_moebius(EllipsoidSpec(QuadForm.identity(d), 4.0), "exact")
            # enumerations and shell tables walk the half as well
            enumerate_points(QuadForm.identity(d), 16.0, "float")
            shell_table(QuadForm.identity(d), 16)
        assert tops and min(tops) == 0


class TestReferenceExponent:
    def test_rejects_small(self):
        # the published counting exponent is read from quadform.Constants,
        # which refuses dimensions below two
        with pytest.raises(GeometryError):
            _ = constants(1).exponent_counting


class TestEnumerate:
    def test_values_match_form(self):
        rng = np.random.default_rng(15)
        form = random_form(rng, 3)
        for bound in (9.0, -1, -1e-300):
            pts, vals = enumerate_points(form, bound)
            assert pts.dtype == np.int64 and pts.shape == (len(vals), 3)
            assert len(pts) > 50 if bound > 0 else len(pts) == 0  # a negative bound holds no point
            for p, v in zip(pts[:50], vals[:50]):
                assert form.evaluate(p) == pytest.approx(v, abs=1e-9)
            assert np.all(vals <= bound + 1e-9)

    @pytest.mark.parametrize("d, bound", [(2, 400), (3, 60), (4, 20), (5, 9)])
    @pytest.mark.parametrize("block", [latcount.BLOCK, 5])
    def test_mirror_matches_full_recursion(self, monkeypatch, d, bound, block):
        # the full set rebuilt from the half walk is the full recursion's
        # enumeration byte for byte: its points, their order and their values
        monkeypatch.setattr(latcount, "BLOCK", block)
        rng = np.random.default_rng(80 + d)
        gamma = (np.eye(d, dtype=int) + 3 * np.eye(d, k=1, dtype=int) + np.eye(d, k=2, dtype=int)).tolist()
        cases = [(form, mode) for form in (QuadForm.identity(d), int_form(d, gamma)) for mode in ("exact", "float")]
        cases += [(random_form(rng, d, 0.5), "float") for _ in range(3)]
        for form, mode in cases:
            pts, vals = enumerate_points(form, bound, mode)
            want_pts, want_vals = reference_points(form, bound, mode)
            assert len(pts) > 1 and pts.dtype == want_pts.dtype and vals.dtype == want_vals.dtype
            assert pts.tobytes() == want_pts.tobytes() and vals.tobytes() == want_vals.tobytes()

    @pytest.mark.parametrize("d, bound", [(2, 400), (3, 60), (4, 20), (5, 9)])
    @pytest.mark.parametrize("block", [latcount.BLOCK, 5])
    def test_reduced_points_are_the_half_lattice(self, monkeypatch, d, bound, block):
        # _reduced_points gives the origin first, then one of each +-w, and
        # the half with its mirror is the full recursion's enumeration byte
        # for byte; at bound 0 the half is the origin alone
        monkeypatch.setattr(latcount, "BLOCK", block)
        rng = np.random.default_rng(90 + d)
        gamma = (np.eye(d, dtype=int) + 3 * np.eye(d, k=1, dtype=int) + np.eye(d, k=2, dtype=int)).tolist()
        cases = [(form, mode) for form in (QuadForm.identity(d), int_form(d, gamma)) for mode in ("exact", "float")]
        cases += [(random_form(rng, d, 0.5), "float") for _ in range(3)]
        for form, mode in cases:
            u, half, vals = latcount._reduced_points(form, bound, mode)
            assert not half[0].any() and vals[0] == 0
            rest = {tuple(w) for w in half[1:].tolist()}
            assert len(rest) == len(half) - 1 > 0 and not rest & {tuple(w) for w in (-half).tolist()}
            pts = np.concatenate([-half[:0:-1], half]) @ np.array(u, dtype=np.int64).T
            want_pts, want_vals = reference_points(form, bound, mode)
            assert pts.tobytes() == want_pts.tobytes()
            assert np.concatenate([vals[:0:-1], vals]).tobytes() == want_vals.tobytes()
            _, origin, _ = latcount._reduced_points(form, 0, mode)
            assert origin.tolist() == [[0] * d]

    def test_exact_and_float_agree(self, monkeypatch):
        # integer grams: float mode at B + 1/2 finds the exact points with
        # Q <= B; the half walks of d = 3 and 4 span two leaf blocks, and many
        # more with BLOCK = 5
        cases = (([[2, 1], [1, 1]], 4000),
                 ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 3000),
                 ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 200))
        for gamma, b in cases:
            form = int_form(len(gamma), gamma)
            if len(gamma) > 2:
                walk = latcount._walk([latcount._factor(form, "float")], b + 0.5)
                assert sum(int((hi - lo + 1).sum()) for _, _, lo, hi, *_ in walk) > latcount.BLOCK
            for block in (latcount.BLOCK, 5):
                with monkeypatch.context() as m:
                    m.setattr(latcount, "BLOCK", block)
                    pe, ve = enumerate_points(form, b + 0.5, mode="exact")
                    pf, vf = enumerate_points(form, b + 0.5, mode="float")
                oe, of = np.lexsort(pe.T), np.lexsort(pf.T)
                assert np.array_equal(pe[oe], pf[of])
                assert np.array_equal(ve[oe], np.rint(vf[of]).astype(np.int64))
                assert int(ve.max()) <= b

    def test_exact_range_check_raises(self, monkeypatch):
        # I_3 at R = 40: a0 n = 1600, and the walk reaches coordinates of
        # 40, so c_abs V^2 >= 2 * 40^2.  A limit below either refuses the
        # exact count rather than returning a number; float mode is untouched.
        spec = EllipsoidSpec(QuadForm.identity(3), 40.0)
        want = count_full(spec, mode="exact").n0
        for limit, check in ((1000, "threshold"), (2000, "coordinates")):
            with monkeypatch.context() as m:
                m.setattr(latcount, "INT64_LIMIT", limit)
                with pytest.raises(CountingError, match=check):
                    count_full(spec, mode="exact")
                with pytest.raises(CountingError, match=check):
                    enumerate_points(spec.form, 1600, mode="exact")
                assert count_full(spec, mode="float").n0 == want

    def test_exact_roots_match_isqrt(self):
        # the exact rule's intervals match math.isqrt on both sides of 2^52,
        # one block each: below, the truncated float root alone; at or above,
        # where a float root can be one off, with its integer corrections
        f = latcount._factor(QuadForm.identity(2), "exact")
        rule = latcount._ExactRule(f, [latcount.INT64_LIMIT - 1])
        bound = int(rule.bounds[0, 0])
        near = lambda rs, es: [r * r + e for r in rs for e in es]
        below = near((1, 2, 3, 10, 1000, 2 ** 20 + 3, 46_341, 2 ** 26 - 1), (-1, 0, 1)) + [
            0, 2, 2 ** 52 - 2, 2 ** 52 - 1]
        above = near((2 ** 26 + 1, 2 ** 26 + 5, 3 * 2 ** 26 + 1), (-1, 0, 1)) + [2 ** 52, 2 ** 52 + 1]
        top = [r * r + e for r in (2 ** 31 - 1, 2 ** 31 - 2, 1_518_500_250, 2 ** 30 + 7)
               for e in (-1, 0, 1, 2 * r)]
        assert max(below) < 2 ** 52 <= min(above) and max(top) < 2 ** 62
        for discs in (below, above, top):
            for b in (0, 1, -5):
                key = np.array([bound - x for x in discs], dtype=np.int64)
                lo, width = rule.level0(rule.bounds, key, np.full(len(discs), b, dtype=np.int64))
                roots = [math.isqrt(x) for x in discs]
                assert lo[0].tolist() == [-(s + b) for s in roots]
                assert width[0].tolist() == [2 * s + 1 for s in roots]

    @pytest.mark.parametrize("d, radius", [(2, 30), (3, 9), (4, 5)])
    def test_points_in_full_depth_first_order(self, d, radius):
        # enumerate_points keeps the full walk: both signs of v_{d-1}, each point
        # once, in the depth-first order of the reduced coordinates w (v = u w),
        # lexicographic in (w_{d-1}, ..., w_0), so point m - 1 - i is minus
        # point i; fiber_integral takes the points after the middle one, the
        # origin, as one of each +-w
        gamma = (np.eye(d, dtype=int) + 3 * np.eye(d, k=1, dtype=int) + np.eye(d, k=2, dtype=int)).tolist()
        for form in (QuadForm.identity(d), int_form(d, gamma)):
            gram = np.array(form.mint, dtype=np.int64)
            for mode in ("exact", "float"):
                pts, vals = enumerate_points(form, radius ** 2, mode=mode)
                u = np.array(latcount._factor(form, mode).u, dtype=float)
                w = np.rint(pts @ np.linalg.inv(u).T).astype(np.int64)
                assert np.array_equal(np.lexsort(w.T), np.arange(len(w)))
                assert np.array_equal(pts[::-1], -pts) and np.array_equal(vals[::-1], vals)
                assert len(pts) == count_full(EllipsoidSpec(form, radius), "exact").n0
                assert np.array_equal(pts[np.lexsort(pts.T)], -pts[np.lexsort(-pts.T)])
                exact = ((pts @ gram) * pts).sum(axis=1)
                if mode == "exact":
                    assert np.array_equal(vals, exact)
                else:
                    assert np.allclose(vals, exact, rtol=0, atol=1e-9 * radius ** 2)

    def test_exact_values_are_integers(self):
        pts, vals = enumerate_points(QuadForm.identity(2), 25, mode="exact")
        assert vals.dtype.kind == "i"
        assert int(vals.max()) <= 25
        assert len(pts) == 81
