import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from horocount.quadform import (
    LLL_DELTA,
    LLL_SIZE_SLACK,
    LLL_STEP_LIMIT,
    Constants,
    GeometryError,
    GroupElement,
    QuadForm,
    act,
    busemann_r,
    chi_d,
    constants,
    geodesic_r,
    lll_reduce,
    rate_lambda,
    rate_mu,
    zeta,
)
from horocount import randlat
from horocount.randlat import sample_exact_d2, sample_walk
from test_latcount import random_unimodular


def random_group_element(rng, d, scale=0.4):
    m = np.eye(d) + scale * rng.standard_normal((d, d))
    det = np.linalg.det(m)
    if det < 0:
        m[:, 0] = -m[:, 0]
        det = -det
    return GroupElement.from_matrix(m / det ** (1.0 / d))


def solvable_rep(q):
    """Lower triangular L with positive diagonal and L^T L = q.gram (a
    Cholesky factor of the gram with rows and columns reversed)."""
    return np.linalg.cholesky(q.gram[::-1, ::-1]).T[::-1, ::-1]


def phi_t(q, t):
    """Level shift along the first ray: pushes the level-a horosphere to
    level a + t (left multiplication by a_{-t} on the solvable rep)."""
    shifted = geodesic_r(q.dim, -t).mat @ solvable_rep(q)
    return QuadForm.from_gram(shifted.T @ shifted)


def geodesic_rho(d, t):
    """The second singular ray, diag(e^{mt/2}, e^{-lt/2}, ..., e^{-lt/2})."""
    diag = [math.exp(0.5 * rate_mu(d) * t)] + [math.exp(-0.5 * rate_lambda(d) * t)] * (d - 1)
    return GroupElement(d, np.diag(diag))


def busemann_rho(q):
    """Busemann function of the second ray: sqrt(d/(d-1)) * log det of the
    trailing (d-1) x (d-1) principal minor of the gram matrix."""
    d = q.dim
    return math.sqrt(d / (d - 1)) * math.log(float(np.linalg.det(q.gram[1:, 1:])))


@dataclasses.dataclass(frozen=True, eq=False)
class IwasawaCoord:
    """Solvable coordinates (t, a', n) of a form, adapted to the first ray:
    t the Busemann level, aprime the log-diagonal of the A' block (length
    d-1, sums to zero; stored undoubled), n the strictly lower triangular
    part of the unit lower triangular factor (G = K A N)."""

    t: float
    aprime: np.ndarray
    n: np.ndarray


def iwasawa_decompose(g):
    """Solvable coordinates of SO(d).g: the solvable rep of Q_0.g factors
    as a_{-t} diag(e^{a'}, 1) n with n unit lower triangular."""
    d = g.dim
    lower = solvable_rep(act(QuadForm.identity(d), g))
    diag = np.diagonal(lower).copy()
    t = 2.0 * math.log(diag[-1]) / rate_mu(d)
    aprime = np.log(diag[:-1]) + 0.5 * rate_lambda(d) * t
    return IwasawaCoord(t=t, aprime=aprime, n=np.tril(lower / diag[:, None], k=-1))


def iwasawa_compose(coord):
    """Inverse of iwasawa_decompose up to the SO(d) fiber."""
    d = coord.n.shape[0]
    diag = np.empty(d)
    diag[:-1] = np.exp(coord.aprime - 0.5 * rate_lambda(d) * coord.t)
    diag[-1] = math.exp(0.5 * rate_mu(d) * coord.t)
    return GroupElement(d, diag[:, None] * (np.eye(d) + np.tril(coord.n, k=-1)))


def a_part_chi(mat):
    """chi_d of the A-part of mat's Iwasawa decomposition, renormalised to
    determinant one."""
    d = mat.shape[0]
    coord = iwasawa_decompose(GroupElement(d, mat))
    a_part = iwasawa_compose(IwasawaCoord(coord.t, coord.aprime, np.zeros((d, d)))).mat
    return chi_d(GroupElement(d, a_part / a_part.diagonal().prod() ** (1.0 / d)))


def reference_from_gram(mat):
    """(gram, mint) of QuadForm.from_gram on one valid gram, one step at a
    time: symmetrize, round, else normalize by the float det and round."""
    def rounding(m):
        r = np.rint(m)
        if not float(np.max(np.abs(m - r))) <= 1e-9 * max(1.0, float(np.max(np.abs(m)))):
            return None
        mint = tuple(tuple(int(x) for x in row) for row in r)
        return mint if round(np.linalg.det(np.array(mint, dtype=float))) == 1 else None

    m = np.array(mat, dtype=float)
    m = 0.5 * (m + m.T)
    mint = rounding(m)
    if mint is not None:
        return np.array(mint, dtype=float), mint
    m = m / float(np.linalg.det(m)) ** (1.0 / m.shape[0])
    return m, rounding(m)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return GroupElement.from_matrix(q)


def near_tie_grams(rng, d, n):
    """Grams L diag(r) L^T whose Gram-Schmidt puts one mu_kj of the last
    row k = d - 1, which has the longest sums, on the size bound 1/2 +
    LLL_SIZE_SLACK, or r_k on the Lovasz bound, to within rounding: there
    the last bit of a Gram-Schmidt value decides a step."""
    out = []
    k = d - 1
    for _ in range(n):
        low = np.eye(d) + np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1)
        r = rng.uniform(0.5, 2.0, d)
        if rng.random() < 0.5:
            low[k, int(rng.integers(0, k))] = rng.choice((-1.0, 1.0)) * (0.5 + LLL_SIZE_SLACK)
        else:
            r[k] = (LLL_DELTA - low[k, k - 1] ** 2) * r[k - 1]
        out.append(low @ np.diag(r) @ low.T)
    return out


def typed(x):
    """Nested lists with each scalar as (type, repr), so -0.0 differs from 0.0."""
    return [typed(y) for y in x] if isinstance(x, (list, tuple)) else (type(x), repr(x))


def reference_lll_reduce(gram):
    """lll_reduce in its plain form, with generator sums, as the reference
    it must equal bit for bit: walk samples depend on the last bits of
    every reduction, so (u, reduced) and their element types must match."""
    # an array is read as Python scalars at once: per-element numpy
    # scalars cost more than the reduction of a small gram
    rows = gram.tolist() if isinstance(gram, np.ndarray) else [list(row) for row in gram]
    exact = all(isinstance(x, (int, np.integer)) for row in rows for x in row)
    g = [[int(x) if exact else float(x) for x in row] for row in rows]
    d = len(g)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    mu = [[0.0] * d for _ in range(d)]
    r = [0.0] * d  # squared Gram-Schmidt norms
    k = 1
    for _ in range(LLL_STEP_LIMIT):
        if k == d:
            return u, g
        r[0] = float(g[0][0])
        if not r[0] > 0.0:
            raise GeometryError("gram matrix is not positive definite")
        # Gram-Schmidt row k from the current gram; rows < k are still valid
        a = [0.0] * k
        for j in range(k):
            a[j] = float(g[k][j]) - sum(mu[j][i] * a[i] for i in range(j))
            mu[k][j] = a[j] / r[j]
        r[k] = float(g[k][k]) - sum(mu[k][j] * a[j] for j in range(k))
        reduced = False
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > 0.5 + LLL_SIZE_SLACK:  # b_k <- b_k - c b_j
                c = round(mu[k][j])
                for row in g + u:
                    row[k] -= c * row[j]
                g[k] = [x - c * y for x, y in zip(g[k], g[j])]
                for i in range(j):
                    mu[k][i] -= c * mu[j][i]
                mu[k][j] -= c
                reduced = True
        if reduced:
            continue  # Gram-Schmidt row k again, now from the updated gram
        if r[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * r[k - 1]:
            k += 1
            continue
        for row in g + u:  # (b_{k-1}, b_k) <- (b_k, -b_{k-1}), det +1
            row[k - 1], row[k] = row[k], -row[k - 1]
        g[k - 1], g[k] = g[k], [-x for x in g[k - 1]]
        k = max(k - 1, 1)
    raise GeometryError(f"LLL reduction did not finish in {LLL_STEP_LIMIT} steps; "
                        "the gram matrix is not numerically positive definite")


class TestQuadForm:
    def test_normalized_to_det_one(self):
        q = QuadForm.from_gram([[4.0, 0.0], [0.0, 4.0]])
        assert np.linalg.det(q.gram) == pytest.approx(1.0, abs=1e-9)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(QuadForm)] == ["dim", "gram", "mint"]

    def test_integer_gram_recorded_once(self):
        # an integral unimodular gram keeps its entries as Python ints
        q = QuadForm.from_gram([[2, 1], [1, 1]])
        assert q.mint == ((2, 1), (1, 1))
        assert all(type(x) is int for row in q.mint for x in row)
        assert QuadForm.identity(3).mint == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # 4 I is rescaled to (1 + 2^-52) I, which still rounds to I
        q = QuadForm.from_gram([[4, 0], [0, 4]])
        assert not np.array_equal(q.gram, np.eye(2))
        assert q.mint == ((1, 0), (0, 1))
        # no integer gram: a float form, and a near-integral det-1 gram
        # whose rounding has determinant 2
        assert QuadForm.from_gram([[1.3, 0.1], [0.1, 1.0]]).mint is None
        assert QuadForm.from_gram([[2 - 1 / 500001, 1000], [1000, 500001]]).mint is None

    def test_rejects_asymmetric(self):
        with pytest.raises(GeometryError):
            QuadForm.from_gram([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        # the last three are integral with determinant 1, so their leading
        # minors decide
        for gram in ([[1.0, 2.0], [2.0, 1.0]], [[-1, 0], [0, -1]],
                     [[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[1, 3, 0], [3, 8, 0], [0, 0, -1]]):
            with pytest.raises(GeometryError):
                QuadForm.from_gram(gram)

    def test_rejects_dim_one(self):
        with pytest.raises(GeometryError):
            QuadForm.from_gram([[2.0]])

    def test_from_grams_matches_from_gram(self):
        rng = np.random.default_rng(12)
        integral = []
        for d in (2, 3, 4):
            us = [np.eye(d, dtype=np.int64) + np.triu(rng.integers(-4, 5, (d, d)), 1) for _ in range(10)]
            integral.append([u.T @ u for u in us])
        exact = [s.basis.mat.T @ s.basis.mat for s in sample_exact_d2(rng, 300)]
        walk = [s.basis.mat.T @ s.basis.mat for s in sample_walk(rng, 3, n=60, thin=2, burn_in=100)]
        mixed = [[[4, 0], [0, 4]], [[2, 1], [1, 1]], [[1.3, 0.1], [0.1, 1.0]], [[8.0, 4.0], [4.0, 4.0]]]
        for stack in [exact, walk, mixed] + integral:
            forms = QuadForm.from_grams(stack)
            assert len(forms) == len(stack)
            for form, gram in zip(forms, stack):
                one = QuadForm.from_gram(gram)
                assert form.dim == one.dim
                assert np.array_equal(form.gram, one.gram) and form.mint == one.mint
                ref_gram, ref_mint = reference_from_gram(gram)
                assert np.array_equal(form.gram, ref_gram) and form.mint == ref_mint
        assert all(form.mint is not None for stack in integral for form in QuadForm.from_grams(stack))
        # 4 I is stored as (1 + 2^-52) I and counted as I, also within a stack
        four = QuadForm.from_grams(mixed)[0]
        assert np.array_equal(four.gram, (1.0 + 2.0 ** -52) * np.eye(2)) and four.mint == ((1, 0), (0, 1))
        assert QuadForm.from_grams([]) == []
        assert QuadForm.from_grams(np.empty((0, 3, 3))) == []

    def test_from_grams_rejects_as_from_gram(self):
        good = {2: [[2.0, 0.3], [0.3, 1.0]], 3: np.eye(3).tolist()}
        bad = ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.1], [0.1, -2.0]],
               [[-1, 0], [0, -1]], [[1, 3, 0], [3, 8, 0], [0, 0, -1]])
        for gram in bad:
            with pytest.raises(GeometryError) as one:
                QuadForm.from_gram(gram)
            other = good[len(gram)]
            with pytest.raises(GeometryError) as many:
                QuadForm.from_grams([other, gram, other])
            assert str(many.value) == str(one.value)

    def test_solvable_rep(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            q = act(QuadForm.identity(d), random_group_element(rng, d))
            low = solvable_rep(q)
            assert np.allclose(np.triu(low, 1), 0.0)
            assert np.all(np.diagonal(low) > 0)
            assert np.allclose(low.T @ low, q.gram, atol=1e-12)


class TestLLL:
    LARGE_ENTRY_GRAM = [[38957694870466, -810730334757, -4737644889],
                        [-810730334757, 16871729138, 98592908],
                        [-4737644889, 98592908, 576145]]

    def test_identity_and_idempotent(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 5):
            eye = [[int(i == j) for j in range(d)] for i in range(d)]
            assert lll_reduce(eye) == (eye, eye)
            assert lll_reduce(np.eye(d))[0] == eye
            g = random_group_element(rng, d, scale=2.0).mat
            _, reduced = lll_reduce(g.T @ g)
            assert lll_reduce(reduced) == (eye, reduced)

    def test_large_entry_gram_exact(self):
        m = self.LARGE_ENTRY_GRAM
        u, reduced = lll_reduce(m)
        assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(type(x) is int for mat in (u, reduced) for row in mat for x in row)
        ut_m_u = [[sum(u[a][i] * m[a][b] * u[b][j] for a in range(3) for b in range(3))
                   for j in range(3)] for i in range(3)]
        assert ut_m_u == reduced
        assert u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1]) \
            - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0]) \
            + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0]) == 1

    def test_skewed_float_grams(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4, 5):
            for _ in range(40):
                shear = np.eye(d) + np.triu(rng.integers(-20, 21, (d, d)), 1)
                g = random_group_element(rng, d, scale=0.5).mat @ shear
                gram = g.T @ g
                u, reduced = lll_reduce(gram)
                ua = np.array(u, dtype=float)
                assert round(float(np.linalg.det(ua))) == 1
                r = np.linalg.cholesky(np.array(reduced)).T
                mu = r / np.diagonal(r)[:, None]  # mu[j, k] = mu_kj for j < k
                assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-9)
                norms = np.diagonal(r) ** 2
                for k in range(1, d):
                    assert norms[k] >= (0.75 - mu[k - 1, k] ** 2) * norms[k - 1] * (1.0 - 1e-12)
                # both sides carry rounding of order |u|^2 |gram| ulp
                tol = 1e-12 * np.max(np.abs(ua)) ** 2 * np.max(np.abs(gram))
                assert np.allclose(ua.T @ gram @ ua, reduced, rtol=0.0, atol=tol)

    def test_not_positive_definite(self):
        for reduce in (lll_reduce, reference_lll_reduce):
            with pytest.raises(GeometryError, match="^gram matrix is not positive definite$"):
                reduce([[0, 1], [1, 0]])

    def test_matches_reference(self, monkeypatch):
        # the same (u, reduced), element types included, as the reference on
        # the grams of walk steps, exact d = 2 samples, sheared integer grams,
        # float grams that take tens of swaps, and float grams on which a
        # reordered float sum flips a step
        walk_grams = []

        def recording(gram):
            walk_grams.append(gram.copy())
            return lll_reduce(gram)

        rng = np.random.default_rng(9)
        with monkeypatch.context() as patch:
            patch.setattr(randlat, "lll_reduce", recording)
            for d in (2, 3, 4, 5):
                sample_walk(rng, d, burn_in=100, thin=1, n=20)
        assert len(walk_grams) == 4 * 120
        grams = walk_grams + [s.basis.mat.T @ s.basis.mat for s in sample_exact_d2(rng, 200)]
        grams += [self.LARGE_ENTRY_GRAM, np.array(self.LARGE_ENTRY_GRAM)]
        for d in (2, 3, 4, 5):
            for _ in range(20):
                shear = np.eye(d, dtype=np.int64) + np.triu(rng.integers(-30, 31, (d, d)), 1)
                gram = shear.T @ np.diag(rng.integers(1, 4, d)) @ shear
                skew = np.array(random_unimodular(rng, np.eye(d), 10 ** 5))
                g = random_group_element(rng, d, scale=0.5).mat @ skew
                grams += [gram, gram.tolist(), g.T @ g, (g.T @ g).tolist()]
            grams += near_tie_grams(rng, d, 1000)
        for gram in grams:
            assert typed(lll_reduce(gram)) == typed(reference_lll_reduce(gram))

    def test_array_input(self):
        # a float array reduces as the same gram in nested Python floats;
        # an integer array stays exact, in Python ints
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                shear = np.eye(d) + np.triu(rng.integers(-20, 21, (d, d)), 1)
                g = random_group_element(rng, d, scale=0.5).mat @ shear
                gram = g.T @ g
                got = lll_reduce(gram)
                assert got == lll_reduce([[float(x) for x in row] for row in gram])
                assert all(type(x) is float for row in got[1] for x in row)
                u = shear.astype(np.int64)
                for gram in (u.T @ u, u.T @ np.diag(np.arange(1, d + 1)) @ u):
                    got = lll_reduce(gram)
                    assert got == lll_reduce(gram.tolist())
                    assert all(type(x) is int for mat in got for row in mat for x in row)
        u, reduced = lll_reduce(np.array(self.LARGE_ENTRY_GRAM))
        assert (u, reduced) == lll_reduce(self.LARGE_ENTRY_GRAM)
        assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestAction:
    def test_identity(self):
        q0 = QuadForm.identity(3)
        out = act(q0, GroupElement.from_matrix(np.eye(3)))
        assert np.allclose(out.gram, q0.gram)

    def test_geodesic_gram(self):
        # gram of Q0 . a_t is diag(e^{lt}, ..., e^{lt}, e^{-mt})
        for d in (2, 3, 5):
            t = 1.7
            out = act(QuadForm.identity(d), geodesic_r(d, t))
            lam, mu = rate_lambda(d), rate_mu(d)
            expected = [math.exp(lam * t)] * (d - 1) + [math.exp(-mu * t)]
            assert np.allclose(np.diagonal(out.gram), expected, rtol=1e-12)

    def test_shear_gram_d2(self):
        x = 0.73
        out = act(QuadForm.identity(2), GroupElement.from_matrix([[1.0, 0.0], [x, 1.0]]))
        assert np.allclose(out.gram, [[1 + x * x, x], [x, 1.0]], atol=1e-12)

    def test_right_action(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            for _ in range(10):
                q = act(QuadForm.identity(d), random_group_element(rng, d))
                g = random_group_element(rng, d)
                h = random_group_element(rng, d)
                lhs = act(act(q, g), h)
                rhs = act(q, GroupElement.from_matrix(g.mat @ h.mat))
                assert np.allclose(lhs.gram, rhs.gram, atol=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for _ in range(5):
                k = random_rotation(rng, d)
                out = act(QuadForm.identity(d), k)
                assert np.allclose(out.gram, np.eye(d), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            act(QuadForm.identity(2), GroupElement.from_matrix(np.eye(3)))

    def test_from_matrix_refuses_non_finite_entries(self):
        # their det is NaN or inf, never within DET_TOL of 1
        for m in ([[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [math.nan, 1.0]],
                  [[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [0.0, 1.0]]):
            with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="determinant"):
                GroupElement.from_matrix(m)

    def test_from_matrix_refuses_non_finite_entries_silently(self):
        # refused before the det, which would warn "invalid value encountered in det"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in ([[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                      [[1.0, 0.0, 0.0], [0.0, 1.0, -math.inf], [0.0, 0.0, 1.0]]):
                with pytest.raises(GeometryError, match="determinant"):
                    GroupElement.from_matrix(m)


class TestGeodesics:
    def test_at_zero_is_identity(self):
        for d in (2, 3, 4):
            assert np.allclose(geodesic_r(d, 0.0).mat, np.eye(d))
            assert np.allclose(geodesic_rho(d, 0.0).mat, np.eye(d))

    def test_d2_values(self):
        a1 = geodesic_r(2, 1.0)
        e = math.exp(1.0 / (2.0 * math.sqrt(2.0)))
        assert np.allclose(np.diagonal(a1.mat), [e, 1.0 / e], rtol=1e-14)

    def test_refuses_levels_that_leave_sl_d(self):
        # NaN, an entry that underflows to 0 (det 0) and entries that overflow
        for d, t in ((2, math.nan), (3, 3000.0), (2, 1e4), (2, -1e4), (4, math.inf)):
            with pytest.raises(GeometryError, match=re.escape(f"t = {t!r}")):
                geodesic_r(d, t)
        # every level |t| <= 10 keeps its matrix bit for bit
        for d in (2, 3, 6):
            lam, mu = rate_lambda(d), rate_mu(d)
            for t in np.linspace(-10.0, 10.0, 41).tolist():
                diag = [math.exp(0.5 * lam * t)] * (d - 1) + [math.exp(-0.5 * mu * t)]
                assert np.array_equal(geodesic_r(d, t).mat, np.diag(diag))

    def test_determinant_one(self):
        for d in (2, 3, 7):
            for t in (-5.0, 1.3, 5.0):
                assert np.linalg.det(geodesic_rho(d, t).mat) == pytest.approx(1.0, abs=1e-9)
                assert np.linalg.det(geodesic_r(d, t).mat) == pytest.approx(1.0, abs=1e-9)


class TestBusemann:
    def test_along_own_ray(self):
        for d in (2, 3, 4):
            for t in np.linspace(-10, 10, 11):
                q = act(QuadForm.identity(d), geodesic_r(d, float(t)))
                assert busemann_r(q) == pytest.approx(-t, abs=1e-12)
                p = act(QuadForm.identity(d), geodesic_rho(d, float(t)))
                assert busemann_rho(p) == pytest.approx(-t, abs=1e-12)

    def test_second_ray_on_the_level_grid(self):
        bad = []
        for d in (2, 3, 4, 5, 6):
            for t in np.linspace(-10.0, 10.0, 21):
                q_rho = act(QuadForm.identity(d), geodesic_rho(d, float(t)))
                if abs(busemann_rho(q_rho) + t) > 1e-12 * max(1.0, abs(t)):
                    bad.append((d, float(t)))
        assert not bad, f"busemann_rho misses -t at (d, t) = {bad}"

    def test_at_basepoint(self):
        assert busemann_r(QuadForm.identity(2)) == 0.0
        assert busemann_rho(QuadForm.identity(3)) == pytest.approx(0.0, abs=1e-12)

    def test_explicit_values(self):
        q = QuadForm.from_gram([[2.0, 0.0], [0.0, 0.5]])
        assert busemann_r(q) == pytest.approx(math.sqrt(2.0) * math.log(0.5), rel=1e-12)
        p = QuadForm.from_gram(np.diag([4.0, 1.0, 0.25]))
        assert busemann_rho(p) == pytest.approx(math.sqrt(1.5) * math.log(0.25), rel=1e-12)

    def test_cocycle(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            q = act(QuadForm.identity(d), random_group_element(rng, d))
            for s in (0.7, -2.2):
                shifted = act(q, geodesic_r(d, s))
                assert busemann_r(shifted) == pytest.approx(busemann_r(q) - s, abs=1e-9)


class TestIwasawa:
    def test_identity(self):
        coord = iwasawa_decompose(GroupElement.from_matrix(np.eye(3)))
        assert coord.t == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(coord.aprime, 0.0, atol=1e-12)
        assert np.allclose(coord.n, 0.0, atol=1e-12)

    def test_compose_trivial_is_geodesic(self):
        for d in (2, 3):
            t = 1.3
            coord = IwasawaCoord(t=t, aprime=np.zeros(d - 1), n=np.zeros((d, d)))
            g = iwasawa_compose(coord)
            assert np.allclose(g.mat, geodesic_r(d, -t).mat, atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            for _ in range(34):
                g = random_group_element(rng, d)
                coord = iwasawa_decompose(g)
                assert abs(float(np.sum(coord.aprime))) < 1e-12
                back = iwasawa_compose(coord)
                lhs = act(QuadForm.identity(d), back).gram
                rhs = act(QuadForm.identity(d), g).gram
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_coordinate_roundtrip(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            for _ in range(10):
                afree = 0.5 * rng.standard_normal(d - 1)
                aprime = afree - afree.mean()
                n = np.zeros((d, d))
                n[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
                coord = IwasawaCoord(t=float(rng.normal()), aprime=aprime, n=n)
                back = iwasawa_decompose(iwasawa_compose(coord))
                assert back.t == pytest.approx(coord.t, abs=1e-9)
                assert np.allclose(back.aprime, coord.aprime, atol=1e-9)
                assert np.allclose(back.n, coord.n, atol=1e-9)


    def test_volume_scaling(self):
        # a_{-t} is diagonal, so it scales the A-part of every node B = (a', n) by
        # one factor, and chi_d of it by the horosphere's volume growth
        bad, nodes = [], {}
        for d, t, grid in ((2, 3.0, 9), (3, 2.0, 5)):
            expected = math.exp(0.5 * t * math.sqrt((d - 1) * d))
            shift = geodesic_r(d, -t).mat
            axes = [np.linspace(-0.25, 0.25, grid)] * (d - 2) + [np.linspace(0.05, 0.3, grid)] * (d * (d - 1) // 2)
            for index, row in enumerate(itertools.product(*axes)):
                n = np.zeros((d, d))
                n[np.tril_indices(d, -1)] = row[d - 2:]
                base = iwasawa_compose(IwasawaCoord(0.0, np.append(row[:d - 2], -sum(row[:d - 2])), n)).mat
                if abs(a_part_chi(shift @ base) / (expected * a_part_chi(base)) - 1.0) > 1e-9:
                    bad.append((d, index))
            nodes[d] = index + 1
        assert nodes == {2: 9, 3: 625}
        assert not bad, f"chi_d of the A-part does not scale at (d, node) = {bad}"


class TestPhiT:
    def test_fixes_at_zero(self):
        q0 = QuadForm.identity(2)
        assert np.allclose(phi_t(q0, 0.0).gram, q0.gram, atol=1e-12)

    def test_level_shift(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            # points on the level-zero horosphere: unit lower triangular shear
            n = np.eye(d)
            n[np.tril_indices(d, -1)] = 0.3 * rng.standard_normal(d * (d - 1) // 2)
            q = act(QuadForm.identity(d), GroupElement.from_matrix(n))
            assert busemann_r(q) == pytest.approx(0.0, abs=1e-9)
            for t in (0.9, 3.0, -1.4):
                assert busemann_r(phi_t(q, t)) == pytest.approx(t, abs=1e-9)

    def test_d2_corner_entry(self):
        q = act(QuadForm.identity(2), GroupElement.from_matrix([[1.0, 0.0], [0.4, 1.0]]))
        t = 2.0
        out = phi_t(q, t)
        assert out.gram[1, 1] == pytest.approx(math.exp(t / math.sqrt(2.0)), rel=1e-12)


class TestChi:
    def test_identity(self):
        assert chi_d(GroupElement.from_matrix(np.eye(4))) == 1.0

    def test_geodesic_value(self):
        for d in (2, 3, 4, 5, 6):
            sq = math.sqrt((d - 1) * d)
            for t in (0.5, 1.0, 3.7):
                assert chi_d(geodesic_r(d, -t)) == pytest.approx(math.exp(0.5 * t * sq), rel=1e-12)
        assert chi_d(geodesic_r(2, -1.0)) == pytest.approx(2.0281149816, rel=1e-9)

    def test_multiplicative(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            e = np.exp(rng.standard_normal(d))
            f = np.exp(rng.standard_normal(d))
            a = GroupElement(d, np.diag(e))
            b = GroupElement(d, np.diag(f))
            ab = GroupElement(d, np.diag(e * f))
            assert chi_d(ab) == pytest.approx(chi_d(a) * chi_d(b), rel=1e-12)

    def test_rejects_nondiagonal(self):
        with pytest.raises(GeometryError):
            chi_d(GroupElement.from_matrix([[1.0, 0.4], [0.0, 1.0]]))


class TestConstants:
    def test_rates(self):
        for d in (2, 3, 4, 9):
            c = constants(d)
            assert c.lam == pytest.approx(1.0 / math.sqrt((d - 1) * d), rel=1e-15)
            assert c.mu == pytest.approx((d - 1) * c.lam, rel=1e-15)

    def test_alpha_parity(self):
        assert constants(2).alpha == 2
        assert constants(3).alpha == 1
        assert constants(4).alpha == 2
        assert constants(5).alpha == 1

    def test_zeta_against_scipy(self):
        for d in (2, 3, 4, 6):
            assert zeta(d) == pytest.approx(float(scipy_zeta(d)), rel=1e-14)

    def test_c2(self):
        assert constants(2).c_d == pytest.approx(2.0 * math.sqrt(math.pi / 3.0), rel=1e-12)

    def test_c3_uses_factor_two(self):
        c = constants(3)
        expected = 2.0 * math.sqrt(2.0 * c.zeta / (6.0 * c.omega))
        assert c.c_d == pytest.approx(expected, rel=1e-12)

    def test_kappa2(self):
        c = constants(2)
        assert c.kappa_d == pytest.approx(2.0, abs=1e-12)
        # cross-check: alpha/sqrt((d-1)d) * vol of the level-zero fiber piece
        assert c.kappa_d == pytest.approx(2.0 / math.sqrt(2.0) * math.sqrt(2.0), abs=1e-12)
        assert c.kappa_per_volume == pytest.approx(3.0 / math.pi, rel=1e-12)
        assert constants(3).kappa_d is None

    def test_t2(self):
        expected = (8.0 / math.sqrt(2.0)) * math.log(0.75 * math.sqrt(2.0))
        c = constants(2)
        assert c.t_d == pytest.approx(expected, rel=1e-15)
        assert c.t_d == pytest.approx(0.333141, abs=1e-5)

    def test_exponents(self):
        c = constants(2)
        assert c.exponent_interval == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)
        assert c.exponent_pointwise == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-15)
        assert c.exponent_edwards == pytest.approx(0.25 * math.sqrt(2.0), rel=1e-15)
        assert c.exponent_rh == pytest.approx(3.0 * math.sqrt(2.0) / 8.0, rel=1e-15)
        assert constants(3).exponent_rh is None
        assert constants(3).exponent_edwards == pytest.approx(0.25 * math.sqrt(1.5), rel=1e-15)

    def test_exponent_counting(self):
        assert constants(2).exponent_counting == pytest.approx(131.0 / 208.0)
        assert constants(3).exponent_counting == pytest.approx(231.0 / 158.0)
        assert constants(4).exponent_counting == pytest.approx(61.0 / 26.0)
        for d in (5, 6, 7):
            assert constants(d).exponent_counting == d - 2

    def test_rejects_small_dim(self):
        with pytest.raises(GeometryError):
            constants(1)

    def test_rejects_dim_out_of_float_range(self):
        # Gamma(d/2 + 1) first overflows a float at d = 342
        assert constants(341).omega > 0.0
        for d in (342, 400, 10 ** 6):
            with pytest.raises(GeometryError, match="too large"):
                constants(d)
