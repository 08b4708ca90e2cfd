"""Tests of the benchmark's oracles on values known without horocount.

Run from the repository root: python3 -m pytest bench/test_oracles.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

GAUSS_CIRCLE = [(10, 317), (100, 31417), (1000, 3141549)]


@pytest.mark.parametrize("radius,n", GAUSS_CIRCLE)
def test_ball_count_gauss_circle(radius, n):
    assert oracles.ball_count(2, radius) == n


@pytest.mark.parametrize("radius,n", GAUSS_CIRCLE)
def test_row_count_gauss_circle(radius, n):
    # radius^2 is an integer, so boundary points sit in the band
    sure, band = oracles.row_count(np.eye(2), radius)
    assert sure < n <= sure + band
    assert oracles.row_count(np.eye(2), radius + 1e-6) == (n, 0)


@pytest.mark.parametrize("radius,n", GAUSS_CIRCLE[:2])
def test_box_scan_gauss_circle(radius, n):
    n0_sure, n0_band, _, _ = oracles.box_scan(np.eye(2), radius + 1e-6)
    assert (n0_sure, n0_band) == (n, 0)


def test_mobius_small_values():
    assert oracles.mobius(12) == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_primitive_counts_agree():
    # primitive points of the unit disc: the Moebius sum against a gcd scan
    radius = 30.5
    _, _, n1, band = oracles.box_scan(np.eye(2), radius)
    assert band == 0
    assert oracles.ball_primitive(2, radius) == n1
    assert oracles.row_primitive(np.eye(2), radius) == (n1, 0)


def test_ball_count_sphere_and_hypersphere():
    # sums of r_3(n) and r_4(n) (Jacobi's four-square theorem) for n <= 4
    assert oracles.ball_count(3, 2) == 1 + 6 + 12 + 8 + 6
    r4 = lambda n: 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4)
    assert oracles.ball_count(4, 2) == 1 + sum(r4(n) for n in range(1, 5))


def test_shortest_vector_of_skewed_identity():
    u = np.array([[1, 40, 0], [0, 1, 25], [0, 0, 1]])
    assert oracles.shortest_vector((u.T @ u).astype(float)) == pytest.approx(1.0)


def test_profile_integral_indicator_is_ball_volume():
    assert oracles.profile_integral("indicator", 4.0, 0.0, 3) == pytest.approx(4 * math.pi / 3 * 8)


def test_horo_average_d2_converges_to_space_average():
    # at large t the d = 2 average tends to I_h(2) / zeta(2)
    target = oracles.profile_integral("bump", 1.0, 0.5, 2) / (math.pi ** 2 / 6)
    assert oracles.horo_average_d2(24.0, "bump", 1.0, 0.5) == pytest.approx(target, rel=1e-5)
