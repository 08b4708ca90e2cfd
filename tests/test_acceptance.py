"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` or via
`horocount verify --suite full`.
"""

import pytest

from horocount import acceptance, orbits


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number]()
    print(result.line())
    assert result.criterion == number
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criteria_are_numbered_one_to_ten():
    assert sorted(acceptance.CRITERIA) == list(range(1, 11))
    assert set(acceptance.FAST_TIER) <= set(acceptance.CRITERIA)


def test_criterion_registers_a_timed_check(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {})

    @acceptance._criterion(7, "stub")
    def body():
        return 1, {"x": 2}

    assert acceptance.CRITERIA == {7: body}
    result = body()
    assert (result.criterion, result.name, result.passed, result.details) == (7, "stub", True, {"x": 2})
    assert result.elapsed_s >= 0.0


def test_full_tier_runs_every_registered_criterion_in_order(monkeypatch, capsys):
    stubs = {n: (lambda n=n: acceptance.CheckResult(n, "stub", True, 0.0, {})) for n in (3, 1, 2)}
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    assert [r.criterion for r in acceptance.run("full")] == [1, 2, 3]
    assert capsys.readouterr().out.count("PASS") == 3


def test_criterion_10_names_a_level_whose_radius_map_is_off(monkeypatch):
    # the ray's form at d = 4, t = 3 sits at Busemann level -3: move T(R) there
    # off by 1e-9, and only that (d, t) fails
    t_of_radius = orbits.t_of_radius

    def off_at_one_level(d, radius):
        level = t_of_radius(d, radius)
        return level + 1e-9 if d == 4 and abs(level + 3.0) < 1e-6 else level

    monkeypatch.setattr(orbits, "t_of_radius", off_at_one_level)
    result = acceptance.CRITERIA[10]()
    assert not result.passed
    assert result.details["failures"] == [("t_of_radius", 4, 3.0)]
