"""Recompute the golden records and compare them with the committed ones.

tests/golden/make.py says what the records cover and what they leave out
(walk samples, whose values depend on the platform's last bits).
"""

import importlib.util
import json
import pathlib

GOLDEN = pathlib.Path(__file__).with_name("golden")


def load_make():
    spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden():
    want = json.loads((GOLDEN / "outputs.json").read_text())
    got = load_make().records()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{len(changed)} records differ, first: {changed[:5]}"
