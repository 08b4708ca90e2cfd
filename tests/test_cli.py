import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import horocount
from horocount import cli, equidist
from horocount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstants:
    def test_d2_payload(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--dim", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa_d"] == pytest.approx(2.0, abs=1e-12)
        assert payload["lambda"] == pytest.approx(1.0 / math.sqrt(2.0))
        assert payload["exponents"]["thm12"] == pytest.approx(math.sqrt(2.0) / 8.0)
        assert payload["config"]["dim"] == 2

    def test_d3_kappa_null(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--dim", "3")
        payload = json.loads(out)
        assert payload["kappa_d"] is None
        assert payload["exponents"]["rh"] is None


class TestCount:
    def test_primitive_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--dim", "2", "--gram", "identity",
                               "--radius", "2", "--primitive")
        assert code == 0
        payload = json.loads(out)
        assert payload["n1"] == 8
        assert payload["n0"] == 13
        assert payload["e1"] == pytest.approx(8.0 - 24.0 / math.pi, rel=1e-9)

    def test_gram_file(self, capsys, tmp_path):
        path = tmp_path / "gram.txt"
        path.write_text("2 1\n1 1\n")
        code, out, _ = run_cli(capsys, "count", "--dim", "2", "--gram", str(path),
                               "--radius", "2", "--primitive", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert payload["boundary_ambiguous"] == 0

    def test_malformed_gram(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--gram", str(path),
                               "--radius", "2")
        assert code == 2
        assert "gram" in err

    def test_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "gram3.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--gram", str(path),
                               "--radius", "2")
        assert code == 2

    def test_large_entry_gram(self, capsys, tmp_path):
        # det 1 and integral, GL_3(Z)-equivalent to the identity, and not
        # positive definite in float until reduced
        path = tmp_path / "large.txt"
        path.write_text("38957694870466 -810730334757 -4737644889\n"
                        "-810730334757 16871729138 98592908\n"
                        "-4737644889 98592908 576145\n")
        code, out, _ = run_cli(capsys, "count", "--dim", "3", "--gram", str(path),
                               "--radius", "40")
        assert code == 0
        assert '"n0": 267761' in out

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "constants", "--dim", "3")
        _, out2, _ = run_cli(capsys, "constants", "--dim", "3")
        assert out1 == out2


class TestOrbitCommands:
    def test_horoball_csv(self, capsys, tmp_path):
        out_file = tmp_path / "horoball.csv"
        code, out, _ = run_cli(capsys, "horoball", "--dim", "2", "--gram", "identity",
                               "--tmin", "2", "--tmax", "8", "--steps", "7",
                               "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "T,R,count,predicted,rel_error"
        assert len(lines) == 8
        payload = json.loads(out)
        assert payload["theory_slope"] == pytest.approx(-0.4844361, abs=1e-6)

    def test_chimney_matches_direct(self, capsys, tmp_path):
        out_file = tmp_path / "chimney.csv"
        t = 2.0 * math.sqrt(2.0) * math.log(2.0)
        code, out, _ = run_cli(capsys, "chimney", "--dim", "2", "--gram", "identity",
                               "--tmin", str(t), "--tmax", str(t), "--steps", "1",
                               "--output", str(out_file))
        assert code == 0
        row = out_file.read_text().strip().split("\n")[1].split(",")
        assert int(row[2]) == 2

    def test_chimney_d5_needs_sigma(self, capsys):
        code, out, err = run_cli(capsys, "chimney", "--dim", "5", "--tmin", "1", "--tmax", "2",
                                 "--steps", "2")
        assert code == 2
        assert out == ""
        assert "sigma" in err

    def test_radius_overflow_is_a_usage_error(self, capsys):
        # e^{3000 / (2 sqrt 2)} overflows a float; --tmax 200 is refused by the count budget
        for tmax, reason in (("3000", "float range"), ("200", "2^62")):
            code, out, err = run_cli(capsys, "horoball", "--dim", "2", "--tmin", "1",
                                     "--tmax", tmax, "--steps", "2")
            assert code == 2
            assert out == ""
            assert reason in err

    def test_sigma_only_for_chimney(self):
        # horoball counts read no stabilizer order
        with pytest.raises(SystemExit) as exc:
            main(["horoball", "--dim", "2", "--tmin", "2", "--tmax", "6", "--steps", "5",
                  "--sigma", "7"])
        assert exc.value.code == 2

    def test_csv_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            run_cli(capsys, "horoball", "--dim", "2", "--tmin", "2", "--tmax", "6",
                    "--steps", "5", "--output", str(f))
        assert f1.read_text() == f2.read_text()


class TestEquidistCommand:
    def test_csv_and_fit(self, capsys, tmp_path):
        out_file = tmp_path / "eq.csv"
        code, out, _ = run_cli(capsys, "equidist", "--dim", "2", "--profile", "indicator",
                               "--support", "1.0", "--tmin", "0", "--tmax", "4",
                               "--steps", "5", "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "t,value,target,err,quad_err"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(6.0 / math.pi, rel=1e-9)
        payload = json.loads(out)
        assert payload["theory_slope_thm12"] == pytest.approx(-math.sqrt(2.0) / 8.0)

    def test_d3_rows_match_library(self, capsys, tmp_path):
        out_file = tmp_path / "eq3.csv"
        code, _, _ = run_cli(capsys, "equidist", "--dim", "3", "--profile", "bump",
                             "--tmin", "3", "--tmax", "5", "--steps", "3", "--base-grid", "8,10",
                             "--output", str(out_file))
        assert code == 0
        averages = equidist.horosphere_averages([3.0, 4.0, 5.0], equidist.bump_profile(1.0),
                                                equidist.QuadratureSpec(base_grid=(8, 10)), d=3)
        want = [",".join(repr(float(x)) for x in (a.t, a.value, a.target, a.err, a.quad_error_estimate))
                for a in averages]
        assert out_file.read_text().strip().split("\n")[1:] == want

    def test_failed_fit_keys_match_sweeps(self, capsys):
        fit_keys = {"slope", "intercept", "r2", "error", "n_points"}
        code, out, _ = run_cli(capsys, "equidist", "--dim", "2", "--tmin", "1", "--tmax", "14",
                               "--steps", "12", "--profile", "bump")
        assert code == 0
        eq = json.loads(out[out.index("{"):])
        code, out, _ = run_cli(capsys, "horoball", "--dim", "2", "--tmin", "2", "--tmax", "3",
                               "--steps", "2")
        assert code == 0
        horo = json.loads(out[out.index("{"):])
        assert eq["slope"] is None and horo["slope"] is None
        assert fit_keys & eq.keys() == fit_keys & horo.keys() == {"slope", "intercept", "r2", "error"}

    def test_rejects_bad_dim(self, capsys):
        with pytest.raises(SystemExit):
            main(["equidist", "--dim", "4", "--tmin", "0", "--tmax", "1", "--steps", "2"])


class TestLocate:
    def test_hits(self, capsys, tmp_path):
        ts = np.arange(1.8, 6.0, 0.05)
        gs = 0.5 * np.exp(-0.5 * ts) * np.cos(np.exp(0.5 * ts))
        path = tmp_path / "series.csv"
        np.savetxt(path, np.column_stack([ts, gs]), delimiter=",")
        code, out, _ = run_cli(capsys, "locate", "--series", str(path),
                               "--alpha", "1.0", "--beta", "0.5", "--eps", "0.1",
                               "--kappa", "1.0", "--ctilde", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["t0"] == pytest.approx(10.0 * math.log(1.2), rel=1e-9)
        assert payload["n_hits"] > 0


class TestMeansq:
    def test_exact_d2(self, capsys):
        code, out, _ = run_cli(capsys, "meansq", "--dim", "2", "--radius", "5",
                               "--samples", "400", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["bound_E1sq"] == pytest.approx(
            4.0 * math.pi * 25.0 / (math.pi ** 2 / 6.0), rel=1e-9)

    def test_seed_defaults_to_zero(self, capsys):
        code, out, _ = run_cli(capsys, "meansq", "--dim", "2", "--radius", "5",
                               "--samples", "50")
        payload = json.loads(out)
        assert payload["config"]["seed"] == 0
        assert payload == json.loads(run_cli(capsys, "meansq", "--dim", "2", "--radius", "5",
                                             "--samples", "50", "--seed", "0")[1])


class TestVerify:
    def test_suite_exit_codes(self, capsys, monkeypatch):
        from horocount import acceptance

        def fake(passed):
            return lambda: acceptance.CheckResult(0, "stub", passed, 0.0, {})

        monkeypatch.setattr(acceptance, "CRITERIA", {1: fake(True), 2: fake(True)})
        monkeypatch.setattr(acceptance, "FAST_TIER", (1, 2))
        assert main(["verify", "--suite", "fast"]) == 0
        monkeypatch.setattr(acceptance, "CRITERIA", {1: fake(True), 2: fake(False)})
        assert main(["verify", "--suite", "fast"]) == 1

    def test_moebius_target(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "moebius", "--dim", "2", "--radius", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["shell_identities"]["levels_checked"] == 25

    def test_moebius_target_d3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "moebius", "--dim", "3", "--radius", "4")
        assert code == 0
        assert json.loads(out)["error_relations"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["constants", "--dim", "3"],
    ["count", "--dim", "2", "--radius", "5", "--primitive"],
    ["chimney", "--dim", "2", "--tmin", "4", "--tmax", "6", "--steps", "3", "--sigma", "2"],
    ["horoball", "--dim", "2", "--tmin", "4", "--tmax", "6", "--steps", "3", "--output", "{tmp}"],
    ["equidist", "--dim", "2", "--tmin", "1", "--tmax", "2", "--steps", "2", "--profile", "bump"],
    ["locate", "--series", "{series}", "--skip-rows", "1", "--alpha", "1", "--beta", "0.5",
     "--eps", "0.1", "--kappa", "1", "--ctilde", "1"],
    ["meansq", "--dim", "2", "--radius", "5", "--samples", "20", "--output", "{tmp}"],
    ["verify", "moebius", "--dim", "2", "--radius", "5"],
])
def test_config_echoes_the_parsed_options(capsys, tmp_path, argv):
    # every option, its default and --output included, in the parser's order
    series = tmp_path / "series.csv"
    series.write_text("t,g\n0.0,1.0\n0.1,0.5\n")
    argv = [a.format(tmp=tmp_path / "out", series=series) for a in argv]
    parsed = vars(cli.build_parser().parse_args(argv))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if "--output" in argv and argv[0] not in ("chimney", "horoball", "equidist"):
        out = (tmp_path / "out").read_text()
    config = json.loads(out[out.index("{"):])["config"]
    assert list(config.items()) == [(k, v) for k, v in parsed.items() if k != "fn"]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--dim", "2"])
        assert exc.value.code == 2

    def test_threads_only_where_used(self):
        # counting runs in one thread; no subcommand takes --threads
        with pytest.raises(SystemExit) as exc:
            main(["count", "--dim", "2", "--radius", "3", "--threads", "2"])
        assert exc.value.code == 2


def run_fresh_cli(*argv):
    """Exit code, stdout and stderr of the CLI run in a new process."""
    path = os.pathsep.join(p for p in (str(Path(horocount.__file__).parents[1]),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "horocount.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_out_of_range_inputs_exit_2_without_traceback():
    # each is a usage error, run in a new process: exit 2 and nothing on
    # stderr but one error line naming the reason (no numpy warning, no
    # traceback)
    for argv, reason in (
            (["count", "--dim", "2", "--radius", "1e300"], "finite square"),
            (["chimney", "--dim", "2", "--tmin", "nan", "--tmax", "3", "--steps", "3"], "finite"),
            (["equidist", "--dim", "3", "--tmin", "1200", "--tmax", "1200", "--steps", "1"],
             "out of range"),
            (["horoball", "--dim", "2", "--tmin", "1", "--tmax", "inf", "--steps", "3"], "finite"),
            (["horoball", "--dim", "2", "--tmin=-1e308", "--tmax", "1e308", "--steps", "3"], "finite"),
            (["equidist", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "-1"], "--steps"),
            (["chimney", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "0"], "--steps"),
            (["equidist", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "100000000"], "--steps"),
            (["constants", "--dim", "400"], "too large"),
            (["equidist", "--dim", "3", "--tmin", "1", "--tmax", "1", "--steps", "1",
              "--base-grid", "a,b"], "--base-grid")):
        code, out, err = run_fresh_cli(*argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and reason in err, (argv, err)


def test_oversize_counts_exit_2_before_any_table_or_walk():
    # each count's predicted walk or Moebius table exceeds latcount.ENUM_BUDGET
    for argv in (["count", "--dim", "12", "--radius", "9"],
                 ["count", "--dim", "2", "--radius", "1e9"],
                 ["count", "--dim", "2", "--radius", "1e9", "--primitive"],
                 ["meansq", "--dim", "2", "--radius", "1e9", "--samples", "2"],
                 ["meansq", "--dim", "3", "--radius", "1e6", "--samples", "2", "--sampler", "walk"]):
        code, out, err = run_fresh_cli(*argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "budget" in err, (argv, err)


def test_oversize_enumerations_exit_2_before_any_point():
    # each enumeration's box of prod_i (2 R / sqrt(q_i) + 1) points exceeds latcount.POINT_CAP
    for argv in (["verify", "moebius", "--dim", "2", "--radius", "1e5"],
                 ["verify", "moebius", "--dim", "3", "--radius", "3000"]):
        code, out, err = run_fresh_cli(*argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "points" in err, (argv, err)


def test_large_negative_levels_run_cleanly():
    # every w-sum there is empty: each level is the w = 0 row, 2 h(e^{mu t}) = 2
    for argv in (["equidist", "--dim", "2", "--tmin=-1e300", "--tmax", "0", "--steps", "2"],
                 ["equidist", "--dim", "3", "--tmin=-1e300", "--tmax", "0", "--steps", "2"],
                 ["equidist", "--dim", "2", "--tmin=-1500", "--tmax=-1500", "--steps", "1"]):
        code, out, err = run_fresh_cli(*argv)
        assert (code, err) == (0, ""), (argv, err)
        assert out.split("\n")[1].split(",")[1] == "2.0"


def test_t_grid_admits_max_steps():
    # the largest grid of the tests and CI steps has 300 levels
    assert cli.MAX_STEPS >= 300
    code, out, _ = run_fresh_cli("equidist", "--dim", "2", "--tmin", "1", "--tmax", "2",
                                 "--steps", str(cli.MAX_STEPS))
    assert code == 0
    assert out.count("\n") > cli.MAX_STEPS
