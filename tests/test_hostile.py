"""Hostile command lines: every case exits 0 or 2 without a traceback.

The cases run in one child process under a 1.5 GB address-space limit, set
in the child only; the child calls cli.main on each case under an alarm
and reports its exit code, its stderr and any traceback as JSON.  A usage
error of argparse's own exits 2 with its usage text; a refusal of the
program's exits 2 with one "error:" line and nothing else on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import horocount

LIMIT = 3 * 2 ** 29  # bytes of address space in the child, 1.5 GB
SECONDS = 5  # alarm per case

CHILD = """
import contextlib, io, json, resource, signal, sys, traceback, warnings
limit, seconds = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from horocount import cli


def timeout(*_):
    raise TimeoutError(f"case ran past {seconds} s")


signal.signal(signal.SIGALRM, timeout)
warnings.simplefilter("always")
report = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    usage = False
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code, usage = exc.code, True
    except BaseException:
        code = traceback.format_exc()
    finally:
        signal.alarm(0)
    report.append([argv, code, usage, err.getvalue()])
print(json.dumps(report))
"""

HOSTILE = ("nan", "inf", "-inf", "-1", "1e300")

# the series files of locate: an admitted one, one whose phi(S) = 4 e^{-0.1 S}
# overflows a float at S = -9999.9, and two with a value that is not finite
SERIES = {"series": "0.0,1.0\n0.1,0.5\n0.2,0.25\n",
          "overflow": "-10000,1\n-9999.9,1\n",
          "inf": "0.0,1.0\ninf,1.0\n",
          "nan": "0.0,nan\n0.1,1.0\n"}
LOCATE = ["--alpha", "1", "--beta", "0.5", "--eps", "0.1", "--kappa", "1", "--ctilde", "1"]

# a small admitted command per subcommand, and the numeric flags it takes
BASES = (
    (["constants", "--dim", "3"], ["--dim"]),
    (["count", "--dim", "2", "--radius", "5"], ["--dim", "--radius"]),
    (["count", "--dim", "2", "--radius", "5", "--primitive", "--exact"], ["--dim", "--radius"]),
    (["chimney", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "3", "--sigma", "2"],
     ["--dim", "--tmin", "--tmax", "--steps", "--sigma"]),
    (["horoball", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "3"],
     ["--dim", "--tmin", "--tmax", "--steps"]),
    (["equidist", "--dim", "2", "--profile", "bump", "--support", "1", "--plateau", "0.5",
      "--tmin", "1", "--tmax", "3", "--steps", "3"],
     ["--dim", "--support", "--plateau", "--tmin", "--tmax", "--steps"]),
    (["equidist", "--dim", "3", "--tmin", "0", "--tmax", "1", "--steps", "2", "--base-grid", "8,8"],
     ["--support", "--tmin", "--tmax", "--steps"]),
    (["locate", "--series", "{series}", *LOCATE],
     ["--skip-rows", "--alpha", "--beta", "--eps", "--kappa", "--ctilde"]),
    (["meansq", "--dim", "2", "--radius", "5", "--samples", "20", "--seed", "1"],
     ["--dim", "--radius", "--samples", "--seed"]),
    (["meansq", "--dim", "3", "--radius", "3", "--samples", "5", "--sampler", "walk",
      "--seed", "1"],
     ["--dim", "--radius", "--samples", "--seed"]),
    (["verify", "moebius", "--dim", "2", "--radius", "5"], ["--dim", "--radius"]),
)

# the inputs the program once failed on, each exiting 2 now
CASES = (
    ["count", "--dim", "2", "--radius", "1e300"],
    ["count", "--dim", "2", "--radius", "1e9"],
    ["count", "--dim", "2", "--radius", "1e9", "--primitive"],
    ["count", "--dim", "12", "--radius", "9"],
    ["count", "--dim", "40", "--radius", "3"],
    ["constants", "--dim", "400"],
    ["chimney", "--dim", "2", "--tmin", "nan", "--tmax", "3", "--steps", "3"],
    ["horoball", "--dim", "2", "--tmin", "1", "--tmax", "200", "--steps", "2"],
    ["horoball", "--dim", "2", "--tmin", "1", "--tmax", "3000", "--steps", "2"],
    ["horoball", "--dim", "2", "--tmin=-1e308", "--tmax", "1e308", "--steps", "3"],
    ["equidist", "--dim", "3", "--tmin", "1200", "--tmax", "1200", "--steps", "1"],
    ["equidist", "--dim", "3", "--tmin", "30", "--tmax", "30", "--steps", "1"],
    ["equidist", "--dim", "3", "--tmin", "22", "--tmax", "23", "--steps", "10000"],
    ["equidist", "--dim", "2", "--tmin", "1", "--tmax", "3", "--steps", "100000000"],
    ["equidist", "--dim", "3", "--tmin", "0", "--tmax", "0", "--steps", "1", "--base-grid", "6000,6000"],
    ["equidist", "--dim", "3", "--tmin", "0", "--tmax", "0", "--steps", "1", "--base-grid", "8,-8"],
    ["equidist", "--dim", "3", "--tmin", "0", "--tmax", "0", "--steps", "1", "--base-grid", "nan,8"],
    ["meansq", "--dim", "2", "--radius", "1e9", "--samples", "2"],
    ["meansq", "--dim", "3", "--radius", "1e6", "--samples", "2", "--sampler", "walk"],
    ["meansq", "--dim", "2", "--radius", "5", "--samples", "100000000"],
    ["meansq", "--dim", "3", "--radius", "5", "--samples", "100000000", "--sampler", "walk"],
    ["meansq", "--dim", "2", "--radius", "5", "--samples", "20", "--seed", "-1"],
    ["verify", "moebius", "--dim", "2", "--radius", "1e160"],
    ["verify", "moebius", "--dim", "3", "--radius", "1e110"],
    ["verify", "moebius", "--dim", "2", "--radius", "1e9"],
    ["verify", "moebius", "--dim", "2", "--radius", "1e5"],
    ["verify", "moebius", "--dim", "3", "--radius", "3000"],
    ["meansq", "--dim", "3", "--radius", "5", "--samples", "2", "--sampler", "walk",
     "--burnin", "1000000000"],
    ["locate", "--series", "{overflow}", *LOCATE],
    ["locate", "--series", "{inf}", *LOCATE],
    ["locate", "--series", "{nan}", *LOCATE],
)


def cases(files):
    """(argv, refused) pairs: each of CASES, which must exit 2, then each
    base with one numeric flag set to each hostile value; {name} in an argv
    is replaced by files[name]."""
    out = [(argv, True) for argv in CASES]
    for base, flags in BASES:
        for flag in flags:
            for value in HOSTILE:
                argv = [a for i, a in enumerate(base) if a != flag and base[i - 1] != flag]
                out.append((argv + [f"{flag}={value}"], False))
    return [([a.format(**files) for a in argv], refused) for argv, refused in out]


def run_child(argvs):
    path = os.pathsep.join(p for p in (str(Path(horocount.__file__).parents[1]),
                                       os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(LIMIT), str(SECONDS)],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_hostile_inputs_exit_0_or_2_without_traceback(tmp_path):
    files = {}
    for name, text in SERIES.items():
        files[name] = str(tmp_path / f"{name}.csv")
        Path(files[name]).write_text(text)
    runs = cases(files)
    bad = []
    for (argv, code, usage, err), (_, refused) in zip(run_child([argv for argv, _ in runs]), runs):
        if usage:
            ok = code == 2
        elif code == 2:
            ok = err.startswith("error:") and err.count("\n") == 1
        else:
            ok = code == 0 and err == "" and not refused
        if not ok:
            bad.append((" ".join(argv), code, err))
    assert not bad, "\n".join(map(repr, bad))
