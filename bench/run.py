#!/usr/bin/env python3
"""Benchmark of horocount through its public API.

Run from the repository root:

    python3 bench/run.py --workload count --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): count, meansq, horosphere.

--trace 0 measures one workload.  It times SETUP_REPEATS fresh-interpreter
set-ups, sets up once more in this process, then runs whole rounds of the
workload's job list until --seconds would be exceeded (at least MIN_ROUNDS).
It prints wall_s (median round), setup_s (median set-up) and peak_rss_mb.

--trace 1 runs, for every workload, one untraced and one traced round,
repeated while --seconds allows (at least once), and prints the per-layer
metrics per round, split by workload, with the fresh-interpreter phases,
the CLI cold start and the tracing overhead.  The spans are written to
bench/out/trace-seed<seed>.jsonl.

Times are reported at a reference machine speed.  The speed of identical
work on the shared machine this was built on drifts by 20-40% within
minutes, and process CPU time drifts with it.  So a fixed calibration
slice (calibrate()) is timed before each round, after every CAL_EVERY_S of
job time and after the round, and around each fresh-interpreter child; a
time t measured next to slices of mean c is reported as t * CAL_REF_S / c.
The raw times are printed above the JSON line.

Every output is checked against workloads.py's oracles after timing and
after peak memory is read.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Everything runs in
one thread: BLAS is fixed to one thread before numpy loads, and the
fresh-interpreter children run one at a time while this process waits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("count", "meansq", "horosphere")
SETUP_REPEATS = 5
COLD_START_REPEATS = 3
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120
CAL_EVERY_S = 0.25
CAL_AROUND_CHILD = 3  # slices before and after each child
CAL_REF_S = 0.02  # reference time of one calibration slice
COLD_START_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from horocount.cli import main; "
    "sys.exit(main(['constants', '--dim', '3']))"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.cold_start_s": "s",
    "quadform.import_s": "s",
    "quadform.constants_s": "s",
    "quadform.from_gram_calls": "count",
    "quadform.from_gram_s": "s",
    "latcount.count_full_s": "s",
    "latcount.count_full_points_per_s": "points/s",
    "latcount.count_primitive_moebius_calls": "count",
    "latcount.count_primitive_moebius_s": "s",
    "latcount.enumerate_points_calls": "count",
    "latcount.enumerate_points_s": "s",
    "moebius.sieve_calls": "count",
    "moebius.sieve_s": "s",
    "moebius.k_planned": "count",
    "moebius.k_useful_ratio": "ratio",
    "orbits.sweep_s": "s",
    "orbits.stabilizer_order_s": "s",
    "equidist.horosphere_average_d2_s": "s",
    "equidist.horosphere_average_d3_s": "s",
    "equidist.base_forms": "count",
    "randlat.sample_exact_d2_s": "s",
    "randlat.sample_walk_s": "s",
    "randlat.walk_steps_per_s": "steps/s",
    "randlat.discrepancy_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def calibrate() -> float:
    """Time of a fixed slice of interpreter float and integer work and
    small-array numpy calls, the kinds of work horocount does (about 20 ms)."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        c = 0.37 * i
        acc += math.floor(c + math.sqrt(i + 0.5)) - math.ceil(c - 1.5)
        acc += math.isqrt(i * 7919) % 13
    x = np.arange(64.0)
    for _ in range(2_000):
        acc += float(np.floor(np.sqrt(x * 1.5 + 2.0)).sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, slices) -> float:
    return seconds * CAL_REF_S / statistics.mean(slices)


def setup(workload: str, seed: int):
    """Import, constants(d), the inputs of every round, and a warm-up on
    other inputs.  Returns the phase times and the round plans."""
    t0 = time.perf_counter()
    import horocount
    t1 = time.perf_counter()
    import workloads
    plan, warm_up, dims = workloads.WORKLOADS[workload]
    t2 = time.perf_counter()
    for d in dims:
        horocount.constants(d)
    t3 = time.perf_counter()
    plans = [plan(seed, r) for r in range(workloads.MAX_ROUNDS)]
    t4 = time.perf_counter()
    warm_up()
    t5 = time.perf_counter()
    phases = {"import_s": t1 - t0, "constants_s": t3 - t2, "inputs_s": t4 - t3, "warm_up_s": t5 - t4}
    return phases, plans


def _in_fresh_interpreter(argv):
    """Run a child between calibration slices: (spawn time, spawn to exit,
    slices, finished process)."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    slices = [calibrate() for _ in range(CAL_AROUND_CHILD)]
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - start
    slices += [calibrate() for _ in range(CAL_AROUND_CHILD)]
    return start, elapsed, slices, proc


def fresh_setup(workload: str, seed: int) -> dict:
    """Set-up in a fresh interpreter, timed from spawn to ready; the phases
    at reference speed, plus raw_setup_s."""
    start, _, slices, proc = _in_fresh_interpreter(
        [str(Path(__file__).resolve()), "--setup-child", "--workload", workload, "--seed", str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    phases = json.loads(proc.stdout.strip().splitlines()[-1])
    phases["setup_s"] = phases.pop("ready") - start
    out = {k: at_reference_speed(v, slices) for k, v in phases.items()}
    out["raw_setup_s"] = phases["setup_s"]
    return out


def cold_start():
    """A fresh `horocount constants --dim 3`: (seconds, failure, wrong output)."""
    _, elapsed, slices, proc = _in_fresh_interpreter(["-c", COLD_START_CODE, str(SRC)])
    seconds = at_reference_speed(elapsed, slices)
    if proc.returncode != 0:
        return seconds, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}", None
    from scipy.special import zeta
    payload = json.loads(proc.stdout)
    if abs(payload["zeta"] / float(zeta(3)) - 1) > 1e-12 or abs(payload["omega"] - 4 * math.pi / 3) > 1e-12:
        return seconds, None, f"constants --dim 3 printed zeta {payload['zeta']}, omega {payload['omega']}"
    return seconds, None, None


@dataclass
class Round:
    label: str
    jobs: list
    wall_s: float = 0.0  # raw: the sum of the jobs' wall times
    cpu_s: float = 0.0
    slices: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        return at_reference_speed(self.wall_s, self.slices)


def run_round(label: str, jobs, tracer=None) -> Round:
    rnd = Round(label, jobs, slices=[calibrate()])
    since = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{label}/{job.name}"
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            rnd.failures[job.name] = f"{type(exc).__name__}: {exc}"
        else:
            rnd.outputs[job.name] = out
        dt = time.perf_counter() - t0
        rnd.cpu_s += time.process_time() - c0
        rnd.wall_s += dt
        since += dt
        if since >= CAL_EVERY_S or i == len(jobs) - 1:
            rnd.slices.append(calibrate())
            since = 0.0
    return rnd


def check_rounds(rounds) -> list[str]:
    errors = []
    for rnd in rounds:
        for job in rnd.jobs:
            if job.name not in rnd.outputs:
                continue
            try:
                err = job.check(rnd.outputs[job.name], rnd.outputs)
            except Exception as exc:  # a check that cannot run marks the output wrong
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                errors.append(f"{rnd.label}/{job.name}: {err}")
    return errors


def report_failures(rounds):
    seen = set()
    for rnd in rounds:
        for name, msg in rnd.failures.items():
            if name not in seen:
                seen.add(name)
                print(f"failed operation {name}: {msg}", file=sys.stderr)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _row(label, values):
    return f"{label:24s}" + " ".join(f"{v:.3f}" for v in values)


def run_timed(args):
    setups = [fresh_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    _, plans = setup(args.workload, args.seed)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < len(plans):
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + rounds[-1].wall_s > args.seconds:
            break
        rounds.append(run_round(f"{args.workload}/r{len(rounds)}", plans[len(rounds)]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = check_rounds(rounds)
    metrics = {
        "wall_s": statistics.median(r.ref_s for r in rounds),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds")
    print(_row("round s (reference):", [r.ref_s for r in rounds]))
    print(_row("round wall s (raw):", [r.wall_s for r in rounds]))
    print(_row("round cpu s (raw):", [r.cpu_s for r in rounds]))
    print(_row("round slice ms:", [1e3 * statistics.mean(r.slices) for r in rounds]))
    print(_row("set-up s (reference):", [s["setup_s"] for s in setups]))
    print(_row("set-up s (raw):", [s["raw_setup_s"] for s in setups]))
    return rounds, errors, 0, {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(args):
    import spans
    import workloads

    setups = [fresh_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    colds = [cold_start() for _ in range(COLD_START_REPEATS)]
    plans = {w: setup(w, args.seed)[1] for w in WORKLOAD_NAMES}
    tracer = spans.Tracer()
    rounds = {w: ([], []) for w in WORKLOAD_NAMES}  # (untraced, traced)
    passes = 0
    start = time.perf_counter()
    last = 0.0
    while passes < 1 or (time.perf_counter() - start + last <= args.seconds
                         and 2 * passes + 1 < workloads.MAX_ROUNDS):
        t0 = time.perf_counter()
        for w in WORKLOAD_NAMES:
            rounds[w][0].append(run_round(f"{w}/r{2 * passes}", plans[w][2 * passes]))
            with tracer.installed():
                rounds[w][1].append(run_round(f"{w}/r{2 * passes + 1}", plans[w][2 * passes + 1], tracer))
        last = time.perf_counter() - t0
        passes += 1
    all_rounds = [r for w in WORKLOAD_NAMES for pair in rounds[w] for r in pair]
    errors = check_rounds(all_rounds)

    # span times are brought to reference speed with the traced rounds' slices
    speed = at_reference_speed(1.0, [c for w in WORKLOAD_NAMES for r in rounds[w][1] for c in r.slices])

    def per_round(name, value):
        unit = LAYER_UNITS[name]
        if unit == "s":
            return value * speed / passes
        if unit == "count":
            return value / passes
        return value / speed if unit.endswith("/s") else value

    per_workload = {w: spans.layer_metrics(tracer.spans, lambda job, w=w: job.startswith(w + "/"))
                    for w in WORKLOAD_NAMES}
    total = spans.layer_metrics(tracer.spans, lambda job: True)
    metrics = {
        "cli.cold_start_s": statistics.median(c[0] for c in colds),
        "quadform.import_s": statistics.median(s["import_s"] for s in setups),
        "quadform.constants_s": statistics.median(s["constants_s"] for s in setups),
    }
    metrics.update({k: per_round(k, v) for k, v in total.items()})
    untraced = {w: sum(r.ref_s for r in rounds[w][0]) for w in WORKLOAD_NAMES}
    traced = {w: sum(r.ref_s for r in rounds[w][1]) for w in WORKLOAD_NAMES}
    metrics["trace.overhead_ratio"] = sum(traced.values()) / sum(untraced.values())

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-seed{args.seed}.jsonl")
    print(f"traced run, seed {args.seed}: {passes} untraced + {passes} traced round(s) per workload")
    print(f"{'metric':40s} {'unit':9s} " + " ".join(f"{w:>12s}" for w in WORKLOAD_NAMES) + f" {'all':>12s}")
    for k in total:
        cols = [per_round(k, per_workload[w][k]) for w in WORKLOAD_NAMES]
        print(f"{k:40s} {LAYER_UNITS[k]:9s} " + " ".join(f"{c:12.4g}" for c in cols) + f" {metrics[k]:12.4g}")
    print("round s untraced / traced (reference): " + ", ".join(
        f"{w} {untraced[w] / passes:.3f} / {traced[w] / passes:.3f}" for w in WORKLOAD_NAMES))
    for _, failure, _ in colds:
        if failure:
            print(f"failed operation cli cold start: {failure}", file=sys.stderr)
    errors += [f"cli cold start: {wrong}" for _, _, wrong in colds if wrong]
    failed_cli = sum(1 for c in colds if c[1])
    return all_rounds, errors, failed_cli, {k: _metric(metrics[k], LAYER_UNITS[k]) for k in LAYER_UNITS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "horocount" / "__init__.py").is_file():
        print(f"horocount sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        phases, _ = setup(args.workload, args.seed)
        phases["ready"] = time.monotonic()
        print(json.dumps(phases))
        return 0
    calibrate()  # loads numpy before any slice is timed
    rounds, errors, extra_failed, metrics = (run_traced if args.trace else run_timed)(args)
    report_failures(rounds)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    attempted = sum(len(r.jobs) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    if args.trace:
        attempted += COLD_START_REPEATS
        failed += extra_failed
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, checks {'passed' if not errors else 'FAILED'}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
