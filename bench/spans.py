"""Span tracing of horocount's layers, and the per-layer metrics built from it.

Tracer.installed() replaces each traced function at every binding that
callers use: the attribute of each horocount module that holds it
(functions imported by name, such as randlat.count_primitive_moebius),
the module attribute that a call-time import reads (moebius.sieve), and
the class attribute of a static method (QuadForm.from_gram).  On leaving
the block every binding gets its original back, so untimed and timed
rounds run without wrappers.

Each call records a span [name, start, end, parent index, job id, info]
in memory; spans are written out once, when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
import time

import oracles

# (module, attribute, info taken from the bound arguments and the result)
TRACED = (
    ("quadform", "QuadForm.from_gram", None),
    ("latcount", "count_full", lambda a, out: out.n0),
    ("latcount", "count_primitive_moebius",
     lambda a, out: (a["spec"].form.gram.copy(), a["spec"].radius)),
    ("latcount", "enumerate_points", None),
    ("latcount", "error_terms", None),
    ("moebius", "sieve", lambda a, out: a["limit"]),
    ("orbits", "sweep", None),
    ("orbits", "stabilizer_order", None),
    ("equidist", "horosphere_average", lambda a, out: a["d"]),
    ("equidist", "decay_series", None),
    ("randlat", "sample_exact_d2", None),
    ("randlat", "sample_walk", lambda a, out: a["burn_in"] + a["thin"] * a["n"]),
    ("randlat", "discrepancy", None),
    ("randlat", "mean_square_check", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        sig = inspect.signature(fn) if info else None

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if info:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = info(bound.arguments, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in sys.modules.items() if k == "horocount" or k.startswith("horocount.")]
        undo = []
        try:
            for mod_name, attr, info in TRACED:
                mod = sys.modules[f"horocount.{mod_name}"]
                name = f"{mod_name}.{attr.split('.')[-1]}"
                if "." in attr:  # a static method: rebind on the class
                    cls = getattr(mod, attr.split(".")[0])
                    meth = attr.split(".")[1]
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, staticmethod(self._wrap(name, orig.__func__, info)))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, info)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            undo.append((m, key, orig))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(spans: list[list], keep) -> dict:
    """Per-layer metrics over the spans whose job id satisfies keep(job)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    chosen = [i for i, rec in enumerate(spans) if keep(rec[4])]

    def of(name, extra=lambda rec: True):
        return [i for i in chosen if spans[i][0] == name and extra(spans[i])]

    def self_s(idx):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def total_s(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    def under_average(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == "equidist.horosphere_average":
                return True
            p = spans[p][3]
        return False

    full = of("latcount.count_full")
    done_full = [i for i in full if spans[i][5] is not None]
    cpm = of("latcount.count_primitive_moebius")
    sieve = of("moebius.sieve")
    walk = of("randlat.sample_walk")
    k_planned = sum(spans[i][5] or 0 for i in sieve)
    shortest: dict = {}
    k_useful = 0
    for i in cpm:
        if spans[i][5] is None:
            continue
        gram, radius = spans[i][5]
        key = gram.tobytes()
        if key not in shortest:
            shortest[key] = oracles.shortest_vector(gram)
        k_useful += math.floor(radius / shortest[key])
    return {
        "quadform.from_gram_calls": len(of("quadform.from_gram")),
        "quadform.from_gram_s": self_s(of("quadform.from_gram")),
        "latcount.count_full_s": self_s(full),
        "latcount.count_full_points_per_s": ratio(sum(spans[i][5] for i in done_full), total_s(done_full)),
        "latcount.count_primitive_moebius_calls": len(cpm),
        "latcount.count_primitive_moebius_s": self_s(cpm),
        "latcount.enumerate_points_calls": len(of("latcount.enumerate_points")),
        "latcount.enumerate_points_s": self_s(of("latcount.enumerate_points")),
        "moebius.sieve_calls": len(sieve),
        "moebius.sieve_s": self_s(sieve),
        "moebius.k_planned": k_planned,
        "moebius.k_useful_ratio": ratio(k_useful, k_planned),
        "orbits.sweep_s": self_s(of("orbits.sweep")),
        "orbits.stabilizer_order_s": self_s(of("orbits.stabilizer_order")),
        "equidist.horosphere_average_d2_s": self_s(of("equidist.horosphere_average", lambda r: r[5] == 2)),
        "equidist.horosphere_average_d3_s": self_s(of("equidist.horosphere_average", lambda r: r[5] == 3)),
        "equidist.base_forms": sum(1 for i in of("quadform.from_gram") if under_average(i)),
        "randlat.sample_exact_d2_s": self_s(of("randlat.sample_exact_d2")),
        "randlat.sample_walk_s": self_s(walk),
        "randlat.walk_steps_per_s": ratio(sum(spans[i][5] or 0 for i in walk), total_s(walk)),
        "randlat.discrepancy_s": self_s(of("randlat.discrepancy")),
    }
