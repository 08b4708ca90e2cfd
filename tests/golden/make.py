"""Golden outputs: horocount results that a change meaning to keep its
outputs must reproduce exactly.

records() computes every record; tests/test_golden.py recomputes them and
compares them with outputs.json, value for value.  A change that means to
change an output rewrites the file with

    PYTHONPATH=src:tests python tests/golden/make.py

and lists every changed record (tests/ is on the path for the near-tie
grams of tests/test_quadform.py).

Covered: exact-mode counts (full, primitive, error terms, an exact batch),
float-mode count_primitive_many batches at radii [2.5, 4.0] (a seeded
stack of 200 near-tie grams per d = 2..4, where the last bit of a
Gram-Schmidt value decides whether a gram is LLL-reduced, and 300
exact-sampler d = 2 forms), n0_series, exact shell tables, verify_inversion and error_relation_check
reports, exact-sampler d = 2 mean_square_check reports (one radius and a
list), both sweep kinds on I_2, I_3 and one fixed float d = 3 gram
(including an empty row at T = -1e9 and a chimney sweep that is refused),
the d = 2 horocycle averages (decay series of a bump and an indicator
profile, one with t < 0 and one from 20 to 26, where one t alone has more
than latcount.BLOCK w values; criterion 6's Lipschitz estimate and
criterion 7's integrated-bound rows), and the payloads of the chimney,
horoball, count, d = 2 equidist, constants, exact-sampler d = 2 meansq
and d = 2 verify moebius commands.  The sweep payloads carry no timing
key; the count payload's elapsed_ms is dropped.

Left out: walk samples.  sample_walk's output depends on the last bits of
every expm, matrix product and reduction, so another BLAS or numpy build
gives other samples from the same seed, and with them other counts.  The
float counts kept here (the fixed d = 3 gram and the exact-sampler d = 2
lattices) rest on numpy's Cholesky too, but only a point within a float
boundary band could move with its last bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib

import numpy as np

from horocount import acceptance, equidist, latcount, moebius, orbits, randlat
from horocount.cli import main
from horocount.latcount import EllipsoidSpec
from horocount.quadform import GroupElement, QuadForm, act
from test_quadform import near_tie_grams

OUTPUTS = pathlib.Path(__file__).with_name("outputs.json")

SHEAR = {2: [[2, 1], [1, 1]], 3: [[1, 2, -1], [0, 1, 3], [0, 0, 1]],
         4: [[1, 1, 0, 2], [0, 1, -1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]}


def _integral(d):
    """I_d and one GL_d(Z) image of it, both counted exactly."""
    return {f"I{d}": QuadForm.identity(d),
            f"S{d}": act(QuadForm.identity(d), GroupElement.from_matrix(SHEAR[d]))}


def _float3():
    """A fixed non-integral d = 3 form, counted in float mode."""
    g = GroupElement.from_matrix([[1.0, 0.0, 0.0], [0.31, 1.0, 0.0], [0.11, 0.27, 1.0]])
    return act(QuadForm.identity(3), g)


def _plain(obj):
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj


def _counts():
    out = {}
    for d, radii in ((2, (0.5, 7.3, 150.0)), (3, (2.0, 11.2, 31.0)), (4, (3.3, 9.7))):
        for name, form in _integral(d).items():
            for r in radii:
                spec = EllipsoidSpec(form, r)
                out[f"full/{name}/{r}"] = _plain(latcount.count_full(spec, mode="exact"))
                out[f"moebius/{name}/{r}"] = _plain(latcount.count_primitive_moebius(spec, mode="exact"))
                out[f"error_terms/{name}/{r}"] = _plain(latcount.error_terms(spec))
                out[f"n0_series/{name}/{r}"] = latcount.n0_series(spec).tolist()
    for d, r in ((2, 40.5), (3, 8.9)):
        forms = list(_integral(d).values())
        out[f"many/exact{d}/{r}"] = [_plain(x) for x in latcount.count_primitive_many(forms, r)]
    return out


def _float_batches():
    """Float-mode batches, one record per stack and radius: each form's
    "n0 n1 boundary_ambiguous"."""
    rng = np.random.default_rng(61)
    stacks = {f"near_tie{d}": QuadForm.from_grams(np.array(near_tie_grams(rng, d, 200)))
              for d in (2, 3, 4)}
    stacks["exact_sampler"] = QuadForm.from_grams(
        np.array([s.basis.mat.T @ s.basis.mat for s in randlat.sample_exact_d2(rng, 300)]))
    out = {}
    for name, forms in stacks.items():
        radii = [2.5, 4.0]
        for r, row in zip(radii, latcount.count_primitive_many(forms, radii, mode="float")):
            out[f"many/float/{name}/{r}"] = [f"{x.n0} {x.n1} {x.boundary_ambiguous}" for x in row]
    return out


def _shells():
    out = {}
    for d, top in ((2, 400), (3, 90), (4, 30)):
        for name, form in _integral(d).items():
            out[f"shell_table/{name}/{top}"] = [t.tolist() for t in latcount.shell_table(form, top)]
    return out


def _moebius():
    out = {}
    for d, radii in ((2, (0.5, 10.0, 200.0)), (3, (4.5, 20.0)), (4, (6.0,))):
        for name, form in _integral(d).items():
            for r in radii:
                spec = EllipsoidSpec(form, r)
                out[f"verify_inversion/{name}/{r}"] = _plain(moebius.verify_inversion(spec))
                out[f"error_relation/{name}/{r}"] = _plain(moebius.error_relation_check(spec))
    spec = EllipsoidSpec(_float3(), 7.5)
    out["error_relation/F3/7.5"] = _plain(moebius.error_relation_check(spec))
    return out


def _mean_square():
    return {
        "meansq/d2/10.0": _plain(randlat.mean_square_check(2, 10.0, 300, seed=11)),
        "meansq/d2/[5,10,20]": [_plain(x) for x in
                                 randlat.mean_square_check(2, [5.0, 10.0, 20.0], 300, seed=12)],
    }


def _sweeps():
    out = {}
    sweeps = (
        ("horoball/I2", QuadForm.identity(2), [16.0, -1e9, 8.0, 12.5, 10.0, 14.0], {}),
        ("chimney/I2", QuadForm.identity(2), [8.0, 9.0, 11.0, 13.0, 15.0, -1e9], {}),
        ("horoball/I3", QuadForm.identity(3), [5.0, 6.0, 7.5, 9.0, 10.0, 11.5], {}),
        ("chimney/I3", QuadForm.identity(3), [5.0, 9.0, 2.0, 7.0], {}),
        ("horoball/F3", _float3(), [4.0, 5.5, 7.0, 8.5, 10.0], {}),
        ("chimney/F3", _float3(), [10.0, 4.0, 5.5, 7.0, 8.5], {"sigma": 1}),
    )
    for name, form, ts, sigma in sweeps:
        kind = name.split("/")[0]
        try:
            out[f"sweep/{name}"] = [_plain(r) for r in orbits.sweep(form, ts, kind=kind, **sigma)]
        except latcount.CountingError as exc:
            out[f"sweep/{name}"] = {"error": str(exc)}
    return out


def _decay():
    """d = 2 averages: decay series, the Lipschitz estimate and the
    integrated bound, with the inputs of criteria 6 and 7."""
    bump, ind = equidist.bump_profile(1.0), equidist.indicator_profile(1.0)
    out = {}
    for name, h, grid in (("bump/[1,14]x40", bump, np.linspace(1.0, 14.0, 40)),
                          ("indicator/[-3,14]x35", ind, np.linspace(-3.0, 14.0, 35)),
                          ("bump/[20,26]x25", bump, np.linspace(20.0, 26.0, 25))):
        averages, fit, refs = equidist.decay_series(h, grid, d=2)
        out[f"decay_series/{name}"] = {"averages": [_plain(a) for a in averages],
                                       "fit": _plain(fit), "refs": refs}
    out["lipschitz/criterion6"] = equidist.estimate_lipschitz(bump, [1.0, 3.0, 6.0, 10.0, 13.0])
    f_norm, f_norm_se = equidist.estimate_f_norm(ind, n=6000, seed=acceptance.SEED + 2)
    out["integrated/criterion7"] = {
        "f_norm": [f_norm, f_norm_se],
        "rows": equidist.integrated_error_bound(ind, [4.0, 6.0, 8.0, 10.0], f_norm, f_norm_se)}
    return out


def _cli(argv):
    """Exit code, stderr, CSV text and JSON payload of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = stdout.getvalue()
    at = text.find("{")
    payload = json.loads(text[at:]) if at >= 0 else None
    if payload is not None:
        payload.pop("elapsed_ms", None)
    return {"code": code, "stderr": stderr.getvalue(), "csv": text[:max(at, 0)], "payload": payload}


def _commands():
    runs = (
        ["horoball", "--dim", "2", "--tmin", "4", "--tmax", "14", "--steps", "11"],
        ["horoball", "--dim", "3", "--tmin", "3", "--tmax", "10", "--steps", "8", "--envelope"],
        ["horoball", "--dim", "4", "--tmin", "4.8", "--tmax", "8", "--steps", "5"],
        ["chimney", "--dim", "2", "--tmin", "4", "--tmax", "14", "--steps", "11", "--envelope"],
        ["chimney", "--dim", "3", "--tmin", "3", "--tmax", "10", "--steps", "8"],
        ["chimney", "--dim", "3", "--tmin", "3", "--tmax", "10", "--steps", "8", "--sigma", "1"],
        ["count", "--dim", "3", "--radius", "20", "--primitive"],
        ["equidist", "--dim", "2", "--tmin", "1", "--tmax", "14", "--steps", "40"],
        ["constants", "--dim", "2"],
        ["constants", "--dim", "3"],
        ["meansq", "--dim", "2", "--radius", "5", "--samples", "300", "--seed", "11"],
        ["verify", "moebius", "--dim", "2", "--radius", "10"],
    )
    return {"cli/" + " ".join(argv): _cli(argv) for argv in runs}


def records() -> dict:
    """Every record, as plain JSON values (tuples read back as lists)."""
    out = {}
    for part in (_counts, _float_batches, _shells, _moebius, _mean_square, _sweeps, _decay, _commands):
        out.update(part())
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    OUTPUTS.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUTS}")
