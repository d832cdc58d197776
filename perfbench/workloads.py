"""The four benchmark workloads.

Each workload turns a seed into a fixed list of inputs and defines one op:
a whole body (or, for ``cli``, one whole subprocess) taken through the
workload's full pipeline.  ``draw(i)`` makes the input of op i of the list
and is never timed, ``steps`` lists the library calls of the op, ``run``
runs them in order and times each, and ``check`` validates the op's output
and raises ``CheckFailed`` when it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

# Library calls go through module attributes, so that the tracer's
# wrappers, which replace those attributes, see every call an op makes.
from affpoints import duality, points, polygons, regions
from affpoints.bodies import random_body, random_map
from affpoints.points import PointFunction
from affpoints.polygons import AffineMap, canonicalize

CAP_PARAMS = (0.1, 0.05)
G = PointFunction("centroid")
S = PointFunction("santalo")
J = PointFunction("john")
L = PointFunction("loewner")
M = PointFunction("symcore")
C = PointFunction("capfamily", CAP_PARAMS)
ALL_POINTS = (G, S, J, L, M, C)

# Tolerances of tests/test_acceptance.py (criteria 4, 5, 6) and of the
# polar_preimage stopping rule.
TOL_DUAL_GS = 1e-6
TOL_DUAL_JL = 1e-5
TOL_PRODUCT = 1e-5
TOL_PREIMAGE = 1e-9
TOL_INVARIANCE = 1e-6
TOL_INSIDE = 1e-9      # containment slack, times the body diameter
TOL_LARGE_N = 1e-8     # times the body diameter


class CheckFailed(Exception):
    """An op produced an output that fails its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _margin(verts: np.ndarray, x) -> float:
    """Signed distance from x to the boundary of a CCW polygon (> 0 inside)."""
    e = np.roll(verts, -1, axis=0) - verts
    n = np.column_stack([e[:, 1], -e[:, 0]])
    n /= np.linalg.norm(n, axis=1)[:, None]
    return float(np.min(np.einsum("ij,ij->i", n, verts) - n @ np.asarray(x)))


def _diameter(verts: np.ndarray) -> float:
    d = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max())


def _inside(inner: np.ndarray, outer: np.ndarray, slack: float) -> bool:
    return all(_margin(outer, v) >= -slack for v in inner)


def _rotation(t: float) -> np.ndarray:
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _turned(P, t: float):
    """P turned about its centroid by the angle t."""
    R = _rotation(t)
    g = P.centroid
    return polygons.affine_apply(AffineMap(R, g - R @ g), P)


class Workload:
    name = ""
    # The fixed op list holds fixed_ops ops and is run `passes` times, each
    # pass placing every op's input afresh; the traced run covers one pass.
    fixed_ops = 1
    passes = 1

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def draw(self, i: int):
        """The input of op i of the fixed list, placed afresh on each call
        where the workload has placements, so no pass repeats another."""
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def steps(self, inp) -> list:
        """The op as (name, call) pairs, run in order; each call gets the
        outputs of the steps before it, by name."""
        raise NotImplementedError

    def run(self, inp, times: list, between=None) -> dict:
        """Run the op and return its outputs by step name.

        Appends each step's time to ``times`` and calls ``between`` after
        each step, outside the step times."""
        out = {}
        for name, call in self.steps(inp):
            t0 = time.perf_counter()
            out[name] = call(out)
            times.append(time.perf_counter() - t0)
            if between is not None:
                between()
        return out

    def run_traced(self, inp, times: list, between=None) -> dict:
        """The op as the traced run times it: in this process."""
        return self.run(inp, times, between)

    def check(self, inp, out) -> None:
        raise NotImplementedError


def stream_with_preimages(count: int, seed: int):
    """``duality.random_polygons(count, seed)``, each body paired with the
    disk hull that the stream's random affine map carried onto it."""
    rng = np.random.default_rng(seed)  # replays the stream's own draws
    for P in duality.random_polygons(count, seed):
        k, s = int(rng.integers(5, 31)), int(rng.integers(0, 2**32))
        assert np.array_equal(random_body(k, s).vertices, P.vertices)
        yield P, random_body(k, s, affine=False)


class Points(Workload):
    """Small random bodies through every point id and the duality algebra.

    ``invariance_check`` runs on the disk hull that the stream mapped onto
    the op's body, not on the body itself: its five maps, stacked on the
    stream's own map, reach condition numbers near 2500, and there
    ``santalo_point`` stalls just above its absolute 1e-12 residual
    tolerance on about 1.5% of bodies (a library defect).  The benchmark
    must run only ops that succeed, so the check gets the body before the
    stream's map, where the stall was not seen in 3000 draws.
    """

    name = "points"
    fixed_ops = 56

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.bodies = list(stream_with_preimages(self.fixed_ops, seed))
        self._rng = np.random.default_rng([seed, 1])

    def draw(self, i):
        # body i and its preimage, each turned by a fresh seeded angle; the
        # turns keep ops after the fixed list from repeating its inputs
        P, B = self.bodies[i]
        t, u = self._rng.uniform(0.0, 2.0 * np.pi, size=2)
        return _turned(P, t), _turned(B, u), self.seed * 100003 + i

    def warmup_input(self):
        Q = canonicalize([(0, 0), (1, 0), (1.2, 0.9), (0.1, 1)])
        return Q, Q, 0

    def steps(self, inp):
        P, B, inv_seed = inp

        def point(pf):
            return lambda out: points.eval_point(pf, P).value

        return [*((pf.id, point(pf)) for pf in ALL_POINTS),
                ("dual_gs", lambda out: duality.dual_residual(G, S, [P])),
                ("dual_sg", lambda out: duality.dual_residual(S, G, [P])),
                ("dual_jl", lambda out: duality.dual_residual(J, L, [P])),
                ("product", lambda out: duality.product_apply(G, S, J, P)),
                ("preimage", lambda out: duality.polar_preimage(S, P)),
                ("invariance", lambda out: duality.invariance_check(S, B, 5, inv_seed))]

    def check(self, inp, out):
        P = inp[0]
        vals = {pf.id: out[pf.id] for pf in ALL_POINTS}
        reps = [out["dual_gs"], out["dual_sg"], out["dual_jl"]]
        prod, z, inv = out["product"], out["preimage"], out["invariance"]
        v = P.vertices
        diam = _diameter(v)
        for pid, x in vals.items():
            _require(_margin(v, x) > 0.0, f"{pid} point not interior")
        for rep, tol in zip(reps, (TOL_DUAL_GS, TOL_DUAL_GS, TOL_DUAL_JL)):
            _require(not rep.failures and rep.max_residual < tol,
                     f"dual residual {rep.pair}: {rep.max_residual:.3e}")
        dev = float(np.linalg.norm(prod - vals["john"])) / diam
        _require(dev < TOL_PRODUCT, f"product deviation {dev:.3e}")
        Q = polygons.polar_about(P, z)
        res = float(np.linalg.norm(points.eval_point(S, Q).value))
        _require(res < TOL_PREIMAGE * _diameter(Q.vertices),
                 f"preimage residual {res:.3e}")
        _require(inv <= TOL_INVARIANCE, f"invariance deviation {inv:.3e}")


class Regions(Workload):
    """Small bodies through all five set mappings.

    Floating and illumination take 64 rays, the least they accept; the
    santalo, john and symcore regions take 16.  At 64 rays one john region
    lasts 4 s, too long a step for the speed probes between steps to follow
    the machine (scaled times spread 0.15); the per-ray loop is the same at
    16 rays.  The op cost moves by up to 2x with the shape and even with a
    mild affine placement of one shape, so the shapes form a fixed roster
    drawn once from ``duality.random_polygons``, and the seed draws a
    similarity that keeps both ray grids: a rotation by a multiple of
    2 pi / 16, a uniform scale and a translation.
    """

    name = "regions"
    fixed_ops = 2
    passes = 6
    ROSTER_SEED = 2013
    RAYS = 64
    REGION_RAYS = 16
    DELTA = 0.1
    LEVEL = 0.5

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.roster = list(duality.random_polygons(self.fixed_ops, self.ROSTER_SEED))
        self._rng = np.random.default_rng(seed)

    def draw(self, i):
        shape = self.roster[i]
        t = 2.0 * np.pi * int(self._rng.integers(self.REGION_RAYS)) / self.REGION_RAYS
        scale = float(np.exp(self._rng.uniform(-1.0, 1.0)))
        T = AffineMap(scale * _rotation(t), self._rng.normal(size=2))
        return polygons.affine_apply(T, shape), self.REGION_RAYS

    def warmup_input(self):
        # few rays on the three ray-region maps keep the warm-up cheap; the
        # floating and illumination maps refuse fewer than 64
        return canonicalize([(0, 0), (1, 0), (0, 1)]), 8

    def steps(self, inp):
        P, m = inp
        return [
            ("floating", lambda out: regions.floating_body(P, self.DELTA, self.RAYS)),
            ("illumination",
             lambda out: regions.illumination_body(P, self.DELTA, self.RAYS)),
            ("santalo", lambda out: regions.santalo_region(P, self.LEVEL, m)),
            ("john", lambda out: regions.john_region(P, self.LEVEL, m)),
            ("symcore", lambda out: regions.symcore_region(P, self.LEVEL, m)),
        ]

    def check(self, inp, out):
        P, _ = inp
        v = P.vertices
        slack = TOL_INSIDE * _diameter(v)
        for name, R in out.items():
            _require(R.n >= 3, f"{name} region has {R.n} vertices")
        _require(_inside(out["floating"].vertices, v, slack), "floating not in K")
        _require(_inside(v, out["illumination"].vertices, slack),
                 "K not in illumination")
        centers = {"santalo": points.eval_point(S, P).value,
                   "john": points.eval_point(J, P).value,
                   "symcore": points.eval_point(M, P).value}
        for name, x in centers.items():
            R = out[name].vertices
            _require(_inside(R, v, slack), f"{name} region not in K")
            _require(_margin(R, x) > 0.0, f"{name} region misses its center")


def limacon(n: int) -> np.ndarray:
    """n points on the convex limacon r = 1 + 0.2 cos t."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.cos(t)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class LargeN(Workload):
    """One 1024-vertex asymmetric body under a fresh affine map per op.

    Each map is ``bodies.random_map`` scaled so that its smaller singular
    value is 1: the shape and condition number (up to 50) are the library's,
    but the body is never squashed to a width near 1e-2.  There
    ``canonicalize`` drops vertices it takes for collinear (an absolute
    tolerance, a library defect): under a map with singular values 0.59 and
    0.0124 it kept 515 of the 1024 vertices, and every point moved by a
    third of the diameter.  The benchmark must run only ops that succeed.
    """

    name = "large_n"
    fixed_ops = 12
    VERTICES = 1024
    IDS = (S, J, L, C)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.base = canonicalize(limacon(self.VERTICES))
        self.diam = _diameter(self.base.vertices)
        self._rng = np.random.default_rng(seed)
        self._first = None

    def draw(self, i):
        T = random_map(self._rng)
        s_min = np.linalg.svd(T.matrix, compute_uv=False)[-1]
        return self.base, AffineMap(T.matrix / s_min, T.translation)

    def warmup_input(self):
        return canonicalize(limacon(64)), random_map(np.random.default_rng(0))

    def steps(self, inp):
        base, T = inp

        def point(pf):
            return lambda out: points.eval_point(pf, out["K"]).value

        return [
            ("K", lambda out: polygons.affine_apply(T, base)),
            ("diam", lambda out: out["K"].diameter),
            ("g", lambda out: out["K"].centroid),
            ("Kp", lambda out: polygons.polar_about(out["K"], out["g"], translate=True)),
            ("Kpp", lambda out: polygons.polar_about(out["Kp"], out["g"], translate=True)),
            ("h", lambda out: polygons.hausdorff(out["K"], out["Kpp"])),
            *((pf.id, point(pf)) for pf in self.IDS),
        ]

    def check(self, inp, out):
        base, T = inp
        diam, h = out["diam"], out["h"]
        vals = [out[pf.id] for pf in self.IDS]
        _require(h <= TOL_LARGE_N * diam, f"bipolar Hausdorff {h:.3e}")
        back = T.inverse()(np.asarray(vals))
        if base is not self.base:
            return  # the warm-up body has no reference points
        if self._first is None:
            self._first = back
            return
        dev = float(np.abs(back - self._first).max())
        _require(dev <= TOL_LARGE_N * self.diam, f"points drift {dev:.3e}")


class Cli(Workload):
    """Cold ``python -m affpoints.cli`` processes over cheap subcommands."""

    name = "cli"
    passes = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.commands = self._commands(seed)
        self.fixed_ops = len(self.commands)

    @staticmethod
    def _commands(seed: int):
        rng = np.random.default_rng(seed)
        a, d = rng.uniform(0.2, 0.8), rng.uniform(0.2, 1.0)

        def body():
            return f"random:{int(rng.integers(5, 14))},{int(rng.integers(0, 2**31))}"

        return [
            ["point", "--body", "simplex", "--id", "santalo"],
            ["polar", "--body", body()],
            ["shift", "--body", "square", "--z", "0.2,-0.1"],
            ["ellipse", "john", "--body", "simplex", "--certify"],
            ["region", "floating", "--body", body(), "--param", "0.1",
             "--rays", "64"],
            ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "10",
             "--seed", str(int(rng.integers(0, 2**31)))],
            # a trapezoid: on mapped random bodies the five maps hit the
            # santalo stall described in Points
            ["invariance", "--body", f"kab:{a:.3f},{a + d:.3f}", "--id",
             "santalo", "--trials", "5",
             "--seed", str(int(rng.integers(0, 2**31)))],
            ["preimage", "--body", body(), "--id", "centroid"],
            ["counterexample"],
            ["iterate-product", "--body", body(), "--p", "centroid", "--r",
             "john", "--k", "3"],
        ]

    def draw(self, i):
        return self.commands[i]

    def warmup_input(self):
        return ["point", "--body", "square", "--id", "centroid"]

    def steps(self, argv):
        def cold(out):
            proc = subprocess.run([sys.executable, "-m", "affpoints.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        return [("process", cold)]

    def run_traced(self, argv, times, between=None):
        from affpoints.cli import run_command

        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = run_command(argv)
        times.append(time.perf_counter() - t0)
        return {"process": (code, buf.getvalue(), "")}

    def check(self, argv, out):
        code, stdout, stderr = out["process"]
        _require(code == 0, f"{argv[0]} exit {code}: {stderr.strip()[-200:]}")
        lines = stdout.strip().splitlines()
        _require(len(lines) == 1, f"{argv[0]} printed {len(lines)} lines")
        doc = json.loads(lines[0])
        if argv[0] in ("point", "ellipse"):
            # every point of the simplex and of the square is its centroid
            body = argv[argv.index("--body") + 1]
            want = {"simplex": [1.0 / 3.0, 1.0 / 3.0], "square": [0.0, 0.0]}[body]
            got = doc["value"] if argv[0] == "point" else doc["center"]
            _require(np.allclose(got, want, atol=1e-9), f"{body} point {got}")
        if argv[0] == "ellipse":
            _require("certificate" in doc, "ellipse certificate missing")
        elif argv[0] in ("dual-check", "counterexample", "invariance"):
            _require(doc.get("passed") is True, f"{argv[0]} did not pass")
        elif argv[0] == "preimage":
            _require(doc["residual"] < 1e-6, f"preimage residual {doc['residual']}")


WORKLOADS = {w.name: w for w in (Points, Regions, LargeN, Cli)}
