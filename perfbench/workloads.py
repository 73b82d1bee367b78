"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload is a fixed cycle of operation classes.  Every class is
sized once (horizon, tolerance, grid, norms of the data), and the seed only
varies the shapes of the fuzzy data and the signs of matrix entries, so
the amount of work per operation does not depend on the seed.  Each class
holds a pool of ``POOL`` seeded inputs; operation i runs class
``cycle[i % len(cycle)]`` on pool entry ``(i // len(cycle)) % POOL``.

An operation has three parts:

* ``run()``   -- the timed call into fuzzsemi (one solve, one
  ``residual_check`` or one CLI invocation);
* ``collect(raw)`` -- untimed, turns the raw return value into what is
  checked (the CLI outputs are read back from disk here);
* ``check(out)`` -- raises ``Miss`` when the output misses its oracle by
  more than the operation's tolerance.  The oracles live in
  ``oracles.py`` and work on endpoint arrays only.

Every library function is looked up through its module at call time, so a
tracer installed after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct

import numpy as np

import oracles

LEVELS = 64  # membership-grid panels: 65 levels per endpoint function
POOL = 4  # seeded inputs per operation class

SWAP = ((0.0, 1.0), (1.0, 0.0))  # the paper's u' = v, v' = u system
COUPLED = ((1.0, 1.0), (-1.0, -1.0))  # u' = u + v, v' = -(u + v)


class Miss(Exception):
    """An output that misses its oracle or breaks the output contract."""


class Op:
    def __init__(self, label, run, check, collect=None):
        self.label = label
        self.run = run
        self.check = check
        self.collect = collect or (lambda raw: raw)


# ---------------------------------------------------------------------------
# seeded data


def _ramp(rng, m=LEVELS):
    """Strictly increasing random profile from 0 to 1 on m + 1 levels."""
    s = np.concatenate([[0.0], np.cumsum(rng.random(m) + 1e-3)])
    return s / s[-1]


def random_endpoints(rng, center, left, right, core_width=0.0, ramp=None):
    """Endpoint arrays with support [center - left, center + core_width + right].

    ``ramp`` is the profile of the lower branch when the caller has already
    drawn it (to pin a coefficient that depends on it).
    """
    ramp = _ramp(rng) if ramp is None else ramp
    lo = np.minimum(center - left + left * ramp, center)
    top = center + core_width
    up = np.maximum(top + right * (1.0 - _ramp(rng)), top)
    return lo, up


def unit_ball_endpoints(rng):
    """Random data with every endpoint inside [-0.75, 0.75]."""
    return random_endpoints(
        rng, rng.uniform(-0.4, 0.4), rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.1)
    )


def _left_for_coeff(levels, ramp, coeff):
    # lower[-1] - integral(lower) = left * (1 - integral(ramp))
    return coeff / (1.0 - oracles.level_integral(levels, ramp))


def generator_constant(rng, levels, norm, lower_rate=None):
    """Nonnegative endpoints with max endpoint exactly ``norm``.

    With ``lower_rate`` the lower-endpoint coefficient (``mu_coeff``) is
    pinned to that value as well.
    """
    ramp = _ramp(rng)
    left = 0.1 if lower_rate is None else _left_for_coeff(levels, ramp, lower_rate)
    center, width = rng.uniform(left, 0.6 * norm), rng.uniform(0.0, 0.1)
    lo, up = random_endpoints(rng, center, left, norm - center - width, width, ramp)
    up[0] = norm
    return lo, up


def pinned_lower_coeff(rng, levels, coeff):
    """Data whose lower-endpoint coefficient is ``coeff`` and norm is below 1."""
    ramp = _ramp(rng)
    left = _left_for_coeff(levels, ramp, coeff)
    return random_endpoints(rng, rng.uniform(-0.3, 0.3), left, rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.1), ramp)


def mixed_sign_matrix(rng, k, bound):
    """Random k x k matrix with both signs and max absolute row sum ``bound``."""
    while True:
        a = rng.uniform(-1.0, 1.0, (k, k))
        if (a < 0).any() and (a > 0).any():
            return a * (bound / np.abs(a).sum(axis=1).max())


def triangular_endpoints(levels, left, center, right):
    return (
        np.minimum(center - (1.0 - levels) * (center - left), center),
        np.maximum(center + (1.0 - levels) * (right - center), center),
    )


# ---------------------------------------------------------------------------
# reading library outputs back as endpoint arrays


def endpoints(state) -> np.ndarray:
    """(2, levels) for a fuzzy number, (2, k, levels) for a product."""
    if hasattr(state, "components"):
        return np.stack([np.stack([c.lower for c in state.components]), np.stack([c.upper for c in state.components])])
    return np.stack([state.lower, state.upper])


def compact_fuzzy(obj):
    """``json.load`` hook: a fuzzy number becomes its (2, levels) endpoint
    array as soon as it is parsed, so the parsed output stays small."""
    if "lower" in obj and "upper" in obj:
        return np.array([obj["lower"], obj["upper"]], dtype=float)
    return obj


def json_endpoints(obj) -> np.ndarray:
    """Endpoints of a state parsed with ``compact_fuzzy``."""
    if isinstance(obj, np.ndarray):
        return obj
    if "product" in obj:
        comps = obj["product"]
        return np.stack([np.stack([c[0] for c in comps]), np.stack([c[1] for c in comps])])
    return np.stack(obj["values"])  # fuzzy function: (nodes, 2, levels)


def digest(value) -> bytes:
    """Bit-exact fingerprint of an operation's output."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, bytes):
            h.update(x)
        elif isinstance(x, (int, float)):
            h.update(struct.pack("<d", float(x)))
        elif isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        elif hasattr(x, "states"):  # trajectory
            h.update(x.times.tobytes())
            feed(x.states)
        elif hasattr(x, "components"):
            feed(x.components)
        else:
            h.update(x.levels.tobytes())
            h.update(x.lower.tobytes())
            h.update(x.upper.tobytes())

    feed(value)
    return h.digest()


def _check_gaps(label, pairs, tol):
    worst = max(oracles.gap(got, want) for got, want in pairs)
    if not worst <= tol:
        raise Miss(f"{label}: misses its oracle by {worst:.3e} > tol {tol:g}")
    return worst


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    cycle: tuple = ()
    size = ""  # input size beyond the membership grid, for the report

    def __init__(self, fz, seed, scratch):
        self.fz = fz
        self.seed = seed
        self.scratch = scratch
        self.levels = fz.core.level_grid(LEVELS)
        self.pool = {}
        for n, label in enumerate(self.cycle):
            rng = np.random.default_rng([seed, n])
            self.pool[label] = [self.make(label, rng, j) for j in range(POOL)]

    def fuzzy(self, lo, up):
        return self.fz.core.FuzzyNumber(self.levels, lo, up)

    def op(self, i) -> Op:
        label = self.cycle[i % len(self.cycle)]
        return self.pool[label][(i // len(self.cycle)) % POOL]

    def make(self, label, rng, j) -> Op:
        raise NotImplementedError


# forced ----------------------------------------------------------------------

FORCED_G_NORM = 0.8
# The node counts make the three classes cost about the same (within ~10%)
# and each about 100 ms, long enough to span several of a shared VM's speed
# switches.  So op_ms.p50 falls inside one mode of the latency distribution,
# not in the gap between two modes, where a small drift moves it a lot.
FORCED = {
    # scale(a): u' = a u + g
    "scale_tol6": dict(a=1.0, horizon=0.5, tol=1e-6, nodes=10),
    "scale_tol7": dict(a=0.5, horizon=0.5, tol=1e-7, nodes=6),
    # RemarkA with mu_coeff(c) = rate, ||c|| = c_norm, coeff(g) = g_coeff
    "remarkA_tol6": dict(rate=0.1, c_norm=0.8, g_coeff=0.1, horizon=1.0, tol=1e-6, nodes=12),
}


class Forced(Workload):
    """Scalar first-order solves with constant forcing (trapezoid doubling)."""

    name = "forced"
    cycle = tuple(FORCED)
    size = "scalar states, 6-12 time nodes, constant forcing, tol 1e-6 / 1e-7"

    def make(self, label, rng, j):
        fz, p = self.fz, FORCED[label]
        grid = np.linspace(0.0, p["horizon"], p["nodes"])
        u0_lo, u0_up = unit_ball_endpoints(rng)
        u0 = np.stack([u0_lo, u0_up])
        if "a" in p:
            g = np.stack(unit_ball_endpoints(rng))
            g *= FORCED_G_NORM / np.abs(g).max()
            operator = fz.operators.scale_operator(p["a"])

            def want(t, a=p["a"]):
                return oracles.scale_forced_flow(a, u0, g, t)
        else:
            c = np.stack(generator_constant(rng, self.levels, p["c_norm"], lower_rate=p["rate"]))
            g = np.stack(pinned_lower_coeff(rng, self.levels, p["g_coeff"]))
            operator = fz.operators.builtin("RemarkA", self.fuzzy(*c))
            rate = oracles.lower_coeff(self.levels, c[0])
            k_u0 = oracles.lower_coeff(self.levels, u0[0])
            k_g = oracles.lower_coeff(self.levels, g[0])

            def want(t):
                return oracles.generator_forced_flow(rate, k_u0, k_g, u0, g, c, t)

        g_fuzzy = self.fuzzy(*g)
        problem = fz.cauchy.CauchyProblem(
            operator, self.fuzzy(*u0), forcing=lambda s: g_fuzzy, horizon=p["horizon"], tol=p["tol"]
        )

        def run():
            return self.fz.cauchy.solve_first_order(problem, grid)

        def check(traj):
            pairs = [(endpoints(st), want(float(t))) for t, st in zip(traj.times, traj.states)]
            _check_gaps(label, pairs, p["tol"])

        return Op(label, run, check)


# lifted ----------------------------------------------------------------------

LIFTED_TOL = 1e-9
LIFTED_NODES = 64
RESIDUAL_H = 1e-3
RESIDUAL_LIMIT = 1e-2  # acceptance criterion 6
RESIDUAL_STRIDE = 4  # residual at every 4th interior node of the 64-node grid
LIFTED = {
    "p4": dict(matrix=SWAP, horizon=2.0, order=1),
    "p4_residual": dict(of="p4"),
    "p5": dict(matrix=COUPLED, horizon=1.0, order=1),
    "p5_residual": dict(of="p5"),
    "p6": dict(matrix=COUPLED, horizon=2.5, order=2),
    "rand2": dict(k=2, bound=2.0, horizon=1.0, order=1),
    "rand3": dict(k=3, bound=2.0, horizon=0.3, order=1),
}


class Lifted(Workload):
    """Unforced product problems: the worked systems and random matrices."""

    name = "lifted"
    cycle = tuple(LIFTED)
    size = f"{LIFTED_NODES} time nodes, 2-3 components, tol {LIFTED_TOL:g}; residuals at 16 nodes"

    def make(self, label, rng, j):
        fz, p = self.fz, LIFTED[label]
        if "of" in p:
            return self._residual_op(label, self.pool[p["of"]][j])
        matrix = np.array(p["matrix"]) if "matrix" in p else mixed_sign_matrix(rng, p["k"], p["bound"])
        k = matrix.shape[0]
        data = [unit_ball_endpoints(rng) for _ in range(k)]
        lo = np.stack([d[0] for d in data])
        up = np.stack([d[1] for d in data])
        w0 = fz.spaces.ProductElement(tuple(self.fuzzy(a, b) for a, b in zip(lo, up)))
        operator = fz.operators.lift_matrix(matrix)
        velocity = fz.spaces.elem_zero(w0) if p["order"] == 2 else None
        problem = fz.cauchy.CauchyProblem(
            operator, w0, initial_velocity=velocity, horizon=p["horizon"], tol=LIFTED_TOL
        )
        grid = np.linspace(0.0, p["horizon"], LIFTED_NODES)

        def run():
            solver = self.fz.cauchy.solve_second_order if p["order"] == 2 else self.fz.cauchy.solve_first_order
            return solver(problem, grid)

        def check(traj):
            # the oracles are recomputed (a few ms) rather than kept, so that
            # no harness data stays resident under the library's peak memory
            reference = oracles.rk4_endpoint_flow(matrix, lo, up, grid, p["order"])
            _check_gaps(label, [(endpoints(st), want) for st, want in zip(traj.states, reference)], LIFTED_TOL)

        op = Op(label, run, check)
        op.problem, op.grid = problem, grid
        return op

    def _residual_op(self, label, solve_op):
        problem = solve_op.problem
        times = solve_op.grid[1:-1][::RESIDUAL_STRIDE]

        def run():
            # a one-node trajectory carries the solver's evaluator, which
            # re-solves at each t and t +- h inside residual_check
            traj = self.fz.cauchy.solve_first_order(problem, np.array([0.0]))
            return self.fz.cauchy.residual_check(traj, problem.operator, h=RESIDUAL_H, times=times)

        def check(value):
            if not (math.isfinite(value) and 0.0 <= value < RESIDUAL_LIMIT):
                raise Miss(f"{label}: residual {value!r} not below {RESIDUAL_LIMIT:g}")

        return Op(label, run, check)


# cli -------------------------------------------------------------------------

CLI_SOLVE_TOL = 1e-9
CLI_SOLVE_NODES = 64  # the CLI's default --nodes
CLI_EXAMPLE_TOL = 1e-8  # the CLI's default example --tol
CLI_BANDS = 3  # rows per state and component in the default band CSV
CLI_SOLVES = {
    "solve_scale_o1": dict(kind="scale", order=1),
    "solve_scale_o2": dict(kind="scale", order=2),
    "solve_remarkA_o1": dict(kind="RemarkA", order=1),
    "solve_remarkA_o2": dict(kind="RemarkA", order=2),
    "solve_remarkB_o1": dict(kind="RemarkB", order=1),
    "solve_remarkB_o2": dict(kind="RemarkB", order=2),
    "solve_matrix_o1": dict(kind="matrix", order=1),
    "solve_matrix_o2": dict(kind="matrix", order=2),
    "solve_identity_o1": dict(kind="identity", order=1),
}
CLI_SCALE = 0.7  # |factor| of the scale operator; the seed picks the sign
CLI_MATRIX_BOUND = 1.5
CLI_C_NORM = 0.8
CLI_EXAMPLES = ("problem4", "problem5", "problem6", "wave", "remarkA")
CLI_EXAMPLE_T_MAX = {"problem4": 2.0, "problem5": 1.0, "problem6": 1.0, "wave": 1.0, "remarkA": 2.0}
CLI_EXAMPLE_T_POINTS = 9
CLI_WAVE_NODES = 65
CLI_VERIFY_SUITE = "solver"


class CliResult:
    """What one CLI invocation left behind.  The output files are hashed
    while streaming them, so that the process's peak memory is the
    library's, not the harness's."""

    def __init__(self, rc, stderr):
        self.rc = rc
        self.stderr = stderr
        self.payload = None
        self.csv_rows = None
        self.nbytes = 0
        self.sha = hashlib.sha256()


def _fuzzy_json(levels, lo, up):
    return {"levels": levels.tolist(), "lower": lo.tolist(), "upper": up.tolist()}


class Cli(Workload):
    """In-process ``fuzzsemi.cli.main`` invocations writing JSON and CSV."""

    name = "cli"
    cycle = (*CLI_SOLVES, *(f"example_{n}" for n in CLI_EXAMPLES), f"verify_{CLI_VERIFY_SUITE}")
    size = f"{CLI_SOLVE_NODES} time nodes, 1-2 components; wave {CLI_WAVE_NODES} x-nodes x {CLI_EXAMPLE_T_POINTS} times"

    def __init__(self, fz, seed, scratch):
        self.out_json = os.path.join(scratch, "out.json")
        self.out_csv = os.path.join(scratch, "out.csv")
        super().__init__(fz, seed, scratch)

    def _invoke(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            rc = self.fz.cli.main(argv)
        return rc, sink.getvalue()

    def _collect(self, raw):
        res = CliResult(*raw)
        for path in (self.out_json, self.out_csv):
            res.sha.update(b"\0")
            if not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    res.sha.update(chunk)
                    res.nbytes += len(chunk)
            with open(path, newline="") as fh:
                if path == self.out_json:
                    res.payload = json.load(fh, object_hook=compact_fuzzy)
                else:
                    res.csv_rows = list(csv.reader(fh))
            os.remove(path)
        return res

    def _expect_ok(self, label, res, want_csv=True):
        if res.rc != 0:
            raise Miss(f"{label}: exit code {res.rc}: {res.stderr.strip()[-300:]}")
        if res.payload is None or res.payload.get("schema") != "fuzzsemi/1":
            raise Miss(f"{label}: no fuzzsemi/1 JSON payload")
        if want_csv:
            if not res.csv_rows or res.csv_rows[0] != ["t", "component", "x", "r", "lower", "upper"]:
                raise Miss(f"{label}: CSV header missing")
            for row in res.csv_rows[1:]:
                if len(row) != 6:
                    raise Miss(f"{label}: malformed CSV row {row!r}")
                float(row[0]), float(row[3]), float(row[4]), float(row[5])

    def make(self, label, rng, j):
        if label.startswith("solve_"):
            return self._solve_op(label, rng, j)
        if label.startswith("example_"):
            return self._example_op(label, label[len("example_"):])
        return self._verify_op(label, j)

    def _solve_op(self, label, rng, j):
        spec = CLI_SOLVES[label]
        levels = self.levels
        kind, order = spec["kind"], spec["order"]
        config = {"order": order, "T": 1.0, "tol": CLI_SOLVE_TOL}
        u0 = np.stack(unit_ball_endpoints(rng))
        comps = [u0]
        if kind == "scale":
            factor = CLI_SCALE if rng.random() < 0.5 else -CLI_SCALE
            config["operator"] = {"kind": "scale", "factor": factor}
            matrix = np.array([[factor]])
        elif kind == "identity":
            left, center = rng.uniform(-0.5, 0.0), rng.uniform(0.0, 0.3)
            right = center + rng.uniform(0.0, 0.4)
            u0 = np.stack(triangular_endpoints(levels, left, center, right))
            comps = [u0]
            config["operator"] = {"kind": "identity"}
            config["u0"] = {"tri": [left, center, right]}
            matrix = np.array([[1.0]])
        elif kind == "matrix":
            matrix = mixed_sign_matrix(rng, 2, CLI_MATRIX_BOUND)
            config["operator"] = {"kind": "matrix", "entries": matrix.tolist()}
            v0 = np.stack(unit_ball_endpoints(rng))
            comps = [u0, v0]
            config["v0"] = _fuzzy_json(levels, *v0)
        else:  # the generator pair: A x = coeff(x) c
            c = np.stack(generator_constant(rng, levels, CLI_C_NORM))
            config["operator"] = {"kind": "builtin", "name": kind, "c": _fuzzy_json(levels, *c)}
            if kind == "RemarkA":
                rate, coeff = oracles.lower_coeff(levels, c[0]), oracles.lower_coeff(levels, u0[0])
            else:
                rate, coeff = oracles.upper_coeff(levels, c[1]), oracles.upper_coeff(levels, u0[1])
            matrix = None
        config.setdefault("u0", _fuzzy_json(levels, *u0))
        path = os.path.join(self.scratch, f"{label}-{j}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        times = np.linspace(0.0, 1.0, CLI_SOLVE_NODES)
        argv = ["solve", path, "--out", self.out_json, "--csv", self.out_csv]

        def check(res):
            self._expect_ok(label, res)
            states = res.payload["states"]
            if len(states) != CLI_SOLVE_NODES or len(res.csv_rows) != 1 + CLI_SOLVE_NODES * len(comps) * CLI_BANDS:
                raise Miss(f"{label}: wrong number of states or CSV rows")
            if matrix is not None:
                lo = np.stack([x[0] for x in comps])
                up = np.stack([x[1] for x in comps])
                reference = oracles.rk4_endpoint_flow(matrix, lo, up, times, order)
            else:
                reference = [oracles.generator_flow(rate, coeff, u0, c, float(t), order)[:, None, :] for t in times]
            pairs = []
            for st, want in zip(states, reference):
                got = json_endpoints(st)
                pairs.append((got if got.ndim == 3 else got[:, None, :], want))
            _check_gaps(label, pairs, CLI_SOLVE_TOL)

        return Op(label, lambda: self._invoke(argv), check, self._collect)

    def _example_op(self, label, name):
        levels = self.levels
        argv = ["example", name, "--out", self.out_json, "--csv", self.out_csv]
        times = np.linspace(0.0, CLI_EXAMPLE_T_MAX[name], CLI_EXAMPLE_T_POINTS)
        u0 = np.stack(triangular_endpoints(levels, 0.0, 1.0, 2.0))
        v0 = np.stack(triangular_endpoints(levels, 1.0, 2.0, 3.0))

        def oracle():
            if name in ("problem4", "problem5", "problem6"):
                matrix = SWAP if name == "problem4" else COUPLED
                lo, up = np.stack([u0[0], v0[0]]), np.stack([u0[1], v0[1]])
                return oracles.rk4_endpoint_flow(matrix, lo, up, times, 2 if name == "problem6" else 1)
            if name == "remarkA":
                k = oracles.lower_coeff(levels, u0[0])
                return [oracles.generator_flow(k, k, u0, u0, float(t)) for t in times]
            xs = np.linspace(0.0, 1.0, CLI_WAVE_NODES)
            return [math.cosh(float(t)) * np.exp(xs)[:, None, None] * u0[None] for t in times]

        def check(res):
            self._expect_ok(label, res)
            series = res.payload["series"]
            if len(series) != CLI_EXAMPLE_T_POINTS or not res.payload["max_distance"] <= CLI_EXAMPLE_TOL:
                raise Miss(f"{label}: wrong state count or max_distance above tol")
            _check_gaps(label, [(json_endpoints(st), want) for st, want in zip(series, oracle())], CLI_EXAMPLE_TOL)

        return Op(label, lambda: self._invoke(argv), check, self._collect)

    def _verify_op(self, label, j):
        argv = ["verify", CLI_VERIFY_SUITE, "--seed", str(self.seed * POOL + j), "--out", self.out_json]

        def check(res):
            self._expect_ok(label, res, want_csv=False)
            results = res.payload["results"]
            if not results or not res.payload["passed"] or not all(r["passed"] for r in results):
                raise Miss(f"{label}: verify report did not pass")

        return Op(label, lambda: self._invoke(argv), check, self._collect)


WORKLOADS = {w.name: w for w in (Forced, Lifted, Cli)}
