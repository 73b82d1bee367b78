"""Solvers for first- and second-order fuzzy Cauchy problems.

First-order problems u'(t) = A[u(t)] + g(t), u(0) = u0 are solved by
variation of parameters: u(t) = T(t)(u0) + integral_0^t T(t-s)(g(s)) ds,
with T the exponential family of the operator.  u'' = A[u], u'(0) = v0 is
the same problem with the cosh family C for T and the constant forcing v0:
C(t)(u0) + integral_0^t C(r)(v0) dr (Fattorini, 1985).  The wave formula
combines the even derivatives of the initial profile and adds t * u2; its
solver takes a sequence of times, samples each derivative once for all of
them and combines every time in one `core.combine_rows`.

Each solve takes every T(t) from one `semigroup.propagator` map, with the
problem's constant input g when it has one: the exact flow of an operator
with a matrix or a rank-one map, exact to rounding, or else the literal
series truncated to tol, plus the Duhamel series of g.  A flow is built
once per operator instance and shared by every solve, and it keeps the
matrices of each time it has formed, within a fixed byte budget, for the
instance's life: a solve repeated on the same grid forms no exponential.

The velocity v0 is a constant input, and so is a forcing that returns one
and the same object at all 15 Gauss-Kronrod nodes of [0, t], for every
requested t; the whole grid is then one propagator call.  Only a forcing
that varies in time takes the integral by adaptive Gauss-Kronrod quadrature
in the fuzzy algebra: the 15-point Kronrod rule is accepted on an interval
once it agrees with the embedded 7-point Gauss rule to the interval's share
of tol, and the interval is bisected otherwise.  All weights of both rules
are positive, so levelwise each rule is the classical one applied to every
endpoint function; each rule's sum is one `core.combine` of the integrand
values, one propagator call per node.  The truncation (of T(t)(u0) and of
every integrand value) gets half of tol and the quadrature the other half.
An error of a forced solve at t names t, not the integrand's t - s.

Evaluation is batched by time: ``evaluate`` maps a sequence of times to one
state per time, and the solvers evaluate their whole grid (the quadrature
path its free part) in one call, each value bit-identical to the one-time
evaluation.

A finite-difference residual checker probes whether a trajectory
satisfies the differential equation in the generalized sense: at each
sample time it forms the four one-sided difference quotients (forward /
backward, direct / reversed orientation), keeps those whose partial
difference exists, and compares the best of them against A[u(t)] + g(t).
Negative-time evaluation is exposed but experimental: supports widen and
partial differences may fail there; failures are reported, not hidden.
A forced trajectory rejects negative times with `NegativeForcedTime`, so a
residual check on it needs every sample time to be at least h.

`WORKED_SYSTEMS` maps each worked system of the paper (Problems 4-6, the
Remark A pair, the wave) to a runner that solves it and evaluates its closed
form: `fuzzsemi example` and the `verify` solver suite both read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable

import numpy as np

from . import core
from .errors import (
    MissingDerivativeBound,
    NegativeForcedTime,
    NoApplicableForm,
    QuadratureStall,
    SeriesOverflow,
)
from .operators import LinearOperator, builtin, lift_matrix
from .semigroup import _check_tol, _coefficients, _relative_tol, generator_pair_closed_form, propagator, required_order
from .spaces import FuzzyFunction, ProductElement, pair

DEFAULT_TIME_NODES = 64
_QUAD_MAX_INTERVALS = 1000  # Gauss-Kronrod intervals per integral before giving up
# a few ulps: the rounding floor of an interval's sum, relative to its norm
_QUAD_ROUNDING_FLOOR = 4.0 * float(np.finfo(float).eps)

# QUADPACK qk15 abscissae on [-1, 1] from the end towards the centre: odd
# positions (and the centre) are the 7-point Gauss nodes.  Every weight is
# positive.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# the same rules on all 15 nodes, left to right; Gauss nodes sit at odd indices
_GK_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_GK_KRONROD = _WGK[:-1] + _WGK[::-1]
_GK_GAUSS = _WG[:-1] + _WG[::-1]


@dataclass(frozen=True)
class CauchyProblem:
    """Problem description: operator, forcing, initial data, horizon, tolerance.

    ``forcing`` is a continuous map t -> element (any other non-None value
    raises ValueError) or None for the homogeneous problem.  One that returns
    one and the same object at every Gauss-Kronrod node of [0, t] is the
    propagator's constant input; only one that varies takes the quadrature.
    ``initial_velocity`` marks the problem as second order; it takes any
    element of the initial state's space.
    """

    operator: LinearOperator
    initial: object
    forcing: Callable | None = None
    initial_velocity: object | None = None
    horizon: float = 1.0
    tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")
        if self.forcing is not None and not callable(self.forcing):
            raise ValueError(f"forcing must be a callable s -> element or None, not {type(self.forcing).__name__}")
        _check_tol(self.tol)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: states at increasing times starting from 0.

    ``evaluate`` maps a sequence of arbitrary times to one state per time;
    the residual checker uses it to re-solve at shifted times.
    """

    times: np.ndarray
    states: tuple
    evaluate: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        times.flags.writeable = False
        if times.ndim != 1 or times.size < 1 or not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("times must be finite and strictly increasing")
        if times[0] != 0.0:
            raise ValueError("trajectories start at time 0")
        states = tuple(self.states)
        if len(states) != times.size:
            raise ValueError("need one state per time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def uniform_times(horizon: float, n_nodes: int = DEFAULT_TIME_NODES) -> np.ndarray:
    if n_nodes < 2:
        raise ValueError("need at least two time nodes")
    return np.linspace(0.0, float(horizon), n_nodes)


# ---------------------------------------------------------------------------
# quadrature


def _refined_integral(f: Callable, t_end: float, tol: float):
    """Adaptive Gauss-Kronrod integral of f over [0, t_end] to within tol.

    ``f`` maps the list of an interval's 15 nodes to their 15 values, so
    the caller can evaluate them in one batch.  The interval's 15-point
    Kronrod sum is accepted when its distance to the 7-point Gauss sum
    over the same values is at most the interval's tol; otherwise the
    interval is bisected and each half gets half the tol.  Intervals are
    refined depth first, left half first, and accepted sums are added left
    to right, so the result is deterministic.  All weights are positive,
    so every step holds levelwise.

    A rejected interval whose tol share is below a few ulps of its Kronrod
    sum raises `QuadratureStall` at once: rounding alone moves the sum by
    that much, and bisection halves the share together with the sum, so
    no depth of refinement could meet it.
    """
    if not t_end > 0:
        raise ValueError("t_end must be > 0")
    total = None
    pending = [(0.0, float(t_end), tol)]
    evaluated = 0
    while pending:
        if evaluated >= _QUAD_MAX_INTERVALS:
            raise QuadratureStall(f"no convergence to {tol} within {_QUAD_MAX_INTERVALS} intervals")
        a, b, share = pending.pop()
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = list(f([centre + half * x for x in _GK_NODES]))
        kronrod = core.combine([half * w for w in _GK_KRONROD], vals)
        gauss = core.combine([half * w for w in _GK_GAUSS], vals[1::2])
        evaluated += 1
        if not np.isfinite(kronrod.ends).all():
            raise SeriesOverflow(f"the integral over [{a:g}, {b:g}] leaves the float range")
        if core.distance(kronrod, gauss) <= share:
            total = kronrod if total is None else core.add(total, kronrod)
        elif share < _QUAD_ROUNDING_FLOOR * core.norm(kronrod):
            raise QuadratureStall(f"tol share {share:g} on [{a:g}, {b:g}] is below the sum's rounding floor")
        else:
            pending += [(centre, b, 0.5 * share), (a, centre, 0.5 * share)]
    return total


def _constant_value(forcing: Callable, times):
    """The one object ``forcing`` returns at all 15 Gauss-Kronrod nodes of [0, t],
    for every t > 0 in ``times``, or None once it returns another."""
    value = None
    for t in times:
        if t > 0.0:
            centre = half = 0.5 * t  # the nodes of the quadrature's first interval
            for x in _GK_NODES:
                g = forcing(centre + half * x)
                if value is None:
                    value = g
                elif g is not value:
                    return None
    return value


# ---------------------------------------------------------------------------
# solvers


def _check_forced_times(times: list) -> None:
    """NegativeForcedTime at the first time not >= 0: a forcing or a velocity acts over [0, t]."""
    bad = [t for t in times if not t >= 0.0]
    if bad:
        raise NegativeForcedTime(f"solved for t >= 0 only with a forcing or a velocity, not at t = {bad[0]!r}")


def _solve(problem: CauchyProblem, grid: np.ndarray | None, kind: str, forcing) -> Trajectory:
    """T(t)(u0) + integral_0^t T(t-s)(forcing(s)) ds on a time grid, T the ``kind`` family; a leaf forcing is g."""
    times = uniform_times(problem.horizon) if grid is None else np.asarray(grid, dtype=float)
    evolve = propagator(problem.operator, kind)

    def part_tol(t: float) -> float:
        # T(t)(u0) and every integrand value (over [0, t]) share half of tol, the quadrature the rest
        return 0.5 * problem.tol / (1.0 + abs(t))

    def forced(t: float, u):
        # u plus the Duhamel integral over [0, t], one propagator call per node; an error names t, not t - s
        tols = (part_tol(t),)
        integrand = lambda nodes: [evolve((t - s,), forcing(s), tols)[0] for s in nodes]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u = core.add(u, _refined_integral(integrand, t, 0.5 * problem.tol))
        except (SeriesOverflow, QuadratureStall) as exc:
            raise type(exc)(f"{exc} (in the Duhamel integral of the solution at t = {t!r})") from exc
        if not np.isfinite(u.ends).all():
            raise SeriesOverflow(f"the forced solution overflows at t = {t!r}; shorten the horizon")
        return u

    def evaluate(times):
        times = [float(t) for t in times]
        if forcing is None:
            return evolve(times, problem.initial, repeat(problem.tol))
        _check_forced_times(times)
        g = _constant_value(forcing, times) if callable(forcing) else forcing
        if g is not None:
            return evolve(times, problem.initial, repeat(problem.tol), g)
        free = evolve(times, problem.initial, map(part_tol, times))
        return [u if t == 0.0 else forced(t, u) for t, u in zip(times, free)]

    return Trajectory(times, evaluate(times), evaluate)


def solve_first_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """Variation-of-parameters solution sampled on a time grid."""
    if problem.initial_velocity is not None:
        raise ValueError("first-order problems carry no initial velocity")
    return _solve(problem, grid, "exp", problem.forcing)


def solve_second_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """C(t)(u0) + integral_0^t C(r)(v0) dr, C the cosh family: u'' = A[u], u(0) = u0, u'(0) = v0."""
    if problem.initial_velocity is None:
        raise ValueError("second-order problems need initial_velocity (the zero element for none)")
    if problem.forcing is not None:
        raise ValueError("second-order problems take no forcing")
    v0 = problem.initial_velocity
    core.common_grid(problem.initial, v0)  # a velocity of another space raises, zero or not
    return _solve(problem, grid, "cosh", None if core.norm(v0) == 0.0 else v0)


def solve_wave(
    u1_derivatives: Callable[[float, int], core.FuzzyNumber],
    u2: FuzzyFunction | None,
    times,
    x_nodes: np.ndarray,
    bound: float | None = None,
    tol: float = 1e-9,
) -> list:
    """Series solution of the fuzzy wave equation, one state per time of ``times`` (t >= 0 with ``u2``).

    ``u1_derivatives(x, 2p)`` must return the even-order derivative of the
    initial profile at x, and ``bound`` must certify a uniform norm bound
    for all of them; each time's even coefficient ladder is truncated where
    the tail (bound * remaining cosh coefficients) drops below tol.  The
    derivatives are sampled once, up to the largest order any time needs,
    and all times are one `core.combine_rows`; the initial-velocity term
    t * u2 is then added to each as `core.add` adds it, so every state
    equals the one-time solve bit for bit.
    """
    if bound is None or not (bound > 0) or not math.isfinite(bound):
        raise MissingDerivativeBound("a positive uniform bound on the even derivatives is required")
    times = [float(t) for t in times]
    if u2 is not None:
        _check_forced_times(times)
    if not times:
        return []
    x_nodes = np.asarray(x_nodes, dtype=float)
    orders = [required_order(t, 1.0, _relative_tol(tol, bound), "cosh") for t in times]

    def derivative(k):  # the k-th derivative of the profile, sampled at every node
        return FuzzyFunction(x_nodes, tuple(u1_derivatives(float(x), k) for x in x_nodes))

    terms = [derivative(2 * p) for p in range(max(orders) + 1)]
    rows = [[1.0, *islice(_coefficients("cosh", t), order)] for t, order in zip(times, orders)]
    states = core.combine_rows(rows, terms)
    if u2 is None:
        return states
    u2 = u2.resample_nodes(x_nodes)
    return [core.add(u, core.scalar_mul(t, u2)) for t, u in zip(times, states)]


# ---------------------------------------------------------------------------
# residual checking


def residual_check(
    traj: Trajectory,
    operator: LinearOperator,
    forcing: Callable | None = None,
    h: float = 1e-3,
    times=None,
) -> float:
    """Worst-case defect of a trajectory against u' = A[u] + g.

    At each sample time the residual is the minimum, over the one-sided
    quotient forms whose partial difference exists, of the distance to
    A[u(t)] + g(t); the trajectory is re-solved at t +- h through its
    evaluator, in one call covering t, t + h and t - h for every sample
    time.  A[u(t)] and g(t) are formed once per time, in order; then the
    states and targets are stacked on common grids, and the four one-sided
    quotients of every time (forward and backward, each in both
    orientations) are formed, checked, clamped, scaled and measured in one
    array pass, each bit-identical to its own `core.hukuhara_diff`,
    `core.scalar_mul` and `core.distance`.  Returns
    the maximum residual over the sampled times; raises NoApplicableForm,
    naming the first such time, when no quotient exists at some time.
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    if traj.evaluate is None:
        raise ValueError("trajectory carries no evaluator; re-solving at t +- h is impossible")
    if times is None:
        if traj.times.size < 3:
            raise ValueError("trajectory too short; pass explicit times")
        times = traj.times[1:-1]
    times = [float(t) for t in np.asarray(times, dtype=float)]
    # one batch: every t, then every t + h, then every t - h
    states = traj.evaluate([*times, *(t + h for t in times), *(t - h for t in times)])
    n = len(times)
    if not n:
        return 0.0
    targets = []
    for t, here in zip(times, states):
        target = operator(here)
        if forcing is not None:
            target = core.add(target, forcing(t))
        targets.append(target)
    _, ends = core.stack_common(states + targets)
    here, after, before, target = ends.reshape(4, n, *ends.shape[1:])
    # forward, backward, then both with reversed orientation
    diffs = np.empty((4, *here.shape))
    for out, (left, right) in zip(diffs, ((after, here), (here, before), (here, after), (before, here))):
        np.subtract(left, right, out=out)
    diffs, exists = core.clamp_nested(diffs)
    exists = exists.reshape(4, n, -1).all(axis=-1)
    diffs[:2] *= 1.0 / h
    diffs[2:] = diffs[2:, ..., ::-1, :] * (-1.0 / h)
    diffs -= target
    gaps = np.abs(diffs, out=diffs).reshape(4, n, -1).max(axis=-1)
    missing = ~exists.any(axis=0)
    if missing.any():
        raise NoApplicableForm(f"no difference quotient exists at t = {times[int(np.argmax(missing))]}")
    return max(0.0, float(np.where(exists, gaps, np.inf).min(axis=0).max()))


# ---------------------------------------------------------------------------
# the worked systems: their closed forms, and one runner each that solves and judges them


def fuzziness_residual(u, v):
    """E(u, v) = (u + v) + (-1)(u + v): zero exactly iff u + v is crisp.

    This is the term that separates genuinely fuzzy solutions from the
    crisp-style formulas; it is invariant under negation.
    """
    s = core.add(u, v)
    return core.add(s, core.scalar_mul(-1.0, s))


SWAP_MATRIX = ((0.0, 1.0), (1.0, 0.0))
COUPLED_MATRIX = ((1.0, 1.0), (-1.0, -1.0))


def problem4_closed_form(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """Flow of u' = v, v' = u: hyperbolic rotation of the pair (t >= 0)."""
    ch, sh = math.cosh(t), math.sinh(t)
    return pair(
        core.add(core.scalar_mul(ch, u0), core.scalar_mul(sh, v0)),
        core.add(core.scalar_mul(sh, u0), core.scalar_mul(ch, v0)),
    )


def _h_exp(t: float) -> float:
    # sum_{k>=2} t^k 2^{k-2} / k!
    return 0.25 * (math.exp(2.0 * t) - 2.0 * t - 1.0)


def _h_cosh(t: float) -> float:
    # sum_{k>=2} t^(2k) 2^(k-2) / (2k)!
    return 0.25 * (math.cosh(t * math.sqrt(2.0)) - t * t - 1.0)


def _coupled_flow(u0: core.FuzzyNumber, v0: core.FuzzyNumber, a: float, h: float | None = None) -> ProductElement:
    """(u0 + a s + e, v0 - a s + e) with s = u0 + v0 and e = h fuzziness_residual(u0, v0), or no e without h."""
    s = core.add(u0, v0)
    u, v = core.add(u0, core.scalar_mul(a, s)), core.add(v0, core.scalar_mul(-a, s))
    e = None if h is None else core.scalar_mul(h, fuzziness_residual(u0, v0))
    return pair(u, v) if e is None else pair(core.add(u, e), core.add(v, e))


def problem5_closed_form(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """Flow of u' = u + v, v' = -(u + v), for t >= 0.

    Crisp data make the fuzziness residual vanish and the formula
    collapses to u0 + t(u0+v0), v0 - t(u0+v0).
    """
    return _coupled_flow(u0, v0, t, _h_exp(t))


def problem6_closed_form(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """Flow of u'' = u + v, v'' = -(u + v) with zero initial velocity, t >= 0."""
    return _coupled_flow(u0, v0, 0.5 * t * t, _h_cosh(t))


def naive_problem5_formula(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """The crisp-style formula without the fuzziness term.

    For genuinely fuzzy data this is NOT a solution: its difference
    quotient misses A[u(t)] by t times the norm of the fuzziness residual,
    uniformly in the step size, which is exactly what the residual checker
    detects.
    """
    return _coupled_flow(u0, v0, t)


def _pair_system(matrix, order: int, closed_form: str, times, tol, levels, nodes):
    """Problems 4-6: the lifted ``matrix`` on the pair (tri(0, 1, 2), tri(1, 2, 3)), of first
    order or of second with zero velocity.  ``closed_form`` names a function of this module,
    looked up at call time so that a wrapper installed on the module sees it."""
    u0, v0 = core.make_triangular(0.0, 1.0, 2.0, levels), core.make_triangular(1.0, 2.0, 3.0, levels)
    w0 = pair(u0, v0)
    velocity, solver = (core.zero_like(w0), solve_second_order) if order == 2 else (None, solve_first_order)
    problem = CauchyProblem(lift_matrix(matrix), w0, initial_velocity=velocity, horizon=max(times[-1], 1.0), tol=tol)
    return solver(problem, times).states, [globals()[closed_form](u0, v0, float(t)) for t in times]


def _remark_a_system(times, tol, levels, nodes):
    """Remark A's generator pair x -> mu(x) c, the constant and the initial value both tri(0, 1, 2)."""
    c = x = core.make_triangular(0.0, 1.0, 2.0, levels)
    problem = CauchyProblem(builtin("RemarkA", c), x, horizon=max(times[-1], 1.0), tol=tol)
    return solve_first_order(problem, times).states, [generator_pair_closed_form(c, x, float(t), "A") for t in times]


def _wave_system(times, tol, levels, nodes):
    """The wave with profile e^x c on ``nodes`` points of [0, 1], c = tri(0, 1, 2): every even
    derivative is the profile (bound 2e), so u(t) = cosh(t) e^x c."""
    c = core.make_triangular(0.0, 1.0, 2.0, levels)
    xs = np.linspace(0.0, 1.0, nodes)
    profile = lambda x, order: core.scalar_mul(math.exp(x), c)
    states = solve_wave(profile, None, times, xs, bound=2.0 * math.e, tol=tol)
    # each time's closed form is one row of factors cosh(t) e^x, scaled as scalar_mul scales c
    grid = FuzzyFunction(xs, (c,) * nodes)
    growth = [math.exp(float(x)) for x in xs]
    return states, [grid._with(core._scaled(np.array([math.cosh(float(t)) * g for g in growth]), c.ends)) for t in times]


# name: (run(times, tol, levels, nodes) -> (states, closed-form states), the CLI's default --t-max)
WORKED_SYSTEMS = {
    "problem4": (functools.partial(_pair_system, SWAP_MATRIX, 1, "problem4_closed_form"), 2.0),
    "problem5": (functools.partial(_pair_system, COUPLED_MATRIX, 1, "problem5_closed_form"), 1.0),
    "problem6": (functools.partial(_pair_system, COUPLED_MATRIX, 2, "problem6_closed_form"), 1.0),
    "wave": (_wave_system, 1.0),
    "remarkA": (_remark_a_system, 2.0),
}
