"""Solvers for first- and second-order fuzzy Cauchy problems.

First-order problems u'(t) = A[u(t)] + g(t), u(0) = u0 are solved by
variation of parameters: u(t) = T(t)(u0) + integral_0^t T(t-s)(g(s)) ds,
with T the exponential family of the operator and the integral taken by
adaptive Gauss-Kronrod quadrature in the fuzzy algebra: the 15-point
Kronrod rule is accepted on an interval once it agrees with the embedded
7-point Gauss rule to the interval's share of tol, and the interval is
bisected otherwise.  All weights of both rules are positive, so levelwise
each rule is the classical one applied to every endpoint function; each
rule's sum is one `core.combine` of the integrand values.  Second-order
problems with vanishing initial velocity use the cosh family, and the
wave formula is one combination of the even derivatives of the initial
profile and t * u2.

How T is evaluated is decided in one place, `_propagator`.  An operator
that carries its real matrix (`lift_matrix`, and `scale_operator` as a
1 x 1 matrix) takes its exact flow, `semigroup.MatrixFlow`: midpoints and
radii mapped by two matrix functions, exact to rounding at any horizon
and either sign of t, for T(t)(u0), every integrand value and the cosh
family alike.  Every other operator (the builtins, compositions, maps
without a matrix) takes the literal series; its truncation (of T(t)(u0)
and of every integrand value) and the quadrature each get half of tol.

The powers A^p(x) of a series do not depend on t, so a solver computes
them once: its trajectory keeps one power ladder for the initial state,
shared by every time node and every later re-solve, and a forced solve
keeps one more for the last forcing value, reused while the forcing
returns that same object (constant forcing always does).  A trajectory
therefore keeps (max order + 1) elements per ladder alive, and its
``evaluate`` is not for concurrent use from several threads.  The exact
flow keeps no ladder; it forms the powers of its matrix once per solve.

Evaluation is batched by time: a trajectory's ``evaluate`` takes a
sequence of times and returns one state per time, the solvers evaluate
their whole grid in one call, and the series at all those times is one
batched `core.combine_rows` of the ladder (the forced solve batches the
free part T(t)(u0) of every time); the exact flow batches the same way.
The quadrature's integrand maps an interval's 15 Gauss-Kronrod nodes to
15 values, and the nodes of each run whose forcing value is one object
are one batch, so constant forcing takes one batch per interval.  Every
value is bit-identical to the one-time evaluation.

A finite-difference residual checker probes whether a trajectory
satisfies the differential equation in the generalized sense: at each
sample time it forms the four one-sided difference quotients (forward /
backward, direct / reversed orientation), keeps those whose partial
difference exists, and compares the best of them against A[u(t)] + g(t).
Negative-time evaluation is exposed but experimental: supports widen and
partial differences may fail there; failures are reported, not hidden.
A forced trajectory rejects negative times with `NegativeForcedTime`, so a
residual check on it needs every sample time to be at least h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, islice
from typing import Callable

import numpy as np

from . import core
from .errors import (
    HDifferenceError,
    MissingDerivativeBound,
    NegativeForcedTime,
    NoApplicableForm,
    QuadratureStall,
    UnsupportedVelocity,
)
from .operators import LinearOperator
from .semigroup import MatrixFlow, SemigroupEvaluator, _coefficients, partial_sums, required_order
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

    ``forcing`` is a continuous map t -> element or None for the
    homogeneous problem.  ``initial_velocity`` marks the problem as second
    order; the solver requires it to vanish.
    """

    operator: LinearOperator
    initial: object
    forcing: Callable | None = None
    initial_velocity: object | None = None
    horizon: float = 1.0
    tol: float = 1e-9

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: states at increasing times starting from 0.

    ``evaluate`` maps a sequence of arbitrary times to one state per time;
    the residual checker uses it to re-solve at shifted times.  The
    solvers' evaluators hold the trajectory's power ladders, a cache that
    grows on use and lives as long as the trajectory, so one ``evaluate``
    must not be called from several threads at once.
    """

    times: np.ndarray
    states: tuple
    evaluate: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        times.flags.writeable = False
        if times.ndim != 1 or times.size < 1 or (np.diff(times) <= 0).any():
            raise ValueError("times must be strictly increasing")
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
        if core.distance(kronrod, gauss) <= share:
            total = kronrod if total is None else core.add(total, kronrod)
        elif share < _QUAD_ROUNDING_FLOOR * core.norm(kronrod):
            raise QuadratureStall(f"tol share {share:g} on [{a:g}, {b:g}] is below the sum's rounding floor")
        else:
            pending += [(centre, b, 0.5 * share), (a, centre, 0.5 * share)]
    return total


# ---------------------------------------------------------------------------
# solvers


def _propagator(operator: LinearOperator, kind: str) -> Callable:
    """The one place that picks how a solver evaluates its operator: a map
    (times, x, tol, powers) -> the states T(t)(x) at each of ``times``, in
    one batch.

    An operator that carries its matrix takes its exact `MatrixFlow`, built
    once here (``tol`` and ``powers`` are then unused).  Any other takes the
    literal series over the caller's power ladder ``powers``, truncated to
    ``tol``, or to tol(t) at time t when ``tol`` is a function.
    """
    if operator.matrix is not None:
        flow = MatrixFlow(operator, kind)
        return lambda times, x, tol, powers: flow.evaluate(times, x)

    def series(times, x, tol, powers):
        if callable(tol):
            orders = [SemigroupEvaluator(operator, kind, tol(t)).order_for(t, x) for t in times]
            return partial_sums(operator, kind, times, x, orders, powers)
        return SemigroupEvaluator(operator, kind, tol).evaluate(times, x, powers)

    return series


def solve_first_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """Variation-of-parameters solution sampled on a time grid."""
    if problem.initial_velocity is not None:
        raise ValueError("first-order problems carry no initial velocity")
    times = uniform_times(problem.horizon) if grid is None else np.asarray(grid, dtype=float)
    propagate = _propagator(problem.operator, "exp")
    initial_powers = [problem.initial]
    # the ladder of the last forcing value; holding it keeps that value
    # alive, so an `is` match cannot come from a recycled object id
    forcing_powers = [None]

    def part_tol(t: float) -> float:
        # The truncation errors of T(t)(u0) and of every integrand value
        # (integrated over [0, t]) share one half of tol, the quadrature
        # takes the other half.
        return 0.5 * problem.tol / (1.0 + abs(t))

    def integrand(tol: float, t: float, nodes):
        # every forcing value is held until the batch is done, so runs of
        # nodes whose value is one object can be told apart by id
        values = [problem.forcing(s) for s in nodes]
        out = []
        for _, run in groupby(zip(values, nodes), key=lambda pair: id(pair[0])):
            run = list(run)
            g = run[0][0]
            if forcing_powers[0] is not g:
                forcing_powers[:] = [g]
            out += propagate([t - s for _, s in run], g, tol, forcing_powers)
        return out

    def evaluate(times):
        times = [float(t) for t in times]
        if problem.forcing is None:
            return propagate(times, problem.initial, problem.tol, initial_powers)
        bad = [t for t in times if not t >= 0.0]
        if bad:
            raise NegativeForcedTime(f"forced problems are solved for t >= 0 only, not at t = {bad[0]!r}")
        free = propagate(times, problem.initial, part_tol, initial_powers)
        return [
            u if t == 0.0 else core.add(u, _refined_integral(partial(integrand, part_tol(t), t), t, 0.5 * problem.tol))
            for t, u in zip(times, free)
        ]

    return Trajectory(times, evaluate(times), evaluate)


def solve_second_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """cosh-series solution of u'' = A[u], u(0) = u0, u'(0) = 0."""
    if problem.initial_velocity is None:
        raise ValueError("second-order problems need initial_velocity (the zero element)")
    if problem.forcing is not None:
        raise ValueError("second-order problems take no forcing")
    v0 = problem.initial_velocity
    if core.norm(v0) != 0.0:
        raise UnsupportedVelocity(
            "only a vanishing initial velocity is supported; for the wave "
            "formula with nonzero velocity use solve_wave"
        )
    times = uniform_times(problem.horizon) if grid is None else np.asarray(grid, dtype=float)
    propagate = _propagator(problem.operator, "cosh")
    initial_powers = [problem.initial]

    def evaluate(times):
        return propagate([float(t) for t in times], problem.initial, problem.tol, initial_powers)

    return Trajectory(times, evaluate(times), evaluate)


def solve_wave(
    u1_derivatives: Callable[[float, int], core.FuzzyNumber],
    u2: FuzzyFunction | None,
    t: float,
    x_nodes: np.ndarray,
    bound: float | None = None,
    tol: float = 1e-9,
) -> FuzzyFunction:
    """Series solution of the fuzzy wave equation at one time t >= 0.

    ``u1_derivatives(x, 2p)`` must return the even-order derivative of the
    initial profile at x, and ``bound`` must certify a uniform norm bound
    for all of them; the even coefficient ladder is truncated where the
    tail (bound * remaining cosh coefficients) drops below tol.  The
    initial-velocity term enters as t * u2.
    """
    if bound is None or not (bound > 0) or not math.isfinite(bound):
        raise MissingDerivativeBound("a positive uniform bound on the even derivatives is required")
    x_nodes = np.asarray(x_nodes, dtype=float)
    order = required_order(t, 1.0, tol / bound, "cosh")

    def derivative(k):  # the k-th derivative of the profile, sampled at every node
        return FuzzyFunction(x_nodes, tuple(u1_derivatives(float(x), k) for x in x_nodes))

    coeffs = [1.0, *islice(_coefficients("cosh", t), order)]
    terms = [derivative(2 * p) for p in range(order + 1)]
    if u2 is not None:
        coeffs.append(t)
        terms.append(u2.resample_nodes(x_nodes))
    return core.combine(coeffs, terms)


# ---------------------------------------------------------------------------
# residual checking


def _quotient_forms(before, here, after, h: float):
    """The four one-sided generalized difference quotients that exist, at one
    time: the definition that `residual_check` evaluates for every sample
    time in one array pass."""
    forms = []
    candidates = (
        (1.0 / h, after, here),    # forward
        (1.0 / h, here, before),   # backward
        (-1.0 / h, here, after),   # forward, reversed orientation
        (-1.0 / h, before, here),  # backward, reversed orientation
    )
    for factor, left, right in candidates:
        try:
            forms.append(core.scalar_mul(factor, core.hukuhara_diff(left, right)))
        except HDifferenceError:
            continue
    return forms


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
    states and targets are stacked on common grids and the four quotients
    of every time (`_quotient_forms`) are formed, checked, clamped, scaled
    and measured in one array pass, each bit-identical to its own
    `core.hukuhara_diff`, `core.scalar_mul` and `core.distance`.  Returns
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
    # forward, backward, then both with reversed orientation, as in _quotient_forms
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
# the worked systems and their closed forms


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


def problem5_closed_form(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """Flow of u' = u + v, v' = -(u + v), for t >= 0.

    Crisp data make the fuzziness residual vanish and the formula
    collapses to u0 + t(u0+v0), v0 - t(u0+v0).
    """
    s = core.add(u0, v0)
    e_term = core.scalar_mul(_h_exp(t), fuzziness_residual(u0, v0))
    return pair(
        core.add(core.add(u0, core.scalar_mul(t, s)), e_term),
        core.add(core.add(v0, core.scalar_mul(-t, s)), e_term),
    )


def problem6_closed_form(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """Flow of u'' = u + v, v'' = -(u + v) with zero initial velocity, t >= 0."""
    s = core.add(u0, v0)
    e_term = core.scalar_mul(_h_cosh(t), fuzziness_residual(u0, v0))
    half_t2 = 0.5 * t * t
    return pair(
        core.add(core.add(u0, core.scalar_mul(half_t2, s)), e_term),
        core.add(core.add(v0, core.scalar_mul(-half_t2, s)), e_term),
    )


def naive_problem5_formula(u0: core.FuzzyNumber, v0: core.FuzzyNumber, t: float) -> ProductElement:
    """The crisp-style formula without the fuzziness term.

    For genuinely fuzzy data this is NOT a solution: its difference
    quotient misses A[u(t)] by t times the norm of the fuzziness residual,
    uniformly in the step size, which is exactly what the residual checker
    detects.
    """
    s = core.add(u0, v0)
    return pair(
        core.add(u0, core.scalar_mul(t, s)),
        core.add(v0, core.scalar_mul(-t, s)),
    )
