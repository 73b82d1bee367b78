"""Solvers for first- and second-order fuzzy Cauchy problems.

First-order problems u'(t) = A[u(t)] + g(t), u(0) = u0 are solved by
variation of parameters: u(t) = T(t)(u0) + integral_0^t T(t-s)(g(s)) ds,
with T the exponential series of the operator and the integral taken by
adaptive Gauss-Kronrod quadrature in the fuzzy algebra: the 15-point
Kronrod rule is accepted on an interval once it agrees with the embedded
7-point Gauss rule to the interval's share of tol, and the interval is
bisected otherwise.  All weights of both rules are positive, so levelwise
each rule is the classical one applied to every endpoint function.  The
series truncation (of T(t)(u0) and of every integrand value) and the
quadrature each get half of tol.  Second-order problems with vanishing
initial velocity use the cosh series, and the wave formula adds t * u2 on
top of the even-derivative series of the initial profile.

The powers A^p(x) of a series do not depend on t, so a solver computes
them once: its trajectory keeps one power ladder for the initial state,
shared by every time node and every later re-solve, and a forced solve
keeps one more for the last forcing value, reused while the forcing
returns that same object (constant forcing always does).  A trajectory
therefore keeps (max order + 1) elements per ladder alive, and its
``evaluate`` is not for concurrent use from several threads.

A finite-difference residual checker probes whether a trajectory
satisfies the differential equation in the generalized sense: at each
sample time it forms the four one-sided difference quotients (forward /
backward, direct / reversed orientation), keeps those whose partial
difference exists, and compares the best of them against A[u(t)] + g(t).
Negative-time evaluation is exposed but experimental: supports widen and
partial differences may fail there; failures are reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core, spaces
from .errors import (
    HDifferenceError,
    MissingDerivativeBound,
    NoApplicableForm,
    QuadratureStall,
    UnsupportedVelocity,
)
from .operators import LinearOperator
from .semigroup import SemigroupEvaluator, _coefficients, required_order
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

    ``evaluate`` re-solves at an arbitrary time; the residual checker uses
    it to form difference quotients at shifted times.  The solvers'
    evaluators hold the trajectory's power ladders, a cache that grows on
    use, so one ``evaluate`` must not be called from several threads at
    once.
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


def integrate_fuzzy(f: Callable, t_end: float, panels: int):
    """Composite trapezoid of an element-valued integrand over [0, t_end].

    Exact (at any panel count) for integrands affine in s, since the rule
    is levelwise the classical trapezoid with positive weights.
    """
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if not t_end > 0:
        raise ValueError("t_end must be > 0")
    grid = np.linspace(0.0, float(t_end), panels + 1)
    vals = [f(float(s)) for s in grid]
    half = 0.5 * (grid[1] - grid[0])
    acc = spaces.elem_scale(half, spaces.elem_add(vals[0], vals[1]))
    for i in range(1, panels):
        acc = spaces.elem_add(acc, spaces.elem_scale(half, spaces.elem_add(vals[i], vals[i + 1])))
    return acc


def _weighted_sum(weights, vals, half: float):
    """half * sum_i weights[i] * vals[i], added left to right."""
    acc = spaces.elem_scale(half * weights[0], vals[0])
    for w, v in zip(weights[1:], vals[1:]):
        acc = spaces.elem_add(acc, spaces.elem_scale(half * w, v))
    return acc


def _refined_integral(f: Callable, t_end: float, tol: float):
    """Adaptive Gauss-Kronrod integral of f over [0, t_end] to within tol.

    An interval's 15-point Kronrod sum is accepted when its distance to
    the 7-point Gauss sum over the same values is at most the interval's
    tol; otherwise the interval is bisected and each half gets half the
    tol.  Intervals are refined depth first, left half first, and accepted
    sums are added left to right, so the result is deterministic.  All
    weights are positive, so every step holds levelwise.

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
        vals = [f(centre + half * x) for x in _GK_NODES]
        kronrod = _weighted_sum(_GK_KRONROD, vals, half)
        gauss = _weighted_sum(_GK_GAUSS, vals[1::2], half)
        evaluated += 1
        if spaces.elem_dist(kronrod, gauss) <= share:
            total = kronrod if total is None else spaces.elem_add(total, kronrod)
        elif share < _QUAD_ROUNDING_FLOOR * spaces.elem_norm(kronrod):
            raise QuadratureStall(f"tol share {share:g} on [{a:g}, {b:g}] is below the sum's rounding floor")
        else:
            pending += [(centre, b, 0.5 * share), (a, centre, 0.5 * share)]
    return total


# ---------------------------------------------------------------------------
# solvers


def solve_first_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """Variation-of-parameters solution sampled on a time grid."""
    if problem.initial_velocity is not None:
        raise ValueError("first-order problems carry no initial velocity")
    times = uniform_times(problem.horizon) if grid is None else np.asarray(grid, dtype=float)
    flow = SemigroupEvaluator(problem.operator, "exp", problem.tol)
    initial_powers = [problem.initial]
    # the ladder of the last forcing value; holding it keeps that value
    # alive, so an `is` match cannot come from a recycled object id
    forcing_powers = [None]

    def integrand(part, t: float, s: float):
        g = problem.forcing(s)
        if forcing_powers[0] is not g:
            forcing_powers[:] = [g]
        return part.at(t - s, g, forcing_powers)

    def evaluate(t: float):
        t = float(t)
        if t == 0.0:
            return problem.initial
        if problem.forcing is None:
            return flow.at(t, problem.initial, initial_powers)
        # The truncation errors of T(t)(u0) and of every integrand value
        # (integrated over [0, t]) share one half of tol, the quadrature
        # takes the other half.
        part = SemigroupEvaluator(problem.operator, "exp", 0.5 * problem.tol / (1.0 + abs(t)))
        forced = _refined_integral(lambda s: integrand(part, t, s), t, 0.5 * problem.tol)
        return spaces.elem_add(part.at(t, problem.initial, initial_powers), forced)

    return Trajectory(times, tuple(evaluate(t) for t in times), evaluate)


def solve_second_order(problem: CauchyProblem, grid: np.ndarray | None = None) -> Trajectory:
    """cosh-series solution of u'' = A[u], u(0) = u0, u'(0) = 0."""
    if problem.initial_velocity is None:
        raise ValueError("second-order problems need initial_velocity (the zero element)")
    if problem.forcing is not None:
        raise ValueError("second-order problems take no forcing")
    v0 = problem.initial_velocity
    if spaces.elem_dist(v0, spaces.elem_zero(v0)) != 0.0:
        raise UnsupportedVelocity(
            "only a vanishing initial velocity is supported; for the wave "
            "formula with nonzero velocity use solve_wave"
        )
    times = uniform_times(problem.horizon) if grid is None else np.asarray(grid, dtype=float)
    flow = SemigroupEvaluator(problem.operator, "cosh", problem.tol)
    initial_powers = [problem.initial]

    def evaluate(t: float):
        t = float(t)
        return problem.initial if t == 0.0 else flow.at(t, problem.initial, initial_powers)

    return Trajectory(times, tuple(evaluate(t) for t in times), evaluate)


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

    acc = derivative(0)
    for p, coeff in zip(range(1, order + 1), _coefficients("cosh", t)):
        acc = core.add(acc, core.scalar_mul(coeff, derivative(2 * p)))
    if u2 is not None:
        acc = core.add(acc, core.scalar_mul(t, u2.resample_nodes(x_nodes)))
    return acc


# ---------------------------------------------------------------------------
# residual checking


def _quotient_forms(before, here, after, h: float):
    """The four one-sided generalized difference quotients that exist."""
    forms = []
    candidates = (
        (1.0 / h, after, here),    # forward
        (1.0 / h, here, before),   # backward
        (-1.0 / h, here, after),   # forward, reversed orientation
        (-1.0 / h, before, here),  # backward, reversed orientation
    )
    for factor, left, right in candidates:
        try:
            forms.append(spaces.elem_scale(factor, spaces.elem_hdiff(left, right)))
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
    evaluator.  Returns the maximum residual over the sampled times;
    raises NoApplicableForm when no quotient exists at some time.
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    if traj.evaluate is None:
        raise ValueError("trajectory carries no evaluator; re-solving at t +- h is impossible")
    if times is None:
        if traj.times.size < 3:
            raise ValueError("trajectory too short; pass explicit times")
        times = traj.times[1:-1]
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        t = float(t)
        here = traj.evaluate(t)
        after = traj.evaluate(t + h)
        before = traj.evaluate(t - h)
        target = operator(here)
        if forcing is not None:
            target = spaces.elem_add(target, forcing(t))
        forms = _quotient_forms(before, here, after, h)
        if not forms:
            raise NoApplicableForm(f"no difference quotient exists at t = {t}")
        worst = max(worst, min(spaces.elem_dist(q, target) for q in forms))
    return worst


# ---------------------------------------------------------------------------
# the worked systems and their closed forms


def fuzziness_residual(u, v):
    """E(u, v) = (u + v) + (-1)(u + v): zero exactly iff u + v is crisp.

    This is the term that separates genuinely fuzzy solutions from the
    crisp-style formulas; it is invariant under negation.
    """
    s = spaces.elem_add(u, v)
    return spaces.elem_add(s, spaces.elem_scale(-1.0, s))


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
