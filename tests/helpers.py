"""Independent oracles used to derive expected values in the tests.

Everything in here is deliberately implemented from first principles
(plain loops, endpoint pairs, direct summation) so that the expected
values do not share a code path with the library being tested.
"""

import copy
import functools
import math

import numpy as np

from fuzzsemi import cauchy, checks, core
from fuzzsemi.errors import HDifferenceError
from fuzzsemi.operators import LinearOperator, lift_matrix
from fuzzsemi.spaces import pair


class IntervalO:
    """Plain closed interval [lo, hi] with the textbook arithmetic."""

    def __init__(self, lo, hi):
        assert lo <= hi
        self.lo = float(lo)
        self.hi = float(hi)

    def add(self, other):
        return IntervalO(self.lo + other.lo, self.hi + other.hi)

    def scale(self, k):
        a, b = k * self.lo, k * self.hi
        return IntervalO(min(a, b), max(a, b))

    def gap(self, other):
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))


def tri_interval(l, c, r, level):
    """Level set of the triangular number (l, c, r) at the given level."""
    return IntervalO(c - (1 - level) * (c - l), c + (1 - level) * (r - c))


def levelwise(u):
    """Library value -> list of oracle intervals, one per grid level."""
    return [IntervalO(lo, hi) for lo, hi in zip(u.lower, u.upper)]


def oracle_add(u, v):
    return [a.add(b) for a, b in zip(levelwise(u), levelwise(v))]


def oracle_scale(k, u):
    return [a.scale(k) for a in levelwise(u)]


def oracle_distance(u, v):
    return max(a.gap(b) for a, b in zip(levelwise(u), levelwise(v)))


def assert_matches(u, intervals, tol=0.0):
    """Endpointwise comparison of a library value with oracle intervals."""
    assert len(intervals) == u.levels.size
    for lo, hi, iv in zip(u.lower, u.upper, intervals):
        assert abs(lo - iv.lo) <= tol, (lo, iv.lo)
        assert abs(hi - iv.hi) <= tol, (hi, iv.hi)


def midpoint_integral(fn, a, b, n=200_001):
    """Composite midpoint rule, independent of the trapezoid used in-tree."""
    xs = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum([fn(float(x)) for x in xs]) * (b - a) / n)


def tail_order(t, bound, tol, kind="exp", max_terms=400):
    """Smallest truncation order by brute-force tail summation."""
    terms = []
    z = abs(t) * bound
    z2 = t * t * bound
    term = {"exp": z, "cosh": z2 / 2.0, "sinh": z}[kind]
    for p in range(1, max_terms):
        terms.append(term)
        if kind == "exp":
            term *= z / (p + 1)
        elif kind == "cosh":
            term *= z2 / ((2 * p + 1) * (2 * p + 2))
        else:
            term *= z2 / ((2 * p) * (2 * p + 1))
    for m in range(max_terms):
        if sum(terms[m:]) <= tol:
            return m
    raise AssertionError("no order found")


def rk4(field, y0, t_end, steps=400):
    """Classical fixed-step Runge-Kutta for the crisp reference solutions."""
    y = np.array(y0, dtype=float)
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        k1 = field(t, y)
        k2 = field(t + h / 2, y + h / 2 * k1)
        k3 = field(t + h / 2, y + h / 2 * k2)
        k4 = field(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def h_exp(t):
    """Scalar sum_{k>=2} t^k 2^(k-2) / k! by direct summation."""
    total, term = 0.0, 1.0
    for k in range(1, 200):
        term *= 2.0 * t / k  # term = (2t)^k / k!
        if k >= 2:
            total += term / 4.0
    return total


def h_cosh(t):
    """Scalar sum_{k>=2} t^(2k) 2^(k-2) / (2k)! by direct summation."""
    total = 0.0
    z = t * math.sqrt(2.0)
    term = 1.0
    for k in range(1, 200):
        term *= z * z / ((2 * k - 1) * (2 * k))  # term = z^(2k) / (2k)!
        if k >= 2:
            total += term / 4.0
    return total


_SUITES = dict(checks.SUITES)  # the real suites, whatever a test patches into checks.SUITES later


@functools.lru_cache(maxsize=None)
def _suite_records(suite, seed):
    return tuple(_SUITES[suite](seed=seed))


def suite_records(suite, seed):
    """The records of one `verify` suite at one seed, computed once per test
    session; each call returns a fresh copy."""
    return copy.deepcopy(list(_suite_records(suite, seed)))


def random_fuzzy_per_draw(rng, m_levels, span=1.0):
    """One random fuzzy number's (lower, upper) endpoints by the drawing rule
    of `operators.random_fuzzy`, one number per call."""
    lo = np.sort(rng.uniform(-span, span, m_levels + 1))
    up = -np.sort(rng.uniform(-span, span, m_levels + 1))
    if lo[-1] > up[-1]:
        up = (up - up[-1]) + lo[-1]
    return lo, up


def per_draw_solver_records(seed):
    """The `crisp_collapse_rk4` and `fuzziness_residual_iff_crisp` records of
    `checks.suite_solver`, formed one RK4 step on numpy 2-vectors and one
    drawn case at a time (every eighth case collapsed to crisp, as the suite does)."""
    out = checks._Worst("solver")
    a0, b0 = 1.5, -0.5
    for matrix in (cauchy.SWAP_MATRIX, cauchy.COUPLED_MATRIX):
        problem = cauchy.CauchyProblem(
            lift_matrix(matrix), pair(core.crisp(a0), core.crisp(b0)), horizon=1.0, tol=1e-9
        )
        traj = cauchy.solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
        mat = np.asarray(matrix)
        for t, st in zip(traj.times, traj.states):
            if t == 0.0:
                continue
            ref = rk4(lambda _, y: mat @ y, np.array([a0, b0]), float(t))
            got = np.array([st[0].lower[-1], st[1].lower[-1]])
            out.note("crisp_collapse_rk4", float(np.abs(ref - got).max()))
    out.close(1e-6)
    rng = np.random.default_rng([seed, 4])
    levels = core.level_grid(16)
    for i in range(200):
        drawn = [random_fuzzy_per_draw(rng, 16) for _ in range(2)]
        if i % 8 == 7:  # the suite's crisp pairs: each number collapses onto its core lower endpoint
            drawn = [(np.full(17, lo[-1]), np.full(17, lo[-1])) for lo, _ in drawn]
        uu, vv = (core.FuzzyNumber(levels, *pair_ends) for pair_ends in drawn)
        e = core.norm(cauchy.fuzziness_residual(uu, vv))
        sum_spread = float((core.add(uu, vv).upper - core.add(uu, vv).lower).max())
        out.note("fuzziness_residual_iff_crisp", e if sum_spread < 1e-12 else float(e == 0.0))
    out.close(1e-12)
    return out.records


def full_clamp(ends, tol=core.MONOTONICITY_TOLERANCE):
    """`core.clamp_nested` without its early return: every batch takes the
    monotone accumulation, on a copy; returns (ends, per-leaf ok)."""
    ends = np.array(ends)
    ok = ~(core.nesting_defect(ends) > tol)
    lo, up = ends[..., 0, :], ends[..., 1, :]
    np.maximum.accumulate(lo, axis=-1, out=lo)
    np.minimum.accumulate(up, axis=-1, out=up)
    crossed = lo[..., -1:] > up[..., -1:]
    if crossed.any():
        mid = 0.5 * lo[..., -1:] + 0.5 * up[..., -1:]
        lo[...] = np.where(crossed, np.minimum(lo, mid), lo)
        up[...] = np.where(crossed, np.maximum(up, mid), up)
    return ends, ok


def pairwise_stack(leaves):
    """`core.stack_common` by pairwise alignment alone: each leaf brought onto
    the running common grids with `core.common_grid`, then stacked."""
    grid = leaves[0]
    for u in leaves[1:]:
        grid = core.common_grid(grid, u)[0]
    return grid, np.stack([core.common_grid(grid, u)[1].ends for u in leaves])


def quotient_forms(before, here, after, h):
    """The four one-sided generalized difference quotients that exist at one
    time, each by its own `core.hukuhara_diff` and `core.scalar_mul`: the
    definition that `cauchy.residual_check` evaluates in one array pass."""
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


def bare(op):
    """The same map without its matrix or rank-one data: it takes the literal series, and a
    constant input its Duhamel series."""
    return LinearOperator(op.fn, op.norm_bound, op.homogeneity, f"bare {op.name}", op.domain)
