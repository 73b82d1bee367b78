"""Independent oracles used to derive expected values in the tests.

Everything in here is deliberately implemented from first principles
(plain loops, endpoint pairs, direct summation) so that the expected
values do not share a code path with the library being tested.
"""

import copy
import functools
import math

import numpy as np

from fuzzsemi import checks


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
