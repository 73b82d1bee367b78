"""Reference values that never touch the fuzzy algebra.

Everything here works on plain endpoint arrays with numpy, so a defect in
``core.add``, ``core.scalar_mul`` or the series engine cannot make the
benchmark's judge agree with it.

Endpoint model: a k-component product state at one membership grid is an
array of shape (2, k, levels) holding the lower endpoints in row 0 and the
upper endpoints in row 1.  A real k x k matrix A acts on it as

    lower' = A+ . lower + A- . upper,    upper' = A+ . upper + A- . lower

with A+ = max(A, 0) and A- = min(A, 0) (a negative factor swaps the
endpoint roles).  That map is linear on the stacked endpoint vector, and
every exp / cosh series coefficient is positive for t >= 0, so the series
limit is the solution of the linear ODE on the endpoints.  The ODE is
integrated with the classical RK4 scheme.
"""

from __future__ import annotations

import math

import numpy as np

RK4_MAX_STEP = 2.0**-10  # RK4 step bound; error ~ T h^4 |A|^5 / 120 * |y|


def endpoint_generator(matrix) -> np.ndarray:
    """(2k x 2k) matrix of the endpoint map of a lifted k x k matrix."""
    a = np.asarray(matrix, dtype=float)
    ap, am = np.maximum(a, 0.0), np.minimum(a, 0.0)
    return np.block([[ap, am], [am, ap]])


def _rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    # one classical RK4 step of y' = gen y is the degree-4 Taylor polynomial
    # of h * gen applied to y
    z = h * gen
    eye = np.eye(gen.shape[0])
    return eye + z @ (eye + z @ (eye / 2 + z @ (eye / 6 + z / 24)))


def rk4_endpoint_flow(matrix, lower, upper, times, order: int = 1) -> list:
    """Endpoint states of u' = A u (order 1) or u'' = A u, u'(0) = 0 (order 2).

    ``lower`` and ``upper`` have shape (k, levels); ``times`` start at 0.
    Returns one (2, k, levels) array per time.
    """
    gen = endpoint_generator(matrix)
    n = gen.shape[0]
    y = np.concatenate([np.asarray(lower, float), np.asarray(upper, float)])
    if order == 2:
        # (y, y')' = (y', gen y)
        gen = np.block([[np.zeros((n, n)), np.eye(n)], [gen, np.zeros((n, n))]])
        y = np.concatenate([y, np.zeros_like(y)])
    out = [y]
    times = np.asarray(times, dtype=float)
    for t0, t1 in zip(times[:-1], times[1:]):
        steps = max(1, math.ceil((t1 - t0) / RK4_MAX_STEP))
        step = np.linalg.matrix_power(_rk4_step_matrix(gen, (t1 - t0) / steps), steps)
        y = step @ y
        out.append(y)
    k = n // 2
    return [s[:n].reshape(2, k, -1) for s in out]


def level_integral(levels, values) -> float:
    return float(np.trapezoid(values, levels))


def lower_coeff(levels, lower) -> float:
    """Coefficient of the lower-endpoint generator (builtin RemarkA)."""
    return float(lower[-1]) - level_integral(levels, lower)


def upper_coeff(levels, upper) -> float:
    """Coefficient of the upper-endpoint generator (builtin RemarkB)."""
    return float(upper[0]) - level_integral(levels, upper)


def scale_forced_flow(a: float, u0, g, t: float) -> np.ndarray:
    """u' = a u + g with a > 0 and constant g: e^{at} u0 + (e^{at} - 1)/a g."""
    grow, duhamel = math.exp(a * t), math.expm1(a * t) / a
    return grow * np.asarray(u0) + duhamel * np.asarray(g)


def generator_forced_flow(rate: float, coeff_u0: float, coeff_g: float, u0, g, c, t: float) -> np.ndarray:
    """u' = A u + g for A x = coeff(x) c with coeff(c) = rate > 0, g constant.

    A^p x = coeff(x) rate^(p-1) c for p >= 1, so the flow is
    x + coeff(x)/rate (e^{t rate} - 1) c and the Duhamel term integrates
    to t g + coeff(g)/rate ((e^{t rate} - 1)/rate - t) c.  Every factor of
    c is nonnegative, so the sum is levelwise.
    """
    e1 = math.expm1(t * rate)
    k_u0 = coeff_u0 / rate * e1
    k_g = coeff_g / rate * (e1 / rate - t)
    return np.asarray(u0) + t * np.asarray(g) + (k_u0 + k_g) * np.asarray(c)


def generator_flow(rate: float, coeff_x: float, x, c, t: float, order: int = 1) -> np.ndarray:
    """Unforced flow of A x = coeff(x) c: exp (order 1) or cosh (order 2) series."""
    if order == 1:
        factor = math.expm1(t * rate) / rate
    else:
        factor = (math.cosh(t * math.sqrt(rate)) - 1.0) / rate
    return np.asarray(x) + coeff_x * factor * np.asarray(c)


def gap(got, want) -> float:
    """Largest endpoint gap (the library's metric, computed directly)."""
    return float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
