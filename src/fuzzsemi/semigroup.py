"""Truncated-series evaluation of exp, cosh and sinh of t * (bounded operator).

The exponential family T(t)(x) is the formal series sum_p (t^p / p!) A^p(x)
accumulated with fuzzy addition; cosh and sinh use the even and odd
coefficients t^2p / (2p)! and t^(2p-1) / (2p-1)! on A^p.  The powers
A^p(x) do not depend on t, so the partial sums at many times are one
`core.combine_rows` of the same powers, one coefficient row per time
(`partial_sums`; Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011, reuse
one set of powers for e^{tA}b at many t the same way).  Each row is summed
in the same order as on its own, so batching changes no bit.
Because scalar addition does not distribute over mixed-sign factors in
this algebra, the sum is evaluated literally term by term -- coefficients
are never merged.  Merging coefficients of mixed sign is what is unsound
here; splitting t >= 0 into substeps and composing them is sound by the
semigroup law (for t < 0 only when the operator is fully linear, see
`check_semigroup_law`).  A documented consequence: supports widen for
negative t on genuinely fuzzy inputs.

Truncation is controlled rigorously: the Cauchy tail of the series is
bounded by sum_{i>m} (|t| M)^i / i! (and the even/odd analogues
sum |t|^{2i} M^i / (2i)! etc.) where M is the operator's certified norm
bound.  `_coefficients(kind, t, m)` is the one ladder c_p(t) m^p of each
kind: `partial_sums` and the wave solver take m = 1, and `required_order`
takes (|t|, M) to pick the smallest order whose exact tail is below target;
each time's order is that of tol / max(1, ||x||), and all the times are
summed in one batch.

`MatrixFlow` is the exact limit of that series for an operator that
carries a real matrix A (`operators.lift_matrix`, and `scale_operator` as
a 1 x 1 matrix).  Levelwise the algebra is midpoint-radius interval
arithmetic (Rump, BIT 39, 1999): a factor c maps (mid, rad) to
(c mid, |c| rad), and A maps them to (A mid, |A| rad).  So the literal
series at any t, of either sign, sums to mid(t) = e^{tA} mid0 and
rad(t) = e^{|t| |A|} rad0 for exp, and to the cosh series of (tA, |t| |A|)
for cosh, which is the top-left block of the exponential of
[[0, t I], [t A, 0]].  The matrix exponentials are Taylor polynomials with
scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), in
numpy, their degree taken from `required_order` so that the tail is below
the unit roundoff.  `propagator` is the one place that picks this flow
(exp and cosh of an operator with a matrix) or the literal series; the
solvers and `exp_apply`/`cosh_apply`/`sinh_apply` go through it, and
`SemigroupEvaluator` stays the literal series and the flow's test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import mul, truediv
from typing import Callable

import numpy as np

from . import core, operators
from .errors import HDifferenceError, MixedSignsError, SeriesOverflow
from .operators import LinearOperator

KINDS = ("exp", "cosh", "sinh")

_TAIL_TERM_CUTOFF = 1e-3  # stop summing once terms drop below tol * this
_MAX_TERMS = 100_000


def _coefficients(kind: str, t: float, m: float = 1.0):
    """Iterator over c_p(t) * m^p for p = 1, 2, ...: each term is the last one
    times z / p (exp), z2 / ((2p-1)(2p)) (cosh) or z2 / ((2p-2)(2p-1)) (sinh).
    z = t * m and z2 = t * z are formed once, so m = 1.0 gives the
    coefficients of t bit for bit, and a large m rescues a t whose square
    alone would underflow.  An unknown kind raises here, not later."""
    if kind not in KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    z = t * m
    z2 = t * z
    if kind == "exp":
        first, num, dens = z, z, count(2)
    elif kind == "cosh":
        first, num, dens = z2 / 2.0, z2, map(mul, count(3, 2), count(4, 2))
    else:
        first, num, dens = z, z2, map(mul, count(2, 2), count(3, 2))
    return accumulate(map(truediv, repeat(num), dens), mul, initial=first)


def required_order(t: float, bound: float, tol: float, kind: str = "exp") -> int:
    """Smallest order m whose exact series tail is at most tol.

    The tail sum_{i>m} term_i is evaluated by direct summation, stopping
    once terms fall below tol * 1e-3 with a geometric remainder bound for
    what is left, so the reported tail is a rigorous upper bound.  A term
    that is exactly 0 (t^2 M or t M underflowed) ends the tail: every
    later term is a multiple of it.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if bound < 0 or not math.isfinite(bound) or not math.isfinite(t):
        raise ValueError("t and bound must be finite, bound >= 0")
    if t == 0.0 or bound == 0.0:
        return 0

    terms = []
    cutoff = tol * _TAIL_TERM_CUTOFF
    for term in _coefficients(kind, abs(t), bound):
        terms.append(term)
        if term == 0.0:  # every later term is a multiple of this one: the tail is 0
            break
        if len(terms) >= 2 and term < terms[-2] and term < cutoff:
            break
        if not math.isfinite(term) or len(terms) >= _MAX_TERMS:
            raise SeriesOverflow(
                f"series terms overflow for |t| * M = {abs(t) * bound:g} (M the "
                "operator's norm bound); shorten the horizon or reduce the operator's norm"
            )
    # once terms decay their ratio only shrinks, so the remainder is geometric
    q = terms[-1] / terms[-2] if len(terms) >= 2 and terms[-2] > 0.0 else 0.0
    remainder = terms[-1] * q / (1.0 - q) if q < 1.0 else math.inf

    tail = remainder
    order = len(terms)
    for i in range(len(terms) - 1, -1, -1):
        tail += terms[i]
        if tail > tol:
            order = i + 1
            break
        order = i
    return order


def partial_sums(op: LinearOperator, kind: str, times, x, orders, powers: list | None = None) -> list:
    """Partial sums of the operator series, orders[i] terms at times[i].

    Powers come from the ladder y_0 = x, y_{p+1} = A(y_p), extended once to
    the largest order, and each time's coefficients from incremental factor
    multiplication.  All the sums are one `core.combine_rows` over that
    ladder, with a fixed left-to-right fuzzy-addition order, so each equals
    its own `series_apply` bit for bit.  Order 0 gives x itself (the zero
    element for sinh).

    ``powers`` is an optional ladder ``[x, A(x), A^2(x), ...]`` owned by the
    caller (`propagator` keeps one); it must start with x itself.  The
    entries these orders need are read from it and the missing ones are
    appended in place, so later calls for the same x and operator -- at
    other times, kinds or tolerances -- apply the operator only past the
    longest order seen.  The ladder does not change the result: the same
    terms are added in the same order.  It holds one element per power,
    and it is only sound while x and the operator's outputs are not mutated
    (every element type here is immutable).
    """
    rows = [list(islice(_coefficients(kind, t), order)) for t, order in zip(times, orders, strict=True)]
    if powers is None:
        powers = [x]
    elif not powers or powers[0] is not x:
        raise ValueError("the power ladder must start with x itself")
    while len(powers) <= max(orders, default=0):
        powers.append(op(powers[-1]))
    # exp and cosh start from the identity term x; sinh has none
    if kind == "sinh":
        unit, terms = core.zero_like(x), powers[1:]
    else:
        unit, terms, rows = x, powers, [[1.0, *row] if row else row for row in rows]
    filled = [row for row in rows if row]
    sums = iter(core.combine_rows(filled, terms) if filled else ())
    return [next(sums) if row else unit for row in rows]


def series_apply(op: LinearOperator, kind: str, t: float, x, order: int):
    """Partial sum of the operator series at one time and truncation order:
    the one-time case of `partial_sums`."""
    return partial_sums(op, kind, (t,), x, (order,))[0]


def _orders(op: LinearOperator, kind: str, times, x, tols) -> list:
    """Each time's truncation order: its tail below that time's tol / max(1, ||x||)."""
    scale = max(1.0, core.norm(x))
    return [required_order(t, op.norm_bound, tol / scale, kind) for t, tol in zip(times, tols)]


@dataclass(frozen=True)
class SemigroupEvaluator:
    """Evaluates the truncated operator series to a guaranteed accuracy.

    ``tol`` bounds the metric distance between the returned partial sum
    and the series limit for unit-ball inputs; for general x the order
    computation is rescaled by ||x||, preserving the guarantee.
    """

    operator: LinearOperator
    kind: str = "exp"
    tol: float = 1e-9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (self.tol > 0):
            raise ValueError("tol must be > 0")
        if not math.isfinite(self.operator.norm_bound):
            raise ValueError("operator norm bound must be finite")

    def order_for(self, t: float, x) -> int:
        return _orders(self.operator, self.kind, (t,), x, (self.tol,))[0]

    def evaluate(self, times, x) -> list:
        """Truncated series at each of ``times``, in order; exact identity (or
        zero, for sinh) at t = 0.

        Each time gets its own order and all the sums are one batched
        combination (see `partial_sums`), each bit-identical to its own `at`.
        """
        times = [float(t) for t in times]
        orders = _orders(self.operator, self.kind, times, x, repeat(self.tol))
        return partial_sums(self.operator, self.kind, times, x, orders)

    def at(self, t: float, x):
        """Truncated series at one time t: the one-time case of `evaluate`."""
        return self.evaluate((t,), x)[0]

    __call__ = at


# ---------------------------------------------------------------------------
# exact flow of operators that carry a real matrix

FLOW_KINDS = ("exp", "cosh")
_UNIT_ROUNDOFF = 2.0**-53
# Taylor degree whose tail at |tau| * ||base|| <= 1 is below the unit roundoff
_TAYLOR_DEGREE = required_order(1.0, 1.0, _UNIT_ROUNDOFF)
_TAYLOR_DIVISORS = np.arange(1.0, _TAYLOR_DEGREE + 1)


def _binary_exponent(v):
    """The smallest integer e with |v| <= 2^e (0 for v = 0), elementwise."""
    mant, expo = np.frexp(np.abs(v))
    return expo - (mant == 0.5)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked a @ b for small matrices without BLAS (whose first call would
    add its buffers to the process): every product a_ij b_jk, then one sum
    over j along a contiguous last axis per entry, so an item's bits do not
    depend on the batch."""
    return (a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :]).sum(axis=-1)


def _expm(powers: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(taus[b, i] * base_b) for every base b and item i: shape (B, n, K, K).

    ``powers[b, p]`` is base_b^(p+1) for p < `_TAYLOR_DEGREE`, every base of
    infinity norm at most 1.  Each tau is halved s times, s the item's own,
    until |tau| <= 1; its Taylor polynomial is the row of the exp ladder of
    `_coefficients` at tau, c_p = c_{p-1} * (tau / p), times the powers
    (one 1 x degree by degree x K^2 product per item), plus the identity;
    then it is squared s times.  Every step acts on each item alone, so an
    item gets the same bits in any batch.  Overflow gives inf or nan
    entries, silently under the caller's `np.errstate`.
    """
    nb, k = powers.shape[0], powers.shape[-1]
    squarings = np.maximum(_binary_exponent(taus), 0)
    coeffs = np.multiply.accumulate(np.ldexp(taus, -squarings)[..., None] / _TAYLOR_DIVISORS, axis=-1)
    out = _matmul(coeffs[..., None, :], powers.reshape(nb, 1, _TAYLOR_DEGREE, k * k)).reshape(*taus.shape, k, k)
    out += np.eye(k)
    flat, squarings = out.reshape(-1, k, k), squarings.reshape(-1)
    for j in range(int(squarings.max(initial=0))):
        rows = np.flatnonzero(squarings > j)
        flat[rows] = _matmul(flat[rows], flat[rows])
    return out


@dataclass(frozen=True)
class MatrixFlow:
    """The exact limit of the exp or cosh series of an operator with a matrix.

    For the operator's real k x k matrix A (`LinearOperator.matrix`; 1 x 1
    scales every leaf of any element) the series at time t maps the
    midpoints and radii of x, levelwise, by two k x k matrices: e^{tA} and
    e^{|t| |A|} for exp, the cosh series of (tA, |t| |A|) for cosh (see
    `matrices`).  Computed in floating point to a few ulps of the growth
    e^{|t| |A|} times ||x||; no truncation tolerance is involved.  The
    powers of both Taylor bases are formed once, at construction.
    """

    operator: LinearOperator
    kind: str = "exp"

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}")
        a = self.operator.matrix
        if a is None:
            raise ValueError(f"{self.operator.name} carries no matrix")
        k = a.shape[0]
        if self.kind == "cosh":
            # [[0, g I], [A / g, 0]] squares to diag(A, A) for every g > 0; g, a
            # power of two near sqrt(||A||), balances the blocks exactly
            g = 2.0 ** (int(_binary_exponent(self.operator.norm_bound)) // 2)
            block = np.zeros((2 * k, 2 * k))
            block[:k, k:], block[k:, :k] = g * np.eye(k), a / g
            a = block
        bases = np.stack((a, np.abs(a)))
        # a power of two brings both bases to norm at most 1 and moves into the times
        scale = int(_binary_exponent(bases[1].sum(axis=1).max()))
        # powers[:, p] = base^(p+1); times base^m the first m give the next m
        powers = np.ldexp(bases, -scale)[:, None]
        while powers.shape[1] < _TAYLOR_DEGREE:
            powers = np.concatenate((powers, _matmul(powers, powers[:, -1:])), axis=1)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_powers", powers[:, :_TAYLOR_DEGREE])

    def matrices(self, times) -> np.ndarray:
        """The (2, n, k, k) stack of the matrices that map the midpoints ([0])
        and the radii ([1]) at each of the n times; non-finite entries mean
        the flow overflowed (numpy warns unless the caller silences it).

        cosh is the top-left block of exp(|t| [[0, g I], [A / g, 0]]), and
        its radius matrix that of the same with |A|.  Both kinds take one
        `_expm` call.
        """
        times = np.asarray(times, dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        k = self.operator.matrix.shape[0]
        signed = times if self.kind == "exp" else np.abs(times)
        out = _expm(self._powers, np.ldexp(np.stack((signed, np.abs(times))), self._scale))
        return out[:, :, :k, :k]

    def evaluate(self, times, x) -> list:
        """The flow at each of ``times`` applied to x, in order.

        x itself where both matrices are exactly the identity (t = 0, or a
        t too small to move any bit); otherwise midpoints and radii are
        mapped and the endpoints pass one batched `core.clamp_nested` at a
        tolerance relative to ||R(t)|| ||x||, R the radius matrix.  The
        domain is checked first.  Raises SeriesOverflow, without a numpy
        warning and whatever x is, when a matrix or a result leaves the
        float range.
        """
        self.operator._check_domain(core._leaf(x))
        times = [float(t) for t in times]
        if not times:
            return []
        ends = np.empty((len(times), *x.ends.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            flows = self.matrices(times)
            k = flows.shape[-1]
            same = (flows == np.eye(k)).all(axis=(0, 2, 3))
            half = 0.5 * x.ends
            lo, up = half[..., 0, :], half[..., 1, :]
            parts = np.stack((lo + up, up - lo)).reshape(2, 1, k, -1)
            # flows @ parts, one column of flows at a time: the parts are long rows
            image = flows[..., :1] * parts[:, :, :1]
            for j in range(1, k):
                image += flows[..., j : j + 1] * parts[:, :, j : j + 1]
            mid, rad = image.reshape(2, len(times), *lo.shape)
            np.subtract(mid, rad, out=ends[..., 0, :])
            np.add(mid, rad, out=ends[..., 1, :])
        # a non-finite matrix entry makes its image non-finite too (0 * inf is nan)
        finite = np.isfinite(ends).reshape(len(times), -1).all(axis=1)
        if not finite.all():
            raise SeriesOverflow(
                f"the {self.kind} flow of {self.operator.name} overflows at t = {times[np.argmin(finite)]!r}; "
                "shorten the horizon or reduce the operator's norm or data"
            )
        growth = np.maximum(1.0, flows[1].sum(axis=2).max(axis=1) * core.norm(x))
        tol = core.MONOTONICITY_TOLERANCE * growth.reshape(-1, *(1,) * (lo.ndim - 1))
        ends, ok = core.clamp_nested(ends, tol)
        if not ok.all():
            raise SeriesOverflow(
                f"rounding in the {self.kind} flow of {self.operator.name} breaks the nesting of level sets; "
                "shorten the horizon"
            )
        return [x if keep else x._with(e) for keep, e in zip(same.tolist(), ends)]

    def at(self, t: float, x):
        """The flow at one time t: the one-time case of `evaluate`."""
        return self.evaluate((t,), x)[0]


# ---------------------------------------------------------------------------
# the one choice of how T(t) is evaluated


def propagator(operator: LinearOperator, kind: str = "exp") -> Callable:
    """The map (times, x, tols) -> T(t)(x) at each of ``times`` in one batch,
    with one truncation tol per time: the exact `MatrixFlow` for exp and
    cosh of an operator with a matrix (``tols`` unused), else the literal
    series, truncated as `SemigroupEvaluator` truncates it, over the power
    ladder of the last x, which the propagator holds so that an ``is`` match
    never comes from a recycled id.  The ladder grows on use: a propagator
    is not for concurrent use from several threads.  A series that leaves
    the float range raises SeriesOverflow, without a numpy warning.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if operator.matrix is not None and kind in FLOW_KINDS:
        flow = MatrixFlow(operator, kind)
        return lambda times, x, tols: flow.evaluate(times, x)
    ladder = [None]

    def series(times, x, tols):
        times = [float(t) for t in times]
        if ladder[0] is not x:
            ladder[:] = [x]
        orders = _orders(operator, kind, times, x, tols)
        with np.errstate(over="ignore", invalid="ignore"):
            states = partial_sums(operator, kind, times, x, orders, ladder)
        for t, u in zip(times, states):
            if not np.isfinite(u.ends).all():
                raise SeriesOverflow(f"{kind} series of {operator.name} overflows at t = {t!r}; shorten the horizon")
        return states

    return series


def exp_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    return propagator(op, "exp")((t,), x, (tol,))[0]


def cosh_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    return propagator(op, "cosh")((t,), x, (tol,))[0]


def sinh_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    return propagator(op, "sinh")((t,), x, (tol,))[0]


def check_semigroup_law(ev: SemigroupEvaluator, t: float, s: float, x) -> float:
    """Distance between T(t+s)(x) and T(t)(T(s)(x)).

    Only same-sign pairs are accepted; the law is not asserted for mixed
    signs.  Truncation contributes at most tol for each of the three
    evaluations, with the inner error amplified by at most the growth of
    the outer flow (bounded by exp(|t| M)), so the residual is at most on
    the order of tol * (2 + exp(|t| M)).

    For nonpositive pairs the law additionally needs the operator to be
    homogeneous under negative factors: composing the partial sums pushes
    A through negative inner coefficients.  Positively homogeneous
    operators genuinely violate the law there on fuzzy inputs (the
    residual does not vanish with tol), so negative pairs are meaningful
    only for fully linear operators.
    """
    if ev.kind != "exp":
        raise ValueError("the semigroup law applies to the exponential family")
    if t * s < 0:
        raise MixedSignsError(f"mixed-sign pair (t, s) = ({t}, {s})")
    direct = ev.at(t + s, x)
    nested = ev.at(t, ev.at(s, x))
    return core.distance(direct, nested)


def generator_residual(ev: SemigroupEvaluator, h: float, x) -> float:
    """Distance between the difference quotient (T(h)(x) - x)/h and A(x).

    For h > 0 the truncated series is x plus positive-coefficient terms,
    so the difference always exists; the residual is bounded by
    ||x|| * (exp(h M) - 1 - h M) / h plus tol / h from truncation.
    """
    if ev.kind != "exp":
        raise ValueError("the generator limit applies to the exponential family")
    if not h > 0:
        raise ValueError("h must be > 0")
    try:
        diff = core.hukuhara_diff(ev.at(h, x), x)
    except HDifferenceError as exc:
        raise HDifferenceError(f"difference quotient unavailable at h={h}: {exc}") from exc
    quotient = core.scalar_mul(1.0 / h, diff)
    return core.distance(quotient, ev.operator(x))


def generator_pair_closed_form(c: core.FuzzyNumber, x: core.FuzzyNumber, t: float, which: str = "A"):
    """Closed form of the exponential flow for the two scaling generators.

    For the lower-endpoint generator ("A", same map as builtin RemarkA)
    the flow is x + coeff(x)/mu * (exp(t mu) - 1) * c with
    mu = mu_coeff(c); for the upper-endpoint generator ("B") the
    coefficient and the growth rate use the upper endpoints at level 0.
    Requires t >= 0 and a positive growth rate.
    """
    if t < 0:
        raise ValueError("closed form stated for t >= 0")
    if which == "A":
        coeff, rate = operators.mu_coeff(x), operators.mu_coeff(c)
    elif which == "B":
        coeff, rate = operators.upper_spread_coeff(x), operators.upper_spread_coeff(c)
    else:
        raise ValueError("which must be 'A' or 'B'")
    if rate <= 0:
        raise ValueError("growth rate must be positive for the closed form")
    factor = coeff * math.expm1(t * rate) / rate
    return core.add(x, core.scalar_mul(factor, c))
