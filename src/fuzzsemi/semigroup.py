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
[[0, t I], [t A, 0]].  Where A and the signed tau have no sign bit (every
cosh time, exp at t >= +0.0) the two are one F >= 0, which maps the lower
and upper endpoints directly, exactly nested; signed bases stay
midpoint-radius.  The matrix exponentials are Taylor polynomials with
scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), in
numpy, their degree taken from `required_order` so that the tail is below
the unit roundoff.  `RankOneFlow` runs the same kernel on a 4 x 4 matrix
for every builtin.  A flow forms the exponential of one generator: A, the
[[A, I], [0, 0]] of a constant forcing, or the cosh matrix, which serves
cosh, cosh with a velocity and sinh (`_sinh_flow`) alike.
`propagator`, the one map for T(t), takes the flow of every operator with a
matrix or a rank-one map and the literal series of every other, and alone
checks the constant-input contract; `SemigroupEvaluator` stays the literal
series and the flows' test oracle.  A flow is built on first use and kept on
the operator instance (`_flow`), with its matrices at each time, within a byte
budget (`MatrixFlow.matrices`): a solve repeated on one grid forms no exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import mul, truediv
from typing import Callable

import numpy as np

from . import core, operators
from .errors import HDifferenceError, MixedSignsError, SeriesOverflow, ToleranceUnderflow
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


def partial_sums(op: LinearOperator, kind: str, times, x, orders, integral: bool = False) -> list:
    """Partial sums of the operator series, orders[i] terms at times[i].

    Powers come from the ladder y_0 = x, y_{p+1} = A(y_p), extended once to
    the largest order, and each time's coefficients from incremental factor
    multiplication.  All the sums are one `core.combine_rows` over that
    ladder, with a fixed left-to-right fuzzy-addition order, so each equals
    its own `series_apply` bit for bit.  Order 0 gives x itself (the zero
    element for sinh).  With ``integral`` the p-th coefficient goes to A^(p-1):
    the integral over [0, t] of exp (kind exp) or cosh (kind sinh), 0 at order 0.
    """
    rows = [list(islice(_coefficients(kind, t), order)) for t, order in zip(times, orders, strict=True)]
    powers = [x]
    while len(powers) < max(orders, default=0) + (not integral):
        powers.append(op(powers[-1]))
    # exp and cosh start from the identity term x; sinh and the integrals have none
    if integral or kind == "sinh":
        unit, terms = core.zero_like(x), powers if integral else powers[1:]
    else:
        unit, terms, rows = x, powers, [[1.0, *row] if row else row for row in rows]
    filled = [row for row in rows if row]
    sums = iter(core.combine_rows(filled, terms) if filled else ())
    return [next(sums) if row else unit for row in rows]


def series_apply(op: LinearOperator, kind: str, t: float, x, order: int):
    """Partial sum of the operator series at one time and truncation order:
    the one-time case of `partial_sums`."""
    return partial_sums(op, kind, (t,), x, (order,))[0]


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")


def _relative_tol(tol: float, scale: float, factor: float = 1.0) -> float:
    """The truncation target factor * tol / scale; ToleranceUnderflow when it underflows to 0."""
    target = factor * tol / scale
    if not target > 0.0:
        raise ToleranceUnderflow(f"tol {tol!r} relative to the scale {scale!r} underflows to 0; raise tol")
    return target


def _series(op: LinearOperator, kind: str, times, x, tols, g=None) -> list:
    """The literal series at each of ``times``, truncated below that time's tol / max(1, ||x||),
    in one `partial_sums` batch; SeriesOverflow, without a numpy warning, past the float range.

    A constant input g (exp or cosh, times >= 0) adds integral_0^t T(r)(g) dr = sum_p d_p(t) A^p(g),
    d_p the order-(p+1) coefficient of exp (sinh for cosh; Hochbruck and Ostermann, Acta Numerica
    19, 2010): all d_p >= 0, so it holds levelwise, and its tail past m terms is 1/M times that of
    exp (sinh) past order m.  Each part gets tol / 2, relative to max(1, ||x||) and max(1, ||g||).
    """
    times, m = [float(t) for t in times], op.norm_bound
    if g is not None:
        ladder, scale = "sinh" if kind == "cosh" else kind, max(1.0, core.norm(g))
        tols = [0.5 * tol for _, tol in zip(times, tols)]
        g_orders = [required_order(t, m, _relative_tol(tol, scale, m), ladder) if m else int(t > 0.0)
                    for t, tol in zip(times, tols)]  # M = 0: t g is exact
    scale = max(1.0, core.norm(x))
    orders = [required_order(t, m, _relative_tol(tol, scale), kind) for t, tol in zip(times, tols)]
    with np.errstate(over="ignore", invalid="ignore"):
        states = partial_sums(op, kind, times, x, orders)
        if g is not None:
            integrals = partial_sums(op, ladder, times, g, g_orders, integral=True)
            states = [core.add(u, v) if n else u for u, v, n in zip(states, integrals, g_orders)]
    for t, u in zip(times, states):
        if not np.isfinite(u.ends).all():
            raise SeriesOverflow(f"{kind} series of {op.name} overflows at t = {t!r}; shorten the horizon")
    return states


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
        _check_tol(self.tol)

    def order_for(self, t: float, x) -> int:
        return required_order(t, self.operator.norm_bound, _relative_tol(self.tol, max(1.0, core.norm(x))), self.kind)

    def evaluate(self, times, x) -> list:
        """Truncated series at each of ``times``, in order; exact identity (or
        zero, for sinh) at t = 0; SeriesOverflow past the float range.

        Each time gets its own order and all the sums are one batched
        combination (see `partial_sums`), each bit-identical to its own `at`.
        """
        return _series(self.operator, self.kind, times, x, repeat(self.tol))

    def at(self, t: float, x):
        """Truncated series at one time t: the one-time case of `evaluate`."""
        return self.evaluate((t,), x)[0]

    __call__ = at


# ---------------------------------------------------------------------------
# exact flow of operators that carry a real matrix

FLOW_KINDS = ("exp", "forced_exp", "cosh")  # the generators A, [[A, I], [0, 0]] and the cosh matrix
_UNIT_ROUNDOFF = 2.0**-53
_MEMO_BYTES = 1 << 20  # each flow keeps at most this many bytes of matrices (`MatrixFlow.matrices`)
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
    """exp(taus[b, i] * base_b) for every row b of taus and item i: shape (B, n, K, K).

    ``powers[b, p]`` is base_b^(p+1) for p < `_TAYLOR_DEGREE`, every base of
    infinity norm at most 1; a single base serves every row.  Each tau is
    halved s times, s the item's own, until |tau| <= 1; its Taylor polynomial
    is the row of the exp ladder of `_coefficients` at tau,
    c_p = c_{p-1} * (tau / p), times the powers (one 1 x degree by degree x K^2
    product per item), plus the identity; then it is squared s times.  Every
    step acts on each item alone, so an item gets the same bits in any batch.
    Overflow gives inf or nan entries, silently under the caller's `np.errstate`.
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
    e^{|t| |A|} times ||x||; no truncation tolerance is involved.  Where the
    two are one F >= 0 (`_one_matrix`), it maps each endpoint instead.

    ``kind`` names the generator whose exponential's top block row is the map
    (Van Loan, IEEE TAC 23, 1978): A for "exp"; [[A, I], [0, 0]] for
    "forced_exp", adding a constant forcing g, u' = Au + g; the balanced
    [[0, b I], [A / b, 0]] for "cosh", whose row [C(t), b S(t)] adds a
    velocity g, u'' = Au, u'(0) = g.  `evaluate` reads x's k columns, and g's
    where the generator has input columns ("exp" has none).  The powers of
    both Taylor bases are formed once per flow, read-only; a base with no sign
    bit set is its own absolute value, and one set of powers serves both.
    The matrices of every time formed are kept, keyed by the time's bits, in
    a memo of at most `_MEMO_BYTES` that lives as long as the flow (`matrices`).
    """

    operator: LinearOperator
    kind: str = "exp"

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}")
        a, inject = self._real_matrix()
        k, b = a.shape[0], 1.0
        if self.kind == "cosh":
            # [[0, b I], [A / b, 0]] squares to diag(A, A) for every b > 0; b, a
            # power of two near sqrt(||A||), balances the blocks exactly
            b = 2.0 ** (int(_binary_exponent(np.abs(a).sum(axis=1).max())) // 2)
            a = np.block([[np.zeros((k, k)), b * np.eye(k)], [a / b, np.zeros((k, k))]])
        elif self.kind == "forced_exp":  # (x, g)' = (A x + inject g, 0)
            a = np.block([[a, inject], [np.zeros((inject.shape[1], sum(inject.shape)))]])
        # a base with no sign bit set is |A| bit for bit: its powers serve both
        bases = np.stack((a, np.abs(a))) if np.signbit(a).any() else a[None]
        # a power of two brings both bases to norm at most 1 and moves into the times
        scale = int(_binary_exponent(bases[-1].sum(axis=1).max()))
        # powers[:, p] = base^(p+1); times base^m the first m give the next m
        powers = np.ldexp(bases, -scale)[:, None]
        while powers.shape[1] < _TAYLOR_DEGREE:
            powers = np.concatenate((powers, _matmul(powers, powers[:, -1:])), axis=1)
        self.__dict__.update(_k=k, _width=len(a), _balance=b, _scale=scale,
                             _powers=core._frozen(powers[:, :_TAYLOR_DEGREE]), _memo={})

    def _real_matrix(self) -> tuple:
        """The generator and the block through which a forcing enters it."""
        if self.operator.matrix is None:
            raise ValueError(f"{self.operator.name} carries no matrix")
        return self.operator.matrix, np.eye(len(self.operator.matrix))

    def matrices(self, times) -> np.ndarray:
        """The (2, n, k, w) stack of the matrices that map the midpoints ([0])
        and the radii ([1]) at each of the n times; non-finite entries mean
        the flow overflowed (numpy warns unless the caller silences it).

        Each is the top block row of its exponential (see the class): the map
        of x, and then of the input g where the generator has input columns.
        Every kind takes one `_expm` call, over one row of taus when the base is
        its own absolute value and the signed taus carry no sign bit (cosh, and
        exp or forced exp at t >= 0): the two exponentials are then one, bit for bit.

        Each time's pair is formed once per flow: the times missing from the
        memo are formed in one batch and kept, read-only, keyed by their bit
        pattern (so -0.0 and +0.0 are two times).  `_expm` gives an item the same
        bits in any batch, so a kept pair equals a fresh one bit for bit.  The
        memo holds at most `_MEMO_BYTES`: it is cleared when an insert would
        pass that, and a batch larger than it is returned but not kept.  The
        returned stack is a fresh writable array, and is read from a snapshot of
        the memo, so a concurrent call can at worst form a time twice; two
        racing inserts can also leave the memo one batch past its budget until
        its next clear.
        """
        times = np.asarray(times, dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        keys = times.view(np.uint64).tolist()  # by bit pattern: -0.0 and +0.0 are two keys
        # a snapshot of the hits: nothing reads the memo after it, so a concurrent clear cannot raise
        known = {key: hit for key in keys if (hit := self._memo.get(key)) is not None}
        missing = list(dict.fromkeys(key for key in keys if key not in known))
        if missing:
            batch = core._frozen(self._exponentials(np.array(missing, dtype=np.uint64).view(float)))
            fresh = {key: batch[:, i : i + 1] for i, key in enumerate(missing)}  # (2, 1, k, w) each
            known.update(fresh)
            if batch.nbytes <= _MEMO_BYTES:  # a batch past the budget is returned but not kept
                if (len(self._memo) + len(fresh)) * (batch.nbytes // len(fresh)) > _MEMO_BYTES:
                    self._memo.clear()
                self._memo.update(fresh)
        return np.concatenate([np.empty((2, 0, self._k, self._width)), *map(known.get, keys)], axis=1)

    def _exponentials(self, times: np.ndarray) -> np.ndarray:
        """`matrices` of finite ``times``, formed afresh in one batch."""
        signed = np.abs(times) if self.kind == "cosh" else times
        taus = np.stack((signed, np.abs(times)))
        if len(self._powers) == 1 and not np.signbit(signed).any():
            taus = taus[1:]
        out = _expm(self._powers, np.ldexp(taus, self._scale))[:, :, : self._k, : self._width]
        if len(out) == 1:
            out = np.concatenate((out, out))
        out[..., self._k :] /= self._balance  # b S(t) -> S(t), exact: b is a power of two (1 for forced exp)
        return out

    def _one_matrix(self, times: list) -> list:
        """Per time, whether its two matrices are one, e^{|t| |A|}: the base has no sign bit and
        the signed tau (|t| for cosh) has none, as in `_exponentials`."""
        one = len(self._powers) == 1
        return [one and (self.kind == "cosh" or math.copysign(1.0, t) > 0.0) for t in times]

    def _image(self, flows, x, g):
        """(grid, ends, size, same): the leaf whose grids the image takes, the image's endpoints,
        the norm bound for the clamp (None: no clamp), and whether the map is exactly the identity,
        per time.  A pair of matrices maps midpoints and radii to mid -/+ rad; one F >= 0 maps the
        lower and upper endpoints alike.  A forced flow maps the stack (x, g)."""
        rows, cols = flows.shape[-2:]
        if g is None:
            grid, ends = x, x.ends
        else:
            grid, g = core.common_grid(x, g)
            ends = np.stack((grid.ends, g.ends))
        size = None  # one F >= 0 maps the endpoints, with nothing to repair
        if len(flows) == 2:  # a pair maps (mid, rad) = (lo + up, up - lo) / 2, then the clamp
            size = flows[1].sum(axis=2).max(axis=1) * max(map(core.norm, (x,) if g is None else (x, g)))
            half = 0.5 * ends
            lo, up = half[..., 0, :], half[..., 1, :]
            ends = np.stack((lo + up, up - lo))
        parts = ends.reshape(len(flows), 1, cols, -1)
        # flows @ parts, one column of flows at a time: the parts are long rows
        image = flows[..., :1] * parts[:, :, :1]
        for j in range(1, cols):
            image += flows[..., j : j + 1] * parts[:, :, j : j + 1]
        if size is None:
            ends = image.reshape(flows.shape[1], *grid.ends.shape)
        else:
            mid, rad = image.reshape(2, flows.shape[1], *grid.ends.shape[:-2], -1)
            ends = np.stack((mid - rad, mid + rad), axis=-2)
        return grid, ends, size, (flows == np.eye(rows, cols)).all(axis=(0, 2, 3))

    def evaluate(self, times, x, g=None) -> list:
        """The flow at each of ``times`` applied to x (and to the input g, where the generator
        takes one: a forcing for forced exp, a velocity for cosh), in order.

        x itself where the map is exactly the identity (t = 0, or a t too small to move any bit);
        when every time is 0 that is returned at once, after the domain and argument checks, and
        no exponential is formed.  A time whose two matrices are one F >= 0 (`_one_matrix`) maps
        the endpoints by F: every weight is >= 0 and every input leaf is exactly nested, so
        monotone rounding keeps the images exactly nested (defect 0) and nothing is repaired.
        Every other time maps (mid, rad), and mid -/+ rad pass one batched `core.clamp_nested` at
        a tolerance relative to its norm bound.  The two kinds of time are evaluated apart, each
        with the bits of its own evaluation; each row of a batch becomes one state
        (`core.Leaf._with_rows`).  The domain is checked first.  SeriesOverflow, without a numpy
        warning, past the float range.
        """
        if g is not None and self._width == self._k:
            raise ValueError(f"the {self.kind} flow has no input columns: it takes no constant input")
        for arg in (x,) if g is None else (x, g):
            self.operator._check_domain(core._leaf(arg))
        times = [float(t) for t in times]
        if not times:
            return []
        if not any(times):  # every map is the identity: no exponential to form
            return [x] * len(times)
        one = self._one_matrix(times)
        if len(set(one)) == 2:  # both kinds of time: each evaluated apart, merged back in order
            split = {o: iter(self.evaluate([t for t, u in zip(times, one) if u == o], x, g)) for o in (False, True)}
            return [next(split[o]) for o in one]
        with np.errstate(over="ignore", invalid="ignore"):
            flows = self.matrices(times)[1:] if one[0] else self.matrices(times)
            if g is None:  # the map of x alone: the first k columns
                flows = np.ascontiguousarray(flows[..., : self._k])
            grid, ends, size, same = self._image(flows, x, g)
        # a non-finite matrix entry makes its image non-finite too (0 * inf is nan)
        name = self.kind.removeprefix("forced_")
        if not np.isfinite(ends).all():
            finite = np.isfinite(ends).reshape(len(times), -1).all(axis=1)
            what = name if g is None else f"forced {name}"
            raise SeriesOverflow(
                f"the {what} flow of {self.operator.name} overflows at t = {times[np.argmin(finite)]!r}; "
                "shorten the horizon or reduce the operator's norm or data"
            )
        if size is not None:
            tol = core.MONOTONICITY_TOLERANCE * np.maximum(1.0, size).reshape(-1, *(1,) * (ends.ndim - 3))
            ends, ok = core.clamp_nested(ends, tol)
            if not ok.all():
                raise SeriesOverflow(
                    f"rounding in the {name} flow of {self.operator.name} breaks the nesting of level sets; "
                    "shorten the horizon"
                )
        return [x if keep else leaf for keep, leaf in zip(same.tolist(), grid._with_rows(ends))]

    def at(self, t: float, x):
        """The flow at one time t: the one-time case of `evaluate`."""
        return self.evaluate((t,), x)[0]


class RankOneFlow(MatrixFlow):
    """The exact exp or cosh flow of x -> phi(x) c (``rank_one``: every builtin).

    A^p x = s_p c, where s_1 = phi(x) and, by positive homogeneity, the parts
    v_p = (s_p^+, s_p^-) obey v_{p+1} = M v_p, M = [[mu_+^+, mu_-^+], [mu_+^-, mu_-^-]]
    and mu_+- = phi(+-c).  So the series is mid(x) + m mid(c), rad(x) + r rad(c),
    with m = [1, -1] F(t) v_1, r = [1, 1] F(|t|) v_1 and F(t) = sum_p c_p(t) M^(p-1),
    the top-right block of the series of K = [[M, I], [0, 0]] (Van Loan, IEEE TAC
    23, 1978): `MatrixFlow`'s two matrices for K >= 0 hold F(t) and F(|t|).

    With a constant input g, integral_0^t T(r)g dr = t g + (sum_p d_p s_p(g)) c, so m
    and r take G(t) v_1(g), G = sum_p d_p M^(p-1), as well: d_p = t^(p+1) / (p+1)!
    for exp (Hochbruck and Ostermann, Acta Numerica 19, 2010), from the 6 x 6
    [[M, I, 0], [0, 0, I], [0, 0, 0]], and t^(2p+1) / (2p+1)! for cosh, from S(t)
    of K's 8 x 8 cosh matrix.  Either top block row ends in G(t), and holds t at [2, -2].
    """

    def _one_matrix(self, times: list) -> list:
        """Never: m is signed, so every time keeps the pair, midpoint-radius and the clamp."""
        return [False] * len(times)

    def _real_matrix(self) -> tuple:
        if self.operator.rank_one is None:
            raise ValueError(f"{self.operator.name} is not rank one")
        phi, c = self.operator.rank_one
        with np.errstate(over="ignore", invalid="ignore"):
            mu = np.array([phi(c), phi(core.scalar_mul(-1.0, c))])
        if not np.isfinite(mu).all():
            raise SeriesOverflow(f"phi(+-c) of {self.operator.name} overflows; reduce c")
        return np.block([[np.maximum([mu, -mu], 0.0), np.eye(2)], [np.zeros((2, 4))]]), np.eye(4, 2, -2)

    def _image(self, flows, x, g):
        phi, c = self.operator.rank_one
        s = np.array([phi(x)] if g is None else [phi(x), phi(g)])
        # F v_1(x), plus G v_1(g) from the last two columns when forced
        blocks = flows[:, :, :2, [2, 3] if g is None else [2, 3, -2, -1]]
        parts = (blocks * np.maximum(np.multiply.outer(s, [1.0, -1.0]), 0.0).ravel()).sum(axis=-1)
        m, r = parts[0, :, 0] - parts[0, :, 1], parts[1].sum(axis=-1)
        grid, ends = core.stack_common((x, c) if g is None else (x, c, g))
        (lx, ux), (lc, uc) = 0.5 * ends[:2]
        mid, rad, size, same = lx + ux, ux - lx, core.norm(x), (m == 0) & (r == 0)
        if g is not None:  # plus t g, t read from the block t I (exact: Taylor and squaring scale it by 2s)
            t, (lg, ug) = flows[0, :, 2, -2], 0.5 * ends[2]
            mid, rad = mid + t[:, None] * (lg + ug), rad + t[:, None] * (ug - lg)
            size, same = size + t * core.norm(g), same & (t == 0)
        mid, rad = mid + m[:, None] * (lc + uc), rad + r[:, None] * (uc - lc)
        return grid, np.stack((mid - rad, mid + rad), axis=-2), size + r * core.norm(c), same


# ---------------------------------------------------------------------------
# the one choice of how T(t) is evaluated


def _flow(operator: LinearOperator, kind: str):
    """The operator's flow of the generator ``kind`` (`FLOW_KINDS`): `MatrixFlow` for an operator
    with a matrix, `RankOneFlow` for a rank-one map, else None.  Built on first use and kept in the
    instance's ``_flows``, at most three, for every solve with the instance to share with the
    matrices each keeps per time; read-only, and a race can at worst build one twice."""
    cls = MatrixFlow if operator.matrix is not None else RankOneFlow if operator.rank_one is not None else None
    if cls is None:
        return None
    flow = operator._flows.get(kind)
    if flow is None:
        flow = operator._flows[kind] = cls(operator, kind)
    return flow


def _sinh_flow(operator: LinearOperator, flow: MatrixFlow, times: list, x) -> list:
    """S(t)x = A(integral_0^|t| C(r)x dr), odd in t (Fattorini, 1985), from the cosh ``flow`` with
    velocity x, whose coefficients are >= 0; the +0.0 zero element at t = 0, as in the series.
    A matrix maps every time in one `operators.matrix_image` pass, a rank-one map once per time."""
    zero = core.zero_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        integrals = flow.evaluate([abs(t) for t in times], zero, x)
        if operator.matrix is None or not integrals:
            images = [operator(v) for v in integrals]
        else:  # the flow checked x against the operator's domain
            grid, ends = core.stack_common(integrals)
            images = grid._with_rows(operators.matrix_image(operator.matrix, ends))
    for t, u in zip(times, images):
        if not np.isfinite(u.ends).all():
            raise SeriesOverflow(f"the sinh flow of {operator.name} overflows at t = {t!r}; shorten the horizon")
    return [zero if t == 0.0 else u if t > 0.0 else core.scalar_mul(-1.0, u) for t, u in zip(times, images)]


def propagator(operator: LinearOperator, kind: str = "exp") -> Callable:
    """The map (times, x, tols, g=None) -> T(t)(x) at each of ``times`` in one batch, one truncation
    tol per time, T the ``kind`` family; with a constant input g (exp or cosh, times >= 0, else
    ValueError), plus integral_0^t T(r)(g) dr: u(t) for u' = Au + g (exp) or u'' = Au, u'(0) = g
    (cosh), u(0) = x.  An operator with a matrix or a rank-one map takes the flow of its generator
    (`_flow`; ``tols`` unused), exact to rounding; every other operator the literal series as
    `SemigroupEvaluator` truncates it, plus the Duhamel series of g (`_series`).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")

    def evaluate(times, x, tols, g=None):
        times = [float(t) for t in times]
        if g is not None and (kind == "sinh" or any(not t >= 0.0 for t in times)):
            raise ValueError("a constant input is taken by exp and cosh at times >= 0 only")
        flow = _flow(operator, "cosh" if kind != "exp" else "exp" if g is None else "forced_exp")
        if flow is None:
            return _series(operator, kind, times, x, tols, g)
        return _sinh_flow(operator, flow, times, x) if kind == "sinh" else flow.evaluate(times, x, g)

    return evaluate


def exp_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    _check_tol(tol)
    return propagator(op, "exp")((t,), x, (tol,))[0]


def cosh_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    _check_tol(tol)
    return propagator(op, "cosh")((t,), x, (tol,))[0]


def sinh_apply(op: LinearOperator, t: float, x, tol: float = 1e-9):
    _check_tol(tol)
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
    direct, inner = ev.evaluate((t + s, s), x)  # one batch, each bit-identical to its own `at`
    return core.distance(direct, ev.at(t, inner))


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
    Requires t >= 0 and a positive growth rate; SeriesOverflow when e^{t mu} or a
    coefficient overflows.
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
    try:
        factor = coeff * math.expm1(t * rate) / rate
    except OverflowError:
        raise SeriesOverflow(f"the closed form of Remark{which} overflows at t = {t!r}") from None
    return core.add(x, core.scalar_mul(factor, c))
