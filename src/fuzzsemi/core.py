"""Fuzzy numbers stored as discretized level sets.

A fuzzy number is represented by sampling its level sets on a grid of
membership levels 0 = r0 < r1 < ... < rM = 1.  At level r the set is a
compact interval [lower(r), upper(r)], and the intervals are nested as r
grows: lower is nondecreasing, upper is nonincreasing, lower <= upper.
Endpoints are interpolated linearly between grid levels, so every
triangular number is represented exactly and all the arithmetic here
(levelwise interval sum, scaled interval, partial difference) is exact
for such data up to rounding.

Every element keeps its endpoints in one array ``ends`` whose last two
axes are (lower/upper, level): (2, levels) for a fuzzy number, and
(nodes, 2, levels) or (k, 2, levels) for a sampled function, a product or
a sequence (`spaces`).  The algebra, metric and norm act on those two axes
only, so each is written once: a function's, product's or sequence's
operation is the number's at every node, component or term.  This module
is the only element algebra: its kernels check their own operands (one
kind, one arity, one domain) through the `Leaf._match` hook that `spaces`
overrides, and `combine_rows` forms
every real linear combination sum_j c_j x_j the series, quadrature and
wave need, many at once: one left-to-right accumulation over the terms,
one coefficient row per output (`combine` is its one-row case).
Levelwise that is midpoint-radius interval arithmetic (Rump, BIT 39,
1999): a negative factor swaps the endpoints, a zero gives +0.0, and the
rule is written once, in `_scaled`, for a coefficient per row
(`operators.lift_matrix` runs the same arithmetic as column passes).
Batches stay arrays until the end: `stack_common` stacks leaves on common
grids, `clamp_nested` repairs a whole batch (and leaves a clean one as it
is), and `Leaf._with_rows` turns a batch back into one leaf per row.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from itertools import repeat
from operator import eq, is_

import numpy as np

from .errors import HDifferenceError, OrderViolation, SpaceMismatch

DEFAULT_LEVELS = 64  # panels in the default membership grid (grid has DEFAULT_LEVELS+1 points)

# Absolute slack used to absorb rounding noise when checking the nesting
# invariants of a candidate difference; anything larger means the
# difference genuinely does not exist.
MONOTONICITY_TOLERANCE = 1e-12


def level_grid(m_levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Uniform membership grid with ``m_levels`` panels."""
    if m_levels < 1:
        raise ValueError("m_levels must be >= 1")
    return np.linspace(0.0, 1.0, m_levels + 1)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class Leaf:
    """Base of fuzzy numbers, sampled fuzzy functions, products and sequences:
    read-only endpoint data ``ends`` of shape (..., 2, levels) on the grid
    ``levels``, lower endpoints in ``ends[..., 0, :]`` and upper ones in
    ``ends[..., 1, :]``."""

    def __repr__(self):
        # a failed __post_init__ leaves an instance without ends, and
        # tracebacks and debuggers still ask for its repr
        if "ends" not in self.__dict__:
            return f"{type(self).__name__}(<construction failed>)"
        return f"{type(self).__name__}({self._summary()})"

    def _match(self, other):
        """``self`` and ``other``, a leaf of the same kind, on one grid of nodes
        or components; kinds with such a grid override this to align or raise."""
        return self, other

    def _with(self, ends, **attrs):
        # same kind and grids (unless overridden) around endpoints valid by construction
        ends.flags.writeable = False
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **attrs)
        out.__dict__["ends"] = ends
        return out

    def _with_rows(self, batch) -> list:
        # `_with` for each row of a fresh (n, *ends.shape) array: the batch is made
        # read-only once, and every leaf shares this leaf's kind and grid objects
        batch.flags.writeable = False
        cls, attrs = type(self), self.__dict__
        out = []
        for ends in batch:
            leaf = object.__new__(cls)
            leaf.__dict__.update(attrs, ends=ends)
            out.append(leaf)
        return out

    def resample(self, levels: np.ndarray):
        """Linearly interpolate the endpoint functions onto a new level grid.

        Exact for piecewise-linear endpoints whenever ``levels`` refines the
        current grid (in particular for any triangular number).
        """
        levels = _frozen(levels)
        if np.array_equal(levels, self.levels):
            return self
        rows = [np.interp(levels, self.levels, row) for row in self.ends.reshape(-1, self.levels.size)]
        ends = np.reshape(rows, (*self.ends.shape[:-1], levels.size))
        tol = MONOTONICITY_TOLERANCE * np.maximum(1.0, np.abs(ends).max(axis=(-2, -1)))
        out = _try_build(self, ends, tol, levels=levels)
        if out is None:  # pragma: no cover - interpolation preserves monotonicity
            raise ValueError("resampling produced an invalid fuzzy number")
        return out


def _leaf(u) -> Leaf:
    if not isinstance(u, Leaf):
        raise SpaceMismatch(f"{type(u).__name__} is not a fuzzy number, function, product or sequence")
    return u


@dataclass(frozen=True, eq=False, repr=False)
class FuzzyNumber(Leaf):
    """Levelwise representation of a fuzzy number.

    Attributes:
        levels: strictly increasing grid of membership levels, first 0, last 1.
        lower:  left endpoints per level (nondecreasing in the level).
        upper:  right endpoints per level (nonincreasing in the level).
        ends:   the (2, levels) array whose rows are ``lower`` and ``upper``.

    Instances are immutable; the backing arrays are made read-only at
    construction, so values can be shared freely between threads.
    """

    levels: np.ndarray
    lower: InitVar[np.ndarray]
    upper: InitVar[np.ndarray]

    def __post_init__(self, lower, upper):
        levels = _frozen(self.levels)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if levels.ndim != 1 or levels.shape != lower.shape or levels.shape != upper.shape:
            raise ValueError("levels, lower and upper must be 1-d arrays of equal length")
        if levels.size < 2:
            raise ValueError("need at least the 0 and 1 membership levels")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("endpoints must be finite")
        with np.errstate(over="ignore"):  # an overflowed difference is +-inf, of the right sign
            if levels[0] != 0.0 or levels[-1] != 1.0 or not (np.diff(levels) > 0).all():  # NaN fails too
                raise ValueError("levels must increase strictly from 0 to 1")
            if (np.diff(lower) < 0).any():
                raise ValueError("lower endpoints must be nondecreasing in the level")
            if (np.diff(upper) > 0).any():
                raise ValueError("upper endpoints must be nonincreasing in the level")
        if (lower > upper).any():
            raise ValueError("lower endpoint exceeds upper endpoint")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ends", _frozen((lower, upper)))

    @classmethod
    def _trusted(cls, levels, ends):
        # fast path for fresh endpoints valid by construction; levels is shared as-is
        ends.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(levels=levels, ends=ends)
        return self

    def _summary(self):
        return (
            f"levels={self.levels.size}, support=[{self.lower[0]:g}, {self.upper[0]:g}], "
            f"core=[{self.lower[-1]:g}, {self.upper[-1]:g}]"
        )

    def __eq__(self, other):
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return np.array_equal(self.levels, other.levels) and np.array_equal(self.ends, other.ends)

    def __add__(self, other):
        if isinstance(other, FuzzyNumber):
            return add(self, other)
        return NotImplemented

    def __rmul__(self, lam):
        if isinstance(lam, (int, float)):
            return scalar_mul(float(lam), self)
        return NotImplemented


# the constructor takes lower and upper; afterwards they are row views of ends
FuzzyNumber.lower = property(lambda u: u.ends[0], doc="left endpoints per level (read-only view)")
FuzzyNumber.upper = property(lambda u: u.ends[1], doc="right endpoints per level (read-only view)")


def nesting_defect(ends: np.ndarray) -> np.ndarray:
    """Per leaf of ``ends``, the worst drop of a lower endpoint, rise of an
    upper endpoint or excess of lower over upper; 0 for nested level sets."""
    lo, up = ends[..., 0, :], ends[..., 1, :]
    with np.errstate(over="ignore"):  # an overflowed difference is +-inf, of the right sign
        drop = (lo[..., :-1] - lo[..., 1:]).max(axis=-1)
        rise = (up[..., 1:] - up[..., :-1]).max(axis=-1)
        return np.maximum(np.maximum(drop, rise), np.maximum((lo - up).max(axis=-1), 0.0))


def _try_build(x: Leaf, ends, tol=MONOTONICITY_TOLERANCE, **attrs):
    """``x._with(ends)``, clamping violations up to ``tol`` per leaf; None beyond.

    Used where endpoint arrays come out of a subtraction or interpolation:
    sub-tolerance wiggles are treated as rounding noise and repaired by
    monotone clamping, larger ones mean the candidate is not a fuzzy number.
    """
    ends, ok = clamp_nested(ends, tol)
    return x._with(ends, **attrs) if ok.all() else None


def clamp_nested(ends: np.ndarray, tol=MONOTONICITY_TOLERANCE):
    """Clamp a fresh endpoint array of any batch shape, in place, to nested
    level sets; returns (ends, per-leaf ok).

    ``ok`` holds, per leaf (the shape of `nesting_defect`), whether its
    defect is at most ``tol`` (a number, or an array broadcasting against
    the leaves).  Every leaf is clamped by monotone accumulation, the ones
    beyond ``tol`` too; the caller discards those.  Each leaf's result
    depends on its own endpoints only, so a batch gives every leaf the bits
    it gets on its own.  A batch with no defect and no endpoint 0.0 is
    returned as it is, without the accumulation, which would give back the
    same bits.  A batch with a zero takes it (numpy does not promise which
    of +0.0 and -0.0 a max or min of the two returns), and so does one with
    a NaN (whose defect is NaN).
    """
    defect = nesting_defect(ends)
    ok = ~(defect > tol)
    if not defect.any() and ends.all():
        return ends, ok
    lo, up = ends[..., 0, :], ends[..., 1, :]
    np.maximum.accumulate(lo, axis=-1, out=lo)
    np.minimum.accumulate(up, axis=-1, out=up)
    # with lo nondecreasing and up nonincreasing the only possible order violation is at the
    # top level; a midpoint clamp there keeps both monotonicities intact (min/max against a
    # constant), and halving each end first keeps it finite at the float limit
    crossed = lo[..., -1:] > up[..., -1:]
    if crossed.any():
        mid = 0.5 * lo[..., -1:] + 0.5 * up[..., -1:]
        lo[...] = np.where(crossed, np.minimum(lo, mid), lo)
        up[...] = np.where(crossed, np.maximum(up, mid), up)
    return ends, ok


# ---------------------------------------------------------------------------
# constructors


@dataclass(frozen=True)
class Triangular:
    """Constructor view (left, center, right) of a triangular fuzzy number."""

    left: float
    center: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.center <= self.right):
            raise OrderViolation(
                f"need left <= center <= right, got ({self.left}, {self.center}, {self.right})"
            )

    @property
    def spread_left(self) -> float:
        return self.center - self.left

    @property
    def spread_right(self) -> float:
        return self.right - self.center

    @property
    def is_symmetric(self) -> bool:
        return self.spread_left == self.spread_right

    def to_fuzzy(self, m_levels: int = DEFAULT_LEVELS) -> FuzzyNumber:
        return make_triangular(self.left, self.center, self.right, m_levels)


def make_triangular(x_l: float, x_c: float, x_r: float, m_levels: int = DEFAULT_LEVELS) -> FuzzyNumber:
    """Triangular number with support [x_l, x_r] and core {x_c}.

    Level sets are [x_c - (1-r)(x_c - x_l), x_c + (1-r)(x_r - x_c)].
    A support wider than the float range is computed on halved data.
    """
    if not (x_l <= x_c <= x_r):
        raise OrderViolation(f"need x_l <= x_c <= x_r, got ({x_l}, {x_c}, {x_r})")
    if not (math.isfinite(x_l) and math.isfinite(x_r)):
        raise ValueError("endpoints must be finite")
    r = level_grid(m_levels)
    s = 1 if math.isfinite(x_r - x_l) else 0.5  # int 1 keeps integer differences exact
    lo = (s * x_c - (1.0 - r) * (s * x_c - s * x_l)) / s
    up = (s * x_c + (1.0 - r) * (s * x_r - s * x_c)) / s
    return FuzzyNumber(r, np.minimum(lo, x_c), np.maximum(up, x_c))


def symmetric_triangular(center: float, delta: float, m_levels: int = DEFAULT_LEVELS) -> FuzzyNumber:
    """Triangular number with equal spreads delta >= 0 about the center."""
    if delta < 0:
        raise OrderViolation("delta must be >= 0")
    return make_triangular(center - delta, center, center + delta, m_levels)


def crisp(value: float, m_levels: int = DEFAULT_LEVELS, levels: np.ndarray | None = None) -> FuzzyNumber:
    """Embed a real number as the degenerate fuzzy number with that value."""
    if levels is None:
        r = level_grid(m_levels)
        r.flags.writeable = False
    elif isinstance(levels, np.ndarray) and not levels.flags.writeable:
        r = levels  # already validated by the instance it came from
    else:
        r = np.asarray(levels, dtype=float)
        v = np.full(r.shape, float(value))
        return FuzzyNumber(r, v, v.copy())
    return FuzzyNumber._trusted(r, np.full((2, r.size), float(value)))


def zero(m_levels: int = DEFAULT_LEVELS, levels: np.ndarray | None = None) -> FuzzyNumber:
    return crisp(0.0, m_levels, levels)


def zero_like(u: Leaf) -> Leaf:
    """The crisp zero (+0.0 endpoints) of u's kind, on u's grids."""
    return _leaf(u)._with(np.zeros_like(u.ends))


def is_crisp(u: FuzzyNumber) -> bool:
    return bool(np.array_equal(u.lower, u.upper))


# ---------------------------------------------------------------------------
# algebra


def common_grid(u: Leaf, v: Leaf):
    """Two leaves of one kind on common grids: functions on one node grid
    (`Leaf._match`), both on the union of their level grids.

    Raises SpaceMismatch for leaves of different kinds, and whatever the
    kind's hook raises (ArityMismatch, DomainMismatch).  Resampling is
    lossless for piecewise-linear endpoint data; documented as lossy
    otherwise since interpolation inserts straight segments.
    """
    if type(u) is not type(v) or not isinstance(u, Leaf):
        raise SpaceMismatch(f"{type(u).__name__} and {type(v).__name__} are not elements of one space")
    u, v = u._match(v)
    if u.levels is v.levels or np.array_equal(u.levels, v.levels):
        return u, v
    merged = np.union1d(u.levels, v.levels)
    return u.resample(merged), v.resample(merged)


def _shares_grids(leaves) -> bool:
    # every leaf is of the first one's kind and arity and holds the very grid objects it holds (levels,
    # and nodes for a function), each test one C-level pass over the leaves; False is no verdict
    first = leaves[0]
    if not all(map(is_, map(type, leaves), repeat(type(first)))):
        return False
    attrs = [u.__dict__ for u in leaves]
    return all(
        all(map(is_, map(dict.get, attrs, repeat(name)), repeat(grid)))
        for name, grid in first.__dict__.items() if name != "ends"
    ) and all(map(eq, [a["ends"].shape for a in attrs], repeat(first.ends.shape)))


def stack_common(leaves):
    """Leaves of one kind on common grids (the union over all of them, as
    `common_grid` forms it pairwise): a leaf on those grids and the
    endpoints of every leaf stacked along a new first axis.  Leaves that
    share the first one's kind, arity and grid objects (the states and
    images of one flow or operator) are stacked in one pass, with the bits
    and the errors of the pairwise alignment."""
    grid = leaves[0]
    if isinstance(grid, Leaf) and _shares_grids(leaves):
        return grid, np.array([u.ends for u in leaves])
    for u in leaves[1:]:
        grid = common_grid(grid, u)[0]
    return grid, np.stack([common_grid(grid, u)[1].ends for u in leaves])


def add(u: Leaf, v: Leaf) -> Leaf:
    """Levelwise interval sum of two fuzzy numbers (per node or component)."""
    u, v = common_grid(u, v)
    # rounding is monotone, so sums of monotone arrays stay monotone
    return u._with(u.ends + v.ends)


def _scaled(lams: np.ndarray, ends: np.ndarray) -> np.ndarray:
    # lams[i] * [lower, upper] levelwise, one row per factor: a negative
    # factor swaps the endpoints, a zero gives +0.0 (never -0.0)
    factors = lams.tolist()  # plain floats: cheaper to test than numpy reductions
    col = lams.reshape((-1,) + (1,) * ends.ndim)
    if max(factors) < 0.0:
        return ends[..., ::-1, :] * col
    out = ends * col
    if min(factors) < 0.0:
        flip = lams < 0.0
        out[flip] = out[flip][..., ::-1, :]
    if 0.0 in factors:
        out[lams == 0.0] = 0.0
    return out


def scalar_mul(lam: float, u: Leaf) -> Leaf:
    """Levelwise scaled interval; negative factors swap the endpoints."""
    return _leaf(u)._with(_scaled(np.array([float(lam)]), u.ends)[0])


def combine_rows(rows, xs) -> list:
    """One linear combination sum_j row[j] * xs[j] per coefficient row.

    A row may be shorter than ``xs``: row r combines ``xs[:len(r)]``.  Each
    term is scaled as `scalar_mul` scales it, on its own grids, and the
    terms are added left to right as `add` adds them (resampling onto the
    union grid only after scaling, and only when a term's grids differ), so
    every row equals that chain of kernels bit for bit.  A row that has
    ended takes no further terms.  Mixed-sign coefficients are never
    merged: in this algebra (a + b) x and a x + b x differ when a b < 0.
    """
    lengths = [len(r) for r in rows]
    if not rows or min(lengths) < 1:
        raise ValueError("a linear combination needs at least one term")
    if max(lengths) > len(xs):
        raise ValueError("a coefficient row is longer than the terms")
    # longest rows first, so the rows still summing are always a prefix;
    # factors[i] is the i-th longest row, padded with zeros that are never read
    n = max(lengths)
    rank = sorted(range(len(rows)), key=lengths.__getitem__, reverse=True)
    factors = np.array([[*rows[r], *[0.0] * (n - lengths[r])] for r in rank], dtype=float)
    out = [None] * len(rows)
    grids = total = None  # the running sums' grids (a leaf) and endpoints
    live = len(rows)
    for j in range(n):
        while lengths[rank[live - 1]] == j:  # rows that ended before term j
            live -= 1
            out[rank[live]] = grids._with(total[live])
        x = _leaf(xs[j])
        term = _scaled(factors[:live, j], x.ends)
        if grids is None:
            grids, total = x, term
            continue
        shared = common_grid(grids, x)  # checks the kind; returns the same pair on shared grids
        if shared[0] is grids and shared[1] is x:
            total = total[:live]
            total += term
        else:  # resample each sum and scaled term onto common grids, as add does
            pairs = [common_grid(grids._with(s), x._with(t)) for s, t in zip(total[:live], term)]
            grids = pairs[0][0]
            total = np.stack([u.ends + v.ends for u, v in pairs])
    for i in range(live):
        out[rank[i]] = grids._with(total[i])
    return out


def combine(coeffs, xs) -> Leaf:
    """The linear combination sum_j coeffs[j] * xs[j] of leaves of one kind:
    the one-row case of `combine_rows`.  ``coeffs`` and ``xs`` must have
    the same, nonzero length."""
    if len(coeffs) != len(xs):
        raise ValueError("need one coefficient per term")
    return combine_rows([coeffs], xs)[0]


def hukuhara_diff(u: Leaf, v: Leaf) -> Leaf:
    """Partial inverse of addition: the w with v + w = u, when it exists.

    The candidate has endpoints u.lower - v.lower and u.upper - v.upper; it
    is returned iff it satisfies the nesting invariants (violations up to
    MONOTONICITY_TOLERANCE are clamped as rounding noise).  Raises
    HDifferenceError otherwise -- the difference does not exist for every
    pair, e.g. 0 minus any genuinely fuzzy number.  For functions it exists
    iff it exists at every node, for products iff in every component.
    """
    u, v = common_grid(u, v)
    w = _try_build(u, u.ends - v.ends)
    if w is None:
        raise HDifferenceError("the difference would not have nested level sets")
    return w


def oriented_hukuhara_diff(x1: FuzzyNumber, x2: FuzzyNumber):
    """Whichever of x1 - x2 or x2 - x1 exists, tagged with its direction.

    Prefers the forward direction when both exist.  For symmetric
    triangular numbers at least one direction always exists (the one that
    subtracts the smaller spread from the larger).
    """
    try:
        return "forward", hukuhara_diff(x1, x2)
    except HDifferenceError:
        pass
    try:
        return "reverse", hukuhara_diff(x2, x1)
    except HDifferenceError:
        raise HDifferenceError("neither orientation of the difference exists")


# ---------------------------------------------------------------------------
# metric, norm, membership


def distance(u: Leaf, v: Leaf) -> float:
    """Supremum over levels (and nodes or components) of the larger endpoint gap.

    On fuzzy numbers this is the supremum metric of R_F; on sampled
    functions it is the paper's D* on C([a,b]; R_F), the supremum over nodes
    of the pointwise distance (after aligning the node grids); on products
    it is the box metric, the maximum of the component distances.  For
    piecewise-linear endpoints the supremum over the whole level interval
    is attained at a grid node, so the grid maximum is exact.
    """
    u, v = common_grid(u, v)
    return float(np.abs(u.ends - v.ends).max())


def norm(u: Leaf) -> float:
    """Distance to the crisp zero: max absolute endpoint."""
    return float(np.abs(_leaf(u).ends).max())


def membership(u: FuzzyNumber, x: float) -> float:
    """Membership degree of x, reconstructed from the level sets.

    Returns the supremum of levels r whose cut contains x, interpolating
    linearly between adjacent grid levels (consistent with the
    piecewise-linear endpoint model).
    """
    x = float(x)
    if x < u.lower[0] or x > u.upper[0]:
        return 0.0

    def last_level(values, ok):
        # highest r with ok(values[r]); values is monotone so the crossing
        # lies in a single segment
        if ok(values[-1]):
            return 1.0
        idx = int(np.argmax(~ok(values)))  # first failing index; idx >= 1 here
        v0, v1 = values[idx - 1], values[idx]
        r0, r1 = u.levels[idx - 1], u.levels[idx]
        if v1 == v0:
            return float(r0)
        return float(r0 + (r1 - r0) * (x - v0) / (v1 - v0))

    r_lo = last_level(u.lower, lambda v: v <= x)
    r_up = last_level(u.upper, lambda v: v >= x)
    return max(0.0, min(r_lo, r_up))


# ---------------------------------------------------------------------------
# JSON codec


def fuzzy_to_json(u: FuzzyNumber) -> dict:
    """Plain-dict form; floats round-trip exactly through json."""
    return {
        "levels": u.levels.tolist(),
        "lower": u.lower.tolist(),
        "upper": u.upper.tolist(),
    }


def fuzzy_from_json(obj, m_levels: int = DEFAULT_LEVELS) -> FuzzyNumber:
    """Accepts the full form or the shorthand {"tri": [l, c, r]}."""
    if not isinstance(obj, dict):
        raise ValueError("fuzzy number JSON must be an object")
    if "tri" in obj:
        tri = obj["tri"]
        if not (isinstance(tri, (list, tuple)) and len(tri) == 3):
            raise ValueError('"tri" must be a list [left, center, right]')
        return make_triangular(float(tri[0]), float(tri[1]), float(tri[2]), m_levels)
    try:
        return FuzzyNumber(
            np.asarray(obj["levels"], dtype=float),
            np.asarray(obj["lower"], dtype=float),
            np.asarray(obj["upper"], dtype=float),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in fuzzy number JSON") from exc
