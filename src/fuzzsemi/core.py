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
(nodes, 2, levels) or (k, 2, levels) for a sampled function or a product
(`spaces`).  The algebra, metric and norm act on those two axes only, so
each is written once: a function's or product's operation is the number's
at every node or component.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import HDifferenceError, OrderViolation

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
    """Base of fuzzy numbers, sampled fuzzy functions and products: read-only
    endpoint data ``ends`` of shape (..., 2, levels) on the grid ``levels``,
    lower endpoints in ``ends[..., 0, :]`` and upper ones in ``ends[..., 1, :]``."""

    def _with(self, ends, **attrs):
        # same kind and grids (unless overridden) around endpoints valid by construction
        ends.flags.writeable = False
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **attrs)
        out.__dict__["ends"] = ends
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


@dataclass(frozen=True, eq=False)
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
        if levels[0] != 0.0 or levels[-1] != 1.0 or (np.diff(levels) <= 0).any():
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

    def __repr__(self):
        return (
            f"FuzzyNumber(levels={self.levels.size}, "
            f"support=[{self.lower[0]:g}, {self.upper[0]:g}], "
            f"core=[{self.lower[-1]:g}, {self.upper[-1]:g}])"
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
    gaps = np.concatenate((lo[..., :-1] - lo[..., 1:], up[..., 1:] - up[..., :-1], lo - up), axis=-1)
    return np.maximum(gaps, 0.0).max(axis=-1)


def _try_build(x: Leaf, ends, tol=MONOTONICITY_TOLERANCE, **attrs):
    """``x._with(ends)``, clamping violations up to ``tol`` per leaf; None beyond.

    Used where endpoint arrays come out of a subtraction or interpolation:
    sub-tolerance wiggles are treated as rounding noise and repaired by
    monotone clamping, larger ones mean the candidate is not a fuzzy number.
    """
    if (nesting_defect(ends) > tol).any():
        return None
    lo = np.maximum.accumulate(ends[..., 0, :], axis=-1)
    up = np.minimum.accumulate(ends[..., 1, :], axis=-1)
    # with lo nondecreasing and up nonincreasing the only possible order
    # violation is at the top level; a midpoint clamp there keeps both
    # monotonicities intact (min/max against a constant)
    crossed = lo[..., -1:] > up[..., -1:]
    if crossed.any():
        mid = 0.5 * (lo[..., -1:] + up[..., -1:])
        lo = np.where(crossed, np.minimum(lo, mid), lo)
        up = np.where(crossed, np.maximum(up, mid), up)
    return x._with(np.stack((lo, up), axis=-2), **attrs)


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
    return u._with(np.zeros_like(u.ends))


def is_crisp(u: FuzzyNumber) -> bool:
    return bool(np.array_equal(u.lower, u.upper))


# ---------------------------------------------------------------------------
# algebra


def common_grid(u: Leaf, v: Leaf):
    """Resample both operands onto the union of their level grids.

    Lossless for piecewise-linear endpoint data; documented as lossy
    otherwise since interpolation inserts straight segments.
    """
    if u.levels is v.levels or np.array_equal(u.levels, v.levels):
        return u, v
    merged = np.union1d(u.levels, v.levels)
    return u.resample(merged), v.resample(merged)


def add(u: Leaf, v: Leaf) -> Leaf:
    """Levelwise interval sum of two fuzzy numbers (per node or component)."""
    u, v = common_grid(u, v)
    # rounding is monotone, so sums of monotone arrays stay monotone
    return u._with(u.ends + v.ends)


def scalar_mul(lam: float, u: Leaf) -> Leaf:
    """Levelwise scaled interval; negative factors swap the endpoints."""
    lam = float(lam)
    if lam == 0.0:
        return zero_like(u)
    return u._with(lam * (u.ends if lam > 0.0 else u.ends[..., ::-1, :]))


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

    For piecewise-linear endpoints the supremum over the whole level
    interval is attained at a grid node, so the grid maximum is exact.
    """
    u, v = common_grid(u, v)
    return float(np.abs(u.ends - v.ends).max())


def norm(u: Leaf) -> float:
    """Distance to the crisp zero: max absolute endpoint."""
    return float(np.abs(u.ends).max())


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
