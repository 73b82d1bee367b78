"""Bounded operators on fuzzy spaces and the probe-based operator metric.

An operator carries a certified upper bound M on its norm: the provider
guarantees ||A(x)|| <= M * ||x|| for every x.  The true operator norm (the
supremum over the unit ball) is not finitely computable for a generic
operator, and nothing downstream needs it: the series engine only
consumes an upper bound, and `phi_distance` is an explicit probe-set
lower bound on the operator metric, clearly labeled as such.

`lift_matrix` and `scale_operator` (so `identity` and `zero_operator` too)
keep the real matrix they apply (1 x 1 for a scale) as ``matrix``, and
every builtin, a map x -> phi(x) c, keeps (phi, c) as its ``rank_one``.
That structure alone picks the engine: the exact flow (`semigroup.MatrixFlow`,
`semigroup.RankOneFlow`) of an operator with either, and the literal series
of every other (compositions, `power(a, k >= 1)`, bare maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import core, spaces
from .core import FuzzyNumber
from .errors import MuNotPositive, ProbeNormViolation, SeriesOverflow, SpaceMismatch

#: full additivity plus homogeneity under every real factor
LINEAR = "linear"
#: additive and homogeneous under nonnegative factors only
POSITIVE_HOMOGENEOUS = "positive"

PROBE_SEED = 42
PROBE_RANDOM_COUNT = 32
_PROBE_NORM_SLACK = 1e-9


@dataclass(frozen=True)
class LinearOperator:
    """An additive, (positively) homogeneous map with a certified norm bound.

    Attributes:
        fn: the underlying map element -> element (same space).
        norm_bound: certified M with ||fn(x)|| <= M ||x|| for all x.
        homogeneity: LINEAR or POSITIVE_HOMOGENEOUS.
        name: label used in reports.
        domain: "fuzzy" for fuzzy-number inputs, ("product", k) for
            k-component product elements, or "any".
        matrix: the real k x k matrix (read-only) that ``fn`` applies, each
            component's image being sum_j a_ij w_j, or None; a 1 x 1 matrix
            scales every leaf of any element.
        rank_one: the pair (phi, c) of a map x -> phi(x) c, phi a real
            functional and c a fuzzy number, or None.

    ``_flows`` is the instance's memo of exact flows (`semigroup._flow`), keyed
    by instance rather than by value: equality ignores ``matrix`` and
    ``rank_one``, and `dataclasses.replace` starts an empty memo.
    """

    fn: Callable = field(repr=False)
    norm_bound: float
    homogeneity: str = LINEAR
    name: str = "operator"
    domain: object = "any"
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    rank_one: tuple | None = field(default=None, repr=False, compare=False)
    _flows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.norm_bound) or self.norm_bound < 0:
            raise ValueError("norm_bound must be finite and >= 0")
        if self.homogeneity not in (LINEAR, POSITIVE_HOMOGENEOUS):
            raise ValueError(f"unknown homogeneity flag {self.homogeneity!r}")
        if self.matrix is not None:
            matrix = core._frozen(self.matrix)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not np.isfinite(matrix).all():
                raise ValueError("matrix must be a finite square matrix")
            object.__setattr__(self, "matrix", matrix)

    def _check_domain(self, x):
        if self.domain == "fuzzy" and not isinstance(x, FuzzyNumber):
            raise SpaceMismatch(f"{self.name} acts on fuzzy numbers, got {type(x).__name__}")
        if isinstance(self.domain, tuple) and self.domain[0] == "product":
            if not isinstance(x, spaces.ProductElement) or len(x) != self.domain[1]:
                raise SpaceMismatch(
                    f"{self.name} acts on {self.domain[1]}-component products"
                )

    def __call__(self, x):
        self._check_domain(x)
        return self.fn(x)


def scale_operator(factor: float) -> LinearOperator:
    """x -> factor * x; homogeneous under every real factor.  Its matrix is
    the 1 x 1 matrix [[factor]]."""
    factor = float(factor)
    return LinearOperator(
        lambda x: core.scalar_mul(factor, x), abs(factor), LINEAR, f"scale({factor:g})", matrix=[[factor]]
    )


def identity(name: str = "I") -> LinearOperator:
    return replace(scale_operator(1.0), name=name)  # the scale [[1]] under its own name


def zero_operator(name: str = "O") -> LinearOperator:
    return replace(scale_operator(0.0), name=name)  # the scale [[0]] under its own name


def compose(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """First apply b, then a; the certified bounds multiply."""
    hom = LINEAR if a.homogeneity == b.homogeneity == LINEAR else POSITIVE_HOMOGENEOUS
    return LinearOperator(
        lambda x: a(b(x)),
        a.norm_bound * b.norm_bound,
        hom,
        f"{a.name}∘{b.name}",
        b.domain,
    )


def power(a: LinearOperator, k: int) -> LinearOperator:
    """k-fold composition; power(a, 0) is the identity, with bound M**k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return identity()
    out = a
    for _ in range(k - 1):
        out = compose(out, a)
    return out


def phi_distance(a: LinearOperator, b: LinearOperator, probes) -> float:
    """Probe-set lower bound on the operator metric sup_{||x||<=1} d(A x, B x).

    This is an approximation from below: the supremum itself is not
    finitely computable.  Probes must lie in the unit ball.
    """
    worst = 0.0
    for x in probes:
        n = core.norm(x)
        if n > 1.0 + _PROBE_NORM_SLACK:
            raise ProbeNormViolation(f"probe norm {n} exceeds 1")
        worst = max(worst, core.distance(a(x), b(x)))
    return worst


def canonical_probes(m_levels: int = core.DEFAULT_LEVELS, seed: int = PROBE_SEED) -> tuple:
    """Deterministic unit-ball probe set: crisp, triangular and random directions.

    Five fixed probes (crisp +-1 and three unit triangulars) plus
    PROBE_RANDOM_COUNT seeded random fuzzy numbers normalized to unit norm.
    """
    fixed = (
        core.crisp(1.0, m_levels),
        core.crisp(-1.0, m_levels),
        core.make_triangular(-1.0, 0.0, 1.0, m_levels),
        core.make_triangular(0.0, 0.5, 1.0, m_levels),
        core.make_triangular(-1.0, -0.5, 0.0, m_levels),
    )
    rng = np.random.default_rng(seed)
    randoms = []
    while len(randoms) < PROBE_RANDOM_COUNT:
        u = random_fuzzy(rng, m_levels)
        n = core.norm(u)
        if n < 1e-6:
            continue
        randoms.append(core.scalar_mul(1.0 / n, u))
    return fixed + tuple(randoms)


def _random_ends(rng: np.random.Generator, shape, m_levels: int, span: float = 1.0) -> np.ndarray:
    """Endpoints (*shape, 2, m_levels + 1) of random fuzzy numbers, drawn in C
    order of ``shape``: each number's lower, then upper, endpoint draws, as
    that many `random_fuzzy` calls consume the generator."""
    ends = rng.uniform(-span, span, (*shape, 2, m_levels + 1))
    ends.sort(axis=-1)
    lo, up = ends[..., 0, :], ends[..., 1, :]
    np.negative(up, out=up)  # the upper branch descends
    # re-anchor a descending branch that ends below the lower one so its
    # top-level value is exactly the top-level lower endpoint (x - x is
    # exact, adding a constant rounds monotonically)
    np.copyto(up, (up - up[..., -1:]) + lo[..., -1:], where=lo[..., -1:] > up[..., -1:])
    return ends


def random_fuzzy(rng: np.random.Generator, m_levels: int = core.DEFAULT_LEVELS, span: float = 1.0) -> FuzzyNumber:
    """Random valid fuzzy number with support inside roughly [-2*span, 2*span]."""
    return FuzzyNumber(core.level_grid(m_levels), *_random_ends(rng, (), m_levels, span))


# ---------------------------------------------------------------------------
# built-in operators on fuzzy numbers


def _level_integral(u: FuzzyNumber, values: np.ndarray) -> float:
    # trapezoid on the level grid: exact for piecewise-linear endpoint data
    return float(np.trapezoid(values, u.levels))


def _spread(c: FuzzyNumber, edge: float, values: np.ndarray, name: str) -> float:
    # edge minus the level average of values, or SeriesOverflow (without a numpy
    # warning) when data near the float limit take either out of the float range
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(edge) - _level_integral(c, values)
    if not math.isfinite(value):
        raise SeriesOverflow(f"{name} of {c!r} leaves the float range; reduce the data")
    return value


def mu_coeff(c: FuzzyNumber) -> float:
    """Growth coefficient of the generator pair: core left endpoint minus
    the level-averaged lower endpoint.  Nonnegative for every fuzzy number;
    zero exactly when the lower endpoint function is constant.  SeriesOverflow
    when it leaves the float range."""
    return _spread(c, c.lower[-1], c.lower, "mu_coeff")


def upper_spread_coeff(c: FuzzyNumber) -> float:
    """Support right endpoint minus the level-averaged upper endpoint; as the
    RemarkB coefficient it is nonnegative, so its exponential closed form applies.
    SeriesOverflow when it leaves the float range."""
    return _spread(c, c.upper[0], c.upper, "upper_spread_coeff")


# name: (coefficient functional of x, whether the output is coeff * c rather
# than crisp, certified norm bound (times ||c|| when it is coeff * c),
# homogeneity); `builtin` documents the bounds
_CATALOGUE = {
    "A1": (lambda x: _level_integral(x, x.lower + x.upper), False, 2.0, LINEAR),
    "A2": (lambda x: _level_integral(x, x.upper[0] - x.upper), True, 2.0, POSITIVE_HOMOGENEOUS),
    "A3": (lambda x: _level_integral(x, x.lower[-1] - x.lower), True, 2.0, POSITIVE_HOMOGENEOUS),
    "A4": (lambda x: _level_integral(x, x.lower), False, 1.0, POSITIVE_HOMOGENEOUS),
    "A5": (lambda x: _level_integral(x, x.upper), False, 1.0, POSITIVE_HOMOGENEOUS),
    "RemarkA": (mu_coeff, True, 2.0, POSITIVE_HOMOGENEOUS),
    "RemarkB": (upper_spread_coeff, True, 2.0, POSITIVE_HOMOGENEOUS),
}
BUILTIN_NAMES = tuple(_CATALOGUE)
_CRISP_ONE = core.crisp(1.0, 1)  # on the levels (0, 1), which every level grid refines


def builtin(name: str, c: FuzzyNumber | None = None) -> LinearOperator:
    """Catalogue of concrete operators on the space of fuzzy numbers.

    A1, A4, A5 integrate endpoint data over the level grid and return the
    crisp result; A2, A3 and the generator pair RemarkA / RemarkB scale a
    fixed fuzzy constant ``c`` by such an integral.  The certified bounds
    are analytic: every coefficient is at most 2||x|| (A1 sums two
    endpoint integrals, each at most ||x||), so the bound is 2 for A1,
    2*||c|| for the c-scaling operators and 1 for A4, A5.  The crisp
    operators ignore ``c``.

    A1 is fully linear.  The remaining operators are additive and
    positively homogeneous only: their coefficients switch endpoint role
    under a negative factor (e.g. A2 applied to -x integrates the lower
    endpoints of x), so homogeneity fails for negative scalars.

    RemarkA and RemarkB require mu_coeff(c) > 0.  Every builtin is x -> phi(x) c
    (c crisp 1 for A1, A4, A5) and keeps (phi, c) as its ``rank_one``.
    """
    if name not in _CATALOGUE:
        raise ValueError(f"unknown builtin {name!r}; valid names: {', '.join(BUILTIN_NAMES)}")
    functional, scales_c, bound, homogeneity = _CATALOGUE[name]
    if not scales_c:
        def fn(x):
            return core.crisp(functional(x), levels=x.levels)
        return LinearOperator(fn, bound, homogeneity, name, "fuzzy", rank_one=(functional, _CRISP_ONE))

    if c is None:
        raise ValueError(f"{name} needs the fuzzy constant c")
    if name in ("RemarkA", "RemarkB") and mu_coeff(c) <= 0.0:
        raise MuNotPositive(f"mu = {mu_coeff(c)} must be > 0 for {name}")

    def fn(x):
        return core.scalar_mul(functional(x), c)
    return LinearOperator(fn, bound * core.norm(c), homogeneity, name, "fuzzy", rank_one=(functional, c))


def lift_matrix(entries) -> LinearOperator:
    """Lift a real k x k matrix to product elements: image_i = sum_j a_ij * w_j.

    The images are k column passes over the leading axis of the endpoints:
    column j of the matrix scales component j as `core.scalar_mul` scales
    it, and the passes add left to right as `core.add` adds, so each image
    is the `core.combine_rows` chain bit for bit, without a leaf per term.
    Fully linear; the certified bound is the max absolute row sum, and a
    matrix whose row sum leaves the float range raises SeriesOverflow.  The
    operator keeps the matrix, so the solvers take its exact flow.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("entries must be a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    k = m.shape[0]
    with np.errstate(over="ignore"):
        bound = float(np.abs(m).sum(axis=1).max())
    if not math.isfinite(bound):
        raise SeriesOverflow("the matrix's absolute row sum leaves the float range; reduce the entries")
    columns = m.T.copy()  # row j is column j of the matrix

    def fn(w):
        total = core._scaled(columns[0], w.ends[0])
        for col, part in zip(columns[1:], w.ends[1:]):
            total += core._scaled(col, part)
        return w._with(total)

    label = "matrix[" + "; ".join(" ".join(f"{v:g}" for v in row) for row in m) + "]"
    return LinearOperator(fn, bound, LINEAR, label, ("product", k), m)
