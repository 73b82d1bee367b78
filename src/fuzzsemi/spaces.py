"""Fuzzy-valued function spaces, sequence spaces and box-metric products.

Functions are represented by samples at space-grid nodes rather than by
closures, stored as one (nodes, 2, levels) endpoint array: every metric
then reduces to a finite maximum or sum over nodes and levels, and the
`core` algebra applies to a function as it does to one fuzzy number.
Sequence spaces are finite truncations; membership of the underlying
infinite object in a summability class is not (and cannot be) checked
from finite data.

The module also provides the generic element operations (`elem_add`,
`elem_scale`, ...) that let the semigroup engine and the Cauchy solvers
run uniformly over fuzzy numbers, sampled functions and product elements
(stacked as one (k, 2, levels) array): each is one `core` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import FuzzyNumber
from .errors import ArityMismatch, DomainMismatch, LengthMismatch, SpaceMismatch

DEFAULT_NODES = 128  # panels in the default space grid (DEFAULT_NODES+1 sample points)


def uniform_nodes(a: float, b: float, n_panels: int = DEFAULT_NODES) -> np.ndarray:
    if not b > a:
        raise ValueError("need b > a")
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    return np.linspace(float(a), float(b), n_panels + 1)


def _node_grid(nodes) -> np.ndarray:
    nodes = np.array(nodes, dtype=float)
    nodes.flags.writeable = False
    if nodes.ndim != 1 or nodes.size < 2 or not np.isfinite(nodes).all() or (np.diff(nodes) <= 0).any():
        raise ValueError("nodes must be a strictly increasing finite 1-d grid")
    return nodes


@dataclass(frozen=True, eq=False)
class FuzzyFunction(core.Leaf):
    """A fuzzy-number-valued function on [a, b], sampled at grid nodes.

    All values must share one level grid; ``ends[i]`` holds the (2, levels)
    endpoints of the value at ``nodes[i]``, and ``values`` reads them back
    as fuzzy numbers.  Between nodes the function is understood as the
    levelwise linear interpolant (a convex combination of valid fuzzy
    numbers, hence again valid).
    """

    nodes: np.ndarray
    values: InitVar[tuple]

    def __post_init__(self, values):
        nodes = _node_grid(self.nodes)
        values = tuple(values)
        if len(values) != nodes.size:
            raise ValueError("need one value per node")
        if not all(isinstance(v, FuzzyNumber) for v in values):
            raise ValueError("values must be FuzzyNumber instances")
        levels = values[0].levels
        if not all(np.array_equal(v.levels, levels) for v in values):
            raise ValueError("all values must share one level grid")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ends", core._frozen([v.ends for v in values]))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    def __repr__(self):
        return f"FuzzyFunction(on [{self.a:g}, {self.b:g}], {self.nodes.size} nodes)"

    def _ends_at(self, xs: np.ndarray) -> np.ndarray:
        # the stored endpoints at a node, else the levelwise linear
        # interpolation between the bracketing nodes
        outside = (xs < self.a) | (xs > self.b)
        if outside.any():
            raise DomainMismatch(f"{xs[outside][0]} outside [{self.a}, {self.b}]")
        right = np.searchsorted(self.nodes, xs).clip(1, self.nodes.size - 1)
        x0, x1, e0, e1 = self.nodes[right - 1], self.nodes[right], self.ends[right - 1], self.ends[right]
        t = ((xs - x0) / (x1 - x0))[:, None, None]
        mixed = (1.0 - t) * e0 + t * e1
        return np.where((x0 == xs)[:, None, None], e0, np.where((x1 == xs)[:, None, None], e1, mixed))

    def at(self, x: float) -> FuzzyNumber:
        """Levelwise linear interpolation between the bracketing nodes."""
        return FuzzyNumber._trusted(self.levels, self._ends_at(np.array([float(x)]))[0])

    def resample_nodes(self, nodes: np.ndarray) -> "FuzzyFunction":
        nodes = _node_grid(nodes)
        if np.array_equal(nodes, self.nodes):
            return self
        return self._with(self._ends_at(nodes), nodes=nodes)

    @classmethod
    def sample(
        cls,
        fn: Callable[[float], FuzzyNumber],
        a: float,
        b: float,
        n_panels: int = DEFAULT_NODES,
    ) -> "FuzzyFunction":
        nodes = uniform_nodes(a, b, n_panels)
        return cls(nodes, tuple(fn(float(x)) for x in nodes))


# the constructor takes the values; afterwards they are read back as views of ends
FuzzyFunction.values = property(lambda f: tuple(FuzzyNumber._trusted(f.levels, e) for e in f.ends))


@dataclass(frozen=True, eq=False)
class FuzzySequence:
    """Finite truncation of a fuzzy-number sequence."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a fuzzy sequence needs at least one term")
        for t in terms:
            if not isinstance(t, FuzzyNumber):
                raise ValueError("terms must be FuzzyNumber instances")
        object.__setattr__(self, "terms", terms)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class ProductElement(core.Leaf):
    """Fixed-arity tuple of fuzzy numbers, stacked as one (k, 2, levels) array
    ``ends`` on the union of their level grids; ``components`` and ``[i]``
    read it back as fuzzy numbers."""

    components: InitVar[tuple]

    def __post_init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a product element needs at least one component")
        if not all(isinstance(c, FuzzyNumber) for c in components):
            raise SpaceMismatch("product components must be FuzzyNumber instances")
        levels = components[0].levels
        if not all(np.array_equal(c.levels, levels) for c in components):
            levels = core._frozen(functools.reduce(np.union1d, (c.levels for c in components)))
            components = tuple(c.resample(levels) for c in components)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ends", core._frozen([c.ends for c in components]))

    def __repr__(self):
        return f"ProductElement({len(self)} components, {self.levels.size} levels)"

    def __len__(self):
        return len(self.ends)

    def __getitem__(self, i):
        return self.components[i]


# the constructor takes the components; afterwards they are read back as views of ends
ProductElement.components = property(lambda w: tuple(FuzzyNumber._trusted(w.levels, e) for e in w.ends))


def pair(u, v) -> ProductElement:
    return ProductElement((u, v))


# ---------------------------------------------------------------------------
# metrics


def _aligned(f: FuzzyFunction, g: FuzzyFunction):
    if f.a != g.a or f.b != g.b:
        raise DomainMismatch(f"[{f.a}, {f.b}] vs [{g.a}, {g.b}]")
    if np.array_equal(f.nodes, g.nodes):
        return f, g
    merged = np.union1d(f.nodes, g.nodes)
    return f.resample_nodes(merged), g.resample_nodes(merged)


def sup_distance(f: FuzzyFunction, g: FuzzyFunction) -> float:
    """Supremum over nodes of the pointwise fuzzy distance."""
    return core.distance(*_aligned(f, g))


def func_norm(f: FuzzyFunction) -> float:
    return core.norm(f)


def lp_distance(f: FuzzyFunction, g: FuzzyFunction, p: float = 1.0) -> float:
    """Integral metric (trapezoid over the stored nodes) of finite order p >= 1.

    No refinement happens inside the metric; callers control the node
    count, which keeps metric values deterministic and comparable.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    f, g = core.common_grid(*_aligned(f, g))
    gaps = np.abs(f.ends - g.ends).max(axis=(-2, -1))  # pointwise fuzzy distances
    return float(np.trapezoid(gaps**p, f.nodes) ** (1.0 / p))


def cp_sup_distance(fs: Sequence[FuzzyFunction], gs: Sequence[FuzzyFunction]) -> float:
    """Sum of sup distances over derivative orders 0..p.

    Callers supply the sampled derivatives explicitly; order i of the
    first list is compared with order i of the second.
    """
    fs, gs = tuple(fs), tuple(gs)
    if len(fs) != len(gs):
        raise ArityMismatch(f"{len(fs)} derivative orders vs {len(gs)}")
    if not fs:
        raise ArityMismatch("need at least the order-0 functions")
    return float(sum(sup_distance(fi, gi) for fi, gi in zip(fs, gs)))


def _seq_terms(x) -> tuple:
    return x.terms if isinstance(x, FuzzySequence) else tuple(x)


def rho_p_metric(x, y, p: float = 1.0) -> float:
    """p-norm (finite p >= 1) of the termwise fuzzy distances of two finite sequences."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    xs, ys = _seq_terms(x), _seq_terms(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} terms vs {len(ys)}")
    gaps = np.array([core.distance(u, v) for u, v in zip(xs, ys)])
    return float(np.sum(gaps**p) ** (1.0 / p))


def mu_metric(x, y) -> float:
    """Supremum of the termwise fuzzy distances (bounded-sequence metric)."""
    xs, ys = _seq_terms(x), _seq_terms(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} terms vs {len(ys)}")
    return max(core.distance(u, v) for u, v in zip(xs, ys))


def box_distance(w1: ProductElement, w2: ProductElement) -> float:
    """Box metric on a finite product: max of the component metrics."""
    return core.distance(*_leaves(w1, w2, "cannot compare {} and {}"))


# ---------------------------------------------------------------------------
# generic element operations (fuzzy numbers, functions, products)


def _leaf(x, message: str):
    if not isinstance(x, core.Leaf):
        raise SpaceMismatch(message.format(type(x).__name__))
    return x


def _leaves(x, y, message: str):
    """Two leaves of one kind, functions aligned on one node grid, products of one arity."""
    kind = type(x)
    if kind is not type(y) or not issubclass(kind, core.Leaf):
        raise SpaceMismatch(message.format(kind.__name__, type(y).__name__))
    if kind is FuzzyFunction:
        return _aligned(x, y)
    if kind is ProductElement and len(x) != len(y):
        raise ArityMismatch(f"{len(x)} components vs {len(y)}")
    return x, y


def elem_add(x, y):
    return core.add(*_leaves(x, y, "cannot add {} and {}"))


def elem_scale(lam: float, x):
    return core.scalar_mul(lam, _leaf(x, "cannot scale {}"))


def elem_dist(x, y) -> float:
    return core.distance(*_leaves(x, y, "cannot compare {} and {}"))


def elem_norm(x) -> float:
    return core.norm(_leaf(x, "no norm for {}"))


def elem_hdiff(x, y):
    """Componentwise Hukuhara difference; exists iff every component's does."""
    return core.hukuhara_diff(*_leaves(x, y, "cannot subtract {1} from {0}"))


def elem_zero(x):
    return core.zero_like(_leaf(x, "no zero for {}"))


# ---------------------------------------------------------------------------
# JSON codec


def function_to_json(f: FuzzyFunction) -> dict:
    return {
        "a": f.a,
        "b": f.b,
        "nodes": f.nodes.tolist(),
        "values": [core.fuzzy_to_json(v) for v in f.values],
    }


def function_from_json(obj) -> FuzzyFunction:
    if not isinstance(obj, dict):
        raise ValueError("fuzzy function JSON must be an object")
    try:
        nodes = np.asarray(obj["nodes"], dtype=float)
        values = tuple(core.fuzzy_from_json(v) for v in obj["values"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in fuzzy function JSON") from exc
    return FuzzyFunction(nodes, values)
