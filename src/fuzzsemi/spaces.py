"""Fuzzy-valued function spaces, sequence spaces and box-metric products.

Functions are represented by samples at space-grid nodes rather than by
closures, stored as one (nodes, 2, levels) endpoint array: every metric
then reduces to a finite maximum or sum over nodes and levels, and the
`core` algebra applies to a function as it does to one fuzzy number.
Sequence spaces are finite truncations; membership of the underlying
infinite object in a summability class is not (and cannot be) checked
from finite data.

Functions, products and sequences are `core.Leaf`s, so the `core` kernels
are their algebra, metric and norm: `core.distance` is the supremum metric
D* on functions, the box metric on products and the metric mu on
sequences.  Products and sequences are two names of one stacked kind
(`_Stacked`: k fuzzy numbers as one (k, 2, levels) array, written once),
each with its own noun and errors.  Each kind overrides the `Leaf._match`
hook that those kernels call: functions on different node grids are
aligned on the union grid (different domains raise DomainMismatch),
products of different arity raise ArityMismatch and sequences of
different length LengthMismatch.  Only the metrics that are not a
supremum (`lp_distance`, `rho_p_metric`) are written here.
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


@dataclass(frozen=True, eq=False, repr=False)
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

    def _summary(self):
        return f"on [{self.a:g}, {self.b:g}], {self.nodes.size} nodes"

    def _match(self, other):
        if self.a != other.a or self.b != other.b:
            raise DomainMismatch(f"[{self.a}, {self.b}] vs [{other.a}, {other.b}]")
        if self.nodes is other.nodes or np.array_equal(self.nodes, other.nodes):
            return self, other
        merged = np.union1d(self.nodes, other.nodes)
        return self.resample_nodes(merged), other.resample_nodes(merged)

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


class _Stacked(core.Leaf):
    """The one kind behind products and sequences: fuzzy numbers stacked as
    one (k, 2, levels) array ``ends`` on the union of their level grids.
    Each subclass names its entries ``noun`` and raises ``not_a_number`` for
    an entry that is not a FuzzyNumber and ``mismatch`` for two of different
    lengths; no entries raise ValueError."""

    def __post_init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError(f"a {type(self).__name__} needs at least one {self.noun}")
        if not all(isinstance(c, FuzzyNumber) for c in entries):
            raise self.not_a_number(f"{self.noun}s must be FuzzyNumber instances")
        levels = entries[0].levels
        if not all(np.array_equal(c.levels, levels) for c in entries):
            levels = core._frozen(functools.reduce(np.union1d, (c.levels for c in entries)))
            entries = tuple(c.resample(levels) for c in entries)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ends", core._frozen([c.ends for c in entries]))

    def _summary(self):
        return f"{len(self)} {self.noun}s, {self.levels.size} levels"

    def _match(self, other):
        if len(self) != len(other):
            raise self.mismatch(f"{len(self)} {self.noun}s vs {len(other)}")
        return self, other

    def __len__(self):
        return len(self.ends)


@dataclass(frozen=True, eq=False, repr=False)
class ProductElement(_Stacked):
    """Fixed-arity tuple of fuzzy numbers; ``components`` and ``[i]`` read
    them back."""

    noun, not_a_number, mismatch = "component", SpaceMismatch, ArityMismatch
    components: InitVar[tuple]

    def __getitem__(self, i):
        return self.components[i]


@dataclass(frozen=True, eq=False, repr=False)
class FuzzySequence(_Stacked):
    """Finite truncation of a fuzzy-number sequence; ``terms`` reads it back.
    A sequence is its own kind: mixing it with a product raises SpaceMismatch."""

    noun, not_a_number, mismatch = "term", ValueError, LengthMismatch
    terms: InitVar[tuple]


# the constructors take the entries; afterwards they are read back as views of ends
FuzzyFunction.values = ProductElement.components = FuzzySequence.terms = property(
    lambda leaf: tuple(FuzzyNumber._trusted(leaf.levels, e) for e in leaf.ends)
)


def pair(u, v) -> ProductElement:
    return ProductElement((u, v))


# ---------------------------------------------------------------------------
# metrics


def _common(kind: type, u, v):
    """`core.common_grid` for the metrics written for one space: SpaceMismatch unless both are ``kind``s."""
    if not (isinstance(u, kind) and isinstance(v, kind)):
        raise SpaceMismatch(f"the metric compares {kind.__name__}s, not {type(u).__name__} and {type(v).__name__}")
    return core.common_grid(u, v)


def lp_distance(f: FuzzyFunction, g: FuzzyFunction, p: float = 1.0) -> float:
    """Integral metric (trapezoid over the stored nodes) of finite order p >= 1.

    No refinement happens inside the metric; callers control the node
    count, which keeps metric values deterministic and comparable.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    f, g = _common(FuzzyFunction, f, g)
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
    return float(sum(core.distance(fi, gi) for fi, gi in zip(fs, gs)))


def rho_p_metric(x: FuzzySequence, y: FuzzySequence, p: float = 1.0) -> float:
    """p-norm (finite p >= 1) of the termwise fuzzy distances of two finite sequences."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    x, y = _common(FuzzySequence, x, y)
    gaps = np.abs(x.ends - y.ends).max(axis=(-2, -1))  # termwise fuzzy distances
    return float(np.sum(gaps**p) ** (1.0 / p))


def mu_metric(x: FuzzySequence, y: FuzzySequence) -> float:
    """Supremum of the termwise fuzzy distances (bounded-sequence metric):
    `core.distance` on sequences."""
    return core.distance(*_common(FuzzySequence, x, y))


# perfbench's lifted workload builds its zero velocities through this name
elem_zero = core.zero_like


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
