import math

import numpy as np
import pytest

from fuzzsemi import core, spaces
from fuzzsemi.errors import ArityMismatch, DomainMismatch, HDifferenceError, LengthMismatch, SpaceMismatch
from fuzzsemi.operators import lift_matrix
from fuzzsemi.spaces import FuzzyFunction, FuzzySequence, ProductElement, pair

import helpers


def tri(l, c, r, m=16):
    return core.make_triangular(l, c, r, m)


def const_fn(value, a=0.0, b=1.0, nodes=5):
    return FuzzyFunction(np.linspace(a, b, nodes), tuple(value for _ in range(nodes)))


# ---------------------------------------------------------------------------
# FuzzyFunction basics


def test_function_requires_increasing_nodes():
    with pytest.raises(ValueError):
        FuzzyFunction(np.array([0.0, 0.0, 1.0]), (tri(0, 1, 2),) * 3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FuzzyFunction(np.array([0.0, 1.0, bad]), (tri(0, 1, 2),) * 3)


def test_function_requires_shared_level_grid():
    with pytest.raises(ValueError):
        FuzzyFunction(np.array([0.0, 1.0]), (tri(0, 1, 2, 4), tri(0, 1, 2, 8)))


def test_function_rejects_values_that_are_not_fuzzy_numbers():
    with pytest.raises(ValueError, match="FuzzyNumber"):
        FuzzyFunction(np.array([0.0, 1.0]), (1.0, 2.0))


def test_function_at_interpolates():
    f = FuzzyFunction(np.array([0.0, 1.0]), (core.crisp(0.0, 8), core.crisp(2.0, 8)))
    assert f.at(0.5) == core.crisp(1.0, 8)
    assert f.at(0.0) == core.crisp(0.0, 8)
    assert f.at(1.0) == core.crisp(2.0, 8)
    with pytest.raises(DomainMismatch):
        f.at(1.5)


def test_function_sample():
    f = FuzzyFunction.sample(lambda x: core.crisp(x * x, 8), 0.0, 2.0, 4)
    assert f.nodes.size == 5
    assert f.at(2.0) == core.crisp(4.0, 8)


# ---------------------------------------------------------------------------
# metrics, with derived examples


def test_sup_distance_constant_functions():
    f = const_fn(tri(0, 1, 2))
    g = const_fn(tri(1, 2, 3))
    # pointwise distance is 1 at every node
    assert core.distance(f, g) == 1.0
    assert core.distance(f, f) == 0.0


def test_sup_distance_translation_invariance():
    f, g, h = const_fn(tri(0, 1, 2)), const_fn(tri(1, 2, 3)), const_fn(tri(-1, 0, 1))
    assert core.distance(core.add(f, h), core.add(g, h)) == pytest.approx(
        core.distance(f, g), abs=1e-12
    )


def test_sup_distance_domain_mismatch():
    f = const_fn(tri(0, 1, 2), 0.0, 1.0)
    g = const_fn(tri(0, 1, 2), 0.0, 2.0)
    with pytest.raises(DomainMismatch):
        core.distance(f, g)


def test_sup_distance_resamples_nodes():
    f = const_fn(tri(0, 1, 2), nodes=5)
    g = const_fn(tri(1, 2, 3), nodes=9)
    assert core.distance(f, g) == pytest.approx(1.0, abs=1e-12)


def test_lp_distance_constant():
    f = const_fn(tri(0, 1, 2))
    z = const_fn(core.zero(16))
    # integrand is constantly 2 on [0, 1]
    assert spaces.lp_distance(f, z, 1) == pytest.approx(2.0, abs=1e-12)
    assert spaces.lp_distance(f, z, 2) == pytest.approx(2.0, abs=1e-12)
    assert spaces.lp_distance(f, f, 1) == 0.0
    with pytest.raises(ValueError):
        spaces.lp_distance(f, z, 0.5)
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError):
            spaces.lp_distance(f, z, p)


def test_lp_distance_matches_quadrature_oracle():
    nodes = np.linspace(0.0, 1.0, 65)
    f = FuzzyFunction(nodes, tuple(core.scalar_mul(float(x), tri(0, 1, 2)) for x in nodes))
    z = FuzzyFunction(nodes, tuple(core.zero(16) for _ in nodes))
    # pointwise distance is 2x; the trapezoid of an affine integrand is exact
    oracle = helpers.midpoint_integral(lambda x: 2.0 * x, 0.0, 1.0)
    assert spaces.lp_distance(f, z, 1) == pytest.approx(oracle, abs=1e-9)
    assert spaces.lp_distance(f, z, 1) == pytest.approx(1.0, abs=1e-12)


def test_cp_sup_distance():
    f = const_fn(tri(0, 1, 2))
    g = const_fn(tri(1, 2, 3))
    zero_d = const_fn(core.zero(16))
    bump_d = const_fn(tri(0, 1, 2))
    # orders 0 agree; the first derivatives differ by norm 2
    assert spaces.cp_sup_distance([f, zero_d], [f, bump_d]) == pytest.approx(2.0, abs=1e-12)
    assert spaces.cp_sup_distance([f], [f]) == 0.0
    # with only order 0 supplied this is exactly the sup metric
    assert spaces.cp_sup_distance([f], [g]) == core.distance(f, g)
    with pytest.raises(ArityMismatch):
        spaces.cp_sup_distance([f, zero_d], [f])
    with pytest.raises(ArityMismatch):
        spaces.cp_sup_distance([], [])


def test_sequence_metrics():
    x = FuzzySequence((tri(0, 1, 2), core.zero(16)))
    y = FuzzySequence((core.zero(16), core.zero(16)))
    # termwise distances are (2, 0)
    assert spaces.rho_p_metric(x, y, 1) == pytest.approx(2.0, abs=1e-12)
    assert spaces.rho_p_metric(x, y, 2) == pytest.approx(2.0, abs=1e-12)
    assert spaces.mu_metric(x, y) == pytest.approx(2.0, abs=1e-12)
    assert spaces.mu_metric(x, x) == 0.0
    with pytest.raises(LengthMismatch):
        spaces.mu_metric(x, FuzzySequence((core.zero(16),)))
    with pytest.raises(LengthMismatch):
        spaces.rho_p_metric(x, FuzzySequence((core.zero(16),)), 1)
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            spaces.rho_p_metric(x, y, p)


def test_sequence_requires_terms():
    with pytest.raises(ValueError):
        FuzzySequence(())
    with pytest.raises(ValueError):
        FuzzySequence((tri(0, 1, 2), "nope"))


def test_sequence_is_one_stacked_leaf():
    xs = (tri(0, 1, 2, 4), tri(1, 2, 4, 8), tri(-1, 0, 0.5, 4))
    ys = (tri(-1, 0, 0.5, 8), tri(0, 1, 1.5, 4), tri(2, 3, 3, 8))
    x, y = FuzzySequence(xs), FuzzySequence(ys)
    assert x.ends.shape == (3, 2, 9) and len(x) == 3
    assert x.terms[1] == xs[1] and x.terms[0] == xs[0].resample(x.levels)  # union of the level grids
    pairs = list(zip(x.terms, y.terms))
    assert core.add(x, y).terms == tuple(core.add(u, v) for u, v in pairs)
    assert core.scalar_mul(-1.5, x).terms == tuple(core.scalar_mul(-1.5, u) for u in x.terms)
    # the termwise reference each metric replaced
    gaps = np.array([core.distance(u, v) for u, v in pairs])
    for p in (1.0, 2.0, 3.0):
        assert spaces.rho_p_metric(x, y, p) == float(np.sum(gaps**p) ** (1.0 / p))
    assert spaces.mu_metric(x, y) == max(gaps)
    # a sequence is its own kind: products and operators on products reject it
    w = ProductElement(xs)
    for kernel in (core.add, core.distance, spaces.mu_metric, spaces.rho_p_metric):
        with pytest.raises(SpaceMismatch):
            kernel(x, w)
    with pytest.raises(SpaceMismatch):
        lift_matrix(np.eye(3))(x)
    with pytest.raises(LengthMismatch):
        core.add(x, FuzzySequence(ys[:2]))


def test_space_metrics_check_their_kind():
    # the L^p metric is written for functions, rho_p and mu for sequences: any other
    # pair of leaves raises SpaceMismatch, even where the arrays would line up
    u, f, x = tri(0, 1, 2), const_fn(tri(0, 1, 2)), FuzzySequence((tri(0, 1, 2), tri(1, 2, 3)))
    w = pair(u, tri(1, 2, 3))
    for metric, own, other in ((spaces.lp_distance, f, x), (spaces.rho_p_metric, x, f), (spaces.mu_metric, x, f)):
        for a, b in ((w, w), (u, u), (other, other), (own, w), (w, own), (own, "nope")):
            with pytest.raises(SpaceMismatch):
                metric(a, b)
        assert metric(own, own) == 0.0


def test_box_distance():
    w1 = pair(tri(0, 1, 2), core.zero(16))
    w2 = pair(core.zero(16), core.zero(16))
    assert core.distance(w1, w2) == pytest.approx(2.0, abs=1e-12)
    assert core.distance(w1, w1) == 0.0
    with pytest.raises(ArityMismatch):
        core.distance(w1, ProductElement((core.zero(16),)))


def test_box_distance_mixed_component_kinds():
    # products are stacks of fuzzy numbers: a function component is rejected
    with pytest.raises(SpaceMismatch):
        ProductElement((tri(0, 1, 2), const_fn(tri(0, 1, 2))))
    with pytest.raises(SpaceMismatch):
        pair(tri(0, 1, 2), "nope")


def test_box_translation_invariance():
    w1 = pair(tri(0, 1, 2), tri(1, 2, 3))
    w2 = pair(tri(-1, 0, 1), core.zero(16))
    h = pair(tri(0, 0.5, 1), tri(0, 0.5, 1))
    lhs = core.distance(core.add(w1, h), core.add(w2, h))
    assert lhs == pytest.approx(core.distance(w1, w2), abs=1e-12)


# ---------------------------------------------------------------------------
# generic element operations


def test_elem_ops_on_products():
    w = pair(tri(0, 1, 2), tri(1, 2, 3))
    z = core.zero_like(w)
    assert core.distance(core.add(w, z), w) == 0.0
    assert core.norm(w) == 3.0
    doubled = core.scalar_mul(2.0, w)
    assert core.distance(doubled, pair(tri(0, 2, 4), tri(2, 4, 6))) == 0.0
    diff = core.hukuhara_diff(core.add(w, w), w)
    assert core.distance(diff, w) <= 1e-12


def test_product_ops_on_different_level_grids_match_per_component_core():
    xs = (tri(0, 1, 2, 4), tri(1, 2, 4, 8))
    ys = (tri(-1, 0, 0.5, 8), tri(0, 1, 1.5, 4))
    x, y = ProductElement(xs), ProductElement(ys)
    assert x.levels.size == 9 and x[0] == xs[0].resample(x.levels)  # union of the two level grids
    pairs = list(zip(xs, ys))
    assert core.add(x, y).components == tuple(core.add(u, v) for u, v in pairs)
    for lam in (2.5, -1.5, 0.0, -0.0):
        scaled = core.scalar_mul(lam, x)
        assert scaled.components == tuple(core.scalar_mul(lam, u) for u in x.components)
        if lam == 0.0:
            assert not np.signbit(scaled.ends).any()  # +0.0, as core.scalar_mul gives
    assert core.distance(x, y) == max(core.distance(u, v) for u, v in pairs)
    assert core.norm(x) == max(core.norm(u) for u in xs)
    s = core.add(x, y)
    assert core.hukuhara_diff(s, y).components == tuple(
        core.hukuhara_diff(core.add(u, v), v) for u, v in pairs
    )
    # the difference must exist in every component: a wide second one breaks it
    wide = pair(ys[0], tri(-5, 0, 5, 4))
    core.hukuhara_diff(s[0], wide[0])
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(s[1], wide[1])
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(s, wide)


def test_elem_ops_on_functions():
    f = const_fn(tri(0, 1, 2))
    g = core.add(f, f)
    assert core.distance(g, const_fn(tri(0, 2, 4))) <= 1e-12
    assert core.norm(f) == 2.0
    back = core.hukuhara_diff(g, f)
    assert core.distance(back, f) <= 1e-12


def test_function_ops_on_different_level_grids_match_per_node_core():
    nodes = np.linspace(0.0, 1.0, 4)
    f = FuzzyFunction(nodes, tuple(tri(x, x + 1, x + 3, 4) for x in nodes))
    g = FuzzyFunction(nodes, tuple(tri(-x, 0.5 - x, 1 - x, 8) for x in nodes))
    pairs = list(zip(f.values, g.values))
    added = core.add(f, g)
    assert added.values[0].levels.size == 9  # union of the two level grids
    assert added.values == tuple(core.add(u, v) for u, v in pairs)
    assert core.distance(f, g) == max(core.distance(u, v) for u, v in pairs)
    assert core.hukuhara_diff(f, g).values == tuple(core.hukuhara_diff(u, v) for u, v in pairs)
    # the difference must exist at every node: one wide value at one node breaks it
    wide = FuzzyFunction(nodes, g.values[:2] + (tri(-5, 0, 5, 8),) + g.values[3:])
    for i in (0, 1, 3):
        core.hukuhara_diff(f.values[i], wide.values[i])  # exists at every other node
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(f.values[2], wide.values[2])
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(f, wide)


def test_elem_ops_reject_mixed_kinds():
    # the core kernels check their own operands: one kind, one arity, one domain
    u = tri(0, 1, 2)
    two, three = pair(u, u), ProductElement((u, u, u))
    binary = (core.add, core.hukuhara_diff, core.distance, lambda x, y: core.combine((1.0, 1.0), (x, y)))
    for kernel in binary:
        with pytest.raises(SpaceMismatch):
            kernel(u, two)
        with pytest.raises(SpaceMismatch):
            kernel(const_fn(u), u)
        with pytest.raises(SpaceMismatch):
            kernel(u, "nope")
        with pytest.raises(ArityMismatch):
            kernel(two, three)
        with pytest.raises(DomainMismatch):
            kernel(const_fn(u), const_fn(u, a=-1.0))
    for unary in (lambda x: core.scalar_mul(2.0, x), core.norm, core.zero_like):
        with pytest.raises(SpaceMismatch):
            unary("nope")


def test_function_kernels_align_node_grids():
    # two functions on different node grids of one domain meet on the union grid
    f = FuzzyFunction(np.linspace(0.0, 1.0, 3), tuple(tri(x, x + 1, x + 3) for x in np.linspace(0.0, 1.0, 3)))
    g = FuzzyFunction(np.linspace(0.0, 1.0, 4), tuple(tri(-x, 0.5 - x, 1 - x) for x in np.linspace(0.0, 1.0, 4)))
    union = np.union1d(f.nodes, g.nodes)
    fu, gu = f.resample_nodes(union), g.resample_nodes(union)
    pairs = list(zip(fu.values, gu.values))
    added = core.add(f, g)
    assert np.array_equal(added.nodes, union) and added.values == tuple(core.add(u, v) for u, v in pairs)
    s = core.add(f, g)
    assert core.hukuhara_diff(s, g).values == tuple(core.hukuhara_diff(w, v) for w, v in zip(s.values, gu.values))
    assert core.distance(f, g) == max(core.distance(u, v) for u, v in pairs)


# ---------------------------------------------------------------------------
# JSON codec


def test_function_json_roundtrip():
    f = const_fn(tri(0, 1, 2), nodes=3)
    obj = spaces.function_to_json(f)
    assert obj["a"] == 0.0 and obj["b"] == 1.0
    g = spaces.function_from_json(obj)
    assert core.distance(f, g) == 0.0
    with pytest.raises(ValueError):
        spaces.function_from_json({"nodes": [0, 1]})


def test_function_from_json_rejects_non_objects():
    with pytest.raises(ValueError, match="must be an object"):
        spaces.function_from_json([1, 2])
