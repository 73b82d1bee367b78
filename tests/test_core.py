import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsemi import core
from fuzzsemi.errors import HDifferenceError, OrderViolation, SpaceMismatch
from fuzzsemi.spaces import FuzzyFunction, ProductElement, pair

import helpers


def tri(l, c, r, m=16):
    return core.make_triangular(l, c, r, m)


# ---------------------------------------------------------------------------
# construction and invariants


def test_level_grid_shape():
    g = core.level_grid(4)
    assert g[0] == 0.0 and g[-1] == 1.0 and g.size == 5


def test_triangular_levels_match_formula():
    u = tri(0, 1, 2, 8)
    # level set of (0, 1, 2) at level r is [r, 2 - r]
    assert np.allclose(u.lower, u.levels)
    assert np.allclose(u.upper, 2 - u.levels)


def test_triangular_wider_than_float_range():
    u = core.make_triangular(-1e308, -1e308, 1e308, 4)
    assert (u.lower == -1e308).all()
    assert u.upper.tolist() == [1e308, 5e307, 0.0, -5e307, -1e308]
    v = core.make_triangular(-1.7e308, 0.0, 1.7e308, 4)
    assert np.allclose(v.upper, 1.7e308 * (1.0 - v.levels), rtol=1e-15, atol=0.0)
    assert np.array_equal(v.lower, -v.upper)
    with pytest.raises(ValueError, match="finite"):
        core.make_triangular(1, 2, np.inf, 4)


def test_triangular_matches_plain_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    r = core.level_grid(16)
    for _ in range(500):
        x_l, x_c, x_r = np.sort(rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-300, 300, 3))
        u = core.make_triangular(x_l, x_c, x_r, 16)
        assert np.array_equal(u.lower, np.minimum(x_c - (1.0 - r) * (x_c - x_l), x_c))
        assert np.array_equal(u.upper, np.maximum(x_c + (1.0 - r) * (x_r - x_c), x_c))


def test_degenerate_triangle_is_crisp():
    u = tri(5, 5, 5)
    assert core.is_crisp(u)
    assert np.all(u.lower == 5.0)


def test_triangular_order_violation():
    with pytest.raises(OrderViolation):
        core.make_triangular(2, 1, 0)
    with pytest.raises(OrderViolation):
        core.Triangular(2, 1, 0)


def test_constructor_rejects_bad_arrays():
    g = core.level_grid(2)
    with pytest.raises(ValueError):
        core.FuzzyNumber(g, np.array([0.0, 1.0, 0.5]), np.array([2.0, 2.0, 2.0]))
    with pytest.raises(ValueError):
        core.FuzzyNumber(g, np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        core.FuzzyNumber(np.array([0.0, 0.5, 0.9]), np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        core.FuzzyNumber(g, np.array([0.0, np.nan, 1.0]), np.ones(3))


def test_values_are_immutable():
    u = tri(0, 1, 2)
    with pytest.raises(ValueError):
        u.lower[0] = 99.0


def test_nesting_of_level_sets():
    u = tri(-1, 0.5, 3, 32)
    for i in range(u.levels.size - 1):
        assert u.lower[i] <= u.lower[i + 1]
        assert u.upper[i] >= u.upper[i + 1]
        assert u.lower[i] <= u.upper[i]


# ---------------------------------------------------------------------------
# arithmetic against the interval oracle


def test_add_matches_interval_oracle():
    u, v = tri(0, 1, 2), tri(1, 2, 3)
    w = core.add(u, v)
    helpers.assert_matches(w, helpers.oracle_add(u, v))
    # frozen expected value: (0,1,2) + (1,2,3) = (1,3,5)
    helpers.assert_matches(w, helpers.levelwise(tri(1, 3, 5)))


def test_add_zero_neutral():
    u = tri(0, 1, 2)
    assert core.add(u, core.zero_like(u)) == u


def test_add_crisp():
    w = core.add(core.crisp(2.0, 8), core.crisp(3.0, 8))
    assert w == core.crisp(5.0, 8)


def test_scalar_mul_against_oracle():
    u = tri(0, 1, 2)
    helpers.assert_matches(core.scalar_mul(-1.0, u), helpers.oracle_scale(-1.0, u))
    helpers.assert_matches(core.scalar_mul(-1.0, u), helpers.levelwise(tri(-2, -1, 0)))
    helpers.assert_matches(core.scalar_mul(2.0, u), helpers.levelwise(tri(0, 2, 4)))


def test_scalar_mul_zero_gives_crisp_zero():
    assert core.scalar_mul(0.0, tri(0, 1, 2)) == core.zero(16)


def test_add_resamples_mismatched_grids():
    u = core.make_triangular(0, 1, 2, 4)
    v = core.make_triangular(1, 2, 3, 8)
    w = core.add(u, v)
    assert w.levels.size == 9  # union grid
    helpers.assert_matches(w, helpers.levelwise(core.make_triangular(1, 3, 5, 8)))


# ---------------------------------------------------------------------------
# partial difference


def test_hukuhara_diff_basic():
    w = core.hukuhara_diff(tri(1, 3, 5), tri(0, 1, 2))
    helpers.assert_matches(w, helpers.levelwise(tri(1, 2, 3)))


def test_hukuhara_diff_self_is_zero():
    u = tri(0, 1, 2)
    assert core.hukuhara_diff(u, u) == core.zero_like(u)


def test_hukuhara_diff_nonexistent():
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(core.zero(16), tri(0, 1, 2))


def test_hukuhara_roundtrip_random(rng):
    for _ in range(1000):
        v = _random(rng)
        w = _random(rng)
        u = core.add(v, w)
        back = core.add(core.hukuhara_diff(u, v), v)
        assert core.distance(back, u) <= 1e-12 * max(1.0, core.norm(u))


def _random(rng, m=16):
    lo = np.sort(rng.uniform(-2, 2, m + 1))
    up = -np.sort(rng.uniform(-2, 2, m + 1))
    if lo[-1] > up[-1]:
        up = (up - up[-1]) + lo[-1]
    return core.FuzzyNumber(core.level_grid(m), lo, up)


def test_oriented_diff_prefers_forward():
    x1, x2 = tri(0, 1, 2), tri(0.5, 1, 1.5)
    direction, w = core.oriented_hukuhara_diff(x1, x2)
    assert direction == "forward"
    helpers.assert_matches(w, helpers.levelwise(tri(-0.5, 0, 0.5)))


def test_oriented_diff_reverse_direction():
    direction, w = core.oriented_hukuhara_diff(tri(0.5, 1, 1.5), tri(0, 1, 2))
    assert direction == "reverse"
    helpers.assert_matches(w, helpers.levelwise(tri(-0.5, 0, 0.5)))


def test_oriented_diff_identical_is_forward_zero():
    u = tri(0, 1, 2)
    direction, w = core.oriented_hukuhara_diff(u, u)
    assert direction == "forward"
    assert w == core.zero_like(u)


# ---------------------------------------------------------------------------
# metric and norm


def test_distance_examples():
    u, v = tri(0, 1, 2), tri(1, 2, 3)
    assert core.distance(u, v) == helpers.oracle_distance(u, v) == 1.0
    assert core.distance(u, u) == 0.0
    assert core.distance(core.crisp(2.0), core.crisp(-3.0)) == 5.0


def test_norm_examples():
    assert core.norm(core.zero()) == 0.0
    assert core.norm(tri(0, 1, 2)) == 2.0
    assert core.norm(core.crisp(-3.0)) == 3.0


def test_linearity_failure_witnesses():
    # adding the reflection does not cancel a genuinely fuzzy number
    u = tri(0, 1, 2)
    mixed = core.add(u, core.scalar_mul(-1.0, u))
    helpers.assert_matches(mixed, helpers.levelwise(tri(-2, 0, 2)))
    assert core.distance(mixed, core.zero_like(u)) == 2.0
    # and the radial identity fails for opposite-sign factors
    lhs = core.distance(core.scalar_mul(1.0, u), core.scalar_mul(-1.0, u))
    rhs = abs(1.0 - (-1.0)) * core.distance(core.zero_like(u), u)
    assert lhs == 2.0 and rhs == 4.0 and lhs != rhs


# ---------------------------------------------------------------------------
# membership reconstruction


@pytest.mark.parametrize(
    "x, expected",
    [(0.5, 0.5), (3.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 0.0), (1.5, 0.5)],
)
def test_membership_triangular(x, expected):
    assert core.membership(tri(0, 1, 2, 64), x) == pytest.approx(expected, abs=1e-12)


def test_membership_crisp():
    u = core.crisp(4.0, 8)
    assert core.membership(u, 4.0) == 1.0
    assert core.membership(u, 4.1) == 0.0


def test_membership_flat_core():
    u = core.FuzzyNumber(core.level_grid(2), np.array([0.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0]))
    assert core.membership(u, 0.0) == 1.0
    # the upper endpoint falls from 2 to 1 across levels [0, 0.5]
    assert core.membership(u, 1.5) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# metric space laws (randomized)


fuzzy_arrays = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=9, max_size=9
)


@st.composite
def fuzzy_numbers(draw):
    lo = np.sort(np.asarray(draw(fuzzy_arrays)))
    up = -np.sort(np.asarray(draw(fuzzy_arrays)))
    if lo[-1] > up[-1]:
        up = (up - up[-1]) + lo[-1]
    return core.FuzzyNumber(core.level_grid(8), lo, up)


@settings(max_examples=200, deadline=None)
@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())
def test_metric_axioms(u, v, w):
    assert core.distance(u, u) == 0.0
    assert core.distance(u, v) == core.distance(v, u)
    assert core.distance(u, w) <= core.distance(u, v) + core.distance(v, w) + 1e-12


@settings(max_examples=200, deadline=None)
@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())
def test_translation_invariance(u, v, w):
    lhs = core.distance(core.add(u, w), core.add(v, w))
    assert lhs == pytest.approx(core.distance(u, v), abs=1e-12, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(fuzzy_numbers(), st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_scaling_law(u, k):
    zero_u = core.zero_like(u)
    lhs = core.distance(core.scalar_mul(k, u), core.scalar_mul(k, zero_u))
    assert lhs == pytest.approx(abs(k) * core.distance(u, zero_u), abs=1e-12, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(fuzzy_numbers(), fuzzy_numbers())
def test_commutativity(u, v):
    assert core.add(u, v) == core.add(v, u)


@settings(max_examples=100, deadline=None)
@given(fuzzy_numbers(), st.floats(min_value=0, max_value=3), st.floats(min_value=0, max_value=3))
def test_same_sign_distributivity(u, a, b):
    lhs = core.scalar_mul(a + b, u)
    rhs = core.add(core.scalar_mul(a, u), core.scalar_mul(b, u))
    assert core.distance(lhs, rhs) <= 1e-12 * max(1.0, (a + b) * core.norm(u))


# ---------------------------------------------------------------------------
# JSON codec


def test_json_roundtrip_bit_exact(rng):
    for _ in range(50):
        u = _random(rng)
        text = json.dumps(core.fuzzy_to_json(u))
        v = core.fuzzy_from_json(json.loads(text))
        assert np.array_equal(u.levels, v.levels)
        assert np.array_equal(u.lower, v.lower)
        assert np.array_equal(u.upper, v.upper)


def test_json_tri_shorthand():
    u = core.fuzzy_from_json({"tri": [0, 1, 2]}, m_levels=8)
    assert u == core.make_triangular(0, 1, 2, 8)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        core.fuzzy_from_json({"tri": [1, 2]})
    with pytest.raises(ValueError):
        core.fuzzy_from_json({"levels": [0, 1]})
    with pytest.raises(ValueError):
        core.fuzzy_from_json(3.14)


def test_repr_is_compact():
    text = repr(tri(0, 1, 2))
    assert "support=[0, 2]" in text and "core=[1, 1]" in text


def _half_built(build, error):
    # the instance whose __post_init__ raised, as a traceback shows it
    with pytest.raises(error) as info:
        build()
    tb = info.tb
    while tb.tb_frame.f_code.co_name != "__post_init__":
        tb = tb.tb_next
    return tb.tb_frame.f_locals["self"]


def test_repr_of_a_failed_construction():
    levels = core.level_grid(2)
    cases = (
        (lambda: core.FuzzyNumber(levels, [0.0, 1.0, 2.0], [1.0, 1.0, 0.0]), ValueError, "FuzzyNumber"),
        (lambda: FuzzyFunction(np.array([]), ()), ValueError, "FuzzyFunction"),
        (lambda: ProductElement((tri(0, 1, 2), "nope")), SpaceMismatch, "ProductElement"),
    )
    for build, error, kind in cases:
        assert repr(_half_built(build, error)) == f"{kind}(<construction failed>)"


def _bits(u):
    return u.levels.tobytes() + u.ends.tobytes()


def _chain(coeffs, xs):
    # the oracle: scalar_mul each term, add it to the running sum, left to right
    acc = core.scalar_mul(coeffs[0], xs[0])
    for lam, x in zip(coeffs[1:], xs[1:]):
        acc = core.add(acc, core.scalar_mul(lam, x))
    return acc


def test_combine_matches_left_to_right_chain_bit_for_bit():
    coeffs = (1.5, -0.7, 0.0, -0.0, 0.3, -2.25)
    numbers = [tri(-1, 0.5, 3, m) for m in (4, 7, 5, 4, 6, 3)]  # mixed level grids
    nodes = np.linspace(0.0, 1.0, 4)
    functions = [FuzzyFunction(nodes, tuple(core.scalar_mul(1.0 + x, u) for x in nodes)) for u in numbers[:3]] * 2
    products = [pair(u, v) for u, v in zip(numbers, numbers[::-1])]
    for xs in (numbers, functions, products):
        for k in range(1, len(xs) + 1):
            got, want = core.combine(coeffs[:k], xs[:k]), _chain(coeffs[:k], xs[:k])
            assert type(got) is type(want) and _bits(got) == _bits(want)
    assert not np.signbit(core.combine((0.0, -0.0), numbers[:2]).ends).any()
    with pytest.raises(ValueError):
        core.combine((), ())
    with pytest.raises(ValueError):
        core.combine((1.0, 2.0), numbers[:1])


def test_combine_rows_match_each_row_bit_for_bit():
    # rows of different lengths in one batch, with +, -, 0 and -0.0 factors:
    # each row equals its own combine and the left-to-right chain, including
    # where a term on a new level grid resamples only the rows still summing
    rows = [(1.5, -0.7, 0.0, -0.0, 0.3, -2.25), (-0.5,), (0.0, 2.0, -1.0), (-0.0, -0.0), (0.25, 0.5, 0.75, 1.0, -1.0)]
    numbers = [tri(-1, 0.5, 3, m) for m in (4, 7, 5, 4, 6, 3)]
    nodes = np.linspace(0.0, 1.0, 4)
    functions = [FuzzyFunction(nodes, tuple(core.scalar_mul(1.0 + x, u) for x in nodes)) for u in numbers[:3]] * 2
    products = [pair(u, v) for u, v in zip(numbers, numbers[::-1])]
    signed = core.FuzzyNumber(core.level_grid(4), np.full(5, -0.0), np.linspace(1.0, -0.0, 5))
    for xs in (numbers, functions, products, [signed] * 6):
        got = core.combine_rows(rows, xs)
        assert len(got) == len(rows)
        for row, u in zip(rows, got):
            want = _chain(row, xs[: len(row)])
            assert type(u) is type(want) and _bits(u) == _bits(want)
            assert np.array_equal(np.signbit(u.ends), np.signbit(want.ends))
            assert _bits(u) == _bits(core.combine(row, xs[: len(row)]))
    for u in core.combine_rows([(0.0,), (-0.0, 0.0)], numbers):  # a zero factor gives +0.0
        assert not np.signbit(u.ends).any()
    for bad in ([], [()], [(1.0,), ()], [(1.0,) * 7]):
        with pytest.raises(ValueError):
            core.combine_rows(bad, numbers)


def test_operator_sugar():
    u, v = tri(0, 1, 2), tri(1, 2, 3)
    assert u + v == core.add(u, v)
    assert 2 * u == core.scalar_mul(2.0, u)
    assert -1 * u == core.scalar_mul(-1.0, u)


def test_triangular_view():
    t = core.Triangular(0, 1, 2)
    assert not t.is_symmetric or t.spread_left == t.spread_right
    assert t.to_fuzzy(8) == core.make_triangular(0, 1, 2, 8)
    assert core.Triangular(-1, 0, 1).is_symmetric
    assert core.symmetric_triangular(0, 1, 8) == core.make_triangular(-1, 0, 1, 8)
