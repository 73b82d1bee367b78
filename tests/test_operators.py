import warnings

import numpy as np
import pytest

from fuzzsemi import cli, core, operators, semigroup, spaces
from fuzzsemi.errors import MuNotPositive, ProbeNormViolation, SeriesOverflow, SpaceMismatch
from fuzzsemi.operators import (
    builtin,
    canonical_probes,
    compose,
    identity,
    lift_matrix,
    mu_coeff,
    phi_distance,
    power,
    random_fuzzy,
    scale_operator,
    zero_operator,
)
from fuzzsemi.spaces import pair

import helpers


def tri(l, c, r, m=64):
    return core.make_triangular(l, c, r, m)


C = tri(0, 1, 2)
X = tri(0, 1, 2)


# ---------------------------------------------------------------------------
# builtin values against the quadrature oracle (closed-form triangular levels)


def test_a1_value():
    # integrand lower(r) + upper(r) = r + (2 - r)
    oracle = helpers.midpoint_integral(lambda r: r + (2 - r), 0, 1)
    got = builtin("A1")(X)
    assert core.is_crisp(got)
    assert got.lower[0] == pytest.approx(oracle, abs=1e-9)
    assert got.lower[0] == pytest.approx(2.0, abs=1e-12)


def test_a4_a5_values():
    assert builtin("A4")(X).lower[0] == pytest.approx(
        helpers.midpoint_integral(lambda r: r, 0, 1), abs=1e-6
    )
    assert builtin("A4")(X).lower[0] == pytest.approx(0.5, abs=1e-12)
    assert builtin("A5")(X).lower[0] == pytest.approx(1.5, abs=1e-12)


def test_a2_with_crisp_constant():
    got = builtin("A2", core.crisp(1.0))(X)
    # upper(0) - upper(r) = 2 - (2 - r) = r integrates to 1/2
    assert core.is_crisp(got)
    assert got.lower[0] == pytest.approx(0.5, abs=1e-12)


def test_a3_equals_remark_generator():
    a3 = builtin("A3", C)
    ra = builtin("RemarkA", C)
    for u in canonical_probes(16)[:8]:
        assert core.distance(a3(u.resample(C.levels)), ra(u.resample(C.levels))) <= 1e-15


def test_remark_a_value():
    got = builtin("RemarkA", C)(X)
    # coefficient = 1 - 1/2; image is half of c
    helpers.assert_matches(got, helpers.levelwise(tri(0, 0.5, 1)), tol=1e-15)


def test_remark_b_value():
    got = builtin("RemarkB", C)(X)
    # coefficient = upper(0) - integral of upper = 2 - 3/2
    helpers.assert_matches(got, helpers.levelwise(tri(0, 0.5, 1)), tol=1e-15)


def test_mu_coeff():
    assert mu_coeff(C) == pytest.approx(0.5, abs=1e-15)
    assert mu_coeff(core.crisp(3.0)) == pytest.approx(0.0, abs=1e-15)


def test_spread_coefficients_past_the_float_range_raise_without_warning():
    # the level integral of endpoints near the float limit overflows: a typed error,
    # where a numpy warning and mu = -inf (or a NaN closed form) used to come out
    big = tri(1e308, 1.5e308, 1.7e308, 4)
    cases = (
        lambda: operators.mu_coeff(big),
        lambda: operators.upper_spread_coeff(big),
        lambda: builtin("RemarkA", big),
        lambda: builtin("RemarkB", big),
        lambda: semigroup.generator_pair_closed_form(C, tri(0, 1e308, 1.5e308), 10.0, "A"),
    )
    for case in cases:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SeriesOverflow, match="leaves the float range"):
                case()
        assert not seen, [str(w.message) for w in seen]


def test_mu_must_be_positive():
    with pytest.raises(MuNotPositive):
        builtin("RemarkA", core.crisp(1.0))
    with pytest.raises(MuNotPositive):
        builtin("RemarkB", core.crisp(1.0))


def test_builtin_requires_constant():
    with pytest.raises(ValueError):
        builtin("A2")
    with pytest.raises(ValueError) as info:
        builtin("nope")
    for name in operators.BUILTIN_NAMES:
        assert name in str(info.value)


def test_builtin_catalogue_pinned():
    # ||C|| = 2, so the c-scaling operators are bounded by 2 * 2
    expected = {
        "A1": (2.0, operators.LINEAR),
        "A2": (4.0, operators.POSITIVE_HOMOGENEOUS),
        "A3": (4.0, operators.POSITIVE_HOMOGENEOUS),
        "A4": (1.0, operators.POSITIVE_HOMOGENEOUS),
        "A5": (1.0, operators.POSITIVE_HOMOGENEOUS),
        "RemarkA": (4.0, operators.POSITIVE_HOMOGENEOUS),
        "RemarkB": (4.0, operators.POSITIVE_HOMOGENEOUS),
    }
    assert operators.BUILTIN_NAMES == tuple(expected)
    for name, (bound, homogeneity) in expected.items():
        op = builtin(name, C)
        assert (op.name, op.norm_bound, op.homogeneity, op.domain) == (name, bound, homogeneity, "fuzzy")


def test_builtin_rejects_wrong_space():
    with pytest.raises(SpaceMismatch):
        builtin("A1")(pair(X, X))


# ---------------------------------------------------------------------------
# composition and powers


def test_identity_and_zero_are_scales_under_their_own_names():
    # so they take the scale's exact flow; the CLI's identity kind is the library's identity()
    x = tri(-1, 0.5, 3)
    for op, factor, name in ((identity(), 1.0, "I"), (zero_operator(), 0.0, "O"), (identity("J"), 1.0, "J")):
        assert op.name == name and op.matrix.tolist() == [[factor]] and op.norm_bound == factor
        assert op(x).ends.tobytes() == scale_operator(factor)(x).ends.tobytes()
    assert semigroup.exp_apply(zero_operator(), 5.0, x) is x  # e^{0} is the identity map, bit for bit
    assert cli.parse_problem({"operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}}).operator.name == "I"


def test_power_zero_is_identity():
    p0 = power(builtin("RemarkA", C), 0)
    assert core.distance(p0(X), X) == 0.0
    assert p0.norm_bound == 1.0


def test_power_two_remark_generator():
    # second power scales by the growth coefficient: mu * coeff(x) * c
    got = power(builtin("RemarkA", C), 2)(X)
    want = core.scalar_mul(0.5 * 0.5, C)
    assert core.distance(got, want) <= 1e-15
    helpers.assert_matches(got, helpers.levelwise(tri(0, 0.25, 0.5)), tol=1e-15)


def test_power_bound_multiplies():
    a = builtin("RemarkA", C)
    assert power(a, 3).norm_bound == pytest.approx(a.norm_bound**3)


def test_compose_order():
    double = scale_operator(2.0)
    shift_like = builtin("A4")  # integral of the lower endpoints, crisp
    ab = compose(shift_like, double)
    # apply double first: integral of 2 * lower = 1
    assert ab(X).lower[0] == pytest.approx(1.0, abs=1e-12)


def test_composed_matrices_carry_no_matrix():
    # levelwise a lifted matrix maps midpoints by A and radii by |A|, so a composition
    # maps radii by |A| |B|, not |AB|: lifting the product would be another operator
    a, b = np.array([[1.0, -1.0], [0.5, 1.0]]), np.array([[1.0, 1.0], [1.0, 0.0]])
    w = pair(core.make_triangular(0, 1, 2), core.make_triangular(-1, 0, 3))
    composed, product = compose(lift_matrix(a), lift_matrix(b)), lift_matrix(a @ b)
    assert composed.matrix is None and composed.rank_one is None and semigroup._flow(composed, "exp") is None
    rad = lambda u: 0.5 * (u.ends[:, 1] - u.ends[:, 0])
    assert np.array_equal(rad(composed(w)), np.abs(a) @ np.abs(b) @ rad(w))
    assert np.array_equal(rad(product(w)), np.abs(a @ b) @ rad(w))
    assert core.distance(composed(w), product(w)) == 2.0
    # with no flow, its exp is the literal series
    for t in (-0.4, 0.7):
        got = semigroup.exp_apply(composed, t, w)
        assert got.ends.tobytes() == semigroup.SemigroupEvaluator(composed, "exp", 1e-9).at(t, w).ends.tobytes()


# ---------------------------------------------------------------------------
# probe metric


def test_phi_distance_self_is_zero():
    a = builtin("RemarkA", C)
    assert phi_distance(a, a, canonical_probes()) == 0.0


def test_phi_distance_bounded_by_norm_bound():
    probes = canonical_probes()
    for name in ("A1", "A4", "A5"):
        a = builtin(name)
        assert phi_distance(a, zero_operator(), probes) <= a.norm_bound + 1e-9


def test_phi_distance_scales():
    probes = canonical_probes()
    a = builtin("RemarkA", C)
    doubled = compose(scale_operator(2.0), a)
    assert phi_distance(doubled, zero_operator(), probes) == pytest.approx(
        2.0 * phi_distance(a, zero_operator(), probes), rel=1e-12
    )


def test_phi_bound_attained_for_endpoint_integrals():
    # the crisp unit probe realizes the exact operator norm for A1, A4, A5,
    # so the probe lower bound meets the certified upper bound
    probes = canonical_probes()
    for name in ("A1", "A4", "A5"):
        a = builtin(name)
        assert phi_distance(a, zero_operator(), probes) == pytest.approx(a.norm_bound, abs=1e-12)


def test_phi_rejects_large_probes():
    with pytest.raises(ProbeNormViolation):
        phi_distance(identity(), zero_operator(), [core.crisp(2.0)])


def test_canonical_probes_unit_ball():
    probes = canonical_probes()
    assert len(probes) == 5 + operators.PROBE_RANDOM_COUNT
    assert all(core.norm(x) <= 1.0 + 1e-9 for x in probes)
    again = canonical_probes()
    assert all(a == b for a, b in zip(probes, again))


# ---------------------------------------------------------------------------
# homogeneity flags (negative factors break the c-scaling operators)


def test_a1_is_fully_linear(rng):
    a1 = builtin("A1")
    for _ in range(100):
        x = random_fuzzy(rng, 64, 2.0)
        lam = rng.uniform(-3, 3)
        lhs = a1(core.scalar_mul(lam, x))
        rhs = core.scalar_mul(lam, a1(x))
        assert core.distance(lhs, rhs) <= 1e-12 * max(1.0, abs(lam) * core.norm(x) * 2)


def test_a2_not_homogeneous_for_negative_factor():
    a2 = builtin("A2", C)
    x = tri(0, 1, 1)  # upper endpoints constant, lower endpoints rise
    assert core.norm(a2(x)) == 0.0
    assert core.norm(a2(core.scalar_mul(-1.0, x))) > 0.4


def test_positive_homogeneity_of_scaling_operators(rng):
    for op in (builtin("A2", C), builtin("A4"), builtin("A5"), builtin("RemarkA", C)):
        for _ in range(50):
            x = random_fuzzy(rng, 64, 2.0)
            lam = rng.uniform(0, 3)
            lhs = op(core.scalar_mul(lam, x))
            rhs = core.scalar_mul(lam, op(x))
            assert core.distance(lhs, rhs) <= 1e-11 * max(1.0, lam * core.norm(x) * op.norm_bound)


def test_norm_bound_sound_on_random_inputs(rng):
    ops = [builtin("A1"), builtin("A2", C), builtin("A3", C), builtin("A4"),
           builtin("A5"), builtin("RemarkA", C), builtin("RemarkB", C)]
    for op in ops:
        for _ in range(200):
            x = random_fuzzy(rng, 32, 2.0)
            assert core.norm(op(x.resample(C.levels))) <= op.norm_bound * core.norm(x) + 1e-10


# ---------------------------------------------------------------------------
# matrix lifts


def test_lift_swap_matrix():
    op = lift_matrix([[0, 1], [1, 0]])
    u, v = tri(0, 1, 2), tri(1, 2, 3)
    out = op(pair(u, v))
    assert out[0] == v and out[1] == u
    assert op.norm_bound == 1.0


def test_lift_coupled_matrix():
    op = lift_matrix([[1, 1], [-1, -1]])
    u, v = tri(0, 1, 2), tri(1, 2, 3)
    out = op(pair(u, v))
    s = core.add(u, v)
    assert out[0] == s
    assert out[1] == core.scalar_mul(-1.0, s)
    assert op.norm_bound == 2.0


def test_lift_identity_matrix():
    op = lift_matrix(np.eye(2))
    w = pair(tri(0, 1, 2), tri(1, 2, 3))
    assert core.distance(op(w), w) == 0.0


def test_lift_matrix_matches_left_to_right_core_oracle(rng):
    m = np.array([
        [0.5, -2.0, 0.0, 1.25],
        [0.0, -0.0, 1.5, 0.0],
        [-1.0, 0.3, -0.7, 2.0],  # four terms: the summation order shows
        [0.0, 0.0, -0.0, 0.0],  # only zero terms: +0.0 everywhere
    ])
    op = lift_matrix(m)
    for _ in range(20):
        comps = tuple(random_fuzzy(rng, 16) for _ in range(4))
        want = []
        for row in m:
            acc = core.scalar_mul(row[0], comps[0])
            for a, c in zip(row[1:], comps[1:]):
                acc = core.add(acc, core.scalar_mul(a, c))
            want.append(acc.ends)
        got = op(spaces.ProductElement(comps))
        assert got.ends.tobytes() == np.stack(want).tobytes()  # bit for bit, signed zeros too


@pytest.mark.parametrize("m_levels", [16, 64])
def test_lift_matrix_equals_the_combine_rows_chain_bit_for_bit(m_levels):
    rng = np.random.default_rng(m_levels)
    levels = core.level_grid(m_levels)
    signed = core.FuzzyNumber(levels, np.full(m_levels + 1, -0.0), np.linspace(1.0, 0.0, m_levels + 1))
    for k in range(1, 5):
        for _ in range(6):
            m = rng.uniform(-2.0, 2.0, (k, k))
            m[rng.random((k, k)) < 0.25] = 0.0
            m[rng.random((k, k)) < 0.25] = -0.0
            comps = [random_fuzzy(rng, m_levels) for _ in range(k)]
            comps[rng.integers(k)] = signed  # signed zeros in the data as well as in the matrix
            w = spaces.ProductElement(comps)
            want = np.stack([u.ends for u in core.combine_rows(m.tolist(), w.components)])
            got = lift_matrix(m)(w)
            assert type(got) is spaces.ProductElement and got.levels is w.levels
            assert got.ends.tobytes() == want.tobytes() and not got.ends.flags.writeable


def test_lift_matrix_with_an_overflowing_row_sum_raises_without_warning():
    # each entry is finite, but the bound, the largest absolute row sum, is not
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SeriesOverflow, match="absolute row sum leaves the float range"):
            lift_matrix([[1e308, 1e308], [0, 1]])
    assert not seen, [str(w.message) for w in seen]
    assert lift_matrix([[1e308, 7e307], [0, 1]]).norm_bound == 1e308 + 7e307


def test_lift_rejects_bad_matrices():
    with pytest.raises(ValueError):
        lift_matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        lift_matrix([[np.inf, 0], [0, 1]])


def test_lift_rejects_wrong_arity():
    op = lift_matrix(np.eye(2))
    with pytest.raises(SpaceMismatch):
        op(spaces.ProductElement((tri(0, 1, 2),)))
    with pytest.raises(SpaceMismatch):
        op(tri(0, 1, 2))


def test_lift_is_linear_for_negative_factors(rng):
    op = lift_matrix([[1, 1], [-1, -1]])
    for _ in range(100):
        w = pair(random_fuzzy(rng, 16), random_fuzzy(rng, 16))
        lam = rng.uniform(-2, 2)
        lhs = op(core.scalar_mul(lam, w))
        rhs = core.scalar_mul(lam, op(w))
        assert core.distance(lhs, rhs) <= 1e-12 * max(1.0, 4 * abs(lam))


def test_operator_zero_image():
    for op in (builtin("A1"), builtin("RemarkA", C), lift_matrix(np.eye(2))):
        zero_in = core.zero() if op.domain == "fuzzy" else pair(core.zero(), core.zero())
        assert core.distance(op(zero_in), core.zero_like(zero_in)) == 0.0
