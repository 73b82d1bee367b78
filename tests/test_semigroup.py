import math
import warnings

import numpy as np
import pytest

from fuzzsemi import cauchy, core
from fuzzsemi.errors import FuzzsemiError, MixedSignsError, SeriesOverflow, ToleranceUnderflow
from fuzzsemi.operators import (
    BUILTIN_NAMES,
    LinearOperator,
    builtin,
    canonical_probes,
    compose,
    identity,
    lift_matrix,
    scale_operator,
    zero_operator,
)
from fuzzsemi.semigroup import (
    MatrixFlow,
    RankOneFlow,
    SemigroupEvaluator,
    check_semigroup_law,
    cosh_apply,
    exp_apply,
    generator_pair_closed_form,
    generator_residual,
    partial_sums,
    propagator,
    required_order,
    series_apply,
    sinh_apply,
)
from fuzzsemi.spaces import pair

import helpers


C = core.make_triangular(0, 1, 2)
X = core.make_triangular(0, 1, 2)


# ---------------------------------------------------------------------------
# truncation order


def test_required_order_matches_direct_summation_oracle():
    for t, bound, tol, kind in [
        (1.0, 1.0, 1e-10, "exp"),
        (1.0, 1.0, 10.0, "exp"),
        (2.0, 2.0, 1e-9, "exp"),
        (1.5, 0.5, 1e-8, "cosh"),
        (1.5, 0.5, 1e-8, "sinh"),
        (0.3, 4.0, 1e-12, "cosh"),
    ]:
        assert required_order(t, bound, tol, kind) == helpers.tail_order(t, bound, tol, kind)


def test_required_order_frozen_values():
    assert required_order(1.0, 1.0, 10.0, "exp") == 0
    assert required_order(0.0, 5.0, 1e-12, "exp") == 0
    assert required_order(1.0, 1.0, 1e-10, "exp") == 13
    assert required_order(1.0, 0.0, 1e-12, "cosh") == 0


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_required_order_is_zero_when_every_term_underflows(kind):
    # t^2 M (and for 5e-324 also t M) underflows to 0: all terms are exactly 0,
    # so the tail is 0 and no term is needed, instead of an overflow error
    for t in (1e-170, 1e-300, 5e-324, -5e-324):
        assert required_order(t, 0.5, 1e-9, kind) == 0
        assert required_order(t, 0.5, 1e-9, kind) == helpers.tail_order(t, 0.5, 1e-9, kind)
    ev = SemigroupEvaluator(builtin("RemarkA", C), kind, 1e-9)
    got = ev.at(1e-170, X)
    assert got is X if kind != "sinh" else got == core.zero_like(X)


def test_required_order_cosh_keeps_a_large_bound_from_underflow():
    # t^2 alone underflows to 0, but t * (t * M) = 1e-40 is a real first term
    # (5e-41) above tol; the second, 4e-82, is below it
    assert required_order(1e-170, 1e300, 1e-50, "cosh") == 1


def test_required_order_validates():
    with pytest.raises(ValueError):
        required_order(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        required_order(1.0, -1.0, 1e-9)
    with pytest.raises(ValueError):
        required_order(1.0, 1.0, 1e-9, "tanh")
    with pytest.raises(OverflowError):
        required_order(1.0, 800.0, 1e-9)  # peak term exceeds float range


# ---------------------------------------------------------------------------
# exponential flow


def test_exp_identity_at_zero_is_exact():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)
    assert ev.at(0.0, X) is X


def test_exp_identity_operator_matches_scalar_exponential():
    got = exp_apply(identity(), 1.0, core.crisp(1.0), tol=1e-12)
    assert core.is_crisp(got)
    assert got.lower[0] == pytest.approx(math.e, abs=1e-12)


def test_exp_negative_time_crisp():
    got = exp_apply(identity(), -1.0, core.crisp(1.0), tol=1e-12)
    assert got.lower[0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_exp_negative_time_widens_fuzzy_support():
    # alternating coefficients may not be merged, so the spread grows by
    # the sum of their absolute values: factor e at t = -1
    got = exp_apply(identity(), -1.0, X, tol=1e-12)
    spread = got.upper[0] - got.lower[0]
    assert spread == pytest.approx(2.0 * math.e, abs=1e-9)


def test_exp_remark_generator_closed_form_t2():
    got = exp_apply(builtin("RemarkA", C), 2.0, X, tol=1e-9)
    want = core.add(X, core.scalar_mul(math.e - 1.0, C))  # (0, e, 2e)
    assert core.distance(got, want) <= 1e-9
    assert got.lower[-1] == pytest.approx(math.e, abs=1e-9)
    assert got.upper[0] == pytest.approx(2.0 * math.e, abs=1e-9)


def test_exp_closed_form_across_times():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)
    for t in (0.0, 0.5, 1.0, 2.0):
        want = generator_pair_closed_form(C, X, t, "A")
        assert core.distance(ev.at(t, X), want) <= 1e-8


def test_exp_remark_b_closed_form():
    ev = SemigroupEvaluator(builtin("RemarkB", C), "exp", 1e-9)
    for t in (0.5, 1.5):
        want = generator_pair_closed_form(C, X, t, "B")
        assert core.distance(ev.at(t, X), want) <= 1e-8


def test_generator_pair_closed_form_validates():
    with pytest.raises(ValueError):
        generator_pair_closed_form(C, X, -1.0, "A")
    with pytest.raises(ValueError):
        generator_pair_closed_form(C, X, 1.0, "C")
    with pytest.raises(ValueError):
        generator_pair_closed_form(core.crisp(1.0), X, 1.0, "A")
    with pytest.raises(SeriesOverflow, match="t = 1500"):  # e^750 (math.expm1 raised OverflowError)
        generator_pair_closed_form(C, X, 1500.0, "A")


def test_truncation_cauchy_tail(rng):
    op = builtin("RemarkA", C)
    for t in (0.5, 1.0, 2.0):
        m = required_order(t, op.norm_bound, 1e-9, "exp")
        for x in canonical_probes()[:6]:
            a = series_apply(op, "exp", t, x, m)
            b = series_apply(op, "exp", t, x, m + 10)
            assert core.distance(a, b) <= 1e-9


def _endpoints(element):
    parts = element.components if hasattr(element, "components") else (element,)
    return np.concatenate([np.concatenate([u.lower, u.upper]) for u in parts])


@pytest.mark.parametrize("name, rate", [("A1", 2.0), ("A4", 1.0)])
def test_exp_apply_of_a_crisp_builtin_meets_its_decay(name, rate):
    # on crisp values A1 doubles and A4 keeps: the series gave 6.36e-9 for
    # e^-20 (A1) and missed e^-10 by 1.3e-5 relative (A4)
    x = core.crisp(1.0)
    got = exp_apply(builtin(name), -10.0, x)
    assert core.is_crisp(got) and abs(got.lower[0] - math.exp(-10.0 * rate)) <= 1e-12 * core.norm(x)


def test_exp_apply_of_remark_a_meets_its_closed_form_at_long_horizon():
    for c, x in ((C, X), (core.make_triangular(-3, -2, -1, 7), core.make_triangular(-1, 0.5, 3, 5))):
        want = generator_pair_closed_form(c, x, 20.0, "A")
        assert core.distance(exp_apply(builtin("RemarkA", c), 20.0, x), want) <= 1e-12 * core.norm(want)


def _counting(op):
    """op as a bare map (no matrix, not rank one) with a counter of its applications."""
    calls = []

    def fn(x):
        calls.append(None)
        return op(x)

    return LinearOperator(fn, op.norm_bound, op.homogeneity, op.name, op.domain), calls


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_shared_power_ladder_is_bit_identical(kind):
    # one call's times share one ladder of powers, built once to the largest order
    op, calls = _counting(lift_matrix(((0.5, -1.0), (1.0, 0.25))))
    x = pair(core.make_triangular(0, 1, 2), core.make_triangular(-1, 0.5, 3))
    orders = (8, 5, 2, 0, 1, 3, 6, 9, 12)
    times = [t for _ in orders for t in (0.7, -0.4)]
    got = partial_sums(op, kind, times, x, [order for order in orders for _ in (0.7, -0.4)])
    assert len(calls) == 12
    for i, order in enumerate(orders):
        for t, u in zip((0.7, -0.4), got[2 * i : 2 * i + 2]):
            assert np.array_equal(_endpoints(u), _endpoints(series_apply(op, kind, t, x, order)))


def _explicit_series(op, kind, t, x, order):
    # the exp / cosh / sinh recurrences written out, one loop per kind
    powers = [x]
    while len(powers) <= order:
        powers.append(op(powers[-1]))
    if kind == "sinh":
        if order == 0:
            return core.zero_like(x)
        coeff, acc = t, core.scalar_mul(t, powers[1])
        for p in range(2, order + 1):
            coeff *= t * t / ((2 * p - 2) * (2 * p - 1))
            acc = core.add(acc, core.scalar_mul(coeff, powers[p]))
        return acc
    acc, coeff = x, 1.0
    for p in range(1, order + 1):
        coeff *= t / p if kind == "exp" else t * t / ((2 * p - 1) * (2 * p))
        acc = core.add(acc, core.scalar_mul(coeff, powers[p]))
    return acc


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_series_apply_matches_explicit_recurrences(kind):
    # builtins scaling c on a 7-panel grid, applied to x on a 5-panel grid,
    # add terms on different level grids: each is scaled before resampling
    c7, x5 = core.make_triangular(0, 1, 2, 7), core.make_triangular(-1, 0.5, 3, 5)
    cases = (
        (lift_matrix(((0.5, -1.0), (1.0, 0.25))), pair(core.make_triangular(0, 1, 2), core.make_triangular(-1, 0.5, 3))),
        (builtin("RemarkA", c7), x5),
        (builtin("A2", c7), x5),
    )
    for op, x in cases:
        for t in (0.7, -0.4, 3.0, 1e-3):
            for order in (0, 1, 2, 7, 20):
                got, want = series_apply(op, kind, t, x, order), _explicit_series(op, kind, t, x, order)
                assert got.levels.tobytes() + got.ends.tobytes() == want.levels.tobytes() + want.ends.tobytes()


def _neg_zero_endpoints():
    # an element whose lower endpoints are -0.0 at every level: a sum that
    # starts from it keeps -0.0 only while nothing but -0.0 is added
    r = core.level_grid(8)
    return core.FuzzyNumber(r, np.full(r.size, -0.0), 1.0 - r)


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_batched_evaluation_matches_explicit_series_bit_for_bit(kind):
    # one batch holds times of both signs and exactly 0, so its rows have
    # different orders (0 among them) and end at different terms
    c7, x5 = core.make_triangular(0, 1, 2, 7), core.make_triangular(-1, 0.5, 3, 5)
    cases = (
        (lift_matrix(((0.5, -1.0), (1.0, 0.25))), pair(core.make_triangular(0, 1, 2), core.make_triangular(-1, 0.5, 3))),
        (builtin("RemarkA", c7), x5),
        (builtin("A2", c7), x5),
        (identity(), _neg_zero_endpoints()),
        (zero_operator(), _neg_zero_endpoints()),
    )
    times = (0.7, -0.4, 0.0, 3.0, -0.0, 1e-3, -2.5, 0.7)
    for op, x in cases:
        ev = SemigroupEvaluator(op, kind, 1e-9)
        orders = [ev.order_for(t, x) for t in times]
        assert len(set(orders)) >= 4 or op.norm_bound == 0.0
        got = ev.evaluate(times, x)
        summed = partial_sums(op, kind, times, x, orders)
        assert len(got) == len(summed) == len(times)
        for t, order, *both in zip(times, orders, got, summed):
            want = _explicit_series(op, kind, t, x, order)
            for u in both:
                assert type(u) is type(want)
                assert u.levels.tobytes() + u.ends.tobytes() == want.levels.tobytes() + want.ends.tobytes()
                assert np.array_equal(np.signbit(u.ends), np.signbit(want.ends))
        # explicit orders, rows of every length up to 20 in one batch
        sums = partial_sums(op, kind, times * 3, x, range(len(times) * 3))
        for t, order, u in zip(times * 3, range(len(times) * 3), sums):
            want = _explicit_series(op, kind, t, x, order)
            assert u.levels.tobytes() + u.ends.tobytes() == want.levels.tobytes() + want.ends.tobytes()


def test_batched_evaluation_of_no_times_is_empty():
    ev = SemigroupEvaluator(identity(), "exp", 1e-9)
    assert ev.evaluate([], X) == [] and partial_sums(identity(), "exp", [], X, []) == []


def test_series_apply_rejects_unknown_kind():
    for order in (0, 3):
        with pytest.raises(ValueError, match="tanh"):
            series_apply(identity(), "tanh", 1.0, X, order)


# ---------------------------------------------------------------------------
# propagator and the public wrappers


@pytest.mark.parametrize("factor, t", [(-5.0, 8.0), (-5.0, 4.0), (-3.0, 12.0)])
def test_exp_apply_meets_long_horizon_decay(factor, t):
    # the truncated series controls only its tail: it gave 2.24, 9.7e-9 and -0.098 here
    got = exp_apply(scale_operator(factor), t, core.crisp(1.0))
    assert core.is_crisp(got)
    assert got.lower[0] == pytest.approx(math.exp(factor * t), rel=1e-12)


def test_exp_apply_meets_long_horizon_rotation():
    got = exp_apply(lift_matrix(((0.0, 1.0), (-1.0, 0.0))), 40.0, pair(core.crisp(1.0), core.crisp(0.0)))
    for u, want in zip(got.components, (math.cos(40.0), -math.sin(40.0))):
        assert np.abs(u.ends - want).max() <= 1e-12


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("op", [scale_operator(1.0), helpers.bare(identity())], ids=["flow", "series"])
def test_one_shot_api_rejects_a_bad_tol_on_every_path(op, tol):
    # the flow ignores tol, and an infinite tol truncated the series of the bare identity to x
    for apply in (exp_apply, cosh_apply, sinh_apply):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            apply(op, 1.0, X, tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        SemigroupEvaluator(op, "exp", tol)


def test_a_tol_that_underflows_relative_to_the_data_is_typed():
    # tol / ||x|| = 1e-300 / 1.7e300 underflows to 0, which required_order rejected as "tol must be > 0"
    x = core.make_triangular(1e300, 1.5e300, 1.7e300, 4)
    ev = SemigroupEvaluator(builtin("A4"), "exp", 1e-300)
    for call in (lambda: ev.at(0.5, x), lambda: ev.order_for(0.5, x)):
        with pytest.raises(ToleranceUnderflow, match=r"tol 1e-300 relative to the scale 1\.7e\+300") as err:
            call()
        assert isinstance(err.value, FuzzsemiError) and isinstance(err.value, ValueError)
    # the Duhamel orders take the same target: tol / 2 against ||g||
    with pytest.raises(ToleranceUnderflow, match="relative to the scale 1.7e"):
        propagator(helpers.bare(identity()))((0.5,), X, (1e-300,), x)
    # a target that stays positive is served as before
    assert ev.order_for(0.5, X) == required_order(0.5, builtin("A4").norm_bound, 1e-300 / max(1.0, core.norm(X)))


def test_propagator_holds_no_state():
    # every call builds its own powers, to its own largest order, whatever x was before
    op, calls = _counting(builtin("RemarkA", C))
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)  # the oracle, not counted
    propagate = propagator(op, "exp")
    for times in ([0.5, 1.0], [0.25, 1.0, -0.5], [0.5, 1.0], [2.0]):
        calls.clear()
        got = propagate(times, X, [1e-9] * len(times))
        assert len(calls) == max(ev.order_for(t, X) for t in times)
        for u, want in zip(got, ev.evaluate(times, X)):
            assert u.ends.tobytes() == want.ends.tobytes()


def test_propagator_truncates_each_time_to_its_own_tol():
    op, x = compose(identity(), builtin("A2", C)), core.make_triangular(-1, 0.5, 3)
    times, tols = [0.3, 1.0, 1.0, -0.7], [1e-3, 1e-12, 1e-4, 1e-9]
    got = propagator(op, "cosh")(times, x, iter(tols))
    for t, tol, u in zip(times, tols, got):
        assert u.ends.tobytes() == SemigroupEvaluator(op, "cosh", tol).at(t, x).ends.tobytes()


def _sinh_by_cosh_flow(flow_cls, op, times, x):
    # S(t)x = A(integral_0^|t| C(r)x dr) times the sign of t, from a fresh cosh flow; +0.0 at t = 0
    integrals = flow_cls(op, "cosh").evaluate([abs(t) for t in times], core.zero_like(x), x)
    signs = [math.copysign(1.0, t) for t in times]
    return [core.scalar_mul(sign, op(v)) if t else core.zero_like(x) for t, sign, v in zip(times, signs, integrals)]


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_propagator_takes_the_flow_for_exp_and_cosh_of_a_matrix(kind):
    op = lift_matrix(((0.5, -1.0), (1.0, 0.25)))
    x = pair(core.make_triangular(0, 1, 2), core.make_triangular(-1, 0.5, 3))
    times = [0.7, -0.4, 0.0, 2.0]
    got = propagator(op, kind)(times, x, [1e-9] * 4)
    want = _sinh_by_cosh_flow(MatrixFlow, op, times, x) if kind == "sinh" else MatrixFlow(op, kind).evaluate(times, x)
    assert [u.ends.tobytes() for u in got] == [u.ends.tobytes() for u in want]
    # the public wrappers are its one-time calls
    wrapper = {"exp": exp_apply, "cosh": cosh_apply, "sinh": sinh_apply}[kind]
    assert wrapper(op, 2.0, x).ends.tobytes() == want[-1].ends.tobytes()


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_propagator_takes_the_rank_one_flow_for_exp_and_cosh_of_a_builtin(kind):
    op, x = builtin("A2", C), core.make_triangular(-1, 0.5, 3)
    times = [0.7, -0.4, 0.0, 2.0]
    got = propagator(op, kind)(times, x, [1e-9] * 4)
    want = _sinh_by_cosh_flow(RankOneFlow, op, times, x) if kind == "sinh" else RankOneFlow(op, kind).evaluate(times, x)
    assert [u.ends.tobytes() for u in got] == [u.ends.tobytes() for u in want]


def test_exp_of_the_identity_meets_a_long_horizon_decay():
    # identity() is the scale operator [[1]] and takes its flow: the literal series gave 0.3117
    got = exp_apply(identity(), -40.0, core.crisp(1.0))
    assert core.is_crisp(got) and got.lower[0] == pytest.approx(math.exp(-40.0), rel=1e-13)


def test_sinh_of_a_scale_meets_a_long_horizon_rotation():
    # for A = -1, S(t) is -sin(t): the literal series gave -1.0697 at t = 40
    for t in (40.0, -40.0):
        got = sinh_apply(scale_operator(-1.0), t, core.crisp(1.0))
        assert core.is_crisp(got) and got.lower[0] == pytest.approx(-math.sin(t), rel=1e-13)


def _structured_cases():
    x = core.make_triangular(-1, 0.5, 3)
    yield from ((builtin(name, C), x) for name in BUILTIN_NAMES)
    yield from ((scale_operator(factor), x) for factor in (1.5, -1.5))
    w = pair(core.make_triangular(0, 1, 2), x)
    yield from ((lift_matrix(matrix), w) for matrix in (cauchy.SWAP_MATRIX, cauchy.COUPLED_MATRIX))


def test_sinh_flow_meets_the_literal_series():
    times = [0.5, 1.0, 2.0, -0.3, -1.0]
    for op, x in _structured_cases():
        got = propagator(op, "sinh")([*times, 0.0, -0.0], x, [1e-13] * 7)
        want = SemigroupEvaluator(op, "sinh", 1e-13).evaluate(times, x)
        for t, a, b in zip(times, got, want):
            assert core.distance(a, b) <= 1e-12 * core.norm(b), (op.name, t)
        coarse = propagator(op, "sinh")(times, x, [1.0] * 5)  # a flow takes no tol; the series would truncate
        assert [u.ends.tobytes() for u in coarse] == [u.ends.tobytes() for u in got[:5]]
        for zero in got[-2:]:  # the +0.0 zero element, as the series gives it
            assert zero.ends.tobytes() == core.zero_like(x).ends.tobytes() and not np.signbit(zero.ends).any()
        with pytest.raises(ValueError, match="constant input"):
            propagator(op, "sinh")([1.0], x, [1e-9], x)


def test_propagator_rejects_an_unknown_kind():
    for op in (identity(), scale_operator(2.0), builtin("A1")):
        with pytest.raises(ValueError, match="kind"):
            propagator(op, "tanh")


@pytest.mark.parametrize("kind", ["exp", "cosh", "sinh"])
def test_series_overflow_raises_without_warning(kind):
    # the operator's own sums (A1) or the series' sums x + ... (A2; sinh has
    # no x term and stays finite there) leave the float range
    big = core.make_triangular(1e308, 1.5e308, 1.7e308)
    for op in (builtin("A1"), builtin("A2", C))[: 1 if kind == "sinh" else 2]:
        op = compose(identity(), op)  # the literal series, for every kind
        for evaluate in (propagator(op, kind), lambda times, x, tols: SemigroupEvaluator(op, kind).evaluate(times, x)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(SeriesOverflow, match="shorten the horizon"):
                    evaluate([0.5, 1.0], big, [1e-9] * 2)
            assert not seen, [str(w.message) for w in seen]


# ---------------------------------------------------------------------------
# cosh / sinh


def test_cosh_identity_operator_matches_scalar():
    got = cosh_apply(identity(), 1.0, core.crisp(1.0), tol=1e-12)
    assert got.lower[0] == pytest.approx(math.cosh(1.0), abs=1e-12)


def test_sinh_identity_operator_matches_scalar():
    got = sinh_apply(identity(), 1.0, core.crisp(1.0), tol=1e-12)
    assert got.lower[0] == pytest.approx(math.sinh(1.0), abs=1e-12)


def test_cosh_tail_scaling_with_small_bound():
    # for a contraction (bound < 1) the even tail decays like t^(2p) M^p;
    # mis-scaling the bound in the tail would truncate too early here
    from fuzzsemi.operators import scale_operator

    op = scale_operator(0.5)
    got = cosh_apply(op, 2.0, core.crisp(1.0), tol=1e-12)
    want = math.cosh(2.0 * math.sqrt(0.5))  # scalar sum of t^(2p) 0.5^p / (2p)!
    assert got.lower[0] == pytest.approx(want, abs=1e-12)
    got_s = sinh_apply(op, 2.0, core.crisp(1.0), tol=1e-12)
    want_s = math.sinh(2.0 * math.sqrt(0.5)) * math.sqrt(0.5)
    assert got_s.lower[0] == pytest.approx(want_s, abs=1e-12)


def test_cosh_at_zero_is_input():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "cosh", 1e-9)
    assert ev.at(0.0, X) is X


def test_sinh_at_zero_is_zero():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "sinh", 1e-9)
    assert ev.at(0.0, X) == core.zero_like(X)


def test_cosh_series_on_lifted_matrix():
    # the swap operator squares to the identity, so the even ladder splits
    # into even/odd coefficient sums: (cosh t + cos t)/2 and (cosh t - cos t)/2
    op = lift_matrix([[0, 1], [1, 0]])
    w = pair(core.crisp(1.0), core.crisp(0.0))
    got = cosh_apply(op, 1.0, w, tol=1e-12)
    assert got[0].lower[0] == pytest.approx((math.cosh(1.0) + math.cos(1.0)) / 2, abs=1e-11)
    assert got[1].lower[0] == pytest.approx((math.cosh(1.0) - math.cos(1.0)) / 2, abs=1e-11)


# ---------------------------------------------------------------------------
# semigroup law


def test_semigroup_law_zero_s():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)
    assert check_semigroup_law(ev, 0.7, 0.0, X) <= 2e-9


def test_semigroup_law_identity_operator_scalar():
    ev = SemigroupEvaluator(identity(), "exp", 1e-12)
    res = check_semigroup_law(ev, 0.6, 0.4, core.crisp(1.0))
    assert res <= abs(math.e - math.exp(0.6) * math.exp(0.4)) + 1e-11


def test_semigroup_law_remark_generator():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)
    assert check_semigroup_law(ev, 0.5, 0.5, X) <= 1e-8


def test_semigroup_law_negative_pair():
    ev = SemigroupEvaluator(identity(), "exp", 1e-12)
    assert check_semigroup_law(ev, -0.3, -0.2, core.crisp(1.0)) <= 1e-10
    # fully linear operators keep the law on fuzzy inputs at negative pairs
    assert check_semigroup_law(ev, -0.4, -0.4, X) <= 1e-10
    mat = SemigroupEvaluator(lift_matrix([[1, 1], [-1, -1]]), "exp", 1e-12)
    w = pair(X, core.make_triangular(1, 2, 3))
    assert check_semigroup_law(mat, -0.4, -0.4, w) <= 1e-9


def test_semigroup_law_negative_pair_fails_without_full_linearity():
    # composing the partial sums pushes the operator through negative inner
    # coefficients; a positively homogeneous operator breaks the law there,
    # and the defect persists as tol shrinks
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-12)
    assert check_semigroup_law(ev, -0.4, -0.4, X) > 0.05
    assert check_semigroup_law(ev, 0.4, 0.4, X) <= 1e-10


def test_semigroup_law_rejects_mixed_signs():
    ev = SemigroupEvaluator(identity(), "exp", 1e-9)
    with pytest.raises(MixedSignsError):
        check_semigroup_law(ev, 1.0, -0.5, X)


def test_semigroup_law_requires_exp():
    ev = SemigroupEvaluator(identity(), "cosh", 1e-9)
    with pytest.raises(ValueError):
        check_semigroup_law(ev, 1.0, 1.0, X)


# ---------------------------------------------------------------------------
# generator limit


def test_generator_residual_zero_operator():
    ev = SemigroupEvaluator(zero_operator(), "exp", 1e-12)
    for h in (1e-1, 1e-3):
        assert generator_residual(ev, h, X) == 0.0


def test_generator_residual_identity_scalar_value():
    ev = SemigroupEvaluator(identity(), "exp", 1e-12)
    res = generator_residual(ev, 0.1, core.crisp(1.0))
    expected = math.expm1(0.1) / 0.1 - 1.0  # scalar difference quotient error
    assert res == pytest.approx(expected, abs=1e-9)


def test_generator_residual_within_remainder_bound():
    op = builtin("RemarkA", C)
    ev = SemigroupEvaluator(op, "exp", 1e-12)
    m = op.norm_bound
    for h in (1e-1, 1e-2, 1e-3, 1e-4):
        for x in canonical_probes()[:8]:
            res = generator_residual(ev, h, x)
            bound = core.norm(x) * (math.exp(h * m) - 1.0 - h * m) / h
            assert res <= bound + 1e-6


def test_generator_residual_validates():
    ev = SemigroupEvaluator(identity(), "exp", 1e-9)
    with pytest.raises(ValueError):
        generator_residual(ev, 0.0, X)
    ch = SemigroupEvaluator(identity(), "cosh", 1e-9)
    with pytest.raises(ValueError):
        generator_residual(ch, 0.1, X)


def test_evaluator_validates():
    with pytest.raises(ValueError):
        SemigroupEvaluator(identity(), "bogus", 1e-9)
    with pytest.raises(ValueError):
        SemigroupEvaluator(identity(), "exp", 0.0)
