"""The exact flows of matrix, scale and builtin operators against independent references.

`SemigroupEvaluator` (the literal series) is the oracle at tol 1e-12, the
levelwise endpoint ODE integrated with RK4 is a second one for t >= 0, and
math.exp / math.cos give the long-horizon closed forms that the truncated
series misses.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fuzzsemi import cauchy, core, semigroup
from fuzzsemi.cauchy import CauchyProblem, residual_check, solve_first_order, solve_second_order
from fuzzsemi.errors import NoApplicableForm, SeriesOverflow, SpaceMismatch
from fuzzsemi.operators import BUILTIN_NAMES, LinearOperator, builtin, lift_matrix, mu_coeff, random_fuzzy, scale_operator
from fuzzsemi.semigroup import MatrixFlow, RankOneFlow, SemigroupEvaluator, propagator
from fuzzsemi.spaces import FuzzyFunction, ProductElement, pair

import helpers

EPS = float(np.finfo(float).eps)
ROTATION = ((0.0, 1.0), (-1.0, 0.0))
U0 = core.make_triangular(0, 1, 2)
V0 = core.make_triangular(1, 2, 3)


def _random_case(rng, k, m_levels=16):
    """A mixed-sign k x k matrix with norm in [0.2, 2] and a state for it:
    a fuzzy number under scale(a) for k = 1, else a k-component product."""
    while True:
        a = rng.uniform(-1.0, 1.0, (k, k))
        if k == 1 or ((a < 0).any() and (a > 0).any()):
            break
    a *= rng.uniform(0.2, 2.0) / np.abs(a).sum(axis=1).max()
    if k == 1:
        return scale_operator(a[0, 0]), random_fuzzy(rng, m_levels)
    return lift_matrix(a), ProductElement(tuple(random_fuzzy(rng, m_levels) for _ in range(k)))


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_flow_agrees_with_series(kind):
    rng = np.random.default_rng(7)
    tol = 1e-12
    times = [-1.7, -0.6, -1e-3, 0.0, 0.4, 1.1, 2.0]
    for k in (1, 1, 2, 2, 3, 3, 4, 4):
        op, x = _random_case(rng, k)
        got = MatrixFlow(op, kind).evaluate(times, x)
        want = SemigroupEvaluator(op, kind, tol).evaluate(times, x)
        for t, g, w in zip(times, got, want):
            # the series' truncation guarantee plus a rounding allowance for
            # terms as large as e^{|t| M} ||x||
            bound = tol * max(1.0, core.norm(x)) + 64 * EPS * math.exp(abs(t) * op.norm_bound) * core.norm(x)
            assert core.distance(g, w) <= bound, (k, t)
    # a 1 x 1 lifted matrix on a one-component product is the scale operator
    a, u = -1.3, random_fuzzy(rng, 16)
    one = MatrixFlow(lift_matrix([[a]]), kind).evaluate(times, ProductElement((u,)))
    for w, s in zip(one, MatrixFlow(scale_operator(a), kind).evaluate(times, u)):
        assert np.array_equal(w.ends[0], s.ends)


def test_scale_flow_acts_on_every_leaf():
    xs = np.linspace(0.0, 1.0, 5)
    f = FuzzyFunction(xs, tuple(core.scalar_mul(float(x), U0) for x in xs))
    op = scale_operator(-0.8)
    for kind in ("exp", "cosh"):
        got = MatrixFlow(op, kind).at(1.5, f)
        want = SemigroupEvaluator(op, kind, 1e-13).at(1.5, f)
        assert isinstance(got, FuzzyFunction) and core.distance(got, want) <= 1e-12


def _endpoint_generator(matrix):
    # lower' = A+ lower + A- upper, upper' = A- lower + A+ upper
    a = np.asarray(matrix, dtype=float)
    ap, am = np.maximum(a, 0.0), np.minimum(a, 0.0)
    return np.block([[ap, am], [am, ap]])


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_flow_matches_endpoint_rk4(kind):
    rng = np.random.default_rng(11)
    for k in (2, 3):
        op, w = _random_case(rng, k)
        gen = _endpoint_generator(op.matrix)
        y0 = np.concatenate([w.ends[:, 0, :], w.ends[:, 1, :]])
        if kind == "exp":
            ref = helpers.rk4(lambda _, y: gen @ y, y0, 1.0, steps=800)
        else:  # (y, y')' = (y', gen y) with y'(0) = 0
            n = len(y0)
            ref = helpers.rk4(lambda _, y: np.concatenate([y[n:], gen @ y[:n]]),
                              np.concatenate([y0, np.zeros_like(y0)]), 1.0, steps=800)[:n]
        got = MatrixFlow(op, kind).at(1.0, w)
        assert np.abs(np.concatenate([got.ends[:, 0, :], got.ends[:, 1, :]]) - ref).max() <= 1e-8
        if kind == "cosh":  # and with y'(0) = v: the velocity read from the same matrix
            v = ProductElement(tuple(random_fuzzy(rng, 16) for _ in range(k)))
            dy0 = np.concatenate([v.ends[:, 0, :], v.ends[:, 1, :]])
            ref = helpers.rk4(lambda _, y: np.concatenate([y[n:], gen @ y[:n]]),
                              np.concatenate([y0, dy0]), 1.0, steps=800)[:n]
            got = MatrixFlow(op, kind, forced=True).evaluate([1.0], w, v)[0]
            assert np.abs(np.concatenate([got.ends[:, 0, :], got.ends[:, 1, :]]) - ref).max() <= 1e-8


@pytest.mark.parametrize("factor, t", [(-5.0, 8.0), (-5.0, 4.0), (-3.0, 12.0)])
def test_long_horizon_decay_matches_exp(factor, t):
    problem = CauchyProblem(scale_operator(factor), core.crisp(1.0), horizon=t, tol=1e-9)
    last = solve_first_order(problem, np.array([0.0, t])).states[-1]
    want = math.exp(factor * t)
    assert core.is_crisp(last)
    assert last.lower[0] == pytest.approx(want, rel=1e-12)


def test_long_horizon_rotation_matches_cos_sin():
    w0 = pair(core.crisp(1.0), core.crisp(0.0))
    problem = CauchyProblem(lift_matrix(ROTATION), w0, horizon=40.0, tol=1e-9)
    last = solve_first_order(problem, np.array([0.0, 40.0])).states[-1]
    assert abs(last[0].lower[0] - math.cos(40.0)) <= 1e-12
    assert abs(last[1].lower[0] + math.sin(40.0)) <= 1e-12


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_each_time_equals_its_own_evaluation(kind):
    rng = np.random.default_rng(3)
    # zero, tiny, negative and large times: squarings from 0 to 7 in one batch
    times = [0.0, 1e-300, -2.5, 0.3, 7.0, -0.001, 19.0, 1.0]
    for k in (1, 2, 3):
        op, x = _random_case(rng, k)
        flow = MatrixFlow(op, kind)
        batch = flow.evaluate(times, x)
        for t, state in zip(times, batch):
            assert np.array_equal(flow.at(t, x).ends, state.ends), (k, t)
        # t = 0 gives x itself; so does t = 1e-300 where both matrices round to
        # the identity: under a scale, and for cosh (t^2 underflows)
        assert batch[0] is x and (batch[1] is x) == (k == 1 or kind == "cosh")


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_overflow_raises_without_warning(kind):
    cases = (
        (scale_operator(1e6), core.crisp(0.0), 1.0),  # whatever x is
        (scale_operator(-1e6), U0, 1.0),
        (scale_operator(2.0), core.crisp(1.0), 1e300),
        (lift_matrix(ROTATION), pair(core.crisp(1.0), core.crisp(0.0)), -1e6),  # rad(t) overflows for crisp data
        (scale_operator(1.0), core.crisp(1.5e308), 1.0),  # finite matrices, the image overflows
    )
    for op, x, t in cases:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SeriesOverflow, match="shorten the horizon"):
                MatrixFlow(op, kind).evaluate([0.5, t], x)
        assert not seen, [str(w.message) for w in seen]


def test_flow_checks_the_domain_first():
    flow = MatrixFlow(lift_matrix(ROTATION))
    with pytest.raises(SpaceMismatch):
        flow.at(1.0, U0)  # a scalar state under a 2 x 2 matrix
    with pytest.raises(SpaceMismatch):
        MatrixFlow(scale_operator(2.0)).at(1.0, 3.0)
    with pytest.raises(ValueError):
        flow.at(math.inf, pair(U0, V0))


def test_flow_needs_a_matrix_and_a_known_kind():
    with pytest.raises(ValueError, match="carries no matrix"):
        MatrixFlow(builtin("A1"))
    with pytest.raises(ValueError):
        MatrixFlow(scale_operator(1.0), "sinh")
    with pytest.raises(ValueError):
        LinearOperator(lambda x: x, 1.0, matrix=[[1.0, 2.0]])
    assert builtin("A1").matrix is None and lift_matrix(ROTATION).matrix.shape == (2, 2)
    assert scale_operator(-2.0).matrix.tolist() == [[-2.0]]
    # the matrix is data of the operator, not part of its identity
    assert "matrix" not in repr(scale_operator(2.0))


def test_worked_systems_reach_rounding_level():
    w0 = pair(U0, V0)
    times = np.linspace(0.0, 2.0, 9)
    traj4 = solve_first_order(CauchyProblem(lift_matrix(cauchy.SWAP_MATRIX), w0, horizon=2.0), times)
    traj5 = solve_first_order(CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0, horizon=2.0), times)
    traj6 = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0, initial_velocity=core.zero_like(w0), horizon=2.0),
        times,
    )
    for traj, closed in ((traj4, cauchy.problem4_closed_form), (traj5, cauchy.problem5_closed_form),
                         (traj6, cauchy.problem6_closed_form)):
        for t, st in zip(traj.times, traj.states):
            assert core.distance(st, closed(U0, V0, float(t))) <= 1e-13 * max(1.0, core.norm(st))


def test_forced_flow_matches_closed_form_for_negative_factor():
    # u' = a u + g: e^{at} mid0 + (e^{at} - 1)/a mid_g, e^{|a|t} rad0 + (e^{|a|t} - 1)/|a| rad_g
    a, g = -1.5, core.make_triangular(-0.5, 0.2, 0.8)
    problem = CauchyProblem(scale_operator(a), U0, forcing=lambda s: g, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, np.linspace(0.0, 1.0, 5))
    for t, st in zip(traj.times, traj.states):
        t = float(t)
        mid = math.exp(a * t) * 0.5 * (U0.lower + U0.upper) + math.expm1(a * t) / a * 0.5 * (g.lower + g.upper)
        rad = math.exp(-a * t) * 0.5 * (U0.upper - U0.lower) + math.expm1(-a * t) / -a * 0.5 * (g.upper - g.lower)
        assert np.abs(st.lower - (mid - rad)).max() <= 1e-9
        assert np.abs(st.upper - (mid + rad)).max() <= 1e-9


def test_residual_check_names_the_first_failing_time():
    # constant before 0.45 (every quotient is 0), twisted after it, where no
    # orientation of the one-sided difference has nested level sets
    r = core.level_grid(8)

    def state(t):
        t = float(t)
        if t < 0.45:
            return core.FuzzyNumber(r, r, 4.0 - r)
        return core.FuzzyNumber(r, (1.0 + t) * r, 4.0 - (1.0 - t / 2.0) * r)

    traj = cauchy.Trajectory(np.array([0.0, 1.0]), (state(0.0), state(1.0)), lambda ts: [state(t) for t in ts])
    zero = LinearOperator(core.zero_like, 0.0)
    assert residual_check(traj, zero, h=0.1, times=[0.3]) == 0.0
    with pytest.raises(NoApplicableForm, match=r"t = 0\.6$"):
        residual_check(traj, zero, h=0.1, times=[0.3, 0.6, 0.9])


# ---------------------------------------------------------------------------
# the rank-one flow of the builtins


def _rank_one_cases():
    """Every builtin, the ones scaling c under constants of both signs and a
    crisp one (A2 and A3 then have M = 0), each with the (mu_+, mu_-) it sees."""
    constants = (U0, core.make_triangular(-2, -1, 0.5, 7), core.make_triangular(-3, -2, -1), core.crisp(1.5))
    for name in BUILTIN_NAMES:
        for c in constants[: 1 if name in ("A1", "A4", "A5") else None]:  # these ignore c
            if not (name.startswith("Remark") and mu_coeff(c) <= 0.0):
                op = builtin(name, c)
                phi, c = op.rank_one
                yield op, (phi(c), phi(core.scalar_mul(-1.0, c)))


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_rank_one_flow_agrees_with_series(kind):
    tol = 1e-12
    times = [-2.0, -0.7, -1e-3, 0.0, 0.4, 1.5, 3.0]
    xs = (core.make_triangular(-1, 0.5, 3, 5), core.make_triangular(1, 2, 4, 5))
    xs += (*(core.scalar_mul(-1.0, x) for x in xs), core.crisp(2.0))  # phi(crisp) = 0 under a spread
    phi_signs, mu_minus_signs = set(), set()
    for op, (_, mu_minus) in _rank_one_cases():
        mu_minus_signs.add(np.sign(mu_minus))
        flow, series = RankOneFlow(op, kind), SemigroupEvaluator(op, kind, tol)
        for x in xs:
            phi_signs.add(np.sign(op.rank_one[0](x)))
            for t, g, w in zip(times, flow.evaluate(times, x), series.evaluate(times, x)):
                # the series' truncation guarantee plus a rounding allowance for
                # terms as large as e^{|t| M} ||x||
                bound = tol * max(1.0, core.norm(x)) + 64 * EPS * math.exp(abs(t) * op.norm_bound) * core.norm(x)
                assert core.distance(g, w) <= bound, (op.name, t)
    assert phi_signs == mu_minus_signs == {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_rank_one_each_time_equals_its_own_evaluation(kind):
    times = [0.0, 1e-300, -2.5, 0.3, 7.0, -0.001, 19.0, 1.0]
    x = core.make_triangular(-1, 0.5, 3, 5)
    for op, _ in _rank_one_cases():
        flow = RankOneFlow(op, kind)
        batch = flow.evaluate(times, x)
        for t, state in zip(times, batch):
            assert np.array_equal(flow.at(t, x).ends, state.ends), (op.name, t)
        assert batch[0] is x  # t = 0 gives x itself


def test_rank_one_flow_checks_the_domain_first():
    flow = RankOneFlow(builtin("A1"))
    with pytest.raises(SpaceMismatch):
        flow.at(1.0, pair(U0, V0))
    with pytest.raises(SpaceMismatch):
        flow.at(1.0, 3.0)
    with pytest.raises(ValueError):
        flow.at(math.inf, U0)
    with pytest.raises(ValueError, match="not rank one"):
        RankOneFlow(scale_operator(1.0))
    with pytest.raises(ValueError):
        RankOneFlow(builtin("A1"), "sinh")
    assert scale_operator(1.0).rank_one is None and lift_matrix(ROTATION).rank_one is None


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_rank_one_overflow_raises_without_warning(kind):
    big = core.make_triangular(1e308, 1.5e308, 1.7e308)
    cases = (
        (builtin("A1"), big, 0.5, "shorten the horizon"),  # phi(x) itself overflows
        (builtin("A4"), core.crisp(1.5e308), 1.0, "shorten the horizon"),  # the image overflows
        (builtin("A1"), core.crisp(1.0), 800.0, "shorten the horizon"),  # e^{1600}, cosh(800 sqrt 2)
        (builtin("RemarkA", U0), U0, 1500.0, "shorten the horizon"),
        (builtin("A2", core.make_triangular(-8.9e307, -8.9e307, 8.9e307)), U0, 1.0, "reduce c"),  # phi(c)
    )
    for op, x, t, message in cases:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SeriesOverflow, match=message):
                RankOneFlow(op, kind).evaluate([0.5, t], x)
        assert not seen, [str(w.message) for w in seen]


# ---------------------------------------------------------------------------
# the forced flows: u' = Au + g with a constant g


def _forced_cases():
    rng = np.random.default_rng(5)
    g = core.make_triangular(-0.5, 0.2, 0.8, 16)
    yield scale_operator(-1.5), U0, g
    yield lift_matrix(ROTATION), pair(U0, V0), pair(g, core.crisp(0.25))
    yield _random_case(rng, 3)[0], *(ProductElement(tuple(random_fuzzy(rng, 16) for _ in range(3))) for _ in range(2))
    for op, _ in _rank_one_cases():
        yield op, core.make_triangular(-1, 0.5, 3, 5), g


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_forced_flow_each_time_equals_its_own_evaluation(kind):
    times = [0.0, 1e-300, 0.3, 7.0, 0.001, 1.0]
    for op, x, g in _forced_cases():
        flow = (MatrixFlow if op.matrix is not None else RankOneFlow)(op, kind, forced=True)
        batch = flow.evaluate(times, x, g)
        for t, state in zip(times, batch):
            assert np.array_equal(flow.evaluate([t], x, g)[0].ends, state.ends), (op.name, t)
        assert batch[0] is x  # t = 0 gives x itself


def test_forced_flow_without_forcing_is_the_flow():
    # g = 0 adds 0 to the Duhamel part: the forced flow then agrees with the flow to rounding
    times = [0.0, 0.3, 2.0]
    for op, x, g in _forced_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        forced = cls(op, forced=True).evaluate(times, x, core.zero_like(g))
        for a, b in zip(forced, cls(op).evaluate(times, x)):
            assert core.distance(a, b) <= 1e-13 * max(1.0, core.norm(b))


def test_forced_flow_validates_its_arguments():
    flow = MatrixFlow(scale_operator(1.0), forced=True)
    with pytest.raises(ValueError, match="forcing"):
        flow.evaluate([1.0], U0)
    with pytest.raises(ValueError, match="forcing"):
        MatrixFlow(scale_operator(1.0)).evaluate([1.0], U0, V0)
    with pytest.raises(ValueError, match=">= 0"):
        flow.evaluate([0.5, -0.5], U0, V0)
    with pytest.raises(SpaceMismatch):
        RankOneFlow(builtin("A1"), forced=True).evaluate([1.0], U0, pair(U0, V0))
    with pytest.raises(SpaceMismatch):
        MatrixFlow(lift_matrix(ROTATION), forced=True).evaluate([1.0], pair(U0, V0), U0)
    with pytest.raises(SpaceMismatch):
        flow.evaluate([1.0], U0, pair(U0, V0))  # a scale acts on any element, but x and g share one space


# ---------------------------------------------------------------------------
# one flow per operator, and one exponential where both are the same


def _flow_cases():
    """Operators with a flow, a state for each and whether the generator has a
    negative entry: every builtin, scale(+-1.5), problem4's swap and a
    mixed-sign matrix."""
    for op, _ in _rank_one_cases():
        yield op, core.make_triangular(-1, 0.5, 3, 5), False
    yield scale_operator(1.5), U0, False
    yield scale_operator(-1.5), U0, True
    yield lift_matrix(cauchy.SWAP_MATRIX), pair(U0, V0), False
    yield *_random_case(np.random.default_rng(13), 3), True


@pytest.mark.parametrize("kind", ["exp", "cosh"])
def test_flow_at_all_zero_times_forms_no_exponential(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(semigroup, "_expm", lambda *a, real=semigroup._expm: calls.append(a) or real(*a))
    for op, x, _ in _flow_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        for forced in (False, True):
            flow, args = cls(op, kind, forced), (x, x) if forced else (x,)
            assert all(u is x for u in flow.evaluate([0.0, -0.0, 0.0], *args)) and not calls, op.name
            # a nonzero time forms one; its state is a fresh read-only leaf (on x's grids, for a matrix)
            first, later = flow.evaluate([0.0, 0.5], *args)
            assert first is x and len(calls) == 1, op.name
            assert type(later) is type(x) and not later.ends.flags.writeable
            assert later.levels is x.levels or op.matrix is None
            calls.clear()
            if op.domain != "any":  # the domain is still checked first
                wrong = pair(U0, V0) if op.domain == "fuzzy" else U0
                with pytest.raises(SpaceMismatch):
                    flow.evaluate([0.0], *(wrong for _ in args))


def test_second_solve_builds_no_flow(monkeypatch):
    built = []
    for cls in (MatrixFlow, RankOneFlow):
        monkeypatch.setattr(cls, "_real_matrix", lambda self, real=cls._real_matrix: built.append(self) or real(self))
    g = core.make_triangular(-0.5, 0.2, 0.8)
    for op, x in ((builtin("RemarkA", U0), U0), (scale_operator(-1.5), U0)):
        problems = (CauchyProblem(op, x), CauchyProblem(op, x, forcing=lambda s: g),
                    CauchyProblem(op, x, initial_velocity=g))
        for problem in problems:
            solve = solve_second_order if problem.initial_velocity is not None else solve_first_order
            first = solve(problem)
            count = len(built)
            again = solve(problem)
            assert len(built) == count, op.name
            for a, b in zip(first.states, again.states, strict=True):
                assert a.ends.tobytes() == b.ends.tobytes()
    # exp, forced exp and forced cosh: three flows per operator, each built once
    assert len(built) == 2 * 3 and len({id(f) for f in built}) == len(built)


def test_memoised_flow_matches_a_fresh_one_bit_for_bit():
    times = [0.0, 0.3, 1.0, 2.5]
    for op, x, _ in _flow_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        for kind in ("exp", "cosh"):
            assert semigroup._flow(op, kind) is semigroup._flow(op, kind)
            memo = propagator(op, kind)([-1.0, *times], x, [1e-9] * 5)
            fresh = cls(op, kind).evaluate([-1.0, *times], x)
            memo += propagator(op, kind)(times, x, [1e-9] * 4, x)
            fresh += cls(op, kind, forced=True).evaluate(times, x, x)
            for a, b in zip(memo, fresh, strict=True):
                assert a.ends.tobytes() == b.ends.tobytes(), (op.name, kind)


def test_replaced_matrix_gets_its_own_flow():
    swap = lift_matrix(cauchy.SWAP_MATRIX)
    rotation = dataclasses.replace(swap, matrix=ROTATION)
    assert rotation == swap  # equality ignores the matrix, so the memo is keyed by instance
    w0 = pair(U0, V0)
    for kind in ("exp", "cosh"):
        propagator(swap, kind)([1.0], w0, [1e-9])  # fill the first operator's memo
        got = propagator(rotation, kind)([1.0], w0, [1e-9])[0]
        assert got.ends.tobytes() == MatrixFlow(rotation, kind).at(1.0, w0).ends.tobytes()
        assert got.ends.tobytes() != MatrixFlow(swap, kind).at(1.0, w0).ends.tobytes()
    assert not set(map(id, swap._flows.values())) & set(map(id, rotation._flows.values()))


def test_flow_powers_are_read_only_and_matrices_fresh():
    for op, _, _ in _flow_cases():
        flow = semigroup._flow(op, "exp", forced=True)
        assert not flow._powers.flags.writeable
        with pytest.raises(ValueError):
            flow._powers[...] = 0.0
        first = flow.matrices([0.5, 1.0])
        assert first.flags.writeable and not np.shares_memory(first, flow._powers)
        want = first.copy()
        first[...] = np.nan
        assert np.array_equal(flow.matrices([0.5, 1.0]), want)


@pytest.mark.parametrize("kind", ["exp", "cosh"])
@pytest.mark.parametrize("forced", [False, True])
def test_one_exponential_matches_the_stacked_pair_bit_for_bit(kind, forced):
    # a generator with no sign bit set is its own absolute value: one set of powers, and
    # one exponential where the taus agree too; the stacked pair of powers is the reference
    times = [0.0, 1e-300, 0.3, 1.0, 4.0, 19.0]
    if not forced:
        times += [-2.5, -0.001]
    for op, x, signed in _flow_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        flow, stacked = cls(op, kind, forced), cls(op, kind, forced)
        assert len(flow._powers) == 1 + signed, op.name
        stacked.__dict__["_powers"] = np.array(np.broadcast_to(flow._powers, (2, *flow._powers.shape[1:])))
        assert flow.matrices(times).tobytes() == stacked.matrices(times).tobytes(), (op.name, kind)
        args = (times, x, x) if forced else (times, x)
        for a, b in zip(flow.evaluate(*args), stacked.evaluate(*args), strict=True):
            assert a.ends.tobytes() == b.ends.tobytes(), (op.name, kind)
