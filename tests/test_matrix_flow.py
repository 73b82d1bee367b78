"""The exact flows of matrix, scale and builtin operators against independent references.

`SemigroupEvaluator` (the literal series) is the oracle at tol 1e-12, the
levelwise endpoint ODE integrated with RK4 is a second one for t >= 0, and
math.exp / math.cos give the long-horizon closed forms that the truncated
series misses.
"""

import dataclasses
import math
import sys
import threading
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
FORCED = {"exp": "forced_exp", "cosh": "cosh"}  # the generator that takes a constant input, per kind
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
            got = MatrixFlow(op, kind).evaluate([1.0], w, v)[0]
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
        flow = (MatrixFlow if op.matrix is not None else RankOneFlow)(op, FORCED[kind])
        batch = flow.evaluate(times, x, g)
        for t, state in zip(times, batch):
            assert np.array_equal(flow.evaluate([t], x, g)[0].ends, state.ends), (op.name, t)
        assert batch[0] is x  # t = 0 gives x itself


def test_forced_flow_without_forcing_is_the_flow():
    # g = 0 adds 0 to the Duhamel part, and no g reads the first k columns alone:
    # the forced flow then agrees with the flow to rounding
    times = [0.0, 0.3, 2.0]
    for op, x, g in _forced_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        forced = cls(op, "forced_exp")
        for got in (forced.evaluate(times, x, core.zero_like(g)), forced.evaluate(times, x)):
            for a, b in zip(got, cls(op).evaluate(times, x), strict=True):
                assert core.distance(a, b) <= 1e-13 * max(1.0, core.norm(b))


def test_forced_flow_validates_its_arguments():
    flow = MatrixFlow(scale_operator(1.0), "forced_exp")
    for op in (scale_operator(1.0), builtin("A1")):  # a generator without input columns takes no g
        with pytest.raises(ValueError, match="constant input"):
            (MatrixFlow if op.matrix is not None else RankOneFlow)(op).evaluate([1.0], U0, V0)
    # the constant-input contract is the propagator's, for every operator
    for op in (scale_operator(1.0), builtin("A1"), helpers.bare(scale_operator(1.0))):
        for kind, times in (("exp", [0.5, -0.5]), ("cosh", [-1e-300]), ("exp", [math.nan]), ("sinh", [1.0])):
            with pytest.raises(ValueError, match=">= 0"):
                propagator(op, kind)(times, U0, [1e-9] * len(times), V0)
    with pytest.raises(SpaceMismatch):
        RankOneFlow(builtin("A1"), "forced_exp").evaluate([1.0], U0, pair(U0, V0))
    with pytest.raises(SpaceMismatch):
        MatrixFlow(lift_matrix(ROTATION), "forced_exp").evaluate([1.0], pair(U0, V0), U0)
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
        for generator, args in ((kind, (x,)), (FORCED[kind], (x, x))):
            flow = cls(op, generator)  # a fresh flow, with an empty memo, each time
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


def _exponentials_formed(monkeypatch) -> list:
    """A list that gains, for every `_expm` call from now on, the number of times it forms."""
    formed = []
    monkeypatch.setattr(semigroup, "_expm", lambda powers, taus, real=semigroup._expm:
                        formed.append(taus.shape[-1]) or real(powers, taus))
    return formed


def test_second_solve_builds_no_flow(monkeypatch):
    built, formed = [], _exponentials_formed(monkeypatch)
    for cls in (MatrixFlow, RankOneFlow):
        monkeypatch.setattr(cls, "_real_matrix", lambda self, real=cls._real_matrix: built.append(self) or real(self))
    g = core.make_triangular(-0.5, 0.2, 0.8)
    for op, x in ((builtin("RemarkA", U0), U0), (scale_operator(-1.5), U0)):
        problems = (CauchyProblem(op, x), CauchyProblem(op, x, forcing=lambda s: g),
                    CauchyProblem(op, x, initial_velocity=g))
        for problem in problems:
            solve = solve_second_order if problem.initial_velocity is not None else solve_first_order
            first = solve(problem)
            count, items = len(built), sum(formed)
            again = solve(problem)
            # the same grid again forms no flow and no exponential
            assert len(built) == count and sum(formed) == items, op.name
            for a, b in zip(first.states, again.states, strict=True):
                assert a.ends.tobytes() == b.ends.tobytes()
            if solve is solve_first_order:  # the residual forms t + h and t - h, and reads t from the memo
                residual_check(first, op, problem.forcing, h=1e-3)
                assert sum(formed) == items + 2 * (len(first.times) - 2), op.name
            # a fresh operator forms every time of the grid
            formed.clear()
            fresh = solve(dataclasses.replace(problem, operator=dataclasses.replace(op)))
            assert sum(formed) == len(first.times) and fresh.states[-1].ends.tobytes() == first.states[-1].ends.tobytes()
    # exp, forced exp and cosh: three flows per operator and one per fresh copy, each built once
    assert len(built) == 2 * (3 + 3) and len({id(f) for f in built}) == len(built)


def test_cosh_velocity_and_sinh_share_one_flow(monkeypatch):
    # one generator: the unforced cosh solve, the velocity solve and sinh read one flow's matrices
    built, formed = [], _exponentials_formed(monkeypatch)
    for cls in (MatrixFlow, RankOneFlow):
        monkeypatch.setattr(cls, "_real_matrix", lambda self, real=cls._real_matrix: built.append(self) or real(self))
    grid, v = np.linspace(0.0, 1.5, 7), core.make_triangular(-0.5, 0.2, 0.8)
    for op, x in ((builtin("RemarkA", U0), U0), (scale_operator(-1.5), U0), (lift_matrix(ROTATION), pair(U0, V0))):
        built.clear()
        formed.clear()
        velocity = v if op.matrix is None or len(op.matrix) == 1 else pair(v, V0)
        free = solve_second_order(CauchyProblem(op, x, initial_velocity=core.zero_like(x)), grid)
        moving = solve_second_order(CauchyProblem(op, x, initial_velocity=velocity), grid)
        sinh = propagator(op, "sinh")(grid, x, [1e-9] * len(grid))
        assert len(built) == 1 and built[0].kind == "cosh" and op._flows == {"cosh": built[0]}, op.name
        assert sum(formed) == len(grid), op.name
        # each against a fresh flow of its own
        cosh = MatrixFlow if op.matrix is not None else RankOneFlow
        for got, want in ((free.states, cosh(op, "cosh").evaluate(grid, x)),
                          (moving.states, cosh(op, "cosh").evaluate(grid, x, velocity)),
                          (sinh, [op(u) if t else core.zero_like(x)
                                  for t, u in zip(grid, cosh(op, "cosh").evaluate(grid, core.zero_like(x), x))])):
            assert [u.ends.tobytes() for u in got] == [u.ends.tobytes() for u in want], op.name


def test_matrix_sinh_maps_every_time_in_one_pass(monkeypatch):
    # sinh of an operator with a matrix maps the cosh flow's batch of integrals in one
    # `matrix_image` pass, each image bit-identical to its own operator call; a rank-one map
    # is called once per time
    calls = []
    call = LinearOperator.__call__
    monkeypatch.setattr(LinearOperator, "__call__", lambda self, x: calls.append(x) or call(self, x))
    times = [0.0, -0.0, 1e-300, 0.3, -0.7, 1.0, 2.5]
    for op, x, _ in _flow_cases():
        calls.clear()
        got = propagator(op, "sinh")(times, x, [1e-9] * len(times))
        assert len(calls) == (0 if op.matrix is not None else len(times)), op.name
        zero = core.zero_like(x)
        for t, u in zip(times, got):
            (v,) = (MatrixFlow if op.matrix is not None else RankOneFlow)(op, "cosh").evaluate([abs(t)], zero, x)
            want = zero if t == 0.0 else call(op, v) if t > 0.0 else core.scalar_mul(-1.0, call(op, v))
            assert u.ends.tobytes() == want.ends.tobytes(), (op.name, t)
            assert semigroup.sinh_apply(op, t, x).ends.tobytes() == want.ends.tobytes(), (op.name, t)


def _memo_bytes(flow) -> int:
    return sum(entry.nbytes for entry in flow._memo.values())


def test_memo_keeps_to_its_byte_budget(monkeypatch):
    formed = _exponentials_formed(monkeypatch)
    flow = MatrixFlow(scale_operator(-1.5))  # a signed 1 x 1 base: one entry is 2 x 1 x 1 doubles
    monkeypatch.setattr(semigroup, "_MEMO_BYTES", 4 * 16)
    keys = lambda *ts: np.array(ts).view(np.uint64).tolist()
    for times, kept, new in (([0.1, 0.2, 0.3], (0.1, 0.2, 0.3), 3),
                             ([0.1, 0.4], (0.1, 0.2, 0.3, 0.4), 1),  # fills the budget exactly
                             ([0.2, 0.5], (0.5,), 1),  # would pass it: cleared first
                             ([0.5, 0.6, 0.7, 0.8], (0.5, 0.6, 0.7, 0.8), 3),
                             ([1.0, 1.1, 1.2, 1.3, 1.4], (0.5, 0.6, 0.7, 0.8), 5),  # past the budget: not kept
                             ([0.8, 0.6, 0.8], (0.5, 0.6, 0.7, 0.8), 0),
                             ([0.9, 0.9], (0.9,), 1)):
        want = MatrixFlow(flow.operator).matrices(times).tobytes()
        formed.clear()
        assert flow.matrices(times).tobytes() == want
        assert sum(formed) == new and list(flow._memo) == keys(*kept), times
        assert _memo_bytes(flow) <= semigroup._MEMO_BYTES


# overlapping, repeated and mixed cached and new batches, with +-0.0 and negative times; then
# every time at once, shuffled, and nothing
_MEMO_BATCHES = ([0.3, 1.0], [1.0, 0.3, 2.5, 1.0], [0.0, -0.0, 2.5, -1.0, 0.0], [-1.0, 4.0, 1e-300, -0.0, -2.5])
_MEMO_BATCHES += (list(np.random.default_rng(5).permutation(sum(_MEMO_BATCHES, []))), [])


def test_memoised_flow_matches_a_fresh_one_bit_for_bit():
    for op, x, _ in _flow_cases():
        cls = MatrixFlow if op.matrix is not None else RankOneFlow
        for kind in ("exp", "cosh"):
            assert semigroup._flow(op, kind) is semigroup._flow(op, kind)
            for forced in (False, True):
                generator = FORCED[kind] if forced else kind
                flow = semigroup._flow(op, generator)
                for times in _MEMO_BATCHES:
                    got, want = flow.matrices(times), cls(op, generator).matrices(times)
                    assert got.shape == (2, len(times), flow._k, flow._width)
                    assert got.tobytes() == want.tobytes(), (op.name, kind, forced, times)
                    # the states of the memoised map against a fresh flow's (a forced one at |t|)
                    times = [abs(t) for t in times] if forced else times
                    args = (times, x, x) if forced else (times, x)
                    memo = propagator(op, kind)(*args[:2], [1e-9] * len(times), *args[2:])
                    fresh = cls(op, generator).evaluate(*args)
                    for a, b in zip(memo, fresh, strict=True):
                        assert a.ends.tobytes() == b.ends.tobytes(), (op.name, kind, forced, times)


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
        flow = semigroup._flow(op, "forced_exp")
        assert not flow._powers.flags.writeable
        with pytest.raises(ValueError):
            flow._powers[...] = 0.0
        first = flow.matrices([0.5, 1.0])
        assert first.flags.writeable and not np.shares_memory(first, flow._powers)
        want = first.copy()
        first[...] = np.nan
        assert np.array_equal(flow.matrices([0.5, 1.0]), want)
        # the memo's entries are read-only, and no returned stack shares memory with them
        again = flow.matrices([1.0, 0.5, 1.0])
        assert again.flags.writeable and len(flow._memo) == 2
        for entry in flow._memo.values():
            assert not entry.flags.writeable and not np.shares_memory(again, entry)
            with pytest.raises(ValueError):
                entry[...] = 0.0
        assert flow.matrices([]).shape == (2, 0, flow._k, flow._width)


def test_concurrent_evaluation_matches_the_serial_one(monkeypatch):
    # 4 threads on one flow over overlapping grids, with a budget that clears the memo often
    op, _ = _random_case(np.random.default_rng(17), 3)
    grids = [list(np.arange(-4 + i, 8 + i) * 0.125) for i in range(8)]
    want = [MatrixFlow(op).matrices(grid).tobytes() for grid in grids]
    flow = MatrixFlow(op)
    monkeypatch.setattr(semigroup, "_MEMO_BYTES", 16 * flow.matrices([0.0]).nbytes)
    errors, done = [], []

    def work(shift):
        try:
            for j in range(200):
                i = (shift + 3 * j) % len(grids)
                if flow.matrices(grids[i]).tobytes() != want[i]:
                    errors.append((shift, i))
            done.append(shift)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and sorted(done) == [0, 1, 2, 3]


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
        generator = FORCED[kind] if forced else kind
        flow, stacked = cls(op, generator), cls(op, generator)
        assert len(flow._powers) == 1 + signed, op.name
        stacked.__dict__["_powers"] = np.array(np.broadcast_to(flow._powers, (2, *flow._powers.shape[1:])))
        assert flow.matrices(times).tobytes() == stacked.matrices(times).tobytes(), (op.name, kind)
        args = (times, x, x) if forced else (times, x)
        for a, b in zip(flow.evaluate(*args), stacked.evaluate(*args), strict=True):
            assert a.ends.tobytes() == b.ends.tobytes(), (op.name, kind)
