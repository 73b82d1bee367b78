import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

from fuzzsemi import cauchy, cli, core, semigroup
from fuzzsemi.cauchy import (
    CauchyProblem,
    Trajectory,
    fuzziness_residual,
    naive_problem5_formula,
    problem4_closed_form,
    problem5_closed_form,
    problem6_closed_form,
    residual_check,
    solve_first_order,
    solve_second_order,
    solve_wave,
)
from fuzzsemi.errors import (
    FuzzsemiError,
    HDifferenceError,
    MissingDerivativeBound,
    NegativeForcedTime,
    NoApplicableForm,
    QuadratureStall,
    SeriesOverflow,
    SpaceMismatch,
)
from fuzzsemi.operators import (
    BUILTIN_NAMES,
    LinearOperator,
    builtin,
    compose,
    identity,
    lift_matrix,
    scale_operator,
    zero_operator,
)
from fuzzsemi.semigroup import MatrixFlow, SemigroupEvaluator, generator_pair_closed_form, propagator
from fuzzsemi.spaces import FuzzyFunction, ProductElement, pair

import helpers


U0 = core.make_triangular(0, 1, 2)
V0 = core.make_triangular(1, 2, 3)
C = core.make_triangular(0, 1, 2)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_stall(monkeypatch):
    monkeypatch.setattr(cauchy, "_QUAD_MAX_INTERVALS", 1)
    problem = CauchyProblem(
        zero_operator(), core.crisp(0.0), forcing=lambda s: core.crisp(math.sin(20 * s)),
        horizon=1.0, tol=1e-14,
    )
    with pytest.raises(QuadratureStall):
        solve_first_order(problem, np.array([0.0, 1.0]))


def test_quadrature_stalls_at_once_below_rounding_floor():
    # a forcing value of 1e300 puts the rounding of every Gauss-Kronrod sum
    # far above tol 1e-6; bisection cannot help, so the first interval stops
    # (a new object per call, so the forcing is not constant and the quadrature runs,
    # its integrand values from the literal series of the bare identity)
    g = core.make_triangular(-1e300, 0.5, 1, 4)
    calls = []

    def forcing(s):
        calls.append(s)
        return _copy_of(g, s)

    problem = CauchyProblem(
        helpers.bare(identity()), core.make_triangular(0, 1, 2, 4), forcing=forcing, horizon=0.5, tol=1e-6
    )
    with pytest.raises(QuadratureStall, match="rounding floor"):
        solve_first_order(problem, np.array([0.0, 0.5]))
    assert len(calls) <= 30  # at most two intervals of 15 nodes


def _copy_of(g, s):
    return g._with(g.ends.copy())


def _fresh(g):
    """A forcing equal to g that returns a new object on every call: the quadrature path."""
    return partial(_copy_of, g)


@pytest.mark.parametrize(
    "operator, g, t",
    [
        # the constant forcing of a composition takes the Duhamel series, whose
        # powers A^p g overflow at the solve time
        (compose(identity(), builtin("A1")), core.make_triangular(1e307, 1.5e307, 1.7e307, 4), 0.5),
        # a new object per call keeps A1 on the quadrature: the rank-one flow stays
        # finite there, and the quadrature stalls at the rounding floor
        (builtin("A1"), _fresh(core.make_triangular(1e307, 1.5e307, 1.7e307, 4)), 0.5),
        # u' = -u / 2 + g tends to 2 g: the Duhamel sum itself leaves the float range
        # (a new object per call, so the quadrature takes the sum)
        (scale_operator(-0.5), _fresh(core.crisp(1.5e308, 4)), 2.0),
    ],
)
def test_forced_solve_errors_name_the_solve_time(operator, g, t):
    forcing = g if callable(g) else lambda s: g
    # the quadrature names the solution's t; the series of a constant forcing is taken at t itself
    names = rf"solution at t = {t}\)" if callable(g) else rf"series of {operator.name} overflows at t = {t};"
    problem = CauchyProblem(operator, core.make_triangular(0, 1, 2, 4), forcing=forcing, horizon=t, tol=1e-9)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises((SeriesOverflow, QuadratureStall), match=names):
            solve_first_order(problem, np.array([0.0, t]))
    assert not seen, [str(w.message) for w in seen]


def _scale_forced_endpoints(a, u0, g, t):
    # levelwise closed form e^{at} u0 + (e^{at} - 1)/a g for a > 0, on endpoint arrays
    grow, gain = math.exp(a * t), math.expm1(a * t) / a
    return grow * u0.lower + gain * g.lower, grow * u0.upper + gain * g.upper


def _endpoint_gap(state, want):
    return max(np.abs(state.lower - want[0]).max(), np.abs(state.upper - want[1]).max())


def test_forced_fuzzy_64_nodes_within_tol():
    g = core.make_triangular(-0.5, 0.2, 0.8)
    problem = CauchyProblem(scale_operator(1.0), U0, forcing=lambda s: g, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, cauchy.uniform_times(1.0, 64))
    worst = max(
        _endpoint_gap(st, _scale_forced_endpoints(1.0, U0, g, float(t)))
        for t, st in zip(traj.times, traj.states)
    )
    assert worst <= 1e-9


def test_constant_forcing_takes_one_rule_per_node():
    # the bare identity carries no matrix, so its constant forcing takes the Duhamel series;
    # telling it constant calls it once per node of the first Gauss-Kronrod interval
    calls = []

    def forcing(s):
        calls.append(s)
        return V0

    grid = np.linspace(0.0, 1.0, 9)
    problem = CauchyProblem(helpers.bare(identity()), U0, forcing=forcing, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, grid)
    assert 0 < len(calls) <= 15 * (grid.size - 1)
    for t, st in zip(traj.times, traj.states):
        assert _endpoint_gap(st, _scale_forced_endpoints(1.0, U0, V0, float(t))) <= 1e-9


def test_kinked_forcing_is_bisected():
    calls = []

    def forcing(s):
        calls.append(s)
        return core.crisp(abs(s - 0.3))

    def exact(t):
        return 0.3 * t - 0.5 * t * t if t <= 0.3 else 0.045 + 0.5 * (t - 0.3) ** 2

    grid = np.array([0.0, 0.2, 0.45, 0.77, 1.0])
    tol = 1e-9
    problem = CauchyProblem(zero_operator(), core.crisp(0.0), forcing=forcing, horizon=1.0, tol=tol)
    traj = solve_first_order(problem, grid)
    assert len(calls) > 15 * (grid.size - 1)  # the kink forces bisection
    for t, st in zip(traj.times, traj.states):
        want = exact(float(t))
        assert np.abs(st.lower - want).max() <= tol
        assert np.abs(st.upper - want).max() <= tol


def test_refined_integral_exact_for_polynomials():
    # both rules integrate degree 10 exactly, so one interval of 15 values suffices
    calls = []

    def f(nodes):
        calls.extend(nodes)
        return [core.crisp(s ** 10) for s in nodes]

    got = cauchy._refined_integral(f, 2.0, 1e-9)
    assert len(calls) == 15
    assert got.lower[0] == pytest.approx(2.0 ** 11 / 11, rel=1e-13)


# ---------------------------------------------------------------------------
# operator applications of the literal series


def _counting(op):
    """op as a bare map (no matrix, not rank one) with a counter of its applications."""
    calls = []

    def fn(x):
        calls.append(None)
        return op(x)

    return LinearOperator(fn, op.norm_bound, op.homogeneity, op.name, op.domain), calls


def test_unforced_solve_applies_operator_once_per_power():
    op, calls = _counting(lift_matrix(cauchy.COUPLED_MATRIX))
    w0 = pair(U0, V0)
    grid = cauchy.uniform_times(1.0, 64)
    traj = solve_first_order(CauchyProblem(op, w0, horizon=1.0, tol=1e-9), grid)
    flow = SemigroupEvaluator(op, "exp", 1e-9)
    assert len(calls) == max(flow.order_for(float(t), w0) for t in grid)
    for t, st in zip(traj.times, traj.states):
        assert core.distance(st, problem5_closed_form(U0, V0, float(t))) <= 1e-8
    # the re-solves at t +- h are one more batch, with powers of their own
    calls.clear()
    sample, h = grid[1:-1:8], 1e-3
    residual_check(traj, lift_matrix(cauchy.COUPLED_MATRIX), h=h, times=sample)
    assert len(calls) == max(flow.order_for(float(t), w0) for t in (*sample, *(sample + h), *(sample - h)))


def test_constant_forcing_matches_closed_form():
    op = _counting(scale_operator(1.0))[0]
    tol, horizon = 1e-9, 1.0
    problem = CauchyProblem(op, U0, forcing=lambda s: V0, horizon=horizon, tol=tol)
    traj = solve_first_order(problem, cauchy.uniform_times(horizon, 64))
    for t, st in zip(traj.times, traj.states):
        assert _endpoint_gap(st, _scale_forced_endpoints(1.0, U0, V0, float(t))) <= tol


def test_fresh_forcing_objects_match_closed_form():
    g = core.make_triangular(-0.5, 0.2, 0.8)
    op, calls = _counting(scale_operator(1.0))
    fresh = lambda s: core.make_triangular(-0.5, 0.2, 0.8)  # a new object on every call
    problem = CauchyProblem(op, U0, forcing=fresh, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, cauchy.uniform_times(1.0, 5))
    assert len(calls) > 15 * 4  # no powers are shared between forcing values
    for t, st in zip(traj.times, traj.states):
        assert _endpoint_gap(st, _scale_forced_endpoints(1.0, U0, g, float(t))) <= 1e-9


def test_forcing_alternating_between_two_objects_matches_closed_form(monkeypatch):
    # two equal values as distinct objects, switching several times inside
    # every interval: not a constant, so the quadrature takes them with one
    # propagator call per node, for the series (an operator without a matrix,
    # as `_counting` builds; its `partial_sums` takes (op, kind, times, x, ...))
    # and for the exact flow of scale(1) (`MatrixFlow.evaluate` takes
    # (self, times, x, g))
    ga, gb = core.make_triangular(-0.5, 0.2, 0.8), core.make_triangular(-0.5, 0.2, 0.8)
    series_op = _counting(scale_operator(1.0))[0]
    assert series_op.matrix is None and scale_operator(1.0).matrix is not None
    grid = cauchy.uniform_times(1.0, 5)
    cases = ((series_op, semigroup, "partial_sums", 2), (scale_operator(1.0), MatrixFlow, "evaluate", 1))
    for operator, owner, name, at in cases:
        batches = []
        original = getattr(owner, name)

        def counted(*args, original=original, batches=batches, at=at, **kwargs):
            if any(arg is ga or arg is gb for arg in args[at + 1 :]):
                batches.append(len(args[at]))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        problem = CauchyProblem(
            operator, U0, forcing=lambda s: ga if math.floor(40.0 * s) % 2 else gb, horizon=1.0, tol=1e-9
        )
        traj = solve_first_order(problem, grid)
        assert batches and set(batches) == {1} and len(batches) % 15 == 0, batches
        for t, st in zip(traj.times, traj.states):
            assert _endpoint_gap(st, _scale_forced_endpoints(1.0, U0, ga, float(t))) <= 1e-9
        # a constant forcing is one batch over the whole grid: the Duhamel series
        # of the series operator, the forced flow of scale(1)
        batches.clear()
        problem = CauchyProblem(operator, U0, forcing=lambda s: ga, horizon=1.0, tol=1e-9)
        solve_first_order(problem, grid)
        assert batches == [grid.size], batches


# ---------------------------------------------------------------------------
# constant forcing: the exact forced flow


def _no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant forcing reached the quadrature")

    monkeypatch.setattr(cauchy, "_refined_integral", refuse)


@pytest.mark.parametrize("a", [2.0, 0.5, -0.5, -3.0])
def test_exact_forced_flow_matches_the_scale_closed_form(monkeypatch, a):
    # levelwise e^{at} u0 + (e^{at} - 1)/a g holds for fuzzy data when a > 0 and
    # for crisp data of either sign (a negative factor widens fuzzy supports)
    u0, g = (U0, V0) if a > 0 else (core.crisp(1.5), core.crisp(-0.7))
    _no_quadrature(monkeypatch)
    problem = CauchyProblem(scale_operator(a), u0, forcing=lambda s: g, horizon=2.0, tol=1e-9)
    traj = solve_first_order(problem, cauchy.uniform_times(2.0, 9))
    assert traj.states[0] is u0
    for t, st in zip(traj.times, traj.states):
        assert _endpoint_gap(st, _scale_forced_endpoints(a, u0, g, float(t))) <= 1e-13 * max(1.0, core.norm(st))


def _generator_forced_endpoints(rate, k_u0, k_g, u0, g, c, t):
    # u' = A u + g for A x = coeff(x) c with coeff(c) = rate > 0: A^p x = coeff(x) rate^(p-1) c, so
    # u(t) = u0 + t g + (coeff(u0) (e^{rt} - 1)/r + coeff(g) ((e^{rt} - 1)/r - t)/r) c, levelwise when
    # the factor of c is nonnegative or c is crisp
    e1 = math.expm1(rate * t) / rate
    factor = k_u0 * e1 + k_g * (e1 - t) / rate
    return tuple(x + t * y + factor * z for x, y, z in zip(u0.ends, g.ends, c.ends))


@pytest.mark.parametrize("name", ["RemarkA", "A1", "A4"])
def test_exact_forced_flow_matches_the_generator_closed_form(monkeypatch, name):
    # triangular (l, m, r): the lower endpoint integrates to (l + m)/2, the upper one
    # to (m + r)/2, so RemarkA's coeff is (m - l)/2, A1's is l/2 + m + r/2 and A4's (l + m)/2
    u0, g = core.make_triangular(-1.0, 0.5, 2.0), core.make_triangular(-2.0, -1.5, 0.5)
    coeff = {
        "RemarkA": lambda l, m, r: (m - l) / 2,
        "A1": lambda l, m, r: l / 2 + m + r / 2,
        "A4": lambda l, m, r: (l + m) / 2,
    }[name]
    c = C if name == "RemarkA" else core.crisp(1.0)
    rate = coeff(0.0, 1.0, 2.0) if name == "RemarkA" else coeff(1.0, 1.0, 1.0)
    _no_quadrature(monkeypatch)
    problem = CauchyProblem(builtin(name, C), u0, forcing=lambda s: g, horizon=1.5, tol=1e-9)
    traj = solve_first_order(problem, cauchy.uniform_times(1.5, 7))
    for t, st in zip(traj.times, traj.states):
        want = _generator_forced_endpoints(rate, coeff(-1.0, 0.5, 2.0), coeff(-2.0, -1.5, 0.5), u0, g, c, float(t))
        assert _endpoint_gap(st, want) <= 1e-12


@pytest.mark.parametrize(
    "operator, u0, g",
    [
        (scale_operator(1.5), U0, core.make_triangular(-0.5, 0.2, 0.8)),
        (scale_operator(-1.5), U0, core.make_triangular(-0.5, 0.2, 0.8)),
        (builtin("A1"), U0, core.make_triangular(-0.5, 0.2, 0.8)),
        (builtin("A2", C), U0, core.make_triangular(-0.5, 0.2, 0.8)),
        (builtin("RemarkB", C), core.make_triangular(-2.0, -1.0, 0.5), core.make_triangular(0.1, 0.2, 0.8)),
        (lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0), pair(V0, core.make_triangular(-1.0, 0.0, 0.5))),
        (lift_matrix(((0.5, -1.0), (2.0, -0.25))), pair(U0, V0), pair(core.crisp(0.3), V0)),
    ],
)
def test_exact_forced_flow_matches_the_quadrature(operator, u0, g):
    tol, grid = 1e-9, cauchy.uniform_times(1.0, 5)
    calls = []

    def fresh(s):
        calls.append(s)
        return _fresh(g)(s)

    exact = solve_first_order(CauchyProblem(operator, u0, forcing=lambda s: g, tol=tol), grid)
    quadrature = solve_first_order(CauchyProblem(operator, u0, forcing=fresh, tol=tol), grid)
    assert len(calls) > 15 * (grid.size - 1)  # the fresh objects took the quadrature
    for a, b in zip(exact.states, quadrature.states):
        assert core.distance(a, b) <= tol


def test_exact_forced_flow_of_a_product_matches_rk4(monkeypatch):
    # endpoints: lower' = A+ lower + A- upper + g_lower, upper' = A+ upper + A- lower + g_upper
    a = np.array(((0.5, -1.0), (2.0, -0.25)))
    w0, g = pair(U0, V0), pair(core.make_triangular(-1.0, -0.2, 0.3), core.crisp(0.4))
    _no_quadrature(monkeypatch)
    problem = CauchyProblem(lift_matrix(a), w0, forcing=lambda s: g, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
    ap, am = np.maximum(a, 0.0), np.minimum(a, 0.0)
    gen = np.block([[ap, am], [am, ap]])
    forcing = np.concatenate([g.ends[:, 0], g.ends[:, 1]])
    y0 = np.concatenate([w0.ends[:, 0], w0.ends[:, 1]])
    for t, st in zip(traj.times[1:], traj.states[1:]):
        y = helpers.rk4(lambda s, y: gen @ y + forcing, y0, float(t), steps=2000)
        assert np.abs(np.concatenate([st.ends[:, 0], st.ends[:, 1]]) - y).max() <= 1e-9


def test_exact_forced_flow_of_the_coupled_system_matches_its_closed_form():
    # A = [[1, 1], [-1, -1]] squares to 0 and |A| to 2 |A|: mid(t) = (I + tA) mid0 + (tI + t^2/2 A) mid_g,
    # rad(t) = (I + (e^{2t} - 1)/2 |A|) rad0 + (tI + ((e^{2t} - 1)/2 - t)/2 |A|) rad_g
    a = np.array(cauchy.COUPLED_MATRIX)
    w0, g = pair(U0, V0), pair(V0, core.make_triangular(-1.0, 0.0, 0.5))
    problem = CauchyProblem(lift_matrix(a), w0, forcing=lambda s: g, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, cauchy.uniform_times(1.0, 5))
    mid = lambda w: 0.5 * (w.ends[:, 0] + w.ends[:, 1])
    rad = lambda w: 0.5 * (w.ends[:, 1] - w.ends[:, 0])
    eye, absa = np.eye(2), np.abs(a)
    for t, st in zip(traj.times, traj.states):
        t = float(t)
        h = 0.5 * math.expm1(2.0 * t)
        m = (eye + t * a) @ mid(w0) + (t * eye + 0.5 * t * t * a) @ mid(g)
        r = (eye + h * absa) @ rad(w0) + (t * eye + 0.5 * (h - t) * absa) @ rad(g)
        assert np.abs(st.ends[:, 0] - (m - r)).max() <= 1e-12
        assert np.abs(st.ends[:, 1] - (m + r)).max() <= 1e-12


def test_piecewise_forcing_falls_back_to_the_quadrature(monkeypatch):
    # g = ga before s = 0.3 and gb after it; 0.3 is a bisection point of [0, 0.6] and [0, 1.2]
    ga, gb = core.make_triangular(0.0, 0.5, 1.0), core.make_triangular(-1.0, -0.5, 0.5)
    integrals = []
    original = cauchy._refined_integral

    def counted(*args):
        integrals.append(args[1])
        return original(*args)

    monkeypatch.setattr(cauchy, "_refined_integral", counted)
    problem = CauchyProblem(scale_operator(1.0), U0, forcing=lambda s: ga if s < 0.3 else gb, horizon=1.2, tol=1e-9)
    traj = solve_first_order(problem, np.array([0.0, 0.6, 1.2]))
    assert integrals == [0.6, 1.2]
    for t, st in zip(traj.times, traj.states):
        t = float(t)
        # e^t u0 + (e^t - e^{t - 0.3}) ga + (e^{t - 0.3} - 1) gb, every factor >= 0
        want = tuple(
            math.exp(t) * u + (math.exp(t) - math.exp(t - 0.3)) * a + math.expm1(t - 0.3) * b
            for u, a, b in zip(U0.ends, ga.ends, gb.ends)
        ) if t > 0 else (U0.lower, U0.upper)
        assert _endpoint_gap(st, want) <= 1e-9


@pytest.mark.parametrize(
    "operator, g, grid, t",
    [
        # phi(g) (e^{2t} - 1 - 2t) / 4 passes the float limit between t = 1 and 2
        (builtin("A1"), core.make_triangular(1e307, 1.5e307, 1.7e307, 4), [0.0, 1.0, 2.0], 2.0),
        # u' = -u / 2 + g tends to 2 g, past the float limit for g = 1.5e308
        (scale_operator(-0.5), core.crisp(1.5e308, 4), [0.0, 2.0], 2.0),
        # (e^t - 1) g at t = 2 is 6.4 g
        (lift_matrix(((1.0, 0.0), (0.0, 1.0))), pair(core.crisp(1e308, 4), core.crisp(0.0, 4)), [0.0, 1.0, 2.0], 2.0),
    ],
)
def test_exact_forced_flow_overflow_names_the_solve_time(operator, g, grid, t):
    u0 = core.make_triangular(0, 1, 2, 4)
    u0 = pair(u0, u0) if isinstance(g, ProductElement) else u0
    problem = CauchyProblem(operator, u0, forcing=lambda s: g, horizon=max(grid), tol=1e-9)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SeriesOverflow, match=rf"at t = {t};"):
            solve_first_order(problem, np.array(grid))
    assert not seen, [str(w.message) for w in seen]


# ---------------------------------------------------------------------------
# first-order solving


def test_homogeneous_solution_is_the_flow():
    problem = CauchyProblem(builtin("RemarkA", C), U0, horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
    assert traj.states[0] is U0
    for t, st in zip(traj.times, traj.states):
        want = generator_pair_closed_form(C, U0, float(t), "A")
        assert core.distance(st, want) <= 1e-8


def test_crisp_scalar_growth():
    problem = CauchyProblem(scale_operator(1.0), core.crisp(1.0), horizon=1.0, tol=1e-9)
    traj = solve_first_order(problem, np.array([0.0, 1.0]))
    assert traj.states[-1].lower[0] == pytest.approx(math.e, abs=1e-9)


def test_forced_crisp_problem_variation_of_parameters():
    # u' = u + 1, u(0) = 0  ->  u(t) = e^t - 1
    problem = CauchyProblem(
        scale_operator(1.0), core.crisp(0.0), forcing=lambda s: core.crisp(1.0),
        horizon=1.0, tol=1e-7,
    )
    traj = solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
    for t, st in zip(traj.times, traj.states):
        assert st.lower[0] == pytest.approx(math.expm1(float(t)), abs=1e-6)


def test_zero_forcing_zero_initial_stays_zero():
    problem = CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), pair(core.zero(), core.zero()))
    traj = solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
    for st in traj.states:
        assert core.norm(st) == 0.0


def test_problem5_frozen_endpoint_values():
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0), horizon=1.0, tol=1e-9),
        np.array([0.0, 1.0]),
    )
    u1 = traj.states[-1][0]
    h1 = 0.25 * (math.e**2 - 3.0)  # independent scalar value of the series sum
    assert u1.lower[0] == pytest.approx(1.0 - 4.0 * h1, abs=1e-8)
    assert u1.lower[-1] == pytest.approx(4.0, abs=1e-8)
    assert u1.upper[0] == pytest.approx(7.0 + 4.0 * h1, abs=1e-8)


def test_problem5_series_matches_closed_form():
    times = np.linspace(0.0, 1.0, 9)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0), horizon=1.0, tol=1e-9),
        times,
    )
    for t, st in zip(traj.times, traj.states):
        want = problem5_closed_form(U0, V0, float(t))
        assert core.distance(st, want) <= 1e-8
        # and h(t) agrees with its direct summation
        assert cauchy._h_exp(float(t)) == pytest.approx(helpers.h_exp(float(t)), abs=1e-12)


def test_problem4_series_matches_closed_form():
    times = np.linspace(0.0, 2.0, 9)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.SWAP_MATRIX), pair(U0, V0), horizon=2.0, tol=1e-9),
        times,
    )
    for t, st in zip(traj.times, traj.states):
        assert core.distance(st, problem4_closed_form(U0, V0, float(t))) <= 1e-8


def test_crisp_collapse_against_rk4():
    a0, b0 = 1.25, -0.75
    w0 = pair(core.crisp(a0), core.crisp(b0))
    for matrix in (cauchy.SWAP_MATRIX, cauchy.COUPLED_MATRIX):
        traj = solve_first_order(
            CauchyProblem(lift_matrix(matrix), w0, horizon=1.0, tol=1e-9),
            np.array([0.0, 1.0]),
        )
        mat = np.asarray(matrix)
        ref = helpers.rk4(lambda t, y: mat @ y, [a0, b0], 1.0)
        got = np.array([traj.states[-1][0].lower[0], traj.states[-1][1].lower[0]])
        assert np.abs(got - ref).max() <= 1e-6


def test_problem_rejects_a_forcing_that_is_not_callable():
    # a leaf or a number as forcing would otherwise fail inside the solve with a bare TypeError
    for forcing in (V0, 1.5, pair(U0, V0)):
        with pytest.raises(ValueError, match="callable"):
            CauchyProblem(scale_operator(1.0), U0, forcing=forcing)


def test_first_order_rejects_velocity():
    with pytest.raises(ValueError):
        solve_first_order(CauchyProblem(identity(), U0, initial_velocity=core.zero()))


# ---------------------------------------------------------------------------
# second-order solving


def test_second_order_initial_state():
    w0 = pair(U0, V0)
    traj = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-9),
        np.array([0.0, 1.0]),
    )
    assert traj.states[0] is w0


def test_problem6_series_matches_closed_form():
    w0 = pair(U0, V0)
    times = np.linspace(0.0, 1.0, 9)
    traj = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-9),
        times,
    )
    for t, st in zip(traj.times, traj.states):
        want = problem6_closed_form(U0, V0, float(t))
        assert core.distance(st, want) <= 1e-8
        assert cauchy._h_cosh(float(t)) == pytest.approx(helpers.h_cosh(float(t)), abs=1e-12)


def test_problem6_crisp_formula():
    a0, b0 = 2.0, 1.0
    w0 = pair(core.crisp(a0), core.crisp(b0))
    traj = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-9),
        np.array([0.0, 1.0]),
    )
    t = 1.0
    assert traj.states[-1][0].lower[0] == pytest.approx(a0 + t * t / 2 * (a0 + b0), abs=1e-8)
    assert traj.states[-1][1].lower[0] == pytest.approx(b0 - t * t / 2 * (a0 + b0), abs=1e-8)


def test_second_order_requires_velocity_field():
    with pytest.raises(ValueError):
        solve_second_order(CauchyProblem(identity(), U0))


def test_second_order_rejects_forcing():
    g = core.make_triangular(5, 6, 7)
    with pytest.raises(ValueError, match="forcing"):
        solve_second_order(
            CauchyProblem(scale_operator(1.0), U0, forcing=lambda s: g,
                          initial_velocity=core.zero(), horizon=1.0)
        )


def test_second_order_nonzero_velocity_matches_closed_form():
    # u'' = u, u(0) = U0, u'(0) = 1: cosh(t) U0 + sinh(t), through the Duhamel series
    # of the cosh family, since the bare identity carries no matrix
    traj = solve_second_order(
        CauchyProblem(helpers.bare(identity()), U0, initial_velocity=core.crisp(1.0), horizon=1.0)
    )
    for t, st in zip(traj.times, traj.states):
        want = core.add(core.scalar_mul(math.cosh(t), U0), core.crisp(math.sinh(t)))
        assert core.distance(st, want) <= 1e-9 * max(1.0, core.norm(want)), t


def _velocity_cases():
    x, v = core.make_triangular(-1, 0.5, 3), core.make_triangular(0.5, 1, 2)
    for factor in (0.7, -1.3):
        yield scale_operator(factor), x, v
    for matrix in (((0.5, -1.0), (1.0, 0.25)), cauchy.COUPLED_MATRIX):
        yield lift_matrix(matrix), pair(x, V0), pair(core.scalar_mul(-1.0, v), U0)
    for name in BUILTIN_NAMES:  # velocities of both signs, so phi(v) takes both signs
        for sign in (1.0, -1.0):
            yield builtin(name, C), x, core.scalar_mul(sign, v)


def test_velocity_flow_matches_the_quadrature():
    # the bare copies, without a flow, take the Duhamel series of the velocity
    tol, times = 1e-11, np.array([0.0, 0.4, 1.0])
    for op, x, v in _velocity_cases():
        exact = solve_second_order(CauchyProblem(op, x, initial_velocity=v, tol=tol), times)
        quad = solve_second_order(CauchyProblem(helpers.bare(op), x, initial_velocity=v, tol=tol), times)
        for t, a, b in zip(times, exact.states, quad.states):
            assert core.distance(a, b) <= tol * max(1.0, core.norm(b)), (op.name, t)


def test_no_constant_input_reaches_the_quadrature(monkeypatch):
    # a constant forcing (exp) and a velocity (cosh) go into the propagator as its
    # constant input, for every operator with a flow and for its bare copy, which
    # takes the Duhamel series; the bare identity and I∘A1 have no flow, and are the
    # same maps as scale(1) and A1
    from test_matrix_flow import _flow_cases

    _no_quadrature(monkeypatch)
    tol, times = 1e-10, np.array([0.0, 0.4, 1.0])
    cases = [(op, x, core.scalar_mul(-0.5, x)) for op, x, _ in _flow_cases()] + list(_velocity_cases())
    pairs = [(op, helpers.bare(op), x, g) for op, x, g in cases]
    pairs += [(scale_operator(1.0), helpers.bare(identity()), U0, V0),
              (builtin("A1"), compose(identity(), builtin("A1")), U0, V0)]
    for op, flowless, x, g in pairs:
        assert semigroup._flow(flowless, "exp") is None
        for solve, problem in (
            (solve_first_order, CauchyProblem(op, x, forcing=lambda s, g=g: g, tol=tol)),
            (solve_second_order, CauchyProblem(op, x, initial_velocity=g, tol=tol)),
        ):
            exact = solve(problem, times)
            series = solve(dataclasses.replace(problem, operator=flowless), times)
            for t, a, b in zip(times, exact.states, series.states, strict=True):
                assert core.distance(a, b) <= tol * max(1.0, core.norm(a)), (flowless.name, solve.__name__, t)


def test_constant_input_of_the_zero_operator_is_exact():
    # M = 0: the Duhamel series is its one term t g, for a forcing and for a velocity alike
    g, times = core.make_triangular(-0.5, 0.2, 0.8), np.array([0.0, 0.25, 1.0, 3.0])
    zero = helpers.bare(zero_operator())
    for traj in (
        solve_first_order(CauchyProblem(zero, U0, forcing=lambda s: g, horizon=3.0), times),
        solve_second_order(CauchyProblem(zero, U0, initial_velocity=g, horizon=3.0), times),
    ):
        assert traj.states[0] is U0
        for t, st in zip(times, traj.states):
            assert st.ends.tobytes() == core.add(U0, core.scalar_mul(float(t), g)).ends.tobytes(), t


@pytest.mark.parametrize("a", [2.5, -0.8])
def test_velocity_of_a_scale_meets_its_crisp_closed_form(a):
    # u'' = a u: cosh(w t) u0 + sinh(w t) / w v0 with w = sqrt(a), cos and sin for a < 0
    u0, v0, w = 1.5, -0.75, math.sqrt(abs(a))
    c, s = (math.cosh, math.sinh) if a > 0 else (math.cos, math.sin)
    times = np.linspace(0.0, 3.0, 7)
    traj = solve_second_order(CauchyProblem(scale_operator(a), core.crisp(u0), initial_velocity=core.crisp(v0)), times)
    for t, st in zip(times, traj.states):
        want = c(w * t) * u0 + s(w * t) / w * v0
        assert core.is_crisp(st) and st.lower[0] == pytest.approx(want, rel=1e-13, abs=1e-15), t


def test_velocity_trajectory_rejects_negative_times():
    for op in (scale_operator(0.5), builtin("A1"), helpers.bare(identity())):  # matrix, rank one, series
        traj = solve_second_order(CauchyProblem(op, U0, initial_velocity=V0), np.array([0.0, 1.0]))
        with pytest.raises(NegativeForcedTime, match="velocity") as err:
            traj.evaluate([0.5, -0.25])
        assert "t = -0.25" in str(err.value)


def test_velocity_from_another_space_is_rejected():
    w0 = pair(U0, V0)
    cases = (
        (builtin("A1"), U0, w0),
        (scale_operator(0.5), U0, w0),  # a scale acts on any element, but u0 and v0 share one space
        (lift_matrix(cauchy.COUPLED_MATRIX), w0, U0),
        (helpers.bare(identity()), U0, w0),  # the series path
    )
    for op, x, v in cases:
        for velocity in (v, core.zero_like(v)):  # a zero velocity is no forcing, but still of u0's space
            with pytest.raises(SpaceMismatch):
                solve_second_order(CauchyProblem(op, x, initial_velocity=velocity), np.array([0.0, 1.0]))


def test_zero_velocity_is_the_cosh_family():
    # a vanishing velocity is no forcing: the states are those of C(t)(u0), bit for bit,
    # and negative times stay allowed
    times = np.linspace(0.0, 2.0, 5)
    cases = (
        (lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0)), (builtin("RemarkA", C), U0), (helpers.bare(identity()), U0)
    )
    for op, x in cases:
        problem = CauchyProblem(op, x, initial_velocity=core.zero_like(x), horizon=2.0, tol=1e-9)
        traj = solve_second_order(problem, times)
        got = [*traj.states, *traj.evaluate([-0.5])]
        want = propagator(op, "cosh")([*times, -0.5], x, [1e-9] * (len(times) + 1))
        for a, b in zip(got, want, strict=True):
            assert a.ends.tobytes() == b.ends.tobytes()


# ---------------------------------------------------------------------------
# wave formula


def test_wave_at_zero_returns_profile():
    xs = np.linspace(0.0, 1.0, 5)
    (got,) = solve_wave(lambda x, order: core.scalar_mul(math.exp(x), C), None, (0.0,), xs, bound=2 * math.e)
    want = FuzzyFunction(xs, tuple(core.scalar_mul(math.exp(float(x)), C) for x in xs))
    assert core.distance(got, want) == 0.0


def test_wave_exponential_profile_collapses_to_cosh():
    xs = np.linspace(0.0, 1.0, 9)
    for t in (0.5, 1.0):
        (got,) = solve_wave(
            lambda x, order: core.scalar_mul(math.exp(x), C), None, (t,), xs,
            bound=2 * math.e, tol=1e-9,
        )
        want = FuzzyFunction(
            xs, tuple(core.scalar_mul(math.cosh(t) * math.exp(float(x)), C) for x in xs)
        )
        assert core.distance(got, want) <= 1e-8


def test_wave_zero_profile_moves_with_velocity():
    xs = np.linspace(0.0, 1.0, 5)
    u2 = FuzzyFunction(xs, tuple(core.make_triangular(0, 1, 2) for _ in xs))
    (got,) = solve_wave(lambda x, order: core.zero(), u2, (0.75,), xs, bound=1.0)
    want = FuzzyFunction(xs, tuple(core.scalar_mul(0.75, core.make_triangular(0, 1, 2)) for _ in xs))
    assert core.distance(got, want) <= 1e-12


def test_wave_requires_bound():
    xs = np.linspace(0.0, 1.0, 3)
    with pytest.raises(MissingDerivativeBound):
        solve_wave(lambda x, order: C, None, (1.0,), xs)
    with pytest.raises(MissingDerivativeBound):
        solve_wave(lambda x, order: C, None, (1.0,), xs, bound=-1.0)


def test_wave_at_many_times_equals_one_time_solves():
    # a profile whose even derivatives differ in size and sign, and a velocity on other node and level grids
    xs = np.linspace(0.0, 1.0, 9)
    profile = lambda x, order: core.scalar_mul((-1.0) ** (order // 2) * math.exp(x) / (1 + order), C)
    u2 = FuzzyFunction(np.linspace(0.0, 1.0, 5), tuple(core.make_triangular(-1.0, 0.5, x, 10) for x in (1, 2, 3, 4, 5)))
    times = (1.0, 0.0, 0.5, 2.0, 0.5, 1e-3)  # out of order, with t = 0 (order 0) and a repeat
    for velocity in (None, u2):
        batch = solve_wave(profile, velocity, times, xs, bound=2 * math.e, tol=1e-10)
        assert len(batch) == len(times)
        for t, got in zip(times, batch, strict=True):
            (want,) = solve_wave(profile, velocity, (t,), xs, bound=2 * math.e, tol=1e-10)
            assert np.array_equal(got.nodes, want.nodes) and np.array_equal(got.levels, want.levels)
            assert got.ends.tobytes() == want.ends.tobytes(), t
    assert solve_wave(profile, u2, (), xs, bound=2 * math.e) == []


def test_wave_with_velocity_rejects_negative_times():
    # t u2 is the velocity's part for t >= 0 only, as for solve_second_order; without u2 the series is even in t
    xs = np.linspace(0.0, 1.0, 5)
    profile = lambda x, order: core.scalar_mul(math.exp(x), C)
    u2 = FuzzyFunction(xs, tuple(core.make_triangular(0, 1, 2) for _ in xs))
    for times in ([-1.0, 1.0], [0.5, -1e-300], [math.nan]):
        with pytest.raises(NegativeForcedTime, match="velocity") as err:
            solve_wave(profile, u2, times, xs, bound=2 * math.e)
        assert f"t = {[t for t in times if not t >= 0.0][0]!r}" in str(err.value)
    back, forth = solve_wave(profile, None, [-1.0, 1.0], xs, bound=2 * math.e)
    assert back.ends.tobytes() == forth.ends.tobytes()
    assert solve_wave(profile, u2, [-0.0], xs, bound=2 * math.e)[0].ends.tobytes() == \
        solve_wave(profile, None, [0.0], xs, bound=2 * math.e)[0].ends.tobytes()


def test_wave_samples_each_derivative_once(monkeypatch, tmp_path):
    # `example wave` at its defaults: 9 times on [0, 1], 65 nodes, engine tol 1e-9
    orders = []
    solve = cauchy.solve_wave

    def counting(profile, *args, **kwargs):
        return solve(lambda x, order: orders.append(order) or profile(x, order), *args, **kwargs)

    monkeypatch.setattr(cauchy, "solve_wave", counting)
    assert cli.main(["example", "wave", "--out", str(tmp_path / "wave.json")]) == 0
    top = max(semigroup.required_order(t, 1.0, 1e-9 / (2 * math.e), "cosh") for t in np.linspace(0.0, 1.0, 9))
    assert len(orders) == (top + 1) * 65 == 455
    assert sorted(set(orders)) == list(range(0, 2 * top + 1, 2))


def test_worked_systems_table_serves_example_and_verify():
    # every row meets its closed form on a coarse grid: 5 times, 16 level panels, 9 wave nodes
    for name, (run, t_max) in cauchy.WORKED_SYSTEMS.items():
        states, closed = run(np.linspace(0.0, t_max, 5), 1e-9, 16, 9)
        assert len(states) == len(closed) == 5, name
        for st, want in zip(states, closed):
            assert np.array_equal(st.levels, core.level_grid(16)), name
            assert name != "wave" or st.nodes.size == 9
            assert core.distance(st, want) <= 1e-8, name
    # `fuzzsemi example` runs exactly the table's rows
    assert cli.EXAMPLE_NAMES == tuple(cauchy.WORKED_SYSTEMS)
    # `verify solver` judges the same runners, on its own grids
    records = {r["property"]: r["max_violation"] for r in helpers.suite_records("solver", 42)}
    for name, prop, times in (
        *((n, f"{n}_series_vs_closed", cauchy.uniform_times(cauchy.WORKED_SYSTEMS[n][1], 9))
          for n in ("problem4", "problem5", "problem6")),
        ("wave", "wave_cosh_collapse", np.array([0.5, 1.0])),
    ):
        states, closed = cauchy.WORKED_SYSTEMS[name][0](times, 1e-9, core.DEFAULT_LEVELS, 17)
        assert records[prop] == max(map(core.distance, states, closed)), name


# ---------------------------------------------------------------------------
# residual checking


def test_residual_zero_for_constant_solution():
    times = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(times, (U0, U0, U0), lambda ts: [U0 for _ in ts])
    assert residual_check(traj, zero_operator(), h=1e-3) == 0.0


def test_residual_crisp_exponential_is_first_order_in_h():
    problem = CauchyProblem(scale_operator(1.0), core.crisp(1.0), horizon=1.0, tol=1e-12)
    traj = solve_first_order(problem, np.linspace(0.0, 1.0, 5))
    h = 1e-3
    res = residual_check(traj, scale_operator(1.0), h=h)
    # one-sided quotient of e^t misses by about e^t * h / 2 on [0, 1]
    assert res <= math.e * h / 2 * 1.2
    assert res >= 1e-5


def test_residual_decreases_with_h_on_closed_form():
    traj = Trajectory(
        np.array([0.0, 0.5, 1.0]),
        tuple(generator_pair_closed_form(C, U0, t, "A") for t in (0.0, 0.5, 1.0)),
        lambda ts: [generator_pair_closed_form(C, U0, float(t), "A") for t in ts],
    )
    op = builtin("RemarkA", C)
    r1 = residual_check(traj, op, h=1e-2)
    r2 = residual_check(traj, op, h=5e-3)
    r3 = residual_check(traj, op, h=1e-3)
    r4 = residual_check(traj, op, h=5e-4)
    assert r2 < r1 and r4 < r3


def test_residual_distinguishes_naive_formula():
    nu0 = core.make_triangular(0.5, 1.0, 1.5)
    nv0 = core.make_triangular(1.5, 2.0, 2.5)
    e_norm = core.norm(fuzziness_residual(nu0, nv0))
    assert e_norm == pytest.approx(2.0, abs=1e-12)
    times = np.array([0.0, 0.5, 1.0])
    op = lift_matrix(cauchy.COUPLED_MATRIX)
    naive = Trajectory(
        times, tuple(naive_problem5_formula(nu0, nv0, float(t)) for t in times),
        lambda ts: [naive_problem5_formula(nu0, nv0, float(t)) for t in ts],
    )
    true = Trajectory(
        times, tuple(problem5_closed_form(nu0, nv0, float(t)) for t in times),
        lambda ts: [problem5_closed_form(nu0, nv0, float(t)) for t in ts],
    )
    for h in (1e-2, 1e-3, 1e-4):
        assert residual_check(naive, op, h=h, times=[1.0]) >= 0.5 * e_norm
    assert residual_check(true, op, h=1e-3, times=[1.0]) < 1e-2


def test_residual_negative_time_uses_reversed_forms():
    # supports widen backwards in time, so only the reversed one-sided
    # quotients exist there; the checker must still find them and the
    # defect must shrink linearly with the step
    from fuzzsemi.semigroup import SemigroupEvaluator

    ev = SemigroupEvaluator(identity(), "exp", 1e-12)
    traj = Trajectory(
        np.array([0.0, 1.0]), (U0, ev.at(1.0, U0)), lambda ts: ev.evaluate(ts, U0)
    )
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(ev.at(-0.5 + 1e-3, U0), ev.at(-0.5, U0))
    r_coarse = residual_check(traj, identity(), h=1e-2, times=[-0.5])
    r_fine = residual_check(traj, identity(), h=1e-3, times=[-0.5])
    assert r_coarse <= 3e-2
    assert r_fine <= 3e-3
    assert r_fine < r_coarse / 5


def test_residual_with_forcing_term():
    # u' = u + 1, u(0) = 0: the checker must add the forcing to the target
    one = core.crisp(1.0)
    problem = CauchyProblem(
        scale_operator(1.0), core.crisp(0.0), forcing=lambda s: one, horizon=1.0, tol=1e-8
    )
    traj = solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
    res = residual_check(traj, scale_operator(1.0), forcing=lambda t: one, h=1e-2, times=[0.5])
    # one-sided quotient of e^t - 1 misses by about e^t h / 2
    assert res <= math.exp(0.5) * 1e-2
    assert res >= 1e-4
    # omitting the forcing must leave a defect of about 1 (the forcing size)
    res_wrong = residual_check(traj, scale_operator(1.0), h=1e-2, times=[0.5])
    assert res_wrong > 0.9


def _residual_per_time(traj, operator, forcing, h, times):
    # the checker's definition, one time and one evaluation at a time
    worst = 0.0
    for t in times:
        t = float(t)
        (here,), (after,), (before,) = traj.evaluate([t]), traj.evaluate([t + h]), traj.evaluate([t - h])
        target = operator(here)
        if forcing is not None:
            target = core.add(target, forcing(t))
        worst = max(worst, min(core.distance(q, target) for q in helpers.quotient_forms(before, here, after, h)))
    return worst


def test_residual_check_equals_per_time_loop():
    # sample times below h put negative re-solve times in the same batch as
    # positive ones; the batched checker must return the very same float
    h = 1e-3
    times = [0.0, 4e-4, 0.2, 0.55, 1.0]
    op = lift_matrix(cauchy.COUPLED_MATRIX)
    crisp_pair = pair(core.crisp(0.5), core.crisp(-1.0))
    one = core.crisp(1.0)
    cases = (
        (op, CauchyProblem(op, pair(U0, V0), horizon=1.0, tol=1e-9), None),
        (op, CauchyProblem(op, crisp_pair, horizon=1.0, tol=1e-9), None),
        (builtin("RemarkA", C), CauchyProblem(builtin("RemarkA", C), U0, horizon=1.0, tol=1e-9), None),
        (scale_operator(1.0), CauchyProblem(scale_operator(1.0), one, forcing=lambda s: one, tol=1e-8), lambda t: one),
    )
    for operator, problem, forcing in cases:
        sample = times if forcing is None else times[2:]  # the forced re-solve needs t - h > 0
        traj = solve_first_order(problem, np.array([0.0]))
        fresh = solve_first_order(problem, np.array([0.0]))
        got = residual_check(traj, operator, forcing=forcing, h=h, times=sample)
        assert got == _residual_per_time(fresh, operator, forcing, h, sample)


def test_forced_trajectory_rejects_negative_times():
    # the Duhamel integral runs over [0, t]; before 0 the evaluator raises a
    # typed error that `except ValueError` callers still catch
    one = core.crisp(1.0)
    problem = CauchyProblem(scale_operator(1.0), U0, forcing=lambda s: one, horizon=0.5, tol=1e-6)
    traj = solve_first_order(problem, np.array([0.0, 0.5]))
    with pytest.raises(NegativeForcedTime) as err:
        traj.evaluate([0.25, -0.5])
    assert isinstance(err.value, FuzzsemiError) and isinstance(err.value, ValueError)
    # a sample time below h re-solves at t - h < 0
    with pytest.raises(NegativeForcedTime):
        residual_check(traj, scale_operator(1.0), forcing=lambda t: one, h=1e-3, times=[4e-4])
    assert traj.evaluate([-0.0])[0] is U0


def test_residual_requires_evaluator():
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), (U0, U0, U0))
    with pytest.raises(ValueError):
        residual_check(traj, zero_operator(), h=1e-3)


def test_residual_no_applicable_form():
    # lower slope grows with t while upper slope shrinks: every orientation
    # of the one-sided difference breaks monotonicity on one endpoint side
    def twisted(t):
        t = float(t)
        r = core.level_grid(8)
        return core.FuzzyNumber(r, (1.0 + t) * r, 4.0 - (1.0 - t / 2.0) * r)

    times = np.array([0.0, 0.6, 1.2])
    traj = Trajectory(times, tuple(twisted(t) for t in times), lambda ts: [twisted(t) for t in ts])
    with pytest.raises(NoApplicableForm):
        residual_check(traj, zero_operator(), h=0.3, times=[0.6])


# ---------------------------------------------------------------------------
# fuzziness residual and trajectory plumbing


def test_fuzziness_residual_crisp_is_exact_zero():
    e = fuzziness_residual(core.crisp(1.5), core.crisp(-0.5))
    assert core.norm(e) == 0.0


def test_fuzziness_residual_fuzzy_nonzero():
    e = fuzziness_residual(U0, V0)
    helpers.assert_matches(e, helpers.levelwise(core.make_triangular(-4, 0, 4)))
    assert core.distance(core.scalar_mul(-1.0, e), e) == 0.0


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5, 1.0]), (U0, U0))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), (U0, U0))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), (U0,))
    # NaN differences never compare <= 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0.0, bad]), (U0, U0))


def test_problem_validation():
    with pytest.raises(ValueError):
        CauchyProblem(identity(), U0, horizon=0.0)
    with pytest.raises(ValueError):
        CauchyProblem(identity(), U0, tol=0.0)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_problem_rejects_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be finite"):
        CauchyProblem(scale_operator(1.0), U0, horizon=horizon)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_problem_rejects_non_finite_tol(tol):
    # an infinite tol truncated A1's series of crisp 1 to order 0: 1.0 at t = 1, not e^2
    with pytest.raises(ValueError, match="tol must be finite"):
        CauchyProblem(builtin("A1"), core.crisp(1.0), tol=tol)
