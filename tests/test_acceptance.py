"""Release gate: closed-form reproduction and property sweeps at fixed tolerances.

Each test prints one PASS line when its assertions hold; pytest -v adds
the authoritative pass/fail line per criterion.  Expected values come
from closed-form scalars and the independent oracles in helpers.py.
"""

import math

import numpy as np
import pytest

from fuzzsemi import cauchy, core, semigroup
from fuzzsemi.cauchy import (
    CauchyProblem,
    Trajectory,
    fuzziness_residual,
    naive_problem5_formula,
    problem5_closed_form,
    residual_check,
    solve_first_order,
    solve_second_order,
    solve_wave,
)
from fuzzsemi.errors import HDifferenceError
from fuzzsemi.operators import builtin, canonical_probes, lift_matrix, random_fuzzy
from fuzzsemi.semigroup import SemigroupEvaluator, check_semigroup_law, generator_residual
from fuzzsemi.spaces import FuzzyFunction, pair

import helpers

U0 = core.make_triangular(0, 1, 2)
V0 = core.make_triangular(1, 2, 3)
C = core.make_triangular(0, 1, 2)

BUILTIN_OPS = [
    builtin("A1"),
    builtin("A2", C),
    builtin("A3", C),
    builtin("A4"),
    builtin("A5"),
    builtin("RemarkA", C),
    builtin("RemarkB", C),
]


def _report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_scaling_generator_closed_form():
    ev = SemigroupEvaluator(builtin("RemarkA", C), "exp", 1e-9)
    # growth coefficient of c and the coefficient of x are both 1/2, so the
    # flow is x + (e^(t/2) - 1) * c
    for t in (0.0, 0.5, 1.0, 2.0):
        closed = core.add(U0, core.scalar_mul(math.expm1(t / 2.0), C))
        assert core.distance(ev.at(t, U0), closed) <= 1e-8
    at2 = ev.at(2.0, U0)
    assert at2.lower[0] == pytest.approx(0.0, abs=1e-8)
    assert at2.lower[-1] == pytest.approx(math.e, abs=1e-8)
    assert at2.upper[0] == pytest.approx(2.0 * math.e, abs=1e-8)
    _report(1, "scaling-generator flow matches its closed form, (0, e, 2e) at t=2")


def test_criterion_02_swap_system():
    times = np.linspace(0.0, 2.0, 9)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.SWAP_MATRIX), pair(U0, V0), horizon=2.0, tol=1e-9),
        times,
    )
    for t, st in zip(traj.times, traj.states):
        ch, sh = math.cosh(float(t)), math.sinh(float(t))
        closed = pair(
            core.add(core.scalar_mul(ch, U0), core.scalar_mul(sh, V0)),
            core.add(core.scalar_mul(sh, U0), core.scalar_mul(ch, V0)),
        )
        assert core.distance(st, closed) <= 1e-8
    _report(2, "swap system series equals cosh/sinh mixture at 9 times in [0, 2]")


def test_criterion_03_coupled_system():
    times = np.linspace(0.0, 1.0, 9)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0), horizon=1.0, tol=1e-9),
        times,
    )
    s = core.add(U0, V0)
    e_term = fuzziness_residual(U0, V0)
    for t, st in zip(traj.times, traj.states):
        h_t = helpers.h_exp(float(t))  # direct summation of the series factor
        closed = pair(
            core.add(core.add(U0, core.scalar_mul(float(t), s)), core.scalar_mul(h_t, e_term)),
            core.add(core.add(V0, core.scalar_mul(-float(t), s)), core.scalar_mul(h_t, e_term)),
        )
        assert core.distance(st, closed) <= 1e-8
    h1 = 0.25 * (math.e**2 - 3.0)
    u1 = traj.states[-1][0]
    assert u1.lower[0] == pytest.approx(1.0 - 4.0 * h1, abs=1e-8)
    assert u1.lower[-1] == pytest.approx(4.0, abs=1e-8)
    assert u1.upper[0] == pytest.approx(7.0 + 4.0 * h1, abs=1e-8)
    _report(3, "coupled system matches closed form with h(t) = (e^2t - 2t - 1)/4")


def test_criterion_04_coupled_second_order():
    w0 = pair(U0, V0)
    times = np.linspace(0.0, 1.0, 9)
    traj = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-9),
        times,
    )
    s = core.add(U0, V0)
    e_term = fuzziness_residual(U0, V0)
    for t, st in zip(traj.times, traj.states):
        t = float(t)
        h_t = helpers.h_cosh(t)
        closed = pair(
            core.add(core.add(U0, core.scalar_mul(t * t / 2, s)), core.scalar_mul(h_t, e_term)),
            core.add(core.add(V0, core.scalar_mul(-t * t / 2, s)), core.scalar_mul(h_t, e_term)),
        )
        assert core.distance(st, closed) <= 1e-8
    _report(4, "second-order system matches closed form with h(t) = (cosh(t sqrt 2) - t^2 - 1)/4")


def test_criterion_05_crisp_collapse():
    a0, b0 = 1.5, -0.25
    cu, cv = core.crisp(a0), core.crisp(b0)
    w0 = pair(cu, cv)
    s0 = a0 + b0
    e = fuzziness_residual(cu, cv)
    assert core.norm(e) == 0.0  # exactly zero for crisp data
    times = np.array([0.0, 0.5, 1.0])

    swap = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.SWAP_MATRIX), w0, horizon=1.0, tol=1e-9), times
    )
    coupled = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0, horizon=1.0, tol=1e-9), times
    )
    second = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-9),
        times,
    )
    for t, st4, st5, st6 in zip(times, swap.states, coupled.states, second.states):
        t = float(t)
        assert st4[0].lower[0] == pytest.approx(a0 * math.cosh(t) + b0 * math.sinh(t), abs=1e-8)
        assert st4[1].lower[0] == pytest.approx(a0 * math.sinh(t) + b0 * math.cosh(t), abs=1e-8)
        assert st5[0].lower[0] == pytest.approx(a0 + t * s0, abs=1e-8)
        assert st5[1].lower[0] == pytest.approx(b0 - t * s0, abs=1e-8)
        assert st6[0].lower[0] == pytest.approx(a0 + t * t / 2 * s0, abs=1e-8)
        assert st6[1].lower[0] == pytest.approx(b0 - t * t / 2 * s0, abs=1e-8)
        for st in (st4, st5, st6):
            assert core.is_crisp(st[0]) and core.is_crisp(st[1])
    _report(5, "crisp data reproduce the classical formulas; fuzziness residual is exactly zero")


def test_criterion_06_nonsolution_witness():
    nu0 = core.make_triangular(0.5, 1.0, 1.5)
    nv0 = core.make_triangular(1.5, 2.0, 2.5)
    e_norm = core.norm(fuzziness_residual(nu0, nv0))
    assert e_norm > 0
    op = lift_matrix(cauchy.COUPLED_MATRIX)
    times = np.array([0.0, 0.5, 1.0])
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
    _report(6, "residual checker rejects the crisp-style formula and accepts the true flow")


def test_criterion_07_algebra_property_suites():
    results = [*helpers.suite_records("core", 42), *helpers.suite_records("spaces", 42)]
    assert all(r["passed"] for r in results)
    law_records = [
        r for r in results
        if r["property"] not in (
            "nesting", "opposite_witness_distance_two", "mixed_sign_radial_witness",
            "hdiff_nonexistence_witness", "symmetric_triangular_totality",
        )
    ]
    for rec in law_records:
        assert rec["cases"] >= 1000, rec
        assert rec["max_violation"] <= 1e-12, rec
    witness_names = {r["property"] for r in results}
    assert "opposite_witness_distance_two" in witness_names
    assert "mixed_sign_radial_witness" in witness_names
    _report(7, "metric/algebra laws hold on 1000 seeded cases each, witnesses included")


def test_criterion_08_semigroup_law():
    probes = canonical_probes()
    worst = 0.0
    for op in BUILTIN_OPS:
        ev = SemigroupEvaluator(op, "exp", 1e-9)
        for t in (0.0, 0.25, 0.5, 1.0):
            for s in (0.0, 0.25, 0.5, 1.0):
                for x in probes:
                    worst = max(worst, check_semigroup_law(ev, t, s, x))
    assert worst <= 1e-8
    _report(8, f"semigroup law residual {worst:.2e} <= 1e-8 over builtins and probe set")


def test_criterion_09_generator_bound():
    probes = canonical_probes()
    worst_excess = 0.0
    for op in BUILTIN_OPS:
        ev = SemigroupEvaluator(op, "exp", 1e-12)
        m = op.norm_bound
        for h in (1e-1, 1e-2, 1e-3, 1e-4):
            for x in probes:
                res = generator_residual(ev, h, x)
                bound = core.norm(x) * (math.exp(h * m) - 1.0 - h * m) / h + 1e-6
                worst_excess = max(worst_excess, res - bound)
    assert worst_excess <= 0.0
    _report(9, "difference quotients stay inside the exact remainder bound for all builtins")


def test_criterion_10_wave_example():
    xs = np.linspace(0.0, 1.0, 33)
    for t in (0.5, 1.0):
        got = solve_wave(
            lambda x, order: core.scalar_mul(math.exp(x), C), None, t, xs,
            bound=2.0 * math.e, tol=1e-9,
        )
        want = FuzzyFunction(
            xs, tuple(core.scalar_mul(math.cosh(t) * math.exp(float(x)), C) for x in xs)
        )
        assert core.distance(got, want) <= 1e-8
    _report(10, "wave series collapses to cosh(t) * profile within 1e-8")


def test_criterion_11_partial_difference_paths():
    with pytest.raises(HDifferenceError):
        core.hukuhara_diff(core.zero(), U0)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = random_fuzzy(rng, 16, 2.0)
        w = random_fuzzy(rng, 16, 2.0)
        u = core.add(v, w)
        got = core.add(core.hukuhara_diff(u, v), v)
        assert core.distance(got, u) <= 1e-12 * max(1.0, core.norm(u))
    _report(11, "difference of zero by a fuzzy number fails; round trip holds on 1000 pairs")
