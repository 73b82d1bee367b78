"""Cross-checks of the series solvers against levelwise endpoint integration.

Under the forward-difference (Hukuhara) derivative, the two worked systems
induce classical ODEs on the endpoint functions at every membership level:

    u' = v,  v' = u            ->  ul' = vl, uu' = vu, vl' = ul, vu' = uu
    u' = u+v,  v' = -(u+v)     ->  ul' = ul+vl, uu' = uu+vu,
                                   vl' = -(uu+vu), vu' = -(ul+vl)

(negation swaps endpoint roles).  Integrating these with a classical
fixed-step scheme never touches the fuzzy algebra at all, which makes it a
fully independent oracle for the series engine on genuinely fuzzy data.
"""

import numpy as np

from fuzzsemi import cauchy, core
from fuzzsemi.cauchy import CauchyProblem, solve_first_order, solve_second_order
from fuzzsemi.operators import lift_matrix
from fuzzsemi.spaces import pair

import helpers

U0 = core.make_triangular(0, 1, 2, 16)
V0 = core.make_triangular(1, 2, 3, 16)


def stack(w):
    return np.concatenate([w[0].lower, w[0].upper, w[1].lower, w[1].upper])


def unstack(y, n):
    return y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]


def test_swap_system_endpoint_ode():
    n = U0.levels.size

    def field(_, y):
        ul, uu, vl, vu = unstack(y, n)
        return np.concatenate([vl, vu, ul, uu])

    ref = helpers.rk4(field, stack(pair(U0, V0)), 1.0, steps=800)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.SWAP_MATRIX), pair(U0, V0), horizon=1.0, tol=1e-10),
        np.array([0.0, 1.0]),
    )
    got = stack(traj.states[-1])
    assert np.abs(got - ref).max() <= 1e-8


def test_coupled_system_endpoint_ode():
    n = U0.levels.size

    def field(_, y):
        ul, uu, vl, vu = unstack(y, n)
        s_lo, s_up = ul + vl, uu + vu
        return np.concatenate([s_lo, s_up, -s_up, -s_lo])

    ref = helpers.rk4(field, stack(pair(U0, V0)), 1.0, steps=800)
    traj = solve_first_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), pair(U0, V0), horizon=1.0, tol=1e-10),
        np.array([0.0, 1.0]),
    )
    got = stack(traj.states[-1])
    assert np.abs(got - ref).max() <= 1e-8


def test_coupled_second_order_endpoint_ode():
    n = U0.levels.size

    def field(_, y):
        pos, vel = y[:4 * n], y[4 * n:]
        ul, uu, vl, vu = unstack(pos, n)
        s_lo, s_up = ul + vl, uu + vu
        acc = np.concatenate([s_lo, s_up, -s_up, -s_lo])
        return np.concatenate([vel, acc])

    y0 = np.concatenate([stack(pair(U0, V0)), np.zeros(4 * n)])
    ref = helpers.rk4(field, y0, 1.0, steps=800)[: 4 * n]
    w0 = pair(U0, V0)
    traj = solve_second_order(
        CauchyProblem(lift_matrix(cauchy.COUPLED_MATRIX), w0,
                      initial_velocity=core.zero_like(w0), horizon=1.0, tol=1e-10),
        np.array([0.0, 1.0]),
    )
    got = stack(traj.states[-1])
    assert np.abs(got - ref).max() <= 1e-8


def test_series_trajectory_satisfies_equation_in_generalized_sense():
    # drive the residual checker on the series output itself: the defect of
    # the one-sided quotients must shrink with the step
    op = lift_matrix(cauchy.COUPLED_MATRIX)
    traj = solve_first_order(
        CauchyProblem(op, pair(U0, V0), horizon=1.0, tol=1e-11), np.array([0.0, 0.5, 1.0])
    )
    res_coarse = cauchy.residual_check(traj, op, h=1e-2, times=[0.5])
    res_fine = cauchy.residual_check(traj, op, h=1e-3, times=[0.5])
    assert res_fine < res_coarse
    assert res_fine <= 0.05
