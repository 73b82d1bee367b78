"""Seeded property suites behind the `verify` command.

Each suite replays the algebraic and metric laws of its module on
deterministic pseudo-random data and records the worst violation seen.
Violations are measured relative to the magnitude of the data involved
(scaled by max(1, size)), so the pass tolerances are relative.  The laws
that every space shares with R_F (Diamond & Kloeden, *Metric Spaces of
Fuzzy Sets*, 1994) are written once, in `_metric_laws` and `_radial_gap`,
and each suite applies them to its own elements and metrics.  The solver
suite judges the worked systems through the runners of `cauchy.WORKED_SYSTEMS`.
"""

from __future__ import annotations

import math

import numpy as np

from . import cauchy, core, operators, semigroup, spaces
from .core import FuzzyNumber
from .errors import HDifferenceError
from .operators import builtin, canonical_probes, lift_matrix, random_fuzzy
from .spaces import FuzzyFunction, FuzzySequence, pair

SUITE_NAMES = ("core", "spaces", "operators", "semigroup", "solver")

EXACT_TOL = 1e-12  # relative tolerance for laws that hold exactly levelwise
CASES = 1000

_PROPERTY_LEVELS = 16  # coarse grids keep the 1000-case suites fast


class _Worst:
    """The records of one suite, and for each property still open the worst
    violation noted (from 0) and the number of cases noted."""

    def __init__(self, suite: str):
        self.suite = suite
        self.records = []
        self._open = {}

    def note(self, prop: str, *violations: float) -> None:
        """One case of ``prop``, violated by the worst of ``violations``; a NaN
        violation makes the property's worst NaN for good, so it fails."""
        worst, cases = self._open.get(prop, (0.0, 0))
        if any(map(math.isnan, violations)):
            worst = math.nan  # max keeps its first argument unless another is larger
        self._open[prop] = (max(worst, *violations), cases + 1)

    def close(self, *tolerances: float) -> None:
        """Record the open properties in the order first noted, each against
        its own one of ``tolerances``, or all against a single one."""
        if len(tolerances) == 1:
            tolerances *= len(self._open)
        for (prop, (worst, cases)), tol in zip(self._open.items(), tolerances, strict=True):
            self.record(prop, cases, worst, tol)
        self._open.clear()

    def record(self, prop: str, cases: int, violation: float, tolerance: float) -> None:
        self.records.append({
            "suite": self.suite,
            "property": prop,
            "cases": int(cases),
            "max_violation": float(violation),
            "tolerance": float(tolerance),
            "passed": bool(violation <= tolerance),
        })


def _rel(err: float, *magnitudes: float) -> float:
    return err / max(1.0, *magnitudes) if magnitudes else err


def _metric_laws(out: _Worst, names, dist, lam: float, scale: float, x, y, z, e=None) -> None:
    """Note, under the three ``names`` and relative to ``scale``, the laws of
    the metric ``dist`` on elements of one space: translation invariance
    D(x+z, y+z) = D(x, y), scaling homogeneity D(lam x, lam y) = |lam| D(x, y)
    and, given ``e``, joint subadditivity D(x+y, z+e) <= D(x, z) + D(y, e)."""
    translation, scaling, subadditivity = names
    apart = dist(x, y)
    shifted = dist(core.add(x, z), core.add(y, z))
    out.note(translation, _rel(abs(shifted - apart), scale))
    scaled = dist(core.scalar_mul(lam, x), core.scalar_mul(lam, y))
    out.note(scaling, _rel(abs(scaled - abs(lam) * apart), scale * max(1.0, abs(lam))))
    if e is not None:
        joint = dist(core.add(x, y), core.add(z, e)) - dist(x, z) - dist(y, e)
        out.note(subadditivity, _rel(max(joint, 0.0), scale))


def _radial_gap(x, a: float, b: float) -> float:
    """|D(a x, b x) - |a - b| D(0, x)|: zero for factors of one sign."""
    apart = core.distance(core.scalar_mul(a, x), core.scalar_mul(b, x))
    return abs(apart - abs(a - b) * core.distance(core.zero_like(x), x))


def random_symmetric_triangular(rng, m_levels=_PROPERTY_LEVELS) -> FuzzyNumber:
    center = rng.uniform(-2.0, 2.0)
    delta = rng.uniform(0.0, 2.0)
    return core.symmetric_triangular(center, delta, m_levels)


# ---------------------------------------------------------------------------
# core


def suite_core(seed: int):
    rng = np.random.default_rng([seed, 1])
    m = _PROPERTY_LEVELS
    out = _Worst("core")

    def rf():
        return random_fuzzy(rng, m, span=2.0)

    for _ in range(CASES):
        u, v, w, e = rf(), rf(), rf(), rf()
        k = rng.uniform(-3.0, 3.0)
        scale = max(core.norm(u), core.norm(v), core.norm(w), core.norm(e), abs(k))
        k_scale = scale * max(1.0, abs(k))

        out.note("metric_identity", core.distance(u, u))
        out.note("metric_symmetry", abs(core.distance(u, v) - core.distance(v, u)))
        tri = core.distance(u, w) - core.distance(u, v) - core.distance(v, w)
        out.note("metric_triangle", _rel(max(tri, 0.0), scale))
        names = ("translation_invariance", "scale_homogeneity", "joint_subadditivity")
        _metric_laws(out, names, core.distance, k, scale, u, v, w, e)
        out.note("add_commutative", core.distance(core.add(u, v), core.add(v, u)))
        regrouped = core.distance(core.add(core.add(u, v), w), core.add(u, core.add(v, w)))
        out.note("add_associative", _rel(regrouped, scale))
        out.note("zero_neutral", core.distance(core.add(u, core.zero_like(u)), u))

        a, b = rng.uniform(0.0, 3.0, 2)
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        a, b = sgn * a, sgn * b
        lhs = core.scalar_mul(a + b, u)
        rhs = core.add(core.scalar_mul(a, u), core.scalar_mul(b, u))
        out.note("same_sign_distributivity", _rel(core.distance(lhs, rhs), scale * (abs(a) + abs(b))))
        lhs = core.scalar_mul(k, core.add(u, v))
        rhs = core.add(core.scalar_mul(k, u), core.scalar_mul(k, v))
        out.note("scalar_distributes_over_add", _rel(core.distance(lhs, rhs), k_scale))
        lam, mu = rng.uniform(-2.0, 2.0, 2)
        nested = core.distance(core.scalar_mul(lam, core.scalar_mul(mu, u)), core.scalar_mul(lam * mu, u))
        out.note("scalar_mul_associative", _rel(nested, scale * max(1.0, abs(lam * mu))))
        norm_err = max(
            abs(core.norm(core.scalar_mul(k, u)) - abs(k) * core.norm(u)),
            max(core.norm(core.add(u, v)) - core.norm(u) - core.norm(v), 0.0),
            max(abs(core.norm(u) - core.norm(v)) - core.distance(u, v), 0.0),
        )
        out.note("norm_laws", _rel(norm_err, k_scale))
        alpha, beta = rng.uniform(0.0, 3.0, 2)
        if rng.uniform() < 0.5:
            alpha, beta = -alpha, -beta
        radial = _radial_gap(u, alpha, beta)
        out.note("same_sign_radial", _rel(radial, scale * max(1.0, abs(alpha), abs(beta))))
    out.close(EXACT_TOL)

    # nesting of freshly built numbers, recomputed from the arrays
    out.record("nesting", CASES, max(core.nesting_defect(rf().ends).max() for _ in range(CASES)), 0.0)

    # the stated failures of linearity: witnesses must not vanish
    u = core.make_triangular(0.0, 1.0, 2.0, m)
    mixed = core.add(u, core.scalar_mul(-1.0, u))  # (1 + (-1)) * u would be crisp zero
    wit = abs(core.distance(mixed, core.zero_like(u)) - 2.0)
    out.record("opposite_witness_distance_two", 1, wit, EXACT_TOL)
    lhs = core.distance(core.scalar_mul(1.0, u), core.scalar_mul(-1.0, u))
    rhs = 2.0 * core.distance(core.zero_like(u), u)
    radial_wit = 0.0 if (abs(lhs - 2.0) <= EXACT_TOL and abs(rhs - 4.0) <= EXACT_TOL) else 1.0
    out.record("mixed_sign_radial_witness", 1, radial_wit, 0.0)

    # partial-difference round trip on pairs built as u = v + w
    for _ in range(CASES):
        v, w = rf(), rf()
        u = core.add(v, w)
        got = core.add(core.hukuhara_diff(u, v), v)
        out.note("hdiff_roundtrip", _rel(core.distance(got, u), core.norm(u)))
    out.close(EXACT_TOL)

    try:
        core.hukuhara_diff(core.zero(m), core.make_triangular(0.0, 1.0, 2.0, m))
        missing = 1.0
    except HDifferenceError:
        missing = 0.0
    out.record("hdiff_nonexistence_witness", 1, missing, 0.0)

    # one orientation of the difference always exists for symmetric triangulars,
    # and it is again symmetric triangular
    for _ in range(CASES):
        x1 = random_symmetric_triangular(rng, m)
        x2 = random_symmetric_triangular(rng, m)
        try:
            _, d = core.oriented_hukuhara_diff(x1, x2)
        except HDifferenceError:
            out.note("symmetric_triangular_totality", 1.0)
            continue
        mid = 0.5 * (d.lower + d.upper)
        out.note("symmetric_triangular_totality", float(np.abs(mid - mid[-1]).max()))
    out.close(1e-9)
    return out.records


# ---------------------------------------------------------------------------
# spaces


def _random_function(rng, nodes, m):
    return FuzzyFunction(nodes, tuple(random_fuzzy(rng, m) for _ in nodes))


def suite_spaces(seed: int):
    """The shared metric laws on every space: the sup and L^p metrics of
    functions, rho_p and mu of sequences, the box metric of products."""
    rng = np.random.default_rng([seed, 2])
    m = 8
    nodes = np.linspace(0.0, 1.0, 5)
    out = _Worst("spaces")

    def laws(metric, dist, *elements):
        # the shared laws as metric_translation, ..., at this case's lam and scale
        names = [f"{metric}_{law}" for law in ("translation", "scaling", "subadditivity")]
        _metric_laws(out, names, dist, lam, scale, *elements)

    for _ in range(CASES):
        f, g, h, e = (_random_function(rng, nodes, m) for _ in range(4))
        lam = rng.uniform(-2.0, 2.0)
        p = float(rng.integers(1, 4))
        mu = rng.uniform(0.0, 2.0)
        xs, ys, zs = (FuzzySequence([random_fuzzy(rng, m) for _ in range(4)]) for _ in range(3))
        w1, w2, w3, w4 = (pair(random_fuzzy(rng, m), random_fuzzy(rng, m)) for _ in range(4))
        scale = max(core.norm(f), core.norm(g), core.norm(h), 1.0)

        laws("sup", core.distance, f, g, h, e)
        out.note("sup_radial_same_sign", _rel(_radial_gap(f, abs(lam), mu), scale * 4.0))
        gap = abs(core.norm(f) - core.norm(g)) - core.distance(f, g)
        out.note("sup_norm_difference", _rel(max(gap, 0.0), scale))
        laws("lp", lambda a, b: spaces.lp_distance(a, b, p), f, g, h, e)
        laws("rho", lambda a, b: spaces.rho_p_metric(a, b, p), xs, ys, zs)
        laws("mu", spaces.mu_metric, xs, ys, zs)
        laws("box", core.distance, w1, w2, w3, w4)
    out.close(EXACT_TOL)
    return out.records


# ---------------------------------------------------------------------------
# operators


def _builtin_catalogue(m_levels=core.DEFAULT_LEVELS):
    c = core.make_triangular(0.0, 1.0, 2.0, m_levels)
    return [builtin(name, c) for name in operators.BUILTIN_NAMES]


def suite_operators(seed: int):
    rng = np.random.default_rng([seed, 3])
    m = _PROPERTY_LEVELS
    out = _Worst("operators")
    probes = canonical_probes(m)

    for op in _builtin_catalogue(m):
        suffix = "full" if op.homogeneity == operators.LINEAR else "positive"
        for _ in range(CASES):
            x = random_fuzzy(rng, m, span=2.0)
            y = random_fuzzy(rng, m, span=2.0)
            scale = max(core.norm(x), core.norm(y)) * max(1.0, op.norm_bound)
            split = core.distance(op(core.add(x, y)), core.add(op(x), op(y)))
            out.note(f"{op.name}_additive", _rel(split, scale))
            lam = rng.uniform(0.0, 3.0)
            if op.homogeneity == operators.LINEAR and rng.uniform() < 0.5:
                lam = -lam
            moved = core.distance(op(core.scalar_mul(lam, x)), core.scalar_mul(lam, op(x)))
            out.note(f"{op.name}_homogeneous_{suffix}", _rel(moved, scale * max(1.0, abs(lam))))
        out.close(EXACT_TOL)

        zero_img = core.distance(op(core.zero(m)), core.zero(m))
        out.record(f"{op.name}_preserves_zero", 1, zero_img, EXACT_TOL)

        for x in [*probes, *(random_fuzzy(rng, m, span=2.0) for _ in range(200))]:
            out.note(f"{op.name}_norm_sound", core.norm(op(x)) - op.norm_bound * core.norm(x))
        out.close(1e-10)

        zero_op = operators.zero_operator()
        for i in range(1, 6):
            phi_i = operators.phi_distance(operators.power(op, i), zero_op, probes)
            out.note(f"{op.name}_power_bounds", phi_i - op.norm_bound**i)
        out.close(1e-9)

    # the coupled matrix squares to the fuzziness residual in both slots
    coupled = lift_matrix(cauchy.COUPLED_MATRIX)
    for _ in range(200):
        w = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        ee = cauchy.fuzziness_residual(w[0], w[1])
        sq = coupled(coupled(w))
        out.note("coupled_square_is_residual", core.distance(sq[0], ee), core.distance(sq[1], ee))
        out.note("residual_negation_invariant", core.distance(core.scalar_mul(-1.0, ee), ee))
    out.close(EXACT_TOL, 0.0)

    ident = lift_matrix(np.eye(2))
    swap = lift_matrix(cauchy.SWAP_MATRIX)
    for _ in range(200):
        w = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        out.note("lift_identity", core.distance(ident(w), w))
        sw = swap(w)
        out.note("lift_swap", core.distance(sw[0], w[1]), core.distance(sw[1], w[0]))
    out.close(0.0)
    return out.records


# ---------------------------------------------------------------------------
# semigroup


def _semigroup_catalogue():
    ops = _builtin_catalogue(core.DEFAULT_LEVELS)
    ops.append(operators.identity())
    return ops


def suite_semigroup(seed: int):
    del seed  # the probe set and time grids are fixed; nothing random here
    out = _Worst("semigroup")
    probes = canonical_probes()
    pair_probes = [pair(probes[i], probes[i + 1]) for i in range(0, 10, 2)]
    tol = 1e-9

    ops = _semigroup_catalogue()
    lifted = [lift_matrix(cauchy.SWAP_MATRIX), lift_matrix(cauchy.COUPLED_MATRIX)]

    # Cauchy-tail soundness: ten extra terms move the partial sum by < tol
    for op in ops + lifted:
        xs = probes[:12] if op.domain == "fuzzy" else pair_probes
        for t in (0.5, 1.0, 2.0):
            m_ord = semigroup.required_order(t, op.norm_bound, tol, "exp")
            for x in xs:
                a = semigroup.series_apply(op, "exp", t, x, m_ord)
                b = semigroup.series_apply(op, "exp", t, x, m_ord + 10)
                out.note("truncation_tail_sound", core.distance(a, b))
    out.close(tol)

    # identity at t = 0, exactly
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for x in probes[:8]:
            out.note("identity_at_zero", core.distance(ev.at(0.0, x), x))
    out.close(0.0)

    # exponential law on same-sign grids
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for t in (0.0, 0.25, 0.5, 1.0):
            for s in (0.0, 0.25, 0.5, 1.0):
                for x in probes:
                    out.note("exponential_law", semigroup.check_semigroup_law(ev, t, s, x))
    out.close(1e-8)

    # generator limit: quotient within the explicit remainder bound (one
    # property per step size), and the residual shrinks with h (up to
    # rounding noise)
    hs = (1e-1, 1e-2, 1e-3, 1e-4)
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", 1e-12)
        for x in probes:
            nx = core.norm(x)
            residuals = [semigroup.generator_residual(ev, h, x) for h in hs]
            for h, res in zip(hs, residuals):
                bound = nx * (math.exp(h * op.norm_bound) - 1.0 - h * op.norm_bound) / h
                out.note(f"generator_remainder_bound_h={h:g}", res - (bound + 1e-6))
            for res_prev, res_next in zip(residuals, residuals[1:]):
                out.note("generator_residual_monotone", res_next - res_prev - 1e-9)
    out.close(0.0)

    # closed form of the scaling-generator pair (symmetric constant, so the
    # lower- and upper-endpoint growth rates coincide)
    c = core.make_triangular(0.0, 1.0, 2.0)
    for which, op in (("A", builtin("RemarkA", c)), ("B", builtin("RemarkB", c))):
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            for x in probes[:12]:
                closed = semigroup.generator_pair_closed_form(c, x, t, which)
                out.note("scaling_generator_closed_form", core.distance(ev.at(t, x), closed))
    out.close(1e-8)

    # cosh/sinh basics
    for op in ops:
        ch = semigroup.SemigroupEvaluator(op, "cosh", tol)
        sh = semigroup.SemigroupEvaluator(op, "sinh", tol)
        for x in probes[:8]:
            out.note("cosh_identity_at_zero", core.distance(ch.at(0.0, x), x))
            out.note("sinh_zero_at_zero", core.distance(sh.at(0.0, x), core.zero_like(x)))
    out.close(0.0)

    # second derivative of the cosh flow: the sinh quotient approaches
    # A[cosh(t)]; checked on operators with certified bound <= 1
    small_c = core.make_triangular(-0.2, 0.0, 0.2)
    bounded = [operators.identity(), builtin("A4"), builtin("A5"), builtin("RemarkA", small_c)]
    h = 1e-3
    tol2 = 1e-12
    for op in bounded:
        ch = semigroup.SemigroupEvaluator(op, "cosh", tol2)
        sh = semigroup.SemigroupEvaluator(op, "sinh", tol2)
        mb = op.norm_bound
        for t in (0.5, 1.0):
            for x in probes[:8]:
                quot = core.scalar_mul(1.0 / h, core.hukuhara_diff(sh.at(t + h, x), sh.at(t, x)))
                res = core.distance(quot, op(ch.at(t, x)))
                allowance = (
                    h * mb ** 1.5 * math.sinh(math.sqrt(mb) * (t + h)) * max(1.0, core.norm(x))
                    + 2.0 * tol2 / h
                    + 1e-9
                )
                out.note("cosh_second_derivative", res - allowance)
    out.close(0.0)
    return out.records


# ---------------------------------------------------------------------------
# solver


def _rk4(matrix, y0, t_end: float, steps: int = 400) -> tuple:
    """Classical fixed-step RK4 for y' = matrix y on a 2-vector of plain floats,
    each step's arithmetic in the order the numpy form ``y + h / 2 * k`` takes
    it.  For matrices of 0 and +-1 every entry of the product is one exact
    product per term and one addition, so it equals ``matrix @ y`` bit for bit."""
    (a, b), (c, d) = matrix
    y, z = y0
    h = t_end / steps
    h2, h6 = h / 2, h / 6
    for _ in range(steps):
        k1, l1 = a * y + b * z, c * y + d * z
        p, q = y + h2 * k1, z + h2 * l1
        k2, l2 = a * p + b * q, c * p + d * q
        p, q = y + h2 * k2, z + h2 * l2
        k3, l3 = a * p + b * q, c * p + d * q
        p, q = y + h * k3, z + h * l3
        k4, l4 = a * p + b * q, c * p + d * q
        y, z = y + h6 * (k1 + 2 * k2 + 2 * k3 + k4), z + h6 * (l1 + 2 * l2 + 2 * l3 + l4)
    return y, z


def suite_solver(seed: int):
    rng = np.random.default_rng([seed, 4])
    out = _Worst("solver")
    tol = 1e-9

    def worked(name, times):  # a worked system's (states, closed-form states) on the suite's grid
        return cauchy.WORKED_SYSTEMS[name][0](times, tol, core.DEFAULT_LEVELS, 17)

    # each system over its default horizon: states keep nested level sets and meet the closed form
    runs = {
        name: worked(name, cauchy.uniform_times(cauchy.WORKED_SYSTEMS[name][1], 9))
        for name in ("problem4", "problem5", "problem6")
    }
    states = runs["problem4"][0] + runs["problem5"][0]
    defect = max(core.nesting_defect(s.ends).max() for s in states)
    out.record("trajectory_validity", len(states), defect, 0.0)
    for name, (series, closed) in runs.items():
        for st, want in zip(series, closed):
            out.note(f"{name}_series_vs_closed", core.distance(st, want))
    out.close(1e-8)

    # crisp data: agreement with a classical fixed-step integrator
    a0, b0 = 1.5, -0.5
    crisp_pair = pair(core.crisp(a0), core.crisp(b0))
    for matrix in (cauchy.SWAP_MATRIX, cauchy.COUPLED_MATRIX):
        problem = cauchy.CauchyProblem(lift_matrix(matrix), crisp_pair, horizon=1.0, tol=tol)
        traj = cauchy.solve_first_order(problem, np.array([0.0, 0.5, 1.0]))
        for t, st in zip(traj.times, traj.states):
            if t == 0.0:
                continue
            ref = _rk4(matrix, (a0, b0), float(t))
            out.note("crisp_collapse_rk4", *(abs(r - got) for r, got in zip(ref, st.ends[:, 0, -1].tolist())))
    out.close(max(tol, 1e-6))

    # crisp closed formulas and the vanishing fuzziness residual
    e_norm_crisp = core.norm(cauchy.fuzziness_residual(core.crisp(a0), core.crisp(b0)))
    s0 = a0 + b0
    for t in (0.25, 0.75, 1.0):
        for closed_form, want in (
            (cauchy.problem5_closed_form, (a0 + t * s0, b0 - t * s0)),
            (cauchy.problem6_closed_form, (a0 + 0.5 * t * t * s0, b0 - 0.5 * t * t * s0)),
            (cauchy.problem4_closed_form, (a0 * math.cosh(t) + b0 * math.sinh(t),
                                           a0 * math.sinh(t) + b0 * math.cosh(t))),
        ):
            st = closed_form(core.crisp(a0), core.crisp(b0), t)
            out.note("crisp_closed_formulas", *(abs(c.lower[-1] - w) for c, w in zip(st.components, want)))
    out.close(1e-8)
    out.record("crisp_fuzziness_residual_zero", 1, e_norm_crisp, 0.0)

    # the fuzziness residual vanishes only for crisp sums: 200 cases (u, v) drawn
    # in one call, as 200 pairs of random_fuzzy draws, and judged termwise on
    # two 200-term sequences; every eighth pair collapses onto the core lower
    # endpoints it drew, so crisp sums are judged too without a further draw
    ends = operators._random_ends(rng, (200, 2), 16)
    ends[7::8] = ends[7::8, :, :1, -1:].copy()
    if not core.nesting_defect(ends).max() == 0.0:
        raise ValueError("drawn endpoints do not have nested level sets")
    blank = FuzzySequence([core.zero(16)])
    uu, vv = blank._with(ends[:, 0]), blank._with(ends[:, 1])
    e_norms = np.abs(cauchy.fuzziness_residual(uu, vv).ends).max(axis=(-2, -1))
    sums = core.add(uu, vv).ends
    spreads = (sums[:, 1] - sums[:, 0]).max(axis=-1)
    for e, spread in zip(e_norms.tolist(), spreads.tolist()):
        out.note("fuzziness_residual_iff_crisp", e if spread < 1e-12 else float(e == 0.0))
    out.close(1e-12)

    # the forced solve's quadrature integrates an affine integrand exactly
    uu = core.make_triangular(-1.0, 0.5, 3.0)
    got = cauchy._refined_integral(lambda nodes: [core.scalar_mul(s, uu) for s in nodes], 1.0, 1e-14)
    out.record("quadrature_affine_exact", 1, core.distance(got, core.scalar_mul(0.5, uu)), 1e-14)

    # forced crisp problem: u' = u + 1, u(0) = 0 has solution e^t - 1 (a constant
    # forcing of a scale: the exact forced flow, not the quadrature)
    one = core.crisp(1.0)
    forced = cauchy.CauchyProblem(
        operators.scale_operator(1.0), core.crisp(0.0), forcing=lambda s: one,
        horizon=1.0, tol=1e-7,
    )
    ftraj = cauchy.solve_first_order(forced, np.array([0.0, 0.5, 1.0]))
    for t, st in zip(ftraj.times, ftraj.states):
        out.note("forced_variation_of_parameters", abs(st.lower[-1] - math.expm1(float(t))))
    out.close(1e-6)

    # the residual checker separates the true flow from the crisp-style formula
    coupled = lift_matrix(cauchy.COUPLED_MATRIX)
    nu0 = core.make_triangular(0.5, 1.0, 1.5)
    nv0 = core.make_triangular(1.5, 2.0, 2.5)
    e_norm = core.norm(cauchy.fuzziness_residual(nu0, nv0))
    times = np.array([0.0, 0.5, 1.0])
    naive = cauchy.Trajectory(
        times,
        tuple(cauchy.naive_problem5_formula(nu0, nv0, float(t)) for t in times),
        lambda ts: [cauchy.naive_problem5_formula(nu0, nv0, float(t)) for t in ts],
    )
    true = cauchy.Trajectory(
        times,
        tuple(cauchy.problem5_closed_form(nu0, nv0, float(t)) for t in times),
        lambda ts: [cauchy.problem5_closed_form(nu0, nv0, float(t)) for t in ts],
    )
    naive_low = min(
        cauchy.residual_check(naive, coupled, h=h, times=[1.0]) for h in (1e-2, 1e-3, 1e-4)
    )
    true_res = cauchy.residual_check(true, coupled, h=1e-3, times=[1.0])
    witness = 0.0 if (naive_low >= 0.5 * e_norm and true_res < 1e-2) else 1.0
    out.record("nonsolution_witness", 4, witness, 0.0)

    # wave profile with proportional even derivatives collapses to a cosh factor
    for got, want in zip(*worked("wave", np.array([0.5, 1.0]))):
        out.note("wave_cosh_collapse", core.distance(got, want))
    out.close(1e-8)
    return out.records


SUITES = {
    "core": suite_core,
    "spaces": suite_spaces,
    "operators": suite_operators,
    "semigroup": suite_semigroup,
    "solver": suite_solver,
}


def run_suites(names, seed: int) -> dict:
    """Run the named suites and bundle a machine-readable report."""
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return {
        "schema": "fuzzsemi/1",
        "command": "verify",
        "seed": int(seed),
        "suites": list(names),
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
