"""Seeded property suites behind the `verify` command.

Each suite replays the algebraic and metric laws of its module on
deterministic pseudo-random data and records the worst violation seen.
Violations are measured relative to the magnitude of the data involved
(scaled by max(1, size)), so the pass tolerances are relative.
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


def _rec(suite, prop, cases, violation, tolerance):
    return {
        "suite": suite,
        "property": prop,
        "cases": int(cases),
        "max_violation": float(violation),
        "tolerance": float(tolerance),
        "passed": bool(violation <= tolerance),
    }


def _rel(err: float, *magnitudes: float) -> float:
    return err / max(1.0, *magnitudes) if magnitudes else err


def random_symmetric_triangular(rng, m_levels=_PROPERTY_LEVELS) -> FuzzyNumber:
    center = rng.uniform(-2.0, 2.0)
    delta = rng.uniform(0.0, 2.0)
    return core.symmetric_triangular(center, delta, m_levels)


# ---------------------------------------------------------------------------
# core


def suite_core(seed: int):
    rng = np.random.default_rng([seed, 1])
    m = _PROPERTY_LEVELS
    recs = []

    def rf():
        return random_fuzzy(rng, m, span=2.0)

    worst = {name: 0.0 for name in (
        "metric_identity", "metric_symmetry", "metric_triangle",
        "translation_invariance", "scale_homogeneity", "joint_subadditivity",
        "add_commutative", "add_associative", "zero_neutral",
        "same_sign_distributivity", "scalar_distributes_over_add",
        "scalar_mul_associative", "norm_laws", "same_sign_radial",
    )}
    for _ in range(CASES):
        u, v, w, e = rf(), rf(), rf(), rf()
        k = rng.uniform(-3.0, 3.0)
        scale = max(core.norm(u), core.norm(v), core.norm(w), core.norm(e), abs(k))

        worst["metric_identity"] = max(worst["metric_identity"], core.distance(u, u))
        worst["metric_symmetry"] = max(
            worst["metric_symmetry"], abs(core.distance(u, v) - core.distance(v, u))
        )
        tri = core.distance(u, w) - core.distance(u, v) - core.distance(v, w)
        worst["metric_triangle"] = max(worst["metric_triangle"], _rel(max(tri, 0.0), scale))
        worst["translation_invariance"] = max(
            worst["translation_invariance"],
            _rel(abs(core.distance(core.add(u, w), core.add(v, w)) - core.distance(u, v)), scale),
        )
        worst["scale_homogeneity"] = max(
            worst["scale_homogeneity"],
            _rel(
                abs(
                    core.distance(core.scalar_mul(k, u), core.scalar_mul(k, v))
                    - abs(k) * core.distance(u, v)
                ),
                scale * max(1.0, abs(k)),
            ),
        )
        joint = core.distance(core.add(u, v), core.add(w, e)) - core.distance(u, w) - core.distance(v, e)
        worst["joint_subadditivity"] = max(worst["joint_subadditivity"], _rel(max(joint, 0.0), scale))
        worst["add_commutative"] = max(
            worst["add_commutative"], core.distance(core.add(u, v), core.add(v, u))
        )
        worst["add_associative"] = max(
            worst["add_associative"],
            _rel(core.distance(core.add(core.add(u, v), w), core.add(u, core.add(v, w))), scale),
        )
        worst["zero_neutral"] = max(
            worst["zero_neutral"], core.distance(core.add(u, core.zero_like(u)), u)
        )

        a, b = rng.uniform(0.0, 3.0, 2)
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        a, b = sgn * a, sgn * b
        lhs = core.scalar_mul(a + b, u)
        rhs = core.add(core.scalar_mul(a, u), core.scalar_mul(b, u))
        worst["same_sign_distributivity"] = max(
            worst["same_sign_distributivity"], _rel(core.distance(lhs, rhs), scale * (abs(a) + abs(b)))
        )
        worst["scalar_distributes_over_add"] = max(
            worst["scalar_distributes_over_add"],
            _rel(
                core.distance(
                    core.scalar_mul(k, core.add(u, v)),
                    core.add(core.scalar_mul(k, u), core.scalar_mul(k, v)),
                ),
                scale * max(1.0, abs(k)),
            ),
        )
        lam, mu = rng.uniform(-2.0, 2.0, 2)
        worst["scalar_mul_associative"] = max(
            worst["scalar_mul_associative"],
            _rel(
                core.distance(core.scalar_mul(lam, core.scalar_mul(mu, u)), core.scalar_mul(lam * mu, u)),
                scale * max(1.0, abs(lam * mu)),
            ),
        )
        norm_err = max(
            abs(core.norm(core.scalar_mul(k, u)) - abs(k) * core.norm(u)),
            max(core.norm(core.add(u, v)) - core.norm(u) - core.norm(v), 0.0),
            max(abs(core.norm(u) - core.norm(v)) - core.distance(u, v), 0.0),
        )
        worst["norm_laws"] = max(worst["norm_laws"], _rel(norm_err, scale * max(1.0, abs(k))))
        alpha, beta = rng.uniform(0.0, 3.0, 2)
        if rng.uniform() < 0.5:
            alpha, beta = -alpha, -beta
        worst["same_sign_radial"] = max(
            worst["same_sign_radial"],
            _rel(
                abs(
                    core.distance(core.scalar_mul(alpha, u), core.scalar_mul(beta, u))
                    - abs(alpha - beta) * core.distance(core.zero_like(u), u)
                ),
                scale * max(1.0, abs(alpha), abs(beta)),
            ),
        )
    for name, v in worst.items():
        recs.append(_rec("core", name, CASES, v, EXACT_TOL))

    # nesting of freshly built numbers, recomputed from the arrays
    nest = max(core.nesting_defect(rf().ends).max() for _ in range(CASES))
    recs.append(_rec("core", "nesting", CASES, nest, 0.0))

    # the stated failures of linearity: witnesses must not vanish
    u = core.make_triangular(0.0, 1.0, 2.0, m)
    mixed = core.add(u, core.scalar_mul(-1.0, u))  # (1 + (-1)) * u would be crisp zero
    wit = abs(core.distance(mixed, core.zero_like(u)) - 2.0)
    recs.append(_rec("core", "opposite_witness_distance_two", 1, wit, EXACT_TOL))
    lhs = core.distance(core.scalar_mul(1.0, u), core.scalar_mul(-1.0, u))
    rhs = 2.0 * core.distance(core.zero_like(u), u)
    radial_wit = 0.0 if (abs(lhs - 2.0) <= EXACT_TOL and abs(rhs - 4.0) <= EXACT_TOL) else 1.0
    recs.append(_rec("core", "mixed_sign_radial_witness", 1, radial_wit, 0.0))

    # partial-difference round trip on pairs built as u = v + w
    rt = 0.0
    for _ in range(CASES):
        v, w = rf(), rf()
        u = core.add(v, w)
        got = core.add(core.hukuhara_diff(u, v), v)
        rt = max(rt, _rel(core.distance(got, u), core.norm(u)))
    recs.append(_rec("core", "hdiff_roundtrip", CASES, rt, EXACT_TOL))

    try:
        core.hukuhara_diff(core.zero(m), core.make_triangular(0.0, 1.0, 2.0, m))
        missing = 1.0
    except HDifferenceError:
        missing = 0.0
    recs.append(_rec("core", "hdiff_nonexistence_witness", 1, missing, 0.0))

    # one orientation of the difference always exists for symmetric triangulars
    total = 0.0
    for _ in range(CASES):
        x1 = random_symmetric_triangular(rng, m)
        x2 = random_symmetric_triangular(rng, m)
        try:
            _, d = core.oriented_hukuhara_diff(x1, x2)
            # the result should again be symmetric triangular
            mid = 0.5 * (d.lower + d.upper)
            total = max(total, float(np.abs(mid - mid[-1]).max()))
        except HDifferenceError:
            total = max(total, 1.0)
    recs.append(_rec("core", "symmetric_triangular_totality", CASES, total, 1e-9))
    return recs


# ---------------------------------------------------------------------------
# spaces


def _random_function(rng, nodes, m):
    return FuzzyFunction(nodes, tuple(random_fuzzy(rng, m) for _ in nodes))


def suite_spaces(seed: int):
    rng = np.random.default_rng([seed, 2])
    m = 8
    nodes = np.linspace(0.0, 1.0, 5)
    recs = []
    worst = {name: 0.0 for name in (
        "sup_translation", "sup_scaling", "sup_subadditivity", "sup_radial_same_sign",
        "sup_norm_difference", "lp_translation", "lp_scaling", "lp_subadditivity",
        "rho_translation", "rho_scaling", "mu_translation", "mu_scaling",
        "box_translation", "box_scaling", "box_subadditivity",
    )}
    for _ in range(CASES):
        f = _random_function(rng, nodes, m)
        g = _random_function(rng, nodes, m)
        h = _random_function(rng, nodes, m)
        e = _random_function(rng, nodes, m)
        lam = rng.uniform(-2.0, 2.0)
        p = float(rng.integers(1, 4))
        scale = max(core.norm(f), core.norm(g), core.norm(h), 1.0)

        worst["sup_translation"] = max(
            worst["sup_translation"],
            _rel(abs(core.distance(core.add(f, h), core.add(g, h))
                     - core.distance(f, g)), scale),
        )
        worst["sup_scaling"] = max(
            worst["sup_scaling"],
            _rel(abs(core.distance(core.scalar_mul(lam, f), core.scalar_mul(lam, g))
                     - abs(lam) * core.distance(f, g)), scale * max(1.0, abs(lam))),
        )
        joint = (
            core.distance(core.add(f, g), core.add(h, e))
            - core.distance(f, h) - core.distance(g, e)
        )
        worst["sup_subadditivity"] = max(worst["sup_subadditivity"], _rel(max(joint, 0.0), scale))
        lam2 = abs(lam)
        mu2 = rng.uniform(0.0, 2.0)
        zero_f = core.zero_like(f)
        worst["sup_radial_same_sign"] = max(
            worst["sup_radial_same_sign"],
            _rel(abs(core.distance(core.scalar_mul(lam2, f), core.scalar_mul(mu2, f))
                     - abs(lam2 - mu2) * core.distance(zero_f, f)), scale * 4.0),
        )
        worst["sup_norm_difference"] = max(
            worst["sup_norm_difference"],
            _rel(max(abs(core.norm(f) - core.norm(g)) - core.distance(f, g), 0.0), scale),
        )

        worst["lp_translation"] = max(
            worst["lp_translation"],
            _rel(abs(spaces.lp_distance(core.add(f, h), core.add(g, h), p)
                     - spaces.lp_distance(f, g, p)), scale),
        )
        worst["lp_scaling"] = max(
            worst["lp_scaling"],
            _rel(abs(spaces.lp_distance(core.scalar_mul(lam, f), core.scalar_mul(lam, g), p)
                     - abs(lam) * spaces.lp_distance(f, g, p)), scale * max(1.0, abs(lam))),
        )
        jlp = (
            spaces.lp_distance(core.add(f, g), core.add(h, e), p)
            - spaces.lp_distance(f, h, p) - spaces.lp_distance(g, e, p)
        )
        worst["lp_subadditivity"] = max(worst["lp_subadditivity"], _rel(max(jlp, 0.0), scale))

        xs = FuzzySequence(tuple(random_fuzzy(rng, m) for _ in range(4)))
        ys = FuzzySequence(tuple(random_fuzzy(rng, m) for _ in range(4)))
        zs = FuzzySequence(tuple(random_fuzzy(rng, m) for _ in range(4)))
        xt = FuzzySequence(tuple(core.add(a, c) for a, c in zip(xs.terms, zs.terms)))
        yt = FuzzySequence(tuple(core.add(b, c) for b, c in zip(ys.terms, zs.terms)))
        worst["rho_translation"] = max(
            worst["rho_translation"],
            _rel(abs(spaces.rho_p_metric(xt, yt, p) - spaces.rho_p_metric(xs, ys, p)), scale),
        )
        xs_l = FuzzySequence(tuple(core.scalar_mul(lam, a) for a in xs.terms))
        ys_l = FuzzySequence(tuple(core.scalar_mul(lam, b) for b in ys.terms))
        worst["rho_scaling"] = max(
            worst["rho_scaling"],
            _rel(abs(spaces.rho_p_metric(xs_l, ys_l, p) - abs(lam) * spaces.rho_p_metric(xs, ys, p)),
                 scale * max(1.0, abs(lam))),
        )
        worst["mu_translation"] = max(
            worst["mu_translation"],
            _rel(abs(spaces.mu_metric(xt, yt) - spaces.mu_metric(xs, ys)), scale),
        )
        worst["mu_scaling"] = max(
            worst["mu_scaling"],
            _rel(abs(spaces.mu_metric(xs_l, ys_l) - abs(lam) * spaces.mu_metric(xs, ys)),
                 scale * max(1.0, abs(lam))),
        )

        w1 = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        w2 = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        w3 = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        w4 = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        worst["box_translation"] = max(
            worst["box_translation"],
            _rel(abs(core.distance(core.add(w1, w3), core.add(w2, w3))
                     - core.distance(w1, w2)), scale),
        )
        worst["box_scaling"] = max(
            worst["box_scaling"],
            _rel(abs(core.distance(core.scalar_mul(lam, w1), core.scalar_mul(lam, w2))
                     - abs(lam) * core.distance(w1, w2)), scale * max(1.0, abs(lam))),
        )
        jbox = (
            core.distance(core.add(w1, w2), core.add(w3, w4))
            - core.distance(w1, w3) - core.distance(w2, w4)
        )
        worst["box_subadditivity"] = max(worst["box_subadditivity"], _rel(max(jbox, 0.0), scale))

    for name, v in worst.items():
        recs.append(_rec("spaces", name, CASES, v, EXACT_TOL))
    return recs


# ---------------------------------------------------------------------------
# operators


def _builtin_catalogue(m_levels=core.DEFAULT_LEVELS):
    c = core.make_triangular(0.0, 1.0, 2.0, m_levels)
    return [builtin(name, c) for name in operators.BUILTIN_NAMES]


def suite_operators(seed: int):
    rng = np.random.default_rng([seed, 3])
    m = _PROPERTY_LEVELS
    recs = []
    probes = canonical_probes(m)

    for op in _builtin_catalogue(m):
        additive = 0.0
        homogen = 0.0
        for _ in range(CASES):
            x = random_fuzzy(rng, m, span=2.0)
            y = random_fuzzy(rng, m, span=2.0)
            scale = max(core.norm(x), core.norm(y)) * max(1.0, op.norm_bound)
            additive = max(
                additive,
                _rel(core.distance(op(core.add(x, y)), core.add(op(x), op(y))), scale),
            )
            lam = rng.uniform(0.0, 3.0)
            if op.homogeneity == operators.LINEAR and rng.uniform() < 0.5:
                lam = -lam
            homogen = max(
                homogen,
                _rel(
                    core.distance(op(core.scalar_mul(lam, x)), core.scalar_mul(lam, op(x))),
                    scale * max(1.0, abs(lam)),
                ),
            )
        recs.append(_rec("operators", f"{op.name}_additive", CASES, additive, EXACT_TOL))
        suffix = "full" if op.homogeneity == operators.LINEAR else "positive"
        recs.append(_rec("operators", f"{op.name}_homogeneous_{suffix}", CASES, homogen, EXACT_TOL))

        zero_img = core.distance(op(core.zero(m)), core.zero(m))
        recs.append(_rec("operators", f"{op.name}_preserves_zero", 1, zero_img, EXACT_TOL))

        sound = 0.0
        for x in probes:
            sound = max(sound, core.norm(op(x)) - op.norm_bound * core.norm(x))
        for _ in range(200):
            x = random_fuzzy(rng, m, span=2.0)
            sound = max(sound, core.norm(op(x)) - op.norm_bound * core.norm(x))
        recs.append(_rec("operators", f"{op.name}_norm_sound", len(probes) + 200, max(sound, 0.0), 1e-10))

        sub = 0.0
        zero_op_ = operators.zero_operator()
        for i in range(1, 6):
            phi_i = operators.phi_distance(operators.power(op, i), zero_op_, probes)
            sub = max(sub, phi_i - op.norm_bound**i)
        recs.append(_rec("operators", f"{op.name}_power_bounds", 5, max(sub, 0.0), 1e-9))

    # the coupled matrix squares to the fuzziness residual in both slots
    coupled = lift_matrix(cauchy.COUPLED_MATRIX)
    worst_sq = 0.0
    worst_neg = 0.0
    for _ in range(200):
        w = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        ee = cauchy.fuzziness_residual(w[0], w[1])
        sq = coupled(coupled(w))
        worst_sq = max(worst_sq, core.distance(sq[0], ee), core.distance(sq[1], ee))
        worst_neg = max(worst_neg, core.distance(core.scalar_mul(-1.0, ee), ee))
    recs.append(_rec("operators", "coupled_square_is_residual", 200, worst_sq, EXACT_TOL))
    recs.append(_rec("operators", "residual_negation_invariant", 200, worst_neg, 0.0))

    ident = lift_matrix(np.eye(2))
    swap = lift_matrix(cauchy.SWAP_MATRIX)
    worst_id = 0.0
    worst_swap = 0.0
    for _ in range(200):
        w = pair(random_fuzzy(rng, m), random_fuzzy(rng, m))
        worst_id = max(worst_id, core.distance(ident(w), w))
        sw = swap(w)
        worst_swap = max(worst_swap, core.distance(sw[0], w[1]), core.distance(sw[1], w[0]))
    recs.append(_rec("operators", "lift_identity", 200, worst_id, 0.0))
    recs.append(_rec("operators", "lift_swap", 200, worst_swap, 0.0))
    return recs


# ---------------------------------------------------------------------------
# semigroup


def _semigroup_catalogue():
    ops = _builtin_catalogue(core.DEFAULT_LEVELS)
    ops.append(operators.identity())
    return ops


def suite_semigroup(seed: int):
    del seed  # the probe set and time grids are fixed; nothing random here
    recs = []
    probes = canonical_probes()
    pair_probes = [pair(probes[i], probes[i + 1]) for i in range(0, 10, 2)]
    tol = 1e-9

    ops = _semigroup_catalogue()
    lifted = [lift_matrix(cauchy.SWAP_MATRIX), lift_matrix(cauchy.COUPLED_MATRIX)]

    # Cauchy-tail soundness: ten extra terms move the partial sum by < tol
    worst = 0.0
    cases = 0
    for op in ops + lifted:
        xs = probes[:12] if op.domain == "fuzzy" else pair_probes
        for t in (0.5, 1.0, 2.0):
            m_ord = semigroup.required_order(t, op.norm_bound, tol, "exp")
            for x in xs:
                a = semigroup.series_apply(op, "exp", t, x, m_ord)
                b = semigroup.series_apply(op, "exp", t, x, m_ord + 10)
                worst = max(worst, core.distance(a, b))
                cases += 1
    recs.append(_rec("semigroup", "truncation_tail_sound", cases, worst, tol))

    # identity at t = 0, exactly
    worst = 0.0
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for x in probes[:8]:
            worst = max(worst, core.distance(ev.at(0.0, x), x))
    recs.append(_rec("semigroup", "identity_at_zero", 8 * len(ops), worst, 0.0))

    # exponential law on same-sign grids
    worst = 0.0
    cases = 0
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for t in (0.0, 0.25, 0.5, 1.0):
            for s in (0.0, 0.25, 0.5, 1.0):
                for x in probes:
                    worst = max(worst, semigroup.check_semigroup_law(ev, t, s, x))
                    cases += 1
    recs.append(_rec("semigroup", "exponential_law", cases, worst, 1e-8))

    # generator limit: quotient within the explicit remainder bound (one
    # table row per step size), and the residual shrinks with h (up to
    # rounding noise)
    hs = (1e-1, 1e-2, 1e-3, 1e-4)
    excess = {h: 0.0 for h in hs}
    residuals = {}
    for op in ops:
        ev = semigroup.SemigroupEvaluator(op, "exp", 1e-12)
        for x in probes:
            nx = core.norm(x)
            for h in hs:
                res = semigroup.generator_residual(ev, h, x)
                bound = nx * (math.exp(h * op.norm_bound) - 1.0 - h * op.norm_bound) / h
                excess[h] = max(excess[h], res - (bound + 1e-6))
                residuals[(op.name, id(x), h)] = res
    cases = len(ops) * len(probes)
    for h in hs:
        recs.append(_rec("semigroup", f"generator_remainder_bound_h={h:g}", cases,
                         max(excess[h], 0.0), 0.0))
    mono = 0.0
    for op in ops:
        for x in probes:
            for h_prev, h_next in zip(hs, hs[1:]):
                mono = max(
                    mono,
                    residuals[(op.name, id(x), h_next)]
                    - residuals[(op.name, id(x), h_prev)] - 1e-9,
                )
    recs.append(_rec("semigroup", "generator_residual_monotone", cases * (len(hs) - 1),
                     max(mono, 0.0), 0.0))

    # closed form of the scaling-generator pair (symmetric constant, so the
    # lower- and upper-endpoint growth rates coincide)
    c = core.make_triangular(0.0, 1.0, 2.0)
    worst = 0.0
    cases = 0
    for which, op in (("A", builtin("RemarkA", c)), ("B", builtin("RemarkB", c))):
        ev = semigroup.SemigroupEvaluator(op, "exp", tol)
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            for x in probes[:12]:
                closed = semigroup.generator_pair_closed_form(c, x, t, which)
                worst = max(worst, core.distance(ev.at(t, x), closed))
                cases += 1
    recs.append(_rec("semigroup", "scaling_generator_closed_form", cases, worst, 1e-8))

    # cosh/sinh basics
    worst0 = 0.0
    worstz = 0.0
    for op in ops:
        ch = semigroup.SemigroupEvaluator(op, "cosh", tol)
        sh = semigroup.SemigroupEvaluator(op, "sinh", tol)
        for x in probes[:8]:
            worst0 = max(worst0, core.distance(ch.at(0.0, x), x))
            worstz = max(worstz, core.distance(sh.at(0.0, x), core.zero_like(x)))
    recs.append(_rec("semigroup", "cosh_identity_at_zero", 8 * len(ops), worst0, 0.0))
    recs.append(_rec("semigroup", "sinh_zero_at_zero", 8 * len(ops), worstz, 0.0))

    # second derivative of the cosh flow: the sinh quotient approaches
    # A[cosh(t)]; checked on operators with certified bound <= 1
    small_c = core.make_triangular(-0.2, 0.0, 0.2)
    bounded = [operators.identity(), builtin("A4"), builtin("A5"), builtin("RemarkA", small_c)]
    worst = 0.0
    cases = 0
    h = 1e-3
    tol2 = 1e-12
    for op in bounded:
        ch = semigroup.SemigroupEvaluator(op, "cosh", tol2)
        sh = semigroup.SemigroupEvaluator(op, "sinh", tol2)
        mb = op.norm_bound
        for t in (0.5, 1.0):
            for x in probes[:8]:
                quot = core.scalar_mul(1.0 / h, core.hukuhara_diff(sh.at(t + h, x), sh.at(t, x)))
                target = op(ch.at(t, x))
                res = core.distance(quot, target)
                allowance = (
                    h * mb ** 1.5 * math.sinh(math.sqrt(mb) * (t + h)) * max(1.0, core.norm(x))
                    + 2.0 * tol2 / h
                    + 1e-9
                )
                worst = max(worst, res - allowance)
                cases += 1
    recs.append(_rec("semigroup", "cosh_second_derivative", cases, max(worst, 0.0), 0.0))
    return recs


# ---------------------------------------------------------------------------
# solver


def _rk4(field, y0: np.ndarray, t_end: float, steps: int = 400) -> np.ndarray:
    y = np.array(y0, dtype=float)
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        k1 = field(t, y)
        k2 = field(t + h / 2, y + h / 2 * k1)
        k3 = field(t + h / 2, y + h / 2 * k2)
        k4 = field(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def suite_solver(seed: int):
    rng = np.random.default_rng([seed, 4])
    recs = []
    tol = 1e-9
    u0 = core.make_triangular(0.0, 1.0, 2.0)
    v0 = core.make_triangular(1.0, 2.0, 3.0)
    w0 = pair(u0, v0)
    swap = lift_matrix(cauchy.SWAP_MATRIX)
    coupled = lift_matrix(cauchy.COUPLED_MATRIX)

    # every solver state keeps nested level sets
    traj4 = cauchy.solve_first_order(
        cauchy.CauchyProblem(swap, w0, horizon=2.0, tol=tol), cauchy.uniform_times(2.0, 9)
    )
    traj5 = cauchy.solve_first_order(
        cauchy.CauchyProblem(coupled, w0, horizon=1.0, tol=tol), cauchy.uniform_times(1.0, 9)
    )
    defect = max(core.nesting_defect(s.ends).max() for s in traj4.states + traj5.states)
    recs.append(_rec("solver", "trajectory_validity", len(traj4.states) + len(traj5.states), defect, 0.0))

    # series vs closed forms on fuzzy data
    worst4 = max(
        core.distance(st, cauchy.problem4_closed_form(u0, v0, float(t)))
        for t, st in zip(traj4.times, traj4.states)
    )
    recs.append(_rec("solver", "problem4_series_vs_closed", len(traj4.states), worst4, 1e-8))
    worst5 = max(
        core.distance(st, cauchy.problem5_closed_form(u0, v0, float(t)))
        for t, st in zip(traj5.times, traj5.states)
    )
    recs.append(_rec("solver", "problem5_series_vs_closed", len(traj5.states), worst5, 1e-8))

    zero_pair = core.zero_like(w0)
    traj6 = cauchy.solve_second_order(
        cauchy.CauchyProblem(coupled, w0, initial_velocity=zero_pair, horizon=1.0, tol=tol),
        cauchy.uniform_times(1.0, 9),
    )
    worst6 = max(
        core.distance(st, cauchy.problem6_closed_form(u0, v0, float(t)))
        for t, st in zip(traj6.times, traj6.states)
    )
    recs.append(_rec("solver", "problem6_series_vs_closed", len(traj6.states), worst6, 1e-8))

    # crisp data: agreement with a classical fixed-step integrator
    a0, b0 = 1.5, -0.5
    crisp_pair = pair(core.crisp(a0), core.crisp(b0))
    worst_rk = 0.0
    for matrix, name in ((cauchy.SWAP_MATRIX, "swap"), (cauchy.COUPLED_MATRIX, "coupled")):
        op = lift_matrix(matrix)
        traj = cauchy.solve_first_order(
            cauchy.CauchyProblem(op, crisp_pair, horizon=1.0, tol=tol), np.array([0.0, 0.5, 1.0])
        )
        mat = np.asarray(matrix)
        for t, st in zip(traj.times, traj.states):
            if t == 0.0:
                continue
            ref = _rk4(lambda _, y: mat @ y, np.array([a0, b0]), float(t))
            got = np.array([st[0].lower[-1], st[1].lower[-1]])
            worst_rk = max(worst_rk, float(np.abs(ref - got).max()))
    recs.append(_rec("solver", "crisp_collapse_rk4", 4, worst_rk, max(tol, 1e-6)))

    # crisp closed formulas and the vanishing fuzziness residual
    worst_cf = 0.0
    e_crisp = cauchy.fuzziness_residual(core.crisp(a0), core.crisp(b0))
    e_norm_crisp = core.norm(e_crisp)
    s0 = a0 + b0
    for t in (0.25, 0.75, 1.0):
        st5 = cauchy.problem5_closed_form(core.crisp(a0), core.crisp(b0), t)
        worst_cf = max(
            worst_cf,
            abs(st5[0].lower[-1] - (a0 + t * s0)),
            abs(st5[1].lower[-1] - (b0 - t * s0)),
        )
        st6 = cauchy.problem6_closed_form(core.crisp(a0), core.crisp(b0), t)
        worst_cf = max(
            worst_cf,
            abs(st6[0].lower[-1] - (a0 + 0.5 * t * t * s0)),
            abs(st6[1].lower[-1] - (b0 - 0.5 * t * t * s0)),
        )
        st4 = cauchy.problem4_closed_form(core.crisp(a0), core.crisp(b0), t)
        worst_cf = max(
            worst_cf,
            abs(st4[0].lower[-1] - (a0 * math.cosh(t) + b0 * math.sinh(t))),
            abs(st4[1].lower[-1] - (a0 * math.sinh(t) + b0 * math.cosh(t))),
        )
    recs.append(_rec("solver", "crisp_closed_formulas", 9, worst_cf, 1e-8))
    recs.append(_rec("solver", "crisp_fuzziness_residual_zero", 1, e_norm_crisp, 0.0))

    # the fuzziness residual vanishes only for crisp sums
    worst_iff = 0.0
    for _ in range(200):
        uu = random_fuzzy(rng, 16)
        vv = random_fuzzy(rng, 16)
        e = cauchy.fuzziness_residual(uu, vv)
        sum_spread = float((core.add(uu, vv).upper - core.add(uu, vv).lower).max())
        if sum_spread < 1e-12:
            worst_iff = max(worst_iff, core.norm(e))
        elif core.norm(e) == 0.0:
            worst_iff = max(worst_iff, 1.0)
    recs.append(_rec("solver", "fuzziness_residual_iff_crisp", 200, worst_iff, 1e-12))

    # the forced solve's quadrature integrates an affine integrand exactly
    uu = core.make_triangular(-1.0, 0.5, 3.0)
    got = cauchy._refined_integral(lambda nodes: [core.scalar_mul(s, uu) for s in nodes], 1.0, 1e-14)
    worst_q = core.distance(got, core.scalar_mul(0.5, uu))
    recs.append(_rec("solver", "quadrature_affine_exact", 1, worst_q, 1e-14))

    # forced crisp problem: u' = u + 1, u(0) = 0 has solution e^t - 1 (a constant
    # forcing of a scale: the exact forced flow, not the quadrature)
    one = core.crisp(1.0)
    forced = cauchy.CauchyProblem(
        operators.scale_operator(1.0), core.crisp(0.0), forcing=lambda s: one,
        horizon=1.0, tol=1e-7,
    )
    ftraj = cauchy.solve_first_order(forced, np.array([0.0, 0.5, 1.0]))
    worst_f = max(
        abs(st.lower[-1] - math.expm1(float(t))) for t, st in zip(ftraj.times, ftraj.states)
    )
    recs.append(_rec("solver", "forced_variation_of_parameters", 3, worst_f, 1e-6))

    # the residual checker separates the true flow from the crisp-style formula
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
    recs.append(_rec("solver", "nonsolution_witness", 4, witness, 0.0))

    # wave profile with proportional even derivatives collapses to a cosh factor
    c = core.make_triangular(0.0, 1.0, 2.0)
    xs = np.linspace(0.0, 1.0, 17)
    worst_w = 0.0
    for t in (0.5, 1.0):
        got = cauchy.solve_wave(
            lambda x, order: core.scalar_mul(math.exp(x), c), None, t, xs,
            bound=2.0 * math.e, tol=tol,
        )
        want = FuzzyFunction(
            xs, tuple(core.scalar_mul(math.cosh(t) * math.exp(float(x)), c) for x in xs)
        )
        worst_w = max(worst_w, core.distance(got, want))
    recs.append(_rec("solver", "wave_cosh_collapse", 2, worst_w, 1e-8))
    return recs


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
