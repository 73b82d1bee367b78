import math

import numpy as np
import pytest

from fuzzsemi import cauchy, checks, core, operators
from fuzzsemi.spaces import FuzzySequence

import helpers

_BUILTIN_LAWS = [
    (f"{name}_{prop}", cases, tol)
    for name, homogeneity in (
        ("A1", "full"), ("A2", "positive"), ("A3", "positive"), ("A4", "positive"),
        ("A5", "positive"), ("RemarkA", "positive"), ("RemarkB", "positive"),
    )
    for prop, cases, tol in (
        ("additive", 1000, 1e-12), (f"homogeneous_{homogeneity}", 1000, 1e-12),
        ("preserves_zero", 1, 1e-12), ("norm_sound", 237, 1e-10), ("power_bounds", 5, 1e-9),
    )
]

# every suite's (property, cases, tolerance) list, in report order: a law that
# is dropped, renamed, run on fewer cases or judged more loosely fails here
SUITE_LAWS = {
    "core": [
        ("metric_identity", 1000, 1e-12), ("metric_symmetry", 1000, 1e-12),
        ("metric_triangle", 1000, 1e-12), ("translation_invariance", 1000, 1e-12),
        ("scale_homogeneity", 1000, 1e-12), ("joint_subadditivity", 1000, 1e-12),
        ("add_commutative", 1000, 1e-12), ("add_associative", 1000, 1e-12), ("zero_neutral", 1000, 1e-12),
        ("same_sign_distributivity", 1000, 1e-12), ("scalar_distributes_over_add", 1000, 1e-12),
        ("scalar_mul_associative", 1000, 1e-12), ("norm_laws", 1000, 1e-12),
        ("same_sign_radial", 1000, 1e-12), ("nesting", 1000, 0.0),
        ("opposite_witness_distance_two", 1, 1e-12), ("mixed_sign_radial_witness", 1, 0.0),
        ("hdiff_roundtrip", 1000, 1e-12), ("hdiff_nonexistence_witness", 1, 0.0),
        ("symmetric_triangular_totality", 1000, 1e-9),
    ],
    "spaces": [
        (f"{metric}_{law}", 1000, 1e-12)
        for metric, laws in (
            ("sup", ("translation", "scaling", "subadditivity", "radial_same_sign", "norm_difference")),
            ("lp", ("translation", "scaling", "subadditivity")),
            ("rho", ("translation", "scaling")),
            ("mu", ("translation", "scaling")),
            ("box", ("translation", "scaling", "subadditivity")),
        )
        for law in laws
    ],
    "operators": _BUILTIN_LAWS + [
        ("coupled_square_is_residual", 200, 1e-12), ("residual_negation_invariant", 200, 0.0),
        ("lift_identity", 200, 0.0), ("lift_swap", 200, 0.0),
    ],
    "semigroup": [
        ("truncation_tail_sound", 297, 1e-9), ("identity_at_zero", 64, 0.0),
        ("exponential_law", 4736, 1e-8), ("generator_remainder_bound_h=0.1", 296, 0.0),
        ("generator_remainder_bound_h=0.01", 296, 0.0), ("generator_remainder_bound_h=0.001", 296, 0.0),
        ("generator_remainder_bound_h=0.0001", 296, 0.0), ("generator_residual_monotone", 888, 0.0),
        ("scaling_generator_closed_form", 120, 1e-8), ("cosh_identity_at_zero", 64, 0.0),
        ("sinh_zero_at_zero", 64, 0.0), ("cosh_second_derivative", 64, 0.0),
    ],
    "solver": [
        ("trajectory_validity", 18, 0.0), ("problem4_series_vs_closed", 9, 1e-8),
        ("problem5_series_vs_closed", 9, 1e-8), ("problem6_series_vs_closed", 9, 1e-8),
        ("crisp_collapse_rk4", 4, 1e-6), ("crisp_closed_formulas", 9, 1e-8),
        ("crisp_fuzziness_residual_zero", 1, 0.0), ("fuzziness_residual_iff_crisp", 200, 1e-12),
        ("quadrature_affine_exact", 1, 1e-14), ("forced_variation_of_parameters", 3, 1e-6),
        ("nonsolution_witness", 4, 0.0), ("wave_cosh_collapse", 2, 1e-8),
    ],
}


@pytest.mark.parametrize("suite", ["core", "spaces", "operators", "semigroup", "solver"])
def test_suite_passes(suite):
    records = helpers.suite_records(suite, 42)
    failures = [r for r in records if not r["passed"]]
    assert not failures, failures
    assert [(r["property"], r["cases"], r["tolerance"]) for r in records] == SUITE_LAWS[suite]
    assert {r["suite"] for r in records} == {suite}


def test_run_suites_report_shape():
    report = checks.run_suites(("solver",), seed=3)
    assert report["schema"] == "fuzzsemi/1"
    assert report["seed"] == 3
    assert report["suites"] == ["solver"]
    assert all(
        {"suite", "property", "cases", "max_violation", "tolerance", "passed"} <= set(r)
        for r in report["results"]
    )


def test_suites_are_seed_stable():
    a = checks.run_suites(("core",), seed=9)
    b = checks.run_suites(("core",), seed=9)
    assert a == b


def test_a_nan_violation_fails_its_property():
    out = checks._Worst("solver")
    for violation in (0.5, math.nan, 1.0):
        out.note("p", violation)
    out.note("q", 0.25, math.nan)
    out.note("r", 0.25)
    out.close(2.0)
    assert [(r["property"], r["cases"], r["passed"]) for r in out.records] == [
        ("p", 3, False), ("q", 1, False), ("r", 1, True),
    ]
    assert math.isnan(out.records[0]["max_violation"])


@pytest.mark.parametrize("seed", range(5))
def test_solver_suite_matches_per_draw_loops(seed):
    # the float RK4 and the 200 cases drawn and judged in one pass, against the per-draw loops, bit for bit
    names = ("crisp_collapse_rk4", "fuzziness_residual_iff_crisp")
    got = [r for r in helpers.suite_records("solver", seed) if r["property"] in names]
    assert repr(got) == repr(helpers.per_draw_solver_records(seed))


def test_solver_suite_judges_crisp_sums_at_every_seed(monkeypatch):
    # the fuzziness residual's 200 cases take both branches: some sums are crisp (spread
    # below 1e-12, judged by E itself) and the rest are fuzzy (judged by E != 0)
    judged = []
    real = cauchy.fuzziness_residual
    monkeypatch.setattr(cauchy, "fuzziness_residual", lambda u, v: judged.append((u, v)) or real(u, v))
    for seed in range(40):
        judged.clear()
        checks.suite_solver(seed)
        (uu, vv), = [(u, v) for u, v in judged if isinstance(u, FuzzySequence) and len(u) == 200]
        sums = core.add(uu, vv).ends
        crisp = (sums[:, 1] - sums[:, 0]).max(axis=-1) < 1e-12
        assert 0 < crisp.sum() < 200, seed
        assert not np.abs(real(uu, vv).ends[crisp]).any(), seed  # a crisp sum has E = 0 exactly


@pytest.mark.parametrize("m_levels, span", [(16, 1.0), (1, 2.0)])
def test_random_ends_is_sequential_random_fuzzy(m_levels, span):
    batch_rng, draw_rng, rule_rng = (np.random.default_rng(5) for _ in range(3))
    ends = operators._random_ends(batch_rng, (7, 2), m_levels, span)
    draws = [operators.random_fuzzy(draw_rng, m_levels, span) for _ in range(14)]
    assert ends.shape == (7, 2, 2, m_levels + 1)
    assert ends.tobytes() == np.stack([u.ends for u in draws]).tobytes()
    assert batch_rng.bit_generator.state == draw_rng.bit_generator.state
    # random_fuzzy keeps its drawing rule
    rule = [helpers.random_fuzzy_per_draw(rule_rng, m_levels, span) for _ in range(14)]
    assert ends.tobytes() == np.array(rule).tobytes()
    assert draw_rng.bit_generator.state == rule_rng.bit_generator.state
    # both branches of the rule: a re-anchored upper branch meets the lower one at the top level
    anchored = ends[..., 0, -1] == ends[..., 1, -1]
    assert anchored.any()
    if m_levels == 1:
        assert not anchored.all()
