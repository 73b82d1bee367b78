import pytest

from fuzzsemi import checks


@pytest.mark.parametrize("suite", ["core", "spaces", "operators", "semigroup", "solver"])
def test_suite_passes(suite):
    records = checks.SUITES[suite](seed=42)
    failures = [r for r in records if not r["passed"]]
    assert not failures, failures


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
