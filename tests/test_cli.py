import copy
import functools
import json
import math
import random
import warnings

import numpy as np
import pytest

from fuzzsemi import cauchy, checks, cli, core
from fuzzsemi.errors import SchemaError

import helpers


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# example command


def test_example_problem5_passes(tmp_path):
    out = tmp_path / "p5.json"
    code = run("example", "problem5", "--t-max", "1", "--tol", "1e-8", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fuzzsemi/1"
    assert payload["max_distance"] <= 1e-8
    assert len(payload["series"]) == len(payload["times"]) == 9


def test_example_zero_horizon(tmp_path):
    out = tmp_path / "p50.json"
    assert run("example", "problem5", "--t-max", "0", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["times"] == [0.0]
    assert payload["max_distance"] == 0.0


def test_example_unknown_name(capsys):
    assert run("example", "problem7") == 1
    err = capsys.readouterr().err
    for name in cli.EXAMPLE_NAMES:
        assert name in err


def test_example_impossible_tolerance(tmp_path):
    # machine epsilon cannot be beaten: the tolerance gate must trip
    out = tmp_path / "strict.json"
    code = run("example", "problem5", "--t-max", "1", "--tol", "1e-18", "--out", str(out))
    assert code == 2


@pytest.mark.parametrize("name", ["problem4", "problem6", "remarkA"])
def test_each_example_passes(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert run("example", name, "--t-points", "5", "--out", str(out)) == 0
    assert json.loads(out.read_text())["max_distance"] <= 1e-8


def test_wave_example(tmp_path):
    out = tmp_path / "wave.json"
    assert run("example", "wave", "--t-points", "3", "--nodes", "9", "--out", str(out)) == 0


def test_example_csv_bands(tmp_path):
    out = tmp_path / "p5.json"
    csv_path = tmp_path / "bands.csv"
    assert run("example", "problem5", "--t-points", "3", "--out", str(out),
               "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,component,x,r,lower,upper"
    # 3 times x 2 components x 3 bands
    assert len(lines) == 1 + 3 * 2 * 3


# ---------------------------------------------------------------------------
# solve command


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_solve_crisp_growth(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 1,
        "operator": {"kind": "identity"},
        "u0": {"tri": [1, 1, 1]},
        "g": "zero",
        "T": 1.0,
        "tol": 1e-9,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--nodes", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["states"][-1]["lower"][-1] == pytest.approx(math.e, abs=1e-8)


def test_solve_zero_everything(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 1,
        "operator": {"kind": "builtin", "name": "RemarkA", "c": {"tri": [0, 1, 2]}},
        "u0": {"tri": [0, 0, 0]},
        "g": "zero",
        "T": 1.0,
        "tol": 1e-9,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--nodes", "4", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    for state in payload["states"]:
        assert all(v == 0.0 for v in state["lower"])
        assert all(v == 0.0 for v in state["upper"])


def test_solve_matrix_second_order(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 2,
        "operator": {"kind": "matrix", "entries": [[1, 1], [-1, -1]]},
        "u0": {"tri": [0, 1, 2]},
        "v0": {"tri": [1, 2, 3]},
        "T": 1.0,
        "tol": 1e-9,
    })
    out = tmp_path / "traj.json"
    csv_path = tmp_path / "bands.csv"
    assert run("solve", cfg, "--nodes", "3", "--out", str(out), "--csv", str(csv_path)) == 0
    payload = json.loads(out.read_text())
    assert "product" in payload["states"][0]
    assert csv_path.exists()


def test_solve_tiny_horizon_second_order(tmp_path):
    # t^2 * M underflows to 0 on the whole grid: every state is u0 itself
    cfg = write_config(tmp_path, {
        "order": 2,
        "operator": {"kind": "scale", "factor": 0.5},
        "u0": {"tri": [0, 1, 2]},
        "T": 1e-170,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    u0 = core.make_triangular(0, 1, 2)
    for state in payload["states"]:
        assert state["lower"] == u0.lower.tolist() and state["upper"] == u0.upper.tolist()


def test_solve_second_order_rejects_forcing(tmp_path, capsys):
    config = {
        "order": 2,
        "operator": {"kind": "scale", "factor": 1},
        "u0": {"tri": [0, 1, 2]},
        "g": {"kind": "const", "value": {"tri": [5, 6, 7]}},
    }
    with pytest.raises(SchemaError, match="config.g"):
        cli.parse_problem(config)
    assert run("solve", write_config(tmp_path, config)) == 1
    assert "config.g" in capsys.readouterr().err


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("solve", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config")


@pytest.mark.parametrize("content", [b"\xff\xfe not utf-8", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_solve_unreadable_config(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert run("solve", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config")


def test_solve_missing_file(tmp_path):
    assert run("solve", str(tmp_path / "absent.json")) == 1


def test_solve_schema_message_is_path_qualified(tmp_path, capsys):
    cfg = write_config(tmp_path, {"order": 1, "operator": {"kind": "builtin"}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg) == 1
    assert "config.operator" in capsys.readouterr().err


def test_solve_forcing_const(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 1,
        "operator": {"kind": "scale", "factor": 1.0},
        "u0": {"tri": [0, 0, 0]},
        "g": {"kind": "const", "value": {"tri": [1, 1, 1]}},
        "T": 1.0,
        "tol": 1e-6,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--nodes", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["states"][-1]["lower"][-1] == pytest.approx(math.expm1(1.0), abs=1e-5)


def test_solve_forced_product(tmp_path):
    # u' = A u + g on (u, v) with A = [[1, 1], [-1, -1]] (A^2 = 0) and crisp data:
    # u(t) = (I + tA) u0 + (tI + t^2/2 A) g
    cfg = write_config(tmp_path, {
        "operator": {"kind": "matrix", "entries": [[1, 1], [-1, -1]]},
        "u0": {"tri": [1, 1, 1]}, "v0": {"tri": [-2, -2, -2]},
        "g": {"kind": "const", "value": [{"tri": [0.5, 0.5, 0.5]}, {"tri": [0.25, 0.25, 0.25]}]},
        "T": 2.0, "tol": 1e-9,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--nodes", "5", "--levels", "4", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    a, w0, g = np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -2.0]), np.array([0.5, 0.25])
    for t, state in zip(payload["times"], payload["states"]):
        want = (np.eye(2) + t * a) @ w0 + (t * np.eye(2) + 0.5 * t * t * a) @ g
        for comp, value in zip(state["product"], want):
            assert max(abs(v - value) for v in comp["lower"] + comp["upper"]) <= 1e-12


@pytest.mark.parametrize("value", [
    [{"tri": [0, 1, 2]}],  # one component short
    [{"tri": [0, 1, 2]}] * 3,  # one too many
    {"tri": [0, 1, 2]},  # a single fuzzy number for a two-component state
    [{"tri": [0, 1, 2]}, {"tri": [2, 1, 0]}],  # a malformed component
])
def test_solve_forced_product_needs_one_value_per_component(tmp_path, capsys, value):
    cfg = write_config(tmp_path, {
        "operator": {"kind": "matrix", "entries": [[0, 1], [1, 0]]},
        "u0": {"tri": [0, 1, 2]}, "v0": {"tri": [1, 2, 3]},
        "g": {"kind": "const", "value": value},
    })
    assert run("solve", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.g.value") and "Traceback" not in err


def test_solve_scalar_forcing_rejects_a_list(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "operator": {"kind": "scale", "factor": 1.0}, "u0": {"tri": [0, 1, 2]},
        "g": {"kind": "const", "value": [{"tri": [0, 1, 2]}]},
    })
    assert run("solve", cfg) == 1
    assert capsys.readouterr().err.startswith("error: config.g.value")


def test_solve_builtin_constant_past_the_float_range_exits_cleanly(tmp_path, capsys):
    # mu_coeff(c) leaves the float range: a typed error, not a numpy warning and "mu = -inf"
    cfg = write_config(tmp_path, {
        "operator": {"kind": "builtin", "name": "RemarkA", "c": {"tri": [1e308, 1.5e308, 1.7e308]}},
        "u0": {"tri": [0, 1, 2]},
    })
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run("solve", cfg, "--levels", "4") == 1
    assert not seen, [str(w.message) for w in seen]
    err = capsys.readouterr().err
    assert err.startswith("error: config.operator: ") and "float range" in err
    assert "Traceback" not in err and "-inf" not in err


def test_solve_levels_flag_controls_grid(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 1, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]},
        "T": 1.0, "tol": 1e-9,
    })
    out = tmp_path / "traj.json"
    assert run("solve", cfg, "--nodes", "3", "--levels", "4", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert len(payload["states"][0]["levels"]) == 5


def test_solve_matrix_needs_product_state(tmp_path):
    cfg = write_config(tmp_path, {
        "order": 1,
        "operator": {"kind": "matrix", "entries": [[0, 1], [1, 0]]},
        "u0": {"tri": [0, 1, 2]},  # no v0: scalar state fed to a matrix operator
        "T": 1.0,
    })
    assert run("solve", cfg) == 1


def test_parse_problem_rejects_bad_fields():
    with pytest.raises(SchemaError):
        cli.parse_problem({"order": 3, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}})
    with pytest.raises(SchemaError):
        cli.parse_problem({"order": 1, "operator": {"kind": "warp"}, "u0": {"tri": [0, 1, 2]}})
    with pytest.raises(SchemaError):
        cli.parse_problem({"order": 1, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}, "T": -1})
    with pytest.raises(SchemaError):
        cli.parse_problem({"order": 1, "operator": {"kind": "identity"}})


@pytest.mark.parametrize("field, value", [
    ("order", True),
    ("T", True),
    ("T", math.inf),
    ("T", math.nan),
    ("tol", False),
    ("tol", math.inf),
    ("T", 10 ** 400),
])
def test_parse_problem_rejects_booleans_and_non_finite(field, value):
    config = {"order": 1, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}, field: value}
    with pytest.raises(SchemaError, match=f"config.{field}"):
        cli.parse_problem(config)


@pytest.mark.parametrize("factor", [True, math.inf, math.nan, 10 ** 400])
def test_parse_problem_rejects_bad_scale_factor(factor):
    config = {"operator": {"kind": "scale", "factor": factor}, "u0": {"tri": [0, 1, 2]}}
    with pytest.raises(SchemaError, match="config.operator.factor"):
        cli.parse_problem(config)


_PAIR = {"u0": {"tri": [0, 1, 2]}, "v0": {"tri": [1, 2, 3]}}


@pytest.mark.parametrize("config, path", [
    ({"operator": {"kind": "identity"}, "u0": {"tri": [True, 1, 2]}}, r"config.u0.tri\[0\]"),
    ({"operator": {"kind": "identity"}, "u0": {"tri": [None, 1, 2]}}, r"config.u0.tri\[0\]"),
    ({"operator": {"kind": "identity"}, "u0": {"tri": [[0], 1, 2]}}, "config.u0"),
    ({"operator": {"kind": "identity"}, "u0": {"tri": [10 ** 400, 10 ** 400, 10 ** 400]}}, "config.u0"),
    ({"operator": {"kind": "identity"}, "u0": {"levels": {}, "lower": [0, 1], "upper": [2, 1]}},
     "config.u0.levels"),
    ({"operator": {"kind": "matrix", "entries": [[{}, 1], [1, 1]]}, **_PAIR},
     r"config.operator.entries\[0\]\[0\]"),
    ({"operator": {"kind": "matrix", "entries": [[10 ** 400, 0], [0, 1]]}, **_PAIR}, "config.operator.entries"),
])
def test_parse_problem_rejects_malformed_numbers(config, path):
    with pytest.raises(SchemaError, match=path):
        cli.parse_problem(config)


def test_solve_boolean_order_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"order": True, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg) == 1
    assert "config.order" in capsys.readouterr().err


def test_solve_infinite_horizon_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}, "T": math.inf})
    assert run("solve", cfg) == 1
    assert "config.T" in capsys.readouterr().err


def test_solve_overflowing_scale_factor_exits_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path, {"operator": {"kind": "scale", "factor": 1e300}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg, "--nodes", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "shorten the horizon" in err
    assert "split the time interval" not in err


@pytest.mark.parametrize("operator", [{"kind": "builtin", "name": "A1"},
                                      {"kind": "builtin", "name": "A2", "c": {"tri": [0, 1, 2]}}])
def test_solve_series_overflow_exits_cleanly(tmp_path, capsys, operator):
    # the series of a builtin leaves the float range: no NaN or Infinity in
    # the JSON, no numpy warning (an error under this suite's settings)
    cfg = write_config(tmp_path, {"operator": operator, "u0": {"tri": [1e308, 1.5e308, 1.7e308]}})
    out = tmp_path / "out.json"
    assert run("solve", cfg, "--levels", "4", "--nodes", "3", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shorten the horizon" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_forced_error_names_the_solve_time(tmp_path, capsys):
    # the exact solution u0 + t g + phi(g) (e^{2t} - 1 - 2t) / 4 of A1 leaves the
    # float range between the grid times 1 and 2: the error names t = 2.0
    cfg = write_config(tmp_path, {
        "operator": {"kind": "builtin", "name": "A1"},
        "u0": {"tri": [0, 1, 2]},
        "g": {"kind": "const", "value": {"tri": [1e307, 1.5e307, 1.7e307]}},
        "T": 4.0,
    })
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run("solve", cfg, "--levels", "4", "--nodes", "5") == 1
    assert not seen, [str(w.message) for w in seen]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at t = 2.0;" in err
    assert "Traceback" not in err


def test_solve_quadrature_stall_exits_cleanly(tmp_path, capsys, monkeypatch):
    # every CLI forcing is constant; taken as one that varies, it goes through the quadrature
    monkeypatch.setattr(cauchy, "_constant_value", lambda forcing, times: None)
    monkeypatch.setattr(cauchy, "_QUAD_MAX_INTERVALS", 0)
    cfg = write_config(tmp_path, {
        "operator": {"kind": "scale", "factor": 1.0},
        "u0": {"tri": [0, 1, 2]},
        "g": {"kind": "const", "value": {"tri": [1, 1, 1]}},
    })
    assert run("solve", cfg, "--nodes", "2") == 1
    assert capsys.readouterr().err.startswith("error: no convergence")


def test_solve_too_few_nodes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg, "--nodes", "1") == 1
    assert "--nodes" in capsys.readouterr().err


def test_solve_too_many_nodes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg, "--nodes", "100000000000000000000") == 1
    assert "--nodes" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0", "100001", "100000000000000000000"])
def test_solve_levels_out_of_range(tmp_path, capsys, levels):
    cfg = write_config(tmp_path, {"operator": {"kind": "scale", "factor": 0.5}, "u0": {"tri": [0, 1, 2]}})
    assert run("solve", cfg, "--levels", levels) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --levels"), err


# seeded mutations of valid configs: the exit-code contract must hold on all of them

_FUZZ_BASES = (
    {"order": 1, "operator": {"kind": "scale", "factor": 0.5}, "u0": {"tri": [0, 1, 2]},
     "T": 0.5, "tol": 1e-6},
    {"order": 1, "operator": {"kind": "identity"}, "u0": {"tri": [0, 1, 2]},
     "g": {"kind": "const", "value": {"tri": [0, 0.5, 1]}}, "T": 0.5, "tol": 1e-6},
    {"order": 2, "operator": {"kind": "matrix", "entries": [[1, 1], [-1, -1]]},
     "u0": {"tri": [0, 1, 2]}, "v0": {"tri": [1, 2, 3]}, "T": 0.5, "tol": 1e-6},
    {"order": 1, "operator": {"kind": "builtin", "name": "RemarkA", "c": {"tri": [0, 1, 2]}},
     "u0": {"levels": [0, 0.5, 1], "lower": [0, 0.5, 1], "upper": [2, 1.5, 1]},
     "g": "zero", "T": 0.5, "tol": 1e-6},
)
_FUZZ_VALUES = (
    None, True, False, "x", "", [], {}, [1, 2], [[1, 0], [0, 1]], {"tri": [0, 1, 2]},
    {"tri": [2, 1, 0]}, 0, -1, 2, 3, 1e-300, 1e300, -1e300, 10 ** 400, math.nan, math.inf, -math.inf,
)
_FUZZ_MATRICES = (
    [], [[]], [[1]], [[1, 2], [3]], [[1, 0], [0, 1], [1, 1]], [["a", 1], [1, 1]],
    [[None, 1], [1, 1]], [[{}, 1], [1, 1]], [[math.nan, 1], [1, 1]], [[math.inf, 0], [0, 1]],
    [[1e300, 0], [0, 1]], [[10 ** 400, 0], [0, 1]], [[True, False], [False, True]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
)


def _slots(node):
    """Every (container, key) pair inside a JSON tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in list(keys):
        yield node, key
        yield from _slots(node[key])


def _mutate(config, rng):
    config = copy.deepcopy(config)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(config))
        if not slots:
            break
        container, key = rng.choice(slots)
        action = rng.random()
        if key == "entries":
            container[key] = copy.deepcopy(rng.choice(_FUZZ_MATRICES))
        elif action < 0.2 and isinstance(container, dict):
            del container[key]
        elif action < 0.3 and isinstance(container, dict):
            container[rng.choice(("extra", "kind", "value", "g", "v0", "c", "tri"))] = rng.choice(_FUZZ_VALUES)
        else:
            container[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
    return config


def test_solve_fuzzed_configs_keep_exit_code_contract(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "config.json"
    for case in range(300):
        config = _mutate(rng.choice(_FUZZ_BASES), rng)
        path.write_text(json.dumps(config))  # NaN and +-Infinity as JSON extensions
        try:
            code = run("solve", str(path), "--levels", "4", "--nodes", "2", "--out", str(tmp_path / "out.json"))
        except Exception as exc:  # report the input that broke the contract
            raise AssertionError(f"case {case}: {config!r} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (case, config, code)
        assert "Traceback" not in err, (case, config, err)


# ---------------------------------------------------------------------------
# verify command


def test_verify_core_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "core", "--seed", "42", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["schema"] == "fuzzsemi/1"
    props = {r["property"] for r in report["results"]}
    assert "translation_invariance" in props
    assert "opposite_witness_distance_two" in props


def test_verify_unknown_suite():
    assert run("verify", "everything") == 1


def test_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("verify", "solver", "--seed", "7", "--out", str(out1)) == 0
    assert run("verify", "solver", "--seed", "7", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_reports_failures(monkeypatch, tmp_path):
    def broken(seed):
        return [{"suite": "core", "property": "x", "cases": 1, "max_violation": 1.0,
                 "tolerance": 0.0, "passed": False}]

    monkeypatch.setitem(checks.SUITES, "core", broken)
    assert run("verify", "core") == 2


# ---------------------------------------------------------------------------
# misc plumbing


def test_usage_error_exit_code(capsys):
    assert run() == 1
    assert run("example") == 1
    assert run("--bogus") == 1
    for seed in ("-1", "x"):
        capsys.readouterr()
        assert run("verify", "solver", "--seed", seed) == 1, seed
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seed" in err, (seed, err)
        assert "Traceback" not in err, (seed, err)
    # verify takes --seed and --out only: the grid and CSV flags of example and solve are usage errors
    for flag in (("--levels", "3"), ("--csv", "x.csv"), ("--bands", "0.5")):
        capsys.readouterr()
        assert run("verify", "solver", *flag) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[0] in err, (flag, err)
        assert "Traceback" not in err, (flag, err)


def test_threads_flag_removed():
    assert run("verify", "core", "--threads", "1") == 1


def test_band_override(tmp_path):
    out = tmp_path / "x.json"
    csv_path = tmp_path / "b.csv"
    assert run("example", "remarkA", "--t-points", "2", "--out", str(out),
               "--csv", str(csv_path), "--bands", "0,1") == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_bad_band_list():
    assert run("example", "remarkA", "--bands", "2,3") == 1


def test_example_bad_numeric_flags(capsys):
    for argv in (
        ("problem5", "--t-max", "-1"),
        ("problem5", "--t-points", "0"),
        ("problem5", "--tol", "0"),
        ("problem5", "--levels", "0"),
        ("problem4", "--tol", "nan"),
        ("problem4", "--t-max", "inf"),
        ("problem4", "--t-points", "100000000000000000000"),
        ("remarkA", "--t-max", "1500"),  # the flow overflows (and so would the closed form)
        ("problem5", "--t-max", "1e3", "--t-points", "2"),
        ("wave", "--t-max", "1e6", "--t-points", "2"),
        ("wave", "--nodes", "1"),
        ("wave", "--nodes", "-3"),
    ):
        assert run("example", *argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), (argv, err)
        assert "Traceback" not in err, (argv, err)


def test_state_json_shapes():
    u = core.make_triangular(0, 1, 2, 4)
    from fuzzsemi.spaces import FuzzyFunction, pair
    import numpy as np
    assert set(cli.state_to_json(u)) == {"levels", "lower", "upper"}
    assert "product" in cli.state_to_json(pair(u, u))
    f = FuzzyFunction(np.array([0.0, 1.0]), (u, u))
    assert {"a", "b", "nodes", "values"} <= set(cli.state_to_json(f))


# ---------------------------------------------------------------------------
# JSON writer: the stdlib's indent encoder is its oracle


def _stdlib_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def _writer_text(payload):
    return "".join(cli._JsonWriter(payload).chunks)


_SCALAR_CONFIG = {"operator": {"kind": "scale", "factor": -0.5}, "u0": {"tri": [0, 1, 2]}, "T": 1.0}
_MATRIX_CONFIG = {
    "operator": {"kind": "matrix", "entries": [[1, 1], [-1, -1]]},
    "u0": {"tri": [0, 1, 2]}, "v0": {"tri": [1, 2, 3]}, "T": 1.0,
}


@pytest.mark.parametrize("argv", [
    *(("solve", name, order) for name in ("scalar", "matrix") for order in (1, 2)),
    *(("example", name) for name in cli.EXAMPLE_NAMES),
    ("verify", "all", "--seed", "42"),
], ids=lambda argv: "-".join(map(str, argv)))
def test_json_writer_matches_stdlib_on_cli_payloads(tmp_path, monkeypatch, capsys, argv):
    # solves print to stdout, the rest write to --out; verify reads the suite
    # records that test_checks computes at seed 42, not a second run of the suites
    cached = {name: functools.partial(helpers.suite_records, name) for name in checks.SUITES}
    monkeypatch.setattr(checks, "SUITES", cached)
    out = None
    if argv[0] == "solve":
        _, name, order = argv
        config = dict(_SCALAR_CONFIG if name == "scalar" else _MATRIX_CONFIG, order=order)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ("solve", str(path))
    else:
        out = tmp_path / "out.json"
        argv = (*argv, "--out", str(out))
    payloads = []
    real = cli._emit

    def record(payload, out_path):
        payloads.append(payload)
        real(payload, out_path)

    monkeypatch.setattr(cli, "_emit", record)
    assert run(*argv) in (0, 2)
    (payload,) = payloads
    text = _stdlib_text(payload)
    assert _writer_text(payload) == text
    assert (capsys.readouterr().out if out is None else out.read_text()) == text + "\n"


def test_json_writer_matches_stdlib_on_edge_payload():
    grid = [0.0, 0.5, 1.0]
    payload = {
        "specials": [math.nan, math.inf, -math.inf, 1e-320, -1.5e300],
        "signed_zeros": [[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]],
        "int_vs_float": [[1, 2], [1.0, 2.0], [1, 2]],
        "bool_vs_int": [[True, 1], [1, 1], [False, None, 0]],
        "numpy": [np.float64(0.1), np.float64(-0.0), np.float64(math.nan)],
        "numpy_list": [[np.float64(0.5), np.float64(1.0)], [0.5, 1.0]],
        "numpy_scalar": np.float64(-2.5),
        "grid": grid,
        "deeper": {"grid": list(grid), "grids": [list(grid), list(grid)]},
        "empty": [{}, [], {"a": {}, "b": [[]], "c": [{}, []]}],
        "tuples": (1.0, (2.0, "x"), (), ((0.0,), (-0.0,))),
        "strings": ['quote " here', "back\\slash", "na\u00efve \u2211 \U0001f600", "tab\tnewline\n", ""],
        "mixed": [1, "two", 3.0, None, [4.0], {"k": -0.0}],
        "": "empty key",
        "\u00e9t\u00e9": {"z": 1, "a": {}, "m": []},
    }
    assert _writer_text(payload) == _stdlib_text(payload)
    for scalar in (1.0, -0.0, math.nan, 7, True, None, "s", np.float64(3.25)):
        assert _writer_text(scalar) == _stdlib_text(scalar)
    for empty in ({}, [], ()):
        assert _writer_text(empty) == _stdlib_text(empty)
