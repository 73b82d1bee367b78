"""Command-line front end.

Three subcommands:

* ``example`` -- run one row of `cauchy.WORKED_SYSTEMS` (a worked system
  and its closed form) and report the pointwise distances.
* ``solve``   -- solve a user problem described by a JSON config.
* ``verify``  -- run the seeded property suites (``--seed``, ``--out``).

Exit codes: 0 success, 1 usage / schema / I-O error, 2 tolerance or
verification failure.  Outputs carry a ``"schema": "fuzzsemi/1"`` field
and contain no timestamps, so identical invocations produce byte-identical
files.  Every JSON output is exactly
``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, written
by one writer (`_JsonWriter`) that formats each distinct float list once.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from array import array
from json.encoder import encode_basestring_ascii

import numpy as np

from . import cauchy, checks, core, spaces
from .errors import FuzzsemiError, SchemaError
from .operators import builtin, lift_matrix, scale_operator
from .spaces import FuzzyFunction, ProductElement, pair

log = logging.getLogger("fuzzsemi")

SCHEMA = "fuzzsemi/1"
DEFAULT_BANDS = (0.0, 0.5, 1.0)
_MAX_GRID_POINTS = 100_000  # upper limit of every grid-size flag


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# serialization


def state_to_json(state):
    if isinstance(state, ProductElement):
        return {"product": [core.fuzzy_to_json(c) for c in state.components]}
    if isinstance(state, FuzzyFunction):
        return spaces.function_to_json(state)
    return core.fuzzy_to_json(state)


def _write_band_csv(path, times, states, bands):
    band_texts = [repr(float(r)) for r in bands]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "component", "x", "r", "lower", "upper"])
        for t, state in zip(times, states):
            t_text = repr(float(t))
            for comp, x, value in _iter_fuzzy(state):
                # all bands of an endpoint row in one interpolation each
                lows = np.interp(bands, value.levels, value.lower).tolist()
                ups = np.interp(bands, value.levels, value.upper).tolist()
                writer.writerows(
                    [t_text, comp, x, r, repr(lo), repr(up)] for r, lo, up in zip(band_texts, lows, ups)
                )


def _iter_fuzzy(state):
    if isinstance(state, ProductElement):
        return [(str(i), "", c) for i, c in enumerate(state.components)]
    if isinstance(state, FuzzyFunction):
        return [("", repr(float(x)), v) for x, v in zip(state.nodes, state.values)]
    return [("", "", state)]


_SCALARS = (str, int, float, type(None))  # bool is an int


class _JsonWriter:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)`` (string
    keys) as a list of chunks: ``_JsonWriter(payload).chunks``.

    Dicts and lists holding containers are walked here; every list of
    scalars, and every dict of string keys and scalar values, is one call
    of the stdlib's C encoder (keys sorted), whose item separator carries
    the newline and indent, so only the brackets' own line breaks are
    added by hand.  The text of each all-float list is kept for the
    writer's life under its exact bits and depth (never ``==``, which would
    merge 0.0 with -0.0), so a list repeated across the payload, such as
    the membership grid of every fuzzy number, is formatted once.  A class
    rather than a recursive closure: a closure's reference cycle would keep
    the memo and the chunks alive until the garbage collector ran.
    """

    def __init__(self, payload):
        self.chunks = []
        self._emit = self.chunks.append
        self._memo = {}
        self._encoders = {}
        self._write(payload, 0)

    def _scalars(self, obj, depth):
        enc = self._encoders.get(depth)
        if enc is None:
            enc = self._encoders[depth] = json.JSONEncoder(
                check_circular=False, sort_keys=True, separators=(",\n" + "  " * depth, ": ")
            )
        return enc.encode(obj)

    def _write(self, obj, depth):
        emit = self._emit
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth
        if isinstance(obj, (dict, list, tuple)) and not obj:
            emit("{}" if isinstance(obj, dict) else "[]")
        elif isinstance(obj, dict) and all(
            type(key) is str and isinstance(value, _SCALARS) for key, value in obj.items()
        ):
            emit("{" + inner + self._scalars(obj, depth + 1)[1:-1] + close + "}")
        elif isinstance(obj, dict):
            sep = "{" + inner
            for key, value in sorted(obj.items()):
                emit(sep + encode_basestring_ascii(key) + ": ")
                self._write(value, depth + 1)
                sep = "," + inner
            emit(close + "}")
        elif isinstance(obj, (list, tuple)):
            kinds = set(map(type, obj))
            if kinds == {float}:
                key = (depth, array("d", obj).tobytes())
                text = self._memo.get(key)
                if text is None:
                    text = self._memo[key] = "[" + inner + self._scalars(obj, depth + 1)[1:-1] + close + "]"
                emit(text)
            elif all(issubclass(kind, _SCALARS) for kind in kinds):
                emit("[" + inner + self._scalars(obj, depth + 1)[1:-1] + close + "]")
            else:
                sep = "[" + inner
                for value in obj:
                    emit(sep)
                    self._write(value, depth + 1)
                    sep = "," + inner
                emit(close + "]")
        else:
            emit(self._scalars(obj, depth))


def _emit(payload: dict, out_path: str | None):
    # chunk by chunk: no second copy of a multi-megabyte text is made
    chunks = _JsonWriter(payload).chunks
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
            fh.write("\n")
        log.info("wrote %s", out_path)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# example command


def _example_payload(name, times, series_states, closed_states, tol):
    distances = [
        core.distance(a, b) for a, b in zip(series_states, closed_states)
    ]
    return {
        "schema": SCHEMA,
        "command": "example",
        "example": name,
        "tol": tol,
        "times": [float(t) for t in times],
        "series": [state_to_json(s) for s in series_states],
        "closed_form": [state_to_json(s) for s in closed_states],
        "distances": distances,
        "max_distance": max(distances),
    }


EXAMPLE_NAMES = tuple(cauchy.WORKED_SYSTEMS)


def cmd_example(args) -> int:
    if args.name not in cauchy.WORKED_SYSTEMS:
        print(
            f"error: unknown example {args.name!r}; valid names: {', '.join(EXAMPLE_NAMES)}",
            file=sys.stderr,
        )
        return 1
    run, default_t_max = cauchy.WORKED_SYSTEMS[args.name]
    if args.t_max is None:
        args.t_max = default_t_max
    if not (
        0 <= args.t_max < math.inf and 0 < args.tol < math.inf
        and 1 <= args.t_points <= _MAX_GRID_POINTS and 1 <= args.levels <= _MAX_GRID_POINTS
        and 2 <= args.nodes <= _MAX_GRID_POINTS
    ):
        print("error: --t-max/--t-points/--tol/--levels/--nodes out of range", file=sys.stderr)
        return 1
    engine_tol = args.tol / 10.0  # keep truncation strictly inside the reported budget
    if args.t_max > 0 and args.t_points > 1:
        times = np.linspace(0.0, args.t_max, args.t_points)
    else:
        times = np.array([0.0])

    states, closed = run(times, engine_tol, args.levels, args.nodes)

    payload = _example_payload(args.name, times, states, closed, args.tol)
    _emit(payload, args.out)
    if args.csv:
        _write_band_csv(args.csv, times, states, args.bands)
    return 0 if payload["max_distance"] <= args.tol else 2


# ---------------------------------------------------------------------------
# solve command


def _require(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_number(value):
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_number(value):
    # JSON integers are unbounded; past the float range they are not finite
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _positive_finite(value):
    return _finite_number(value) and value > 0


def _require_numbers(value, path):
    """Nested lists whose leaves are all JSON numbers (no booleans, strings or nulls)."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _require_numbers(item, f"{path}[{i}]")
    else:
        _require(_is_number(value), path, "must be a number")


# what building a fuzzy number or an operator raises on malformed numeric data
_BAD_DATA = (ValueError, TypeError, OverflowError, FuzzsemiError)


def _parse_operator(obj, path, m_levels):
    _require(isinstance(obj, dict), path, "must be an object")
    kind = obj.get("kind")
    _require(kind is not None, path + ".kind", "missing")
    if kind == "builtin":
        name = obj.get("name")
        _require(isinstance(name, str), path + ".name", "missing builtin name")
        c = None
        if "c" in obj:
            c = _parse_fuzzy(obj["c"], path + ".c", m_levels)
        try:
            return builtin(name, c)
        except _BAD_DATA as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    if kind == "matrix":
        entries = obj.get("entries")
        _require(isinstance(entries, list) and entries, path + ".entries", "missing matrix entries")
        _require_numbers(entries, path + ".entries")
        try:
            return lift_matrix(entries)
        except _BAD_DATA as exc:
            raise SchemaError(f"{path}.entries: {exc}") from exc
    if kind == "identity":
        return scale_operator(1.0)
    if kind == "scale":
        factor = obj.get("factor")
        _require(_finite_number(factor), path + ".factor",
                 "missing finite numeric factor")
        return scale_operator(float(factor))
    raise SchemaError(f"{path}.kind: unknown kind {kind!r}")


def _parse_fuzzy(obj, path, m_levels):
    if isinstance(obj, dict):
        for key in ("tri", "levels", "lower", "upper"):
            if key in obj:
                _require_numbers(obj[key], f"{path}.{key}")
    try:
        return core.fuzzy_from_json(obj, m_levels)
    except _BAD_DATA as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def parse_problem(config, m_levels=core.DEFAULT_LEVELS):
    """Build a CauchyProblem from the documented config schema."""
    _require(isinstance(config, dict), "config", "must be an object")
    order = config.get("order", 1)
    _require(_is_number(order) and order in (1, 2), "config.order", "must be 1 or 2")
    _require("operator" in config, "config.operator", "missing")
    op = _parse_operator(config["operator"], "config.operator", m_levels)
    _require("u0" in config, "config.u0", "missing")
    u0 = _parse_fuzzy(config["u0"], "config.u0", m_levels)
    initial = u0
    if "v0" in config:
        v0 = _parse_fuzzy(config["v0"], "config.v0", m_levels)
        initial = pair(u0, v0)
    forcing = None
    g = config.get("g", "zero")
    if g != "zero":
        _require(isinstance(g, dict), "config.g", 'must be "zero" or an object')
        _require(order == 1, "config.g", "forcing is not supported for second-order problems")
        _require(g.get("kind") == "const", "config.g.kind", 'only "const" forcing is supported')
        _require("value" in g, "config.g.value", "missing")
        value = g["value"]
        if isinstance(initial, ProductElement):
            k = len(initial)
            _require(isinstance(value, list) and len(value) == k, "config.g.value",
                     f"must be a list of {k} fuzzy numbers, one per component of the state")
            g_val = ProductElement(tuple(
                _parse_fuzzy(v, f"config.g.value[{i}]", m_levels) for i, v in enumerate(value)
            ))
        else:
            g_val = _parse_fuzzy(value, "config.g.value", m_levels)
        forcing = lambda s, g_val=g_val: g_val
    horizon = config.get("T", 1.0)
    _require(_positive_finite(horizon), "config.T", "must be a finite number > 0")
    tol = config.get("tol", 1e-9)
    _require(_positive_finite(tol), "config.tol", "must be a finite number > 0")
    velocity = core.zero_like(initial) if order == 2 else None
    return cauchy.CauchyProblem(
        op, initial, forcing=forcing, initial_velocity=velocity,
        horizon=float(horizon), tol=float(tol),
    )


def cmd_solve(args) -> int:
    if not 2 <= args.nodes <= _MAX_GRID_POINTS:
        print(f"error: --nodes must be in [2, {_MAX_GRID_POINTS}]", file=sys.stderr)
        return 1
    if not 1 <= args.levels <= _MAX_GRID_POINTS:
        print(f"error: --levels must be in [1, {_MAX_GRID_POINTS}]", file=sys.stderr)
        return 1
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    problem = parse_problem(config, args.levels)
    grid = cauchy.uniform_times(problem.horizon, args.nodes)
    solver = cauchy.solve_second_order if problem.initial_velocity is not None else cauchy.solve_first_order
    traj = solver(problem, grid)
    payload = {
        "schema": SCHEMA,
        "command": "solve",
        "times": [float(t) for t in traj.times],
        "states": [state_to_json(s) for s in traj.states],
    }
    _emit(payload, args.out)
    if args.csv:
        _write_band_csv(args.csv, traj.times, traj.states, args.bands)
    return 0


# ---------------------------------------------------------------------------
# verify command


def cmd_verify(args) -> int:
    names = checks.SUITE_NAMES if args.suite == "all" else (args.suite,)
    report = checks.run_suites(names, args.seed)
    # human-readable progress on stderr; the report itself stays machine-readable
    for rec in report["results"]:
        tag = "PASS" if rec["passed"] else "FAIL"
        print(
            f"{tag} {rec['suite']}.{rec['property']} "
            f"cases={rec['cases']} max_violation={rec['max_violation']:.3e}",
            file=sys.stderr,
        )
    _emit(report, args.out)
    return 0 if report["passed"] else 2


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzsemi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--levels", type=int, default=core.DEFAULT_LEVELS,
                        help="membership-grid panels (default %(default)s)")
    common.add_argument("--out", help="write the JSON payload to this path")
    common.add_argument("--csv", help="write level-band CSV to this path")
    common.add_argument("--bands", type=_band_list, default=DEFAULT_BANDS,
                        help="comma-separated membership levels for the CSV bands")

    ex = sub.add_parser("example", parents=[common],
                        help="run a worked system against its closed form")
    ex.add_argument("name", help=f"one of: {', '.join(EXAMPLE_NAMES)}")
    ex.add_argument("--tol", type=float, default=1e-8)
    ex.add_argument("--t-max", type=float, default=None)
    ex.add_argument("--t-points", type=int, default=9)
    ex.add_argument("--nodes", type=int, default=65,
                    help="space-grid points for the wave example")
    ex.set_defaults(func=cmd_example)

    so = sub.add_parser("solve", parents=[common], help="solve a problem from a JSON config")
    so.add_argument("config", help="path to the problem JSON")
    so.add_argument("--nodes", type=int, default=cauchy.DEFAULT_TIME_NODES,
                    help="time nodes (default %(default)s)")
    so.set_defaults(func=cmd_solve)

    ve = sub.add_parser("verify", help="run the seeded property suites")
    ve.add_argument("suite", choices=checks.SUITE_NAMES + ("all",))
    ve.add_argument("--out", help="write the JSON report to this path")
    ve.add_argument("--seed", type=_seed, default=0, help="nonnegative integer (default %(default)s)")
    ve.set_defaults(func=cmd_verify)
    return parser


def _seed(text):
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _band_list(text):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad band list {text!r}") from exc
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError("bands must lie in [0, 1]")
    return values


def main(argv=None) -> int:
    level = os.environ.get("FUZZSEMI_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (OSError, FuzzsemiError) as exc:  # SchemaError, SeriesOverflow, QuadratureStall, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
