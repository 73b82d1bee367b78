"""Per-layer tracing of the fuzzsemi package from outside its sources.

A `Tracer` wraps the public functions and methods of each layer module
(`core`, `spaces`, `operators`, `semigroup`, `cauchy`, `checks`, `cli`)
in a span recorder.  A function is replaced at every module that binds
it -- `cauchy` imports `required_order` and `SemigroupEvaluator` by name,
`cli` imports `builtin`, `lift_matrix` and `scale_operator`, `checks`
keeps its suites in a dict -- so calls made through any of those names
are seen.  `uninstall` puts every original back.

Each span has a name, start, end, its parent span and the index of the
benchmark operation that caused it.  A layer's self time is the sum of
its spans' durations minus the part covered by child spans.  Everything
runs on one thread, so no layer ever waits on another; there is no wait
time to report.

Counts are exact and repeat from run to run for the same inputs; times
are wall clock and include a share of the wrapper's own cost.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "spaces", "operators", "semigroup", "cauchy", "checks", "cli")

# private functions worth a span of their own: the trapezoid-doubling loop
PRIVATE_TARGETS = {("cauchy", "_refined_integral")}
METHOD_DUNDERS = ("__call__", "__post_init__")

# levelwise kernels whose endpoint arrays are counted in core.endpoint_bytes
ENDPOINT_KERNELS = ("add", "scalar_mul", "hukuhara_diff", "distance", "norm")

# cauchy spans that make up a solve (the rest is residual checking and the
# worked closed forms)
SOLVE_SPANS = (
    "cauchy.solve_first_order",
    "cauchy.solve_second_order",
    "cauchy.solve_wave",
    "cauchy.integrate_fuzzy",
    "cauchy._refined_integral",
    "cauchy.evaluate",
)

SPAN_CAP = 200_000  # spans kept for the span file; counters are never capped


class Tracer:
    def __init__(self, modules, record_spans: bool = False):
        """``modules`` maps each layer name to its (imported) module."""
        self.modules = modules
        self.calls = Counter()
        self.raised = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.extra = Counter()
        self.spans = [] if record_spans else None
        self.op_index = -1
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- span recording -------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        tracer = self
        calls, raised, self_s, total_s = self.calls, self.raised, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            stack = tracer._stack
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                spans = tracer.spans
                if spans is not None and len(spans) < SPAN_CAP:
                    parent = stack[-1][0] if stack else -1
                    spans.append((frame[0], parent, name, t0, t1, tracer.op_index))
            if post is not None:
                post(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- layer-specific counters ----------------------------------------

    def _hooks(self, layer, qualname):
        extra = self.extra
        if layer == "core" and qualname in ENDPOINT_KERNELS:
            fuzzy_number = self.modules["core"].FuzzyNumber

            def post(args, kwargs, result):
                n = 0
                for x in (*args, result):
                    if isinstance(x, fuzzy_number):
                        n += x.lower.nbytes + x.upper.nbytes
                extra["core.endpoint_bytes"] += n

            return None, post
        if layer == "semigroup" and qualname == "series_apply":
            def post(args, kwargs, result):
                extra["semigroup.series_terms"] += int(kwargs["order"] if "order" in kwargs else args[4])

            return None, post
        if layer == "cauchy" and qualname in ("integrate_fuzzy", "_refined_integral"):
            def pre(args, kwargs):
                f = args[0]
                if getattr(f, "_perfbench_counted", False):
                    return args, kwargs

                def counted(s):
                    extra["cauchy.integrand_evals"] += 1
                    return f(s)

                counted._perfbench_counted = True
                return (counted, *args[1:]), kwargs

            return pre, None
        if layer == "cauchy" and qualname == "Trajectory.__post_init__":
            def post(args, kwargs, result):
                traj = args[0]
                if traj.evaluate is not None and not hasattr(traj.evaluate, "__wrapped__"):
                    object.__setattr__(traj, "evaluate", self._wrap("cauchy.evaluate", traj.evaluate))

            return None, post
        return None, None

    # -- install / uninstall --------------------------------------------

    def _targets(self):
        """(owner, attribute, function, span name) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or (layer, attr) in PRIVATE_TARGETS:
                        out.append((mod, attr, obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth in METHOD_DUNDERS):
                            out.append((obj, meth, fn, f"{layer}.{fn.__qualname__}"))
        return out

    def install(self):
        wrappers = {}
        for owner, attr, fn, name in self._targets():
            if id(fn) not in wrappers:
                layer = name.split(".", 1)[0]
                pre, post = self._hooks(layer, name.split(".", 1)[1])
                wrappers[id(fn)] = (fn, self._wrap(name, fn, pre, post))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(fn)][1])
        # rebind module-level names and dict entries wherever they point at
        # a traced function, whichever module defined it
        package = self.modules["package"]
        for mod in (package, *(self.modules[layer] for layer in LAYERS)):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patch(obj, key, wrappers[id(val)][1], is_dict=True)

    def _patch(self, owner, key, new, is_dict=False):
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def counters(self) -> dict:
        """Exact counts: per-span call and raise counts plus the extras."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"raised:{k}": v for k, v in self.raised.items()})
        out.update(self.extra)
        return dict(sorted(out.items()))

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out
