"""One set-up of a workload in a fresh interpreter, timed from before any import.

    python3 perfbench/coldstart.py WORKLOAD SEED

``run.py`` starts this several times in a timed run and reports the median
as ``setup_s``: importing numpy and fuzzsemi, making the input pools and
running one warm-up operation, up to where the first timed operation would
start.  Interpreter start-up is not included.  Prints one JSON object,
``{"setup_s": seconds, "error": null or the warm-up's error}``.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import run  # noqa: E402  (imports numpy and the benchmark's modules)


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"cold-{name}-", dir=run.OUT)
    try:
        _, done, error = run.set_up(name, seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"setup_s": done - T0, "error": None if error is None else f"{type(error).__name__}: {error}"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
