"""Shared CLI for running benchmark modules standalone.

Every ``benchmarks/bench_*.py`` is primarily a pytest-benchmark module
that regenerates one table or figure of the paper.  For the CI benchmark
smoke job — and for quick local runs — each module also has a tiny CLI
built on this helper::

    python benchmarks/bench_fig7_history.py --quick
    python benchmarks/bench_fig7_history.py --output /tmp/fig7.json

``--quick`` selects a reduced parameter set (seconds, not minutes); the
result rows are written as ``BENCH_<name>.json`` so CI can upload every
benchmark's numbers as artifacts.  The JSON payload is self-describing:
benchmark name, quick flag, wall-clock seconds, interpreter version,
``gil_enabled``, and the raw result rows.  These files record a run;
nothing compares them.  Performance is judged by ``benchmarks/e2e/``
alone, and ``benchmarks/gate.py`` is what CI blocks on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from typing import Any, Callable, Optional


def _gil_enabled() -> bool:
    """Whether this interpreter is running with the GIL engaged.

    ``sys._is_gil_enabled`` only exists on 3.13+; older interpreters are
    by definition GIL builds.  Free-threaded numbers are not comparable
    to GIL-build numbers (the whole point of the scaling benchmarks is
    that they differ), so every payload carries this tag.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    return bool(probe()) if callable(probe) else True


def jsonable(value: Any) -> Any:
    """Best-effort conversion of benchmark results to JSON-friendly data.

    Harness rows are dataclasses or objects exposing ``as_dict``; grids
    are lists/tuples/dicts of those.  Anything else falls back to
    ``str`` rather than failing the run.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return jsonable(as_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [jsonable(item) for item in value]
    return str(value)


def bench_main(name: str, full: Callable[[], Any],
               quick: Optional[Callable[[], Any]] = None,
               argv: Optional[list] = None) -> int:
    """Run a benchmark module's CLI; returns the process exit code.

    ``full`` regenerates the complete table/figure (and typically prints
    it); ``quick`` is the reduced-parameter variant used by the CI smoke
    job.  When a module has no meaningful reduction, ``quick`` defaults
    to ``full``.
    """
    parser = argparse.ArgumentParser(
        prog=f"bench_{name}",
        description=f"Run the {name} benchmark standalone.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced parameters (CI smoke mode)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help=f"result JSON path (default: BENCH_{name}.json)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the result file")
    args = parser.parse_args(argv)

    runner = quick if (args.quick and quick is not None) else full
    started = time.perf_counter()
    results = runner()
    elapsed = time.perf_counter() - started

    if not args.no_json:
        payload = {
            "benchmark": name,
            "quick": bool(args.quick),
            "elapsed_seconds": round(elapsed, 3),
            "python": platform.python_version(),
            "gil_enabled": _gil_enabled(),
            "results": jsonable(results),
        }
        output = args.output or f"BENCH_{name}.json"
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"[bench_{name}] wrote {output} "
              f"({elapsed:.1f}s{', quick' if args.quick else ''})",
              file=sys.stderr)
    return 0
