"""Run one tenshop command as `python -m tenshop` would, with probes.

    python3 perfbench/child.py RESULT.json TRACE -- <tenshop arguments>

The package is imported from the absolute path of the checkout's src
directory, so the command works from any working directory.  The process
exits with the command's exit code and writes RESULT.json holding the
monotonic clock (ns) when main() was entered, when the lattice had been
discretized and when main() returned, the peak resident set of this process
and its pool workers, and with TRACE=1 the span aggregates of spans.py.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _first_return_probe(fn, stamps: list):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        result = fn(*args, **kwargs)
        if not stamps:
            stamps.append(time.monotonic_ns())
        return result
    return probe


def main() -> int:
    result_path, traced, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGS...")
    sys.path.insert(0, str(SRC))
    import tenshop
    import tenshop.cli

    recorder = None
    if traced == "1":
        import spans
        worker_dir = Path(result_path).with_suffix(".workers")
        worker_dir.mkdir(exist_ok=True)
        recorder = spans.Recorder(worker_dir)
        spans.install(recorder, tenshop)

    # Set-up ends when the command has its discretized lattice.
    setup_stamps: list[int] = []
    for module in (tenshop.cli, tenshop.hopsim):
        module.discretize = _first_return_probe(module.discretize, setup_stamps)

    main_ns = time.monotonic_ns()
    try:
        code = tenshop.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        code = 1
    end_ns = time.monotonic_ns()

    maxrss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    Path(result_path).write_text(json.dumps({
        "exit_code": code,
        "main_ns": main_ns,
        "setup_ns": setup_stamps[0] if setup_stamps else None,
        "end_ns": end_ns,
        "maxrss_kb": maxrss_kb,
        "trace": recorder.aggregate() if recorder else None,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
