"""The one gate CLI: ``python -m repro.harness <gate> [options]``.

A gate module owns *what* is checked — a ``gate(args)`` function
returning ``(failures, notes, report body)`` and, if it has any, an
``add_options(parser)`` hook for the options that are actually passed
more than one value.  This driver owns everything else, identically
for every gate: ``--scale`` / ``--json-out``, timing, printing the
notes, ``FAIL:`` lines on stderr, the closing ``<gate>: PASS|FAIL``
line, one JSON report envelope, and the exit status —

* 0 — the gate passed;
* 1 — the gate ran and failed;
* 2 — the gate could not run (a required input such as a committed
  baseline is missing, or the gate name / an option is unknown).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import List, Optional

from ..ioutil import atomic_write_json
from . import (
    benchgate,
    chaosbench,
    servebench,
    shardbench,
    tracegate,
)

#: Gate name -> module (``gate`` + optional ``add_options``).
GATES = MappingProxyType({
    "bench": benchgate,
    "shard": shardbench,
    "serve": servebench,
    "trace": tracegate,
    "chaos": chaosbench,
})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness", description=__doc__.split("\n\n")[0]
    )
    gates = parser.add_subparsers(dest="gate", required=True, metavar="GATE")
    for name, module in GATES.items():
        sub = gates.add_parser(name, help=module.__doc__.splitlines()[0])
        sub.add_argument(
            "--scale", choices=("full", "tiny"), default="full",
            help="workload sizes ('tiny' is for the gates' own self-tests; "
            "the trace and chaos gates have one size)",
        )
        sub.add_argument(
            "--json-out", type=Path, default=None,
            help="write the gate report here (bench: the BENCH record, "
            "default the next BENCH_NNNN.json under --root)",
        )
        if hasattr(module, "add_options"):
            module.add_options(sub)
    args = parser.parse_args(argv)  # unknown gate or option: exit status 2
    name = args.gate

    t0 = time.perf_counter()
    try:
        failures, notes, body = GATES[name].gate(args)
    except FileNotFoundError as exc:
        print(f"{name}: could not run — {exc}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - t0

    for note in notes:
        print(f"  {note}")
    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    if args.json_out is not None:
        report = {
            "gate": name,
            "pass": not failures,
            "failures": failures,
            "notes": notes,
            "wall_s": round(wall_s, 2),
            **body,
        }
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        # Atomic: a killed or concurrent run must not leave a truncated
        # report (the bench gate's is the committed BENCH trajectory).
        atomic_write_json(
            args.json_out, report, indent=2, sort_keys=True, default=repr,
            trailing_newline=True,
        )
        print(f"  wrote {args.json_out}")
    print(f"{name}: {'FAIL' if failures else 'PASS'} ({wall_s:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
