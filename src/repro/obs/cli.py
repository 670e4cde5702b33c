"""``python -m repro.obs`` — hotspot profile inspection CLI.

Verbs:

* ``hotspots PROFILE.json [--top N]`` — ranked dispatch-site table
* ``flame PROFILE.json [-o OUT.txt]`` — collapsed-stack flamegraph
  lines (feed to ``flamegraph.pl`` or paste into speedscope)
* ``compare BEFORE.json AFTER.json [--top N]`` — per-site share deltas

Profiles come from ``make bench-gate`` (one per serial benchmark under
``benchmarks/output/``, summarised in each ``BENCH_NNNN.json``) or from any code
using :class:`repro.obs.ProfileSession` directly.  A profile that is
missing, not JSON or not a profile exits 2 with one line on stderr
naming the path and the problem.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..ioutil import ArtifactError
from .exporters import (
    format_collapsed,
    format_compare,
    format_hotspots,
    load_profile,
    write_collapsed,
)

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect engine hotspot profiles (docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_hot = sub.add_parser("hotspots", help="ranked dispatch-site table")
    p_hot.add_argument("profile", help="profile JSON (from bench-gate or ProfileSession)")
    p_hot.add_argument("--top", type=int, default=10, help="rows to show")

    p_flame = sub.add_parser("flame", help="collapsed-stack flamegraph lines")
    p_flame.add_argument("profile")
    p_flame.add_argument("-o", "--out", default=None, help="write to file (atomic)")

    p_cmp = sub.add_parser("compare", help="share deltas between two profiles")
    p_cmp.add_argument("before")
    p_cmp.add_argument("after")
    p_cmp.add_argument("--top", type=int, default=10)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ArtifactError as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.cmd == "hotspots":
        sys.stdout.write(format_hotspots(load_profile(args.profile), top=args.top))
        return 0
    if args.cmd == "flame":
        profile = load_profile(args.profile)
        if args.out:
            write_collapsed(profile, args.out)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(format_collapsed(profile))
        return 0
    # argparse admits only the three verbs: this is "compare".
    sys.stdout.write(
        format_compare(
            load_profile(args.before),
            load_profile(args.after),
            top=args.top,
        )
    )
    return 0
