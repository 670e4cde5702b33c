"""``python3 -m bench``: run one workload, or a whole-suite subcommand.

    python3 -m bench --workload pme_m2m --seed 17 --seconds 16 --trace 0
    python3 -m bench --write-expected
    python3 -m bench suite OUT.json
    python3 -m bench agree
    python3 -m bench spread --runs 10
    python3 -m bench compare A.json B.json
"""

import argparse
import signal
import sys

from . import WORKLOAD_NAMES, require_program


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("suite", "agree", "spread", "compare"):
        from . import compare
        return compare.main(argv)

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run that yields the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' sizes exist for the smoke test only")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate bench/expected.json (review the diff)")
    parser.add_argument("--child", choices=("measure", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_program()
    from . import runner

    if args.write_expected:
        runner.write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else runner.declared()["run_seconds"]
    if args.child:
        # This process is the child: if it stalls, SIGALRM ends it.
        signal.alarm(runner.CHILD_ALARM_S)
        child = runner.measure if args.child == "measure" else runner.traced
        return child(args.workload, args.seed, seconds, args.scale)
    result = runner.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)
    runner.report(args.workload, args.seed, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
