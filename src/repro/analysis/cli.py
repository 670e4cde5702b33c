"""repro-lint command line: ``python -m repro.analysis`` / ``make lint``.

Exit status: 0 when every finding is suppressed by a pragma,
1 when unsuppressed violations remain, 2 on usage errors — including
an unknown rule id in ``--rules`` *or* in the ``[tool.repro-lint]
rules`` table, and an unknown key in that table (a typo there must not
silently disable a rule or a scope).
``--self-check`` injects one violation per rule family into a scratch
directory and verifies the analyzer catches each — CI runs it so a
silently broken rule set cannot keep returning green.

``python -m repro.analysis reach`` (``make reach``) is the reach census
of :mod:`repro.analysis.reach`; it takes no options.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from types import MappingProxyType
from typing import List, Optional

from .config import Config, ConfigError, find_root, load_config
from .core import Analyzer, all_rule_classes, default_rules

__all__ = ["main", "run_self_check"]

#: One deliberately-bad snippet per rule family; --self-check verifies
#: each is caught (determinism via D2, protocol via P2 and P3's clock
#: store, global-state via G1, SPMD via S2).
_SELF_CHECK_SNIPPETS = MappingProxyType({
    "D2": (
        "injected_determinism.py",
        "import random\n\n\ndef jitter():\n    return random.random()\n",
    ),
    "P2": (
        "injected_protocol.py",
        "from repro.sim.engine import Event\n\n\n"
        "class Signal(Event):\n    pass\n",
    ),
    "P3": (
        "injected_clock.py",
        "def rewind(env):\n    env.now = 0.0\n",
    ),
    "G1": (
        "injected_global.py",
        "HANDLER_REGISTRY = {}\n",
    ),
    "S2": (
        "injected_spmd.py",
        "def build_mirror(rt, msg):\n"
        "    rt.pes[0].local_q.append(msg)\n",
    ),
})


def run_self_check(config: Config) -> int:
    """Inject the snippets; return 0 iff every one is caught."""
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-lint-selfcheck-") as tmp:
        tmpdir = Path(tmp)
        for rule_id, (fname, source) in _SELF_CHECK_SNIPPETS.items():
            (tmpdir / fname).write_text(source)
        # Scratch config: the project pass must cover the scratch dir
        # (there is no src/repro inside it) and the injected SPMD file
        # must be in S-family scope.
        scratch = Config(
            root=tmpdir,
            rules=config.rules,
            project_paths=(".",),
            spmd_paths=("injected_spmd.py",),
            global_allow=(),
        )
        analyzer = Analyzer(tmpdir, default_rules(scratch), config=scratch)
        result = analyzer.run([str(tmpdir)])
        fired = {v.rule for v in result.violations}
        for rule_id, (fname, _) in _SELF_CHECK_SNIPPETS.items():
            if rule_id in fired:
                print(f"self-check: {rule_id} caught injected violation in {fname}")
            else:
                failures.append(rule_id)
    if failures:
        print(
            f"self-check FAILED: rule(s) {', '.join(failures)} missed their "
            "injected violation",
            file=sys.stderr,
        )
        return 1
    print(
        f"self-check: PASS (all {len(_SELF_CHECK_SNIPPETS)} injected "
        "violations caught)"
    )
    return 0


def _list_rules() -> None:
    for rule_id, cls in all_rule_classes().items():
        print(f"{rule_id}  [{cls.severity:7s}]  {cls.title}")
        print(f"    {' '.join(cls.rationale.split())}")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["reach"]:
        if argv[1:]:
            print("python -m repro.analysis reach takes no options", file=sys.stderr)
            return 2
        from .reach import main as reach

        return reach()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: determinism & runtime-protocol static analysis",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/dirs to analyze (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: configured set)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output format",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="also write the JSON report to this file (CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="verify each rule family catches an injected violation",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print per-rule violation counts",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    try:
        config = load_config(args.root if args.root else find_root())
    except ConfigError as exc:
        parser.error(str(exc))
    if args.rules:
        config.rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    if config.rules is not None:
        unknown = set(config.rules) - set(all_rule_classes())
        if unknown:
            source = "--rules" if args.rules else "[tool.repro-lint] rules"
            parser.error(
                f"unknown rule id(s) in {source}: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(all_rule_classes())})"
            )

    if args.self_check:
        return run_self_check(config)

    analyzer = Analyzer(config.root, default_rules(config), config=config)
    paths = args.paths or config.paths
    result = analyzer.run(paths, exclude=config.exclude)

    payload = {
        "files_analyzed": result.files_analyzed,
        "violations": [v.__dict__ for v in result.violations],
        "pragma_suppressed": len(result.pragma_suppressed),
    }
    if args.json_out is not None:
        from ..ioutil import atomic_write_text

        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.json_out, json.dumps(payload, indent=2) + "\n")

    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for v in result.violations:
            print(v.format())
        if args.statistics:
            counts: dict = {}
            for v in result.violations:
                counts[v.rule] = counts.get(v.rule, 0) + 1
            for rule_id in sorted(counts):
                print(f"  {rule_id}: {counts[rule_id]}")
        suppressed = ""
        if result.pragma_suppressed:
            suppressed = f" ({len(result.pragma_suppressed)} pragma-suppressed)"
        status = "PASS" if result.ok else f"{len(result.violations)} violation(s)"
        print(
            f"repro-lint: {result.files_analyzed} files, {status}{suppressed}"
        )

    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
