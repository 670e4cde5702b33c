"""``python -m repro.analysis reach``: which ``src/repro`` defs a program runs.

Runs each command of ``reach.toml`` (the ``program`` list, then the
tier-1 ``test`` command) through the shell in a scratch copy of the
tree, under a profile hook that a generated ``sitecustomize.py``
installs in every Python process; a ``multiprocessing`` fork child,
which skips ``atexit``, dumps from a re-armed ``Finalize``.  Each def is
matched by AST on its first line, decorators included (what
``co_firstlineno`` reports), and classed program, test-only or
unreached.  Exit 1 on an unkept finding, on a keep entry that a program
reaches, that names no def or that gives a reason outside
:data:`REASONS`, and on a failed command.  The report goes to
``reach_report.json``; docs/ANALYSIS.md, "Reach census", has the rest.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

from .config import find_root

__all__ = ["REASONS", "main"]

#: Why an unreached or test-only def stays: a test oracle, a paper
#: baseline, a human CLI, a failure path, a protocol stub, a public API.
REASONS = ("oracle", "baseline", "human", "failure", "protocol", "api")

_HOOK = '''\
import atexit, os, sys, threading
import multiprocessing.util as _mpu
_SEEN = {{}}  # id -> code: holding the code keeps its id unique, and ids hash fast
def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _SEEN:
            _SEEN[id(code)] = code
def _dump():
    sys.setprofile(None)
    src = {src!r}
    seen = {{f"{{c.co_filename}}:{{c.co_firstlineno}}" for c in list(_SEEN.values())
            if c.co_filename.startswith(src)}}
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.write("".join(s + "\\n" for s in seen))
atexit.register(_dump)
_mpu.register_after_fork(_dump, lambda dump: _mpu.Finalize(None, dump, exitpriority=100))
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def defs(src: Path):
    """``{"path:qualname": (path, first line, line count)}`` for every def."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent.parent).as_posix()
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key, n = f"{rel}:{prefix}{child.name}", 2
                    while key in out:  # a property setter, a redefinition
                        key, n = f"{rel}:{prefix}{child.name}#{n}", n + 1
                    out[key] = (rel, first, child.end_lineno - first + 1)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def run(command: str, tree: Path, scratch: Path, n: int) -> tuple:
    """Run one command under the hook; return (exit code, reached (path, line)s)."""
    hook, seen = scratch / f"hook{n}", scratch / f"seen{n}"
    hook.mkdir()
    seen.mkdir()
    src = str(tree / "src" / "repro") + os.sep
    (hook / "sitecustomize.py").write_text(_HOOK.format(src=src, out=str(seen)))
    env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{tree / 'src'}")
    env["PATH"] = f"{Path(sys.executable).parent}{os.pathsep}{env.get('PATH', '')}"
    command = command.replace("{tmp}", str(scratch))
    proc = subprocess.run(command, shell=True, cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-4000:])
    reached = set()
    for dump in seen.iterdir():
        for line in dump.read_text().splitlines():
            name, _, first = line.rpartition(":")
            reached.add((Path(name).relative_to(tree).as_posix(), int(first)))
    return proc.returncode, reached


def main() -> int:
    root = find_root()
    spec = tomllib.loads((root / "reach.toml").read_text())
    keep = spec.get("keep", {})
    table = defs(root / "src" / "repro")
    commands = [(c, "program") for c in spec["program"]] + [(spec["test"], "test")]
    reached = {"program": set(), "test": set()}
    failed = []
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        scratch = Path(tmp)
        tree = scratch / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        for n, (command, side) in enumerate(commands, 1):
            print(f"reach: [{n}/{len(commands)}] {command}", flush=True)
            code, seen = run(command, tree, scratch, n)
            reached[side] |= seen
            if code:
                failed.append(f"{command} (exit {code})")
    classes = {
        key: "program" if (rel, first) in reached["program"]
        else "test-only" if (rel, first) in reached["test"] else "unreached"
        for key, (rel, first, _) in table.items()
    }
    findings = [f"{side} {key} ({table[key][2]} lines)" for key, side in classes.items()
                if side != "program" and key not in keep]
    errors = [f"keep {key}: {reason!r} is not one of {', '.join(REASONS)}"
              for key, reason in keep.items() if reason not in REASONS]
    errors += [f"keep {key}: no such def" for key in keep if key not in table]
    errors += [f"keep {key}: reached by a program" for key in keep
               if classes.get(key) == "program"]
    sides = ("program", "test-only", "unreached")
    report = {
        "commands": len(commands),
        "failed": failed,
        "counts": {side: list(classes.values()).count(side) for side in sides},
        "lines": {side: sum(table[k][2] for k, s in classes.items() if s == side)
                  for side in sides},
        "kept": len(keep),
        "findings": findings,
        "keep_errors": errors,
        "defs": classes,
    }
    (root / "reach_report.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in failed:
        print(f"reach: FAILED {line}")
    for line in findings + errors:
        print(f"reach: {line}")
    counts = ", ".join(f"{n} {side}" for side, n in report["counts"].items())
    bad = len(failed) + len(findings) + len(errors)
    print(f"reach: {len(table)} defs ({counts}), {len(keep)} kept, "
          + ("PASS" if not bad else f"{bad} problem(s)"))
    return 1 if bad else 0
