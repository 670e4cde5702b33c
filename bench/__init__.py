"""Host-time benchmark of the simulator: four workloads and a per-layer ladder.

``BENCHMARK.json`` at the repository root declares the command, the
workloads and the metrics; ``bench/README.md`` says why each was chosen
and how a later issue cites them.  Nothing here is imported by the
program under ``src/``: the benchmark only ever calls its public API.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("pingpong_sweep", "pme_m2m", "shard_m2m", "serve_mix")


def require_program() -> None:
    """Put ``src/`` on the path; exit non-zero if the program is absent.

    The benchmark must fail, not measure some other installed copy, in a
    directory that holds only the benchmark's own files.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
