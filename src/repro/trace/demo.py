"""End-to-end tracing demo: ``python -m repro.trace.demo [outdir]``.

Runs a small traced mini-NAMD simulation on the DES (2 simulated BG/Q
nodes, 2 workers + 1 communication thread per process, PME every other
step), then exports every artifact the tracing subsystem produces:

* ``trace_demo.trace.json``    — Chrome ``trace_event`` JSON; open it in
  ``chrome://tracing`` or drag it onto https://ui.perfetto.dev to get
  the interactive equivalent of the paper's Fig. 3 Projections view;
* ``trace_demo.manifest.json`` — machine-readable run manifest
  (counters + per-PE utilization);
* stdout — the ASCII timeline, then the report that
  ``python -m repro.trace analyze`` prints for the written trace
  (utilization, load imbalance, time profile, critical path, messages,
  simulated HPM counters), each section once.

The default output directory is ``benchmarks/output`` when run from the
repository root (falling back to the current directory), so demo
artifacts land next to the benchmark-generated ones.
"""

from __future__ import annotations

import pathlib
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        outdir = pathlib.Path(argv[0])
    else:
        default = pathlib.Path("benchmarks/output")
        outdir = default if default.parent.is_dir() else pathlib.Path(".")
    # Imported lazily: the harness pulls in the full application stack.
    from repro.harness.timelines import export_trace_artifacts, run_traced_namd
    from repro.trace.analyze import load_artifact, manifest_report

    print("running traced mini-NAMD (2 nodes, 2 workers + 1 comm thread)...")
    result = run_traced_namd(
        "trace-demo", n_atoms=500, nnodes=2, workers=2, comm_threads=1,
        pme_every=2, n_steps=3,
    )
    paths = export_trace_artifacts(result, outdir, "trace_demo")
    print(f"\n{result.n_steps} steps, {result.us_per_step:.0f} us/step "
          f"(busy {result.busy_fraction * 100:.0f}%, "
          f"useful {result.useful_fraction * 100:.0f}%)")
    print("\nper-thread timeline:")
    print(result.timeline_ascii)
    print()
    manifest, tracer = load_artifact(paths["chrome"])
    print(manifest_report(manifest, tracer, paths["chrome"])[1])
    print(f"\nwrote {paths['chrome']}")
    print(f"wrote {paths['manifest']}")
    print("open the .trace.json in chrome://tracing or https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
