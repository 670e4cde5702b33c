#!/usr/bin/env python
"""Mini-NAMD: molecular dynamics with PME on the Charm++ runtime (§IV-B).

1. Runs the sequential reference engine on a synthetic system (real
   LJ + Ewald forces, real smooth PME) and shows energy conservation.
2. Runs the same system distributed over a simulated 2-node BG/Q
   partition and verifies the trajectories agree.
3. Renders a Projections-style per-thread timeline (the paper's
   Figs. 3/9/10 style) and exports the interactive trace artifacts
   (Chrome ``trace_event`` JSON for chrome://tracing / Perfetto, plus
   a machine-readable run manifest) — see docs/TRACING.md.

Run:  python examples/namd_mini.py
"""

import numpy as np

from repro.bgq.params import CYCLES_PER_US
from repro.charm import Charm
from repro.converse import RunConfig
from repro.harness.timelines import render_ascii_timeline
from repro.namd import NamdCharm, SequentialMD, build_system
from repro.trace import format_utilization_table, write_chrome_trace, write_run_manifest


def main() -> None:
    n_atoms, steps, dt = 300, 6, 0.005

    # ---- sequential reference ------------------------------------------
    system = build_system(n_atoms, temperature=0.004, bond_fraction=0.0, seed=3)
    md = SequentialMD(system, pme_every=2, dt=dt)
    energies = md.run(steps)
    totals = [e.total for e in energies]
    print(f"sequential mini-NAMD: {n_atoms} atoms, {steps} steps")
    print(f"  E_total first/last: {totals[0]:.4f} / {totals[-1]:.4f}")
    print(f"  relative drift: {abs(totals[-1] - totals[0]) / abs(totals[0]):.2e}")
    print(f"  non-bonded pairs/step: {md.mean_pairs_per_step():.0f}")

    # ---- distributed on the simulated BG/Q -------------------------------
    system2 = build_system(n_atoms, temperature=0.004, bond_fraction=0.0, seed=3)
    charm = Charm(
        RunConfig(
            nnodes=2,
            workers_per_process=4,
            comm_threads_per_process=1,
            trace=True,
        )
    )
    app = NamdCharm(charm, system2, n_steps=steps, pme_every=2, dt=dt)
    app.run()
    got = app.gather_positions()
    want = system.positions % system.box
    print(f"\ndistributed run on 2 simulated BG/Q nodes ({charm.npes} PEs):")
    print(f"  max |x_charm - x_sequential| = {np.max(np.abs(got - want)):.2e} A")
    print(f"  simulated step time: {app.step_log[-1][0] / steps / CYCLES_PER_US:.0f} us")
    print(f"  PME reciprocal energy: {app.recip_energies[-1]:.6f} e^2/A")

    tracer = charm.tracer
    tracer.finish()
    busy, useful = tracer.utilization()
    print(f"  utilization: busy={busy * 100:.0f}% useful={useful * 100:.0f}%")
    counters = tracer.counters
    print(f"  messages sent: {counters['converse.msgs_sent']:.0f}"
          f" ({counters['converse.bytes_sent'] / 1024:.0f} KiB),"
          f" L2 atomic ops: {counters['l2.atomic_ops']:.0f}")
    print("\nper-thread timeline (first 6 PEs):")
    print(render_ascii_timeline(tracer, width=90, tracks=tracer.tracks()[:6]))
    print("\nper-PE utilization (us per category):")
    print(format_utilization_table(tracer, scale=1.0 / CYCLES_PER_US, unit="us"))
    chrome = write_chrome_trace(tracer, "namd_mini.trace.json",
                                scale=1.0 / CYCLES_PER_US, process_name="namd_mini")
    manifest = write_run_manifest(tracer, "namd_mini.manifest.json",
                                  label="namd_mini", scale=1.0 / CYCLES_PER_US,
                                  time_unit="us", n_atoms=n_atoms, steps=steps)
    print(f"\nwrote {chrome} (open in chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {manifest}")


if __name__ == "__main__":
    main()
