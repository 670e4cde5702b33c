"""Benchmark harness: one driver per table/figure of the paper (the
names exported here), one definition per gated workload (``workloads``),
and one gate CLI — ``python -m repro.harness
<bench|shard|serve|trace|chaos>`` (``__main__``; exit 0 pass / 1 fail /
2 could not run), which each gate module feeds a
``gate(args) -> (failures, notes, report)`` function.
"""

from .allocbench import AllocBenchResult, fig6_allocator, run_alloc_bench
from .fftbench import des_fft_step_us, des_vs_model, table1_model, table1_report
from .namdbench import (
    PAPER_TABLE2,
    apoa1_pme_every_step,
    fig7_configurations,
    fig8_l2_atomics,
    fig11_bgp_vs_bgq,
    fig12_stmv20m,
    qpx_serial_speedup,
    smt_thread_speedup_des,
    table2_stmv100m,
)
from .pingpong import (
    FIG4_MODES,
    FIG4_SIZES,
    fig4_internode,
    fig5_intranode,
    pingpong_oneway_us,
    pingpong_run,
)
from .report import banner, format_table
from .timelines import (
    TraceResult,
    export_trace_artifacts,
    fig3_pme_timeline,
    fig9_commthread_profile,
    fig10_pme_window,
    run_traced_namd,
)

__all__ = [
    "AllocBenchResult",
    "FIG4_MODES",
    "FIG4_SIZES",
    "PAPER_TABLE2",
    "TraceResult",
    "apoa1_pme_every_step",
    "banner",
    "des_fft_step_us",
    "des_vs_model",
    "export_trace_artifacts",
    "fig10_pme_window",
    "fig11_bgp_vs_bgq",
    "fig12_stmv20m",
    "fig3_pme_timeline",
    "fig4_internode",
    "fig5_intranode",
    "fig6_allocator",
    "fig7_configurations",
    "fig8_l2_atomics",
    "fig9_commthread_profile",
    "format_table",
    "pingpong_oneway_us",
    "pingpong_run",
    "qpx_serial_speedup",
    "run_alloc_bench",
    "run_traced_namd",
    "smt_thread_speedup_des",
    "table1_model",
    "table1_report",
    "table2_stmv100m",
]
