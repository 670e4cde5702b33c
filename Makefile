# Convenience entry points; see README.md and docs/TRACING.md.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 test lint trace-test trace-demo trace-gate bench bench-gate bench-smoke chaos shard-gate iso-gate serve-gate obs-gate

tier1: test bench-smoke bench-gate trace-gate iso-gate serve-gate obs-gate lint  ## full tier-1 flow: tests + gates + lint
# tier1 checks the trajectory without recording it (as CI does), so it
# leaves `git status` clean; `make bench-gate` alone writes the next record.
tier1: BENCH_OUT = --json-out BENCH_CI.json

test:            ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

lint:            ## repro-lint static analysis (determinism + runtime protocol,
                 ## docs/ANALYSIS.md); exits nonzero on any violation not
                 ## suppressed by a pragma beside it
	$(PYTHON) -m repro.analysis

bench-gate:      ## benchmark gate: writes the next BENCH_NNNN.json at the repo root
                 ## and exits nonzero on any simulated-time checksum drift vs the
                 ## prior record of the same scale (EXPERIMENTS.md); host time is
                 ## recorded there but judged by `python3 -m bench` (bench/README.md);
                 ## as a `make tier1` leg it checks into the ignored BENCH_CI.json
	$(PYTHON) -m repro.harness bench $(BENCH_OUT)

bench-smoke:     ## the host-time benchmark's own smoke test (--scale tiny, ~9 s):
                 ## bench/ wraps public engine/shard/serve entry points by name
                 ## (bench/spans.py trace_points) and sits outside pytest's
                 ## testpaths, so a refactor that breaks one shows only here
	$(PYTHON) -m pytest -q bench/test_bench_smoke.py

shard-gate:      ## sharded-vs-serial equivalence gate: every gated benchmark must
                 ## produce bit-identical simulated times on the sharded PDES engine
                 ## (shards 1/2/4 + the subprocess transport) and the serial engine
                 ## (docs/SCALING.md)
	$(PYTHON) -m repro.harness shard

iso-gate:        ## concurrent-Environment isolation gate: N independent
                 ## Environments stepped in adversarial interleaving must
                 ## checksum bit-identically to solo runs (docs/ANALYSIS.md,
                 ## G/S rule families); checked-engine mode catches protocol
                 ## violations the interleaving might expose
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness iso

serve-gate:      ## simulation-as-a-service gate: a synthetic many-client load
                 ## (mixed iso-gate, sharded-PDES and perfmodel jobs across
                 ## priorities and pacing) over one JobService process; every
                 ## served job must checksum bit-identically to its solo run
                 ## (ARCHITECTURE.md, "Simulation as a service")
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness serve --json-out serve_report.json

obs-gate:        ## host-side observability gate: a profiled run of each gated
                 ## benchmark must checksum bit-identically to the unprofiled run
                 ## and the committed BENCH record (cycle neutrality), and hotspot
                 ## attribution must stay concentrated and stable vs the committed
                 ## baseline; what profiling costs in host time is measured by
                 ## `python3 -m bench` (docs/OBSERVABILITY.md)
	$(PYTHON) -m repro.harness obs --json-out benchmarks/output/obsgate_report.json

chaos:           ## chaos suite: pingpong/m2m/jacobi/lattice under seeded fault
                 ## profiles x delivery-QoS modes with the checked DES engine;
                 ## reliable cells assert bit-correct payloads, best-effort cells
                 ## the degraded-but-correct gate, all cells eventual quiescence
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness chaos \
		--profiles drop5 chaos partition --seeds 0 1 2 \
		--workloads pingpong m2m jacobi lattice \
		--qos reliable best_effort fresh \
		--json-out chaos_matrix.json

trace-gate:      ## trace-diff regression gate: re-runs the figure trace configs;
                 ## each manifest must equal its committed baseline in
                 ## benchmarks/baselines/ (engine.events alone is a note; docs/TRACING.md)
	$(PYTHON) -m repro.harness trace

trace-test:      ## just the tracing-subsystem tests (pytest -m trace)
	$(PYTHON) -m pytest -q -m trace tests/trace

trace-demo:      ## traced mini-NAMD run + Chrome/Perfetto + manifest export
	$(PYTHON) -m repro.trace.demo

bench:           ## regenerate every paper table/figure into benchmarks/output/
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
