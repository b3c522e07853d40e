# Convenience targets; dune is the real build system.

.PHONY: all build test lint check ci bench-smoke bench-guard sweep-smoke fault-smoke equiv-smoke swarm-smoke serve-smoke synth-smoke verilog-smoke examples-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# CI gate: shipped library elements must carry no analysis warnings at
# either the HLIR or the netlist level (same as `dune build @lint`).
lint:
	dune build @lint

check: build test lint

# Everything a PR must pass, including a short run of each end-to-end
# benchmark workload so its code paths and output checks are exercised
# even when nobody is looking at the numbers.
ci: build lint test bench-smoke bench-guard sweep-smoke fault-smoke equiv-smoke swarm-smoke serve-smoke synth-smoke verilog-smoke examples-smoke

# Two seconds of each perfbench workload (see perfbench/README.md): every
# run checks its outputs against perfbench/baseline.json and exits
# non-zero if any is wrong.
PERFBENCH_WORKLOADS = flow_revisions swarm_pin serve_mixed

bench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# Same-binary comparison of the one production RTL engine (levelized)
# against the legacy whole-network settle reference, interleaved over the
# fig3/pin_rtl and fig3/sram_rtl series: fails if the levelized engine is
# ever slower than settle.  Same-process, so no cross-binary flakiness.
bench-guard:
	dune exec bench/main.exe -- --guard

# A small 2-domain batch sweep: exercises the domain pool, the shared
# synthesis cache and the merged observability snapshot end to end.
sweep-smoke:
	dune exec bin/hlcs_cli.exe -- sweep --smoke --jobs 2

# A seeded fault campaign, one cycle through every fault family on 2
# domains.  Campaign seed 1 is the empirically fully-survivable smoke
# campaign: any non-zero exit means either an injection regressed or a
# verdict flipped to inconsistent.
fault-smoke:
	dune exec bin/hlcs_cli.exe -- fault --smoke --jobs 2 --fault-seed 1 --deterministic

# A coverage-guided swarm campaign at CI size (budget 16, batch 4, two
# workers): byte-compares the report between worker counts and validates
# the JSON against the strict campaign schema (same as `dune build @swarm`).
swarm-smoke:
	dune build @swarm

# The serve-protocol contract (same as `dune build @serve`): the fig3
# flow job replayed through the daemon's stdio session at two pool
# widths (event streams identical modulo wall clock, result payload
# byte-equal to `hlcs_cli flow`), the malformed-request and
# queue-overflow transcripts golden-diffed, and the two-process
# disk-cache proof — a second daemon process must answer the same job
# from $HLCS_SYNTH_CACHE without re-synthesising.
serve-smoke:
	dune build @serve

# The two-process incremental-synthesis proof (same as `dune build
# @synth`): a cold daemon synthesises the fig3 flow job from scratch
# into a private $HLCS_SYNTH_CACHE, a second daemon process runs a
# one-process edit of the design (different stimulus seed) and must
# reuse the clean netlist fragments from disk — synth_units_reused > 0,
# exactly one unit rebuilt, never a full resynthesis.
synth-smoke:
	dune build @synth

# Cross-check the emitted Verilog against icarus (same as `dune build
# @verilog`): compile `hlcs_cli emit fig3 --lang verilog` plus a
# generated stimulus testbench under iverilog, and diff the sampled
# output-port waveforms against our own simulator's VCD.  Skips (does
# not fail) on hosts without iverilog/vvp on PATH.
verilog-smoke:
	@if command -v iverilog >/dev/null 2>&1 && command -v vvp >/dev/null 2>&1; then \
	  dune build @verilog; \
	else \
	  echo "verilog-smoke: iverilog not found, skipped"; \
	fi

# SAT-prove the fig3 (pci) and sram demo designs equivalent pre/post
# optimisation — every miter expected UNSAT — and validate the JSON
# proof reports against the strict schema (same as `dune build @equiv`).
equiv-smoke:
	dune build @equiv

# Run every example executable in a fresh temporary directory (some
# write VCD files into the working directory); fails on the first
# non-zero exit, printing that example's output.
EXAMPLES = quickstart bistable pci_transfer refinement_flow synthesis_demo \
  polymorphism interface_library dma_copy

examples-smoke:
	dune build $(EXAMPLES:%=examples/%.exe)
	@for ex in $(EXAMPLES); do \
	  dir=$$(mktemp -d) || exit 1; \
	  if (cd $$dir && $(CURDIR)/_build/default/examples/$$ex.exe > out.txt 2>&1); then \
	    echo "examples-smoke: $$ex ok"; rm -rf $$dir; \
	  else \
	    cat $$dir/out.txt; echo "examples-smoke: $$ex FAILED"; rm -rf $$dir; exit 1; \
	  fi; \
	done

clean:
	dune clean
