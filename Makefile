# Development entry points. `make check` is vet plus the race-enabled
# test suite (the campaign runner's worker pool is exercised under the
# race detector by internal/expers and internal/runner tests); CI runs
# the fuller scripts/check.sh, which adds the allocation gates and the
# same-host throughput gate (scripts/benchgate.sh). End-to-end
# performance is measured by perfbench/ (BENCHMARK.json).

GO ?= go

# Build identity, stamped into the binary (see internal/version): it is
# what `pcs version` prints, what run ledgers record, and the
# code-version component of result-store cache keys — so caches built by
# different builds never alias. A plain `go build` (no stamp) falls back
# to the embedded VCS revision.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null)
LDFLAGS = -X repro/internal/version.Version=$(VERSION)

.PHONY: all build vet test race check fig4 sweep goldens figures clean

all: check

# The whole toolkit is one binary; `./pcs help` lists the subcommands.
build:
	$(GO) build -ldflags "$(LDFLAGS)" -o pcs ./cmd/pcs

vet:
	$(GO) vet ./...

# tier-1 suite, as the driver runs it
test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

check: vet race

# Golden runs, driven by the checked-in spec documents (DESIGN.md §9).
# fig4 reproduces fig4_output.txt; sweep reproduces sweep_output.txt.
fig4:
	$(GO) run ./cmd/pcs sim -q -spec examples/fig4.json

sweep:
	$(GO) run ./cmd/pcs sweep -spec examples/sweep.json

# Golden-reproduction gate: regenerates fig4/sweep into a temp dir and
# compares byte for byte, then proves a warm cached re-run serves every
# cell from the result store with identical output. CI runs this.
goldens:
	sh scripts/goldens.sh

figures:
	$(GO) run ./cmd/pcs figures

# Removes the built binary plus the droppings of ad-hoc benchmark and
# profiling runs (`go test -c`/-cpuprofile artifacts, pipe traces).
clean:
	$(GO) clean ./...
	rm -f pcs repro.test *.prof trace.json
