package system_test

import (
	"regexp"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// mutate builds a config by splattering arbitrary fuzz values over the
// fields Validate checks (and a few it doesn't), starting from a valid
// default so the fuzzer explores the boundary rather than only the
// everything-zero region.
func mutate(scheme int, threads, issue, rob, l1Size, l1Ways, l2Size, l2Ways,
	nocBW, memBW, vcs, depth, maxFlows, opBufs, coordQ, miQ int,
	seed, maxCycles, ipcWindow uint64) system.Config {
	cfg := system.DefaultConfig(system.SchemeARFtid)
	cfg.Scheme = system.Scheme(scheme)
	cfg.Threads = threads
	cfg.Core.IssueWidth = issue
	cfg.Core.ROBSize = rob
	cfg.L1.SizeBytes = l1Size
	cfg.L1.Ways = l1Ways
	cfg.L2.BankSizeBytes = l2Size
	cfg.L2.Ways = l2Ways
	cfg.NoC.LinkBandwidth = nocBW
	cfg.NoC.VCs = vcs
	cfg.NoC.QueueDepth = depth
	cfg.MemNet.LinkBandwidth = memBW
	cfg.ARE.MaxFlows = maxFlows
	cfg.ARE.OperandBufs = opBufs
	cfg.CoordQueue = coordQ
	cfg.MIQueue = miQ
	cfg.Seed = seed
	cfg.MaxCycles = maxCycles
	cfg.IPCSampleCycles = ipcWindow
	return cfg
}

// runSizeCap bounds the sizes New preallocates storage for (ROB rings,
// cache sets, router queues) when FuzzConfigValidate runs an accepted
// config: Validate sets no upper bounds, and a multi-gigabyte machine is
// not a property of the wiring.
const runSizeCap = 1 << 12

// FuzzConfigValidate asserts Validate never panics on arbitrary field
// mutations, is pure (same verdict twice, no config mutation — pinned by
// hashing before and after), and accepts every DefaultConfig. An accepted
// config of test-sized storage is then built and run for at most 3000
// cycles: it must end in success or a returned error, never a panic.
func FuzzConfigValidate(f *testing.F) {
	f.Add(3, 16, 4, 128, 4096, 4, 2048, 4, 16, 16, 4, 8, 512, 64, 32, 16,
		uint64(42), uint64(200_000_000), uint64(2048))
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, uint64(0), uint64(0), uint64(0))
	f.Add(-1, -7, 1, -128, 1<<30, 1, -2048, 93, 1, -16, 4, 8, -512, 64, 32, 16,
		uint64(1), uint64(1), uint64(1))
	f.Add(99, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		^uint64(0), ^uint64(0), ^uint64(0))
	// Accepted configs: ARF-tid at its defaults (runs to completion) and a
	// small DRAM machine with one-entry queues (ends on its budget).
	f.Add(3, 16, 8, 64, 4096, 4, 2048, 4, 32, 32, 6, 8, 256, 32, 32, 16,
		uint64(42), uint64(200_000_000), uint64(2048))
	f.Add(0, 5, 1, 7, 1024, 2, 512, 8, 1, 3, 6, 1, 1, 1, 1, 1,
		uint64(9), uint64(1), uint64(1))
	f.Fuzz(func(t *testing.T, scheme, threads, issue, rob, l1Size, l1Ways, l2Size, l2Ways,
		nocBW, memBW, vcs, depth, maxFlows, opBufs, coordQ, miQ int,
		seed, maxCycles, ipcWindow uint64) {
		cfg := mutate(scheme, threads, issue, rob, l1Size, l1Ways, l2Size, l2Ways,
			nocBW, memBW, vcs, depth, maxFlows, opBufs, coordQ, miQ,
			seed, maxCycles, ipcWindow)
		before := cfg.Hash()
		err1 := cfg.Validate()
		err2 := cfg.Validate()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Validate is not pure: first %v, second %v", err1, err2)
		}
		if after := cfg.Hash(); after != before {
			t.Fatalf("Validate mutated the config: hash %s -> %s", before, after)
		}
		if err1 != nil {
			return
		}
		if max(issue, rob, depth, maxFlows, opBufs, coordQ, miQ) > runSizeCap ||
			max(l1Size, l2Size) > runSizeCap*64 {
			return
		}
		cfg.MaxCycles = min(cfg.MaxCycles, 3000)
		s, err := system.New(cfg, "mac", workload.ScaleTiny)
		if err != nil {
			return
		}
		_, _ = s.Run()
	})
}

var hashShape = regexp.MustCompile(`^[0-9a-f]{16}$`)

// FuzzConfigHash asserts Hash never panics, always renders the 16-hex-digit
// form, is a pure function of the config value (an identical copy hashes
// identically; repeated calls agree), and is stable across a Validate
// round-trip — the property the service cache key relies on.
func FuzzConfigHash(f *testing.F) {
	f.Add(3, 16, 4, 128, 4096, 4, 2048, 4, 16, 16, 4, 8, 512, 64, 32, 16,
		uint64(42), uint64(200_000_000), uint64(2048))
	f.Add(2, 8, 2, 64, 1024, 2, 512, 8, 8, 4, 2, 4, 64, 16, 8, 8,
		uint64(7), uint64(1000), uint64(64))
	f.Fuzz(func(t *testing.T, scheme, threads, issue, rob, l1Size, l1Ways, l2Size, l2Ways,
		nocBW, memBW, vcs, depth, maxFlows, opBufs, coordQ, miQ int,
		seed, maxCycles, ipcWindow uint64) {
		cfg := mutate(scheme, threads, issue, rob, l1Size, l1Ways, l2Size, l2Ways,
			nocBW, memBW, vcs, depth, maxFlows, opBufs, coordQ, miQ,
			seed, maxCycles, ipcWindow)
		h := cfg.Hash()
		if !hashShape.MatchString(h) {
			t.Fatalf("Hash() = %q, want 16 lowercase hex digits", h)
		}
		if h2 := cfg.Hash(); h2 != h {
			t.Fatalf("Hash not stable across calls: %s vs %s", h, h2)
		}
		cp := cfg
		if hc := cp.Hash(); hc != h {
			t.Fatalf("identical config copies hash differently: %s vs %s", h, hc)
		}
		_ = cfg.Validate()
		if hv := cfg.Hash(); hv != h {
			t.Fatalf("Hash changed across a Validate round-trip: %s vs %s", h, hv)
		}
	})
}
