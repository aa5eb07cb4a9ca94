package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// tinyConfig runs one short pass of workload name.
func tinyConfig(name string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = name
	cfg.seed = 7
	cfg.seconds = time.Nanosecond
	cfg.trace = trace
	cfg.simScale = workload.ScaleTiny
	cfg.serveRequests = 120
	cfg.serveSeeds = 1
	cfg.setupReps = 2
	cfg.minTraced = time.Nanosecond
	return cfg
}

// TestManifest keeps BENCHMARK.json and the metric lists in step.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks the report: correct, nothing failed, exactly the declared
// metrics, and no end-to-end metric at zero.
func TestWorkloads(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, _, err := run(context.Background(), tinyConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", name, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", name, d.name, m.Value)
				}
			}
			if trace && rep.Metrics["trace.profile_cpu_s"].Value <= 0 {
				t.Errorf("%s: traced run profiled no CPU time", name)
			}
		}
	}
}

// TestPaperFailureCounting breaks one pin: exactly that pair fails.
func TestPaperFailureCounting(t *testing.T) {
	b := newBench(tinyConfig("paper-suite", false))
	p, err := newPaperSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	p.pairs[3].cycles++
	if _, err := p.pass(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got, want := b.attempted.Load(), int64(len(p.pairs)); got != want {
		t.Errorf("attempted %d, want %d", got, want)
	}
	if got := b.failed.Load(); got != 1 {
		t.Errorf("failed %d, want 1", got)
	}
}

// TestServeFailureCounting expects the wrong config_hash for one key:
// every request for that key fails and nothing else does.
func TestServeFailureCounting(t *testing.T) {
	t.Chdir(t.TempDir())
	b := newBench(tinyConfig("serve-mix", false))
	s, err := newServe(b, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := s.seq[0]
	s.keys[bad].hash = "not-the-hash"
	var want int64
	for _, k := range s.seq {
		if k == bad {
			want++
		}
	}
	if _, err := s.pass(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got := b.attempted.Load(); got != int64(len(s.seq)) {
		t.Errorf("attempted %d, want %d", got, len(s.seq))
	}
	if got := b.failed.Load(); got != want {
		t.Errorf("failed %d, want %d", got, want)
	}
}

func TestRequestSequence(t *testing.T) {
	b := newBench(tinyConfig("serve-mix", false))
	seq := requestSequence(b.rng, 50, 400)
	seen := map[int]int{}
	for _, k := range seq {
		seen[k]++
	}
	if len(seq) != 400 || len(seen) != 50 {
		t.Fatalf("%d requests over %d keys, want 400 over 50", len(seq), len(seen))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/network.(*Fabric).forward":                    "network",
		"repro/internal/sim.(*Engine).step":                           "sim",
		"repro/internal/analysis/load.Packages":                       "other",
		"repro/internal/sim.Ring[go.shape.*repro/internal/cache.Msg]": "sim",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                "runtime",
		"encoding/json.(*decodeState).object":                         "json",
		"syscall.Syscall6":                                            "other",
		"main.burn":                                                   "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

// TestProfileDecode profiles a busy loop and finds it in the samples.
func TestProfileDecode(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.0000001
		}
	}
	a, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if a.total <= 0 || a.self["other"] <= 0 {
		t.Errorf("profile attributes %v s, %v s to the test's own code", a.total, a.self["other"])
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 999; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(ds, 0.99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (fewer than ten beyond)", got)
	}
	ds = append(ds, time.Second)
	if got := percentile(ds, 0.99); got != 990 {
		t.Errorf("p99 of 1000 samples = %v ms, want 990", got)
	}
	if got := percentile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %v ms, want 500", got)
	}
}
