package service_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workload"
)

// direct runs a job the way a standalone caller would, bypassing the
// service entirely; served results must be bit-identical to this.
func direct(t *testing.T, sch system.Scheme, wl string) *system.Results {
	t.Helper()
	sys, err := system.New(system.DefaultConfig(sch), wl, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunMatchesDirect pins the acceptance criterion that a served result
// is bit-identical to a direct experiments-style run, and that the repeat
// request is a cache hit returning the same result.
func TestRunMatchesDirect(t *testing.T) {
	s := service.New(service.Options{Workers: 2})
	job := service.Job{Workload: "mac", Scheme: system.SchemeARFtid, Scale: workload.ScaleTiny}

	got, hit, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request reported a cache hit")
	}
	want := direct(t, system.SchemeARFtid, "mac")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served results differ from direct run: cycles %d vs %d", got.Cycles, want.Cycles)
	}

	again, hit, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("repeat request missed the cache")
	}
	if again != got {
		t.Error("cache hit returned a different Results pointer (re-simulated?)")
	}
	if st := s.Stats(); st.SimsStarted != 1 {
		t.Errorf("SimsStarted = %d after one distinct job, want 1", st.SimsStarted)
	}
}

// TestInvalidJobs exercises the request gate.
func TestInvalidJobs(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	bad := []service.Job{
		{Workload: "no_such_benchmark", Scheme: system.SchemeHMC, Scale: workload.ScaleTiny},
		{Workload: "mac", Scheme: system.SchemeHMC, Scale: workload.Scale(99)},
		{Workload: "mac", Scheme: system.Scheme(42), Scale: workload.ScaleTiny},
	}
	for _, job := range bad {
		if _, _, err := s.Run(context.Background(), job); err == nil {
			t.Errorf("job %+v: expected error", job)
		}
	}
	cfg := system.DefaultConfig(system.SchemeHMC)
	cfg.Threads = -1
	if _, _, err := s.Run(context.Background(), service.Job{
		Workload: "mac", Scheme: system.SchemeHMC, Scale: workload.ScaleTiny, Config: &cfg,
	}); err == nil {
		t.Error("invalid config: expected error")
	}
	if st := s.Stats(); st.SimsStarted != 0 {
		t.Errorf("invalid jobs started %d simulations, want 0", st.SimsStarted)
	}
}

// TestSingleflightHTTP hammers /run through a real HTTP stack: many
// concurrent identical requests plus several distinct ones. Exactly one
// simulation must run per distinct key (the cache-hit path does zero
// simulation work — pinned by the SimsStarted counter), and every caller
// must receive the correct, bit-identical results. Run under -race this is
// also the service's data-race test.
func TestSingleflightHTTP(t *testing.T) {
	svc := service.New(service.Options{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	if err := client.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}

	const identical = 24
	distinct := []service.RunRequest{
		{Workload: "mac", Scheme: "ARF-tid", Scale: "tiny"},
		{Workload: "mac", Scheme: "HMC", Scale: "tiny"},
		{Workload: "reduce", Scheme: "ARF-tid", Scale: "tiny"},
		{Workload: "reduce", Scheme: "ART", Scale: "tiny"},
		{Workload: "backprop", Scheme: "DRAM", Scale: "tiny"},
	}
	// distinct[0] is also the identical-request target, so the distinct
	// key count is len(distinct).
	var wg sync.WaitGroup
	responses := make([]*service.RunResponse, identical+len(distinct))
	errs := make([]error, identical+len(distinct))
	for i := 0; i < identical+len(distinct); i++ {
		req := distinct[0]
		if i >= identical {
			req = distinct[i-identical]
		}
		wg.Add(1)
		go func(i int, req service.RunRequest) {
			defer wg.Done()
			responses[i], errs[i] = client.Run(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Every caller got the right answer, bit-identical to a direct run.
	for _, req := range distinct {
		sch, err := system.ParseScheme(req.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		want := direct(t, sch, req.Workload)
		for i, resp := range responses {
			if resp.Workload != req.Workload || resp.Scheme != req.Scheme {
				continue
			}
			if !reflect.DeepEqual(resp.Results, want) {
				t.Errorf("response %d (%s/%s): results differ from direct run (cycles %d vs %d)",
					i, req.Scheme, req.Workload, resp.Results.Cycles, want.Cycles)
			}
		}
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SimsStarted != uint64(len(distinct)) {
		t.Errorf("SimsStarted = %d, want %d (one per distinct key)", st.SimsStarted, len(distinct))
	}
	if st.SimsCompleted != uint64(len(distinct)) {
		t.Errorf("SimsCompleted = %d, want %d", st.SimsCompleted, len(distinct))
	}
	wantHits := uint64(identical + len(distinct) - len(distinct))
	if st.CacheHits+st.CacheMisses != uint64(identical+len(distinct)) {
		t.Errorf("hits+misses = %d, want %d requests accounted", st.CacheHits+st.CacheMisses, identical+len(distinct))
	}
	if st.CacheMisses != uint64(len(distinct)) {
		t.Errorf("CacheMisses = %d, want %d (the singleflight leaders)", st.CacheMisses, len(distinct))
	}
	if st.CacheHits != wantHits {
		t.Errorf("CacheHits = %d, want %d (every non-leader request)", st.CacheHits, wantHits)
	}
}

// TestSweepHTTP runs a built-in study through /sweep on the shared budget
// and cross-checks one point against a direct run.
func TestSweepHTTP(t *testing.T) {
	svc := service.New(service.Options{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	res, err := client.Sweep(context.Background(), service.SweepRequest{Study: "linkbw", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("sweep returned no points")
	}
	for _, p := range res.Points {
		if p.Cycles == 0 {
			t.Errorf("point %d (%v %s/%s): zero cycles", p.Index, p.Coords, p.Scheme, p.Workload)
		}
	}
}

// TestFigureHTTP derives a figure through the cache-assembled suite and
// checks the cache absorbed the overlapping second request.
func TestFigureHTTP(t *testing.T) {
	svc := service.New(service.Options{Workers: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	fig, err := client.Figure(context.Background(), "5.1b", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if fig.Figure != "5.1b" || len(fig.Data) == 0 {
		t.Fatalf("unexpected figure response %+v", fig)
	}
	started := svc.Stats().SimsStarted

	// 5.2b derives from the same microbenchmark suite: zero new sims.
	if _, err := client.Figure(context.Background(), "5.2b", "tiny"); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SimsStarted != started {
		t.Errorf("figure repeat started %d new sims, want 0", st.SimsStarted-started)
	}

	if _, err := client.Figure(context.Background(), "nope", "tiny"); err == nil {
		t.Error("unknown figure id: expected error")
	}
}
