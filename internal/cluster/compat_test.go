package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestDispatchAcceptsRetiredKernelFields pins compatibility with
// coordinators built against the retired sharded kernel: a dispatch body
// whose job config still carries the Shards/Workers knobs decodes, keys to
// the same Config.Hash as a plain job, and completes with the same result
// bytes as a dispatch without a config.
func TestDispatchAcceptsRetiredKernelFields(t *testing.T) {
	cfg, err := json.Marshal(system.DefaultConfig(system.SchemeARFtid))
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(`{"Shards":2,"Workers":2,`), cfg[1:]...)
	bodies := map[string][]byte{
		"plain":  []byte(`{"lease":"plain","key":"k","job":{"workload":"mac","scheme":"ARF-tid","scale":"tiny","config":null}}`),
		"legacy": append(append([]byte(`{"lease":"legacy","key":"k","job":{"workload":"mac","scheme":"ARF-tid","scale":"tiny","config":`), legacy...), []byte(`}}`)...),
	}

	// A stand-in coordinator that accepts registration and heartbeats and
	// records completions.
	done := make(chan completeRequest, len(bodies))
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/cluster/register":
			json.NewEncoder(w).Encode(registerResponse{LeaseTTLMS: 10000, HeartbeatMS: 50})
		case "/cluster/complete":
			var cr completeRequest
			if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
				t.Error(err)
			}
			done <- cr
		}
	}))
	defer coord.Close()
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: coord.URL, Advertise: srv.URL, Workers: 1, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(mux)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.Start(ctx)

	plainJob, err := service.Job{Workload: "mac", Scheme: system.SchemeARFtid, Scale: workload.ScaleTiny}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range bodies {
		var req dispatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: decoding dispatch body: %v", name, err)
		}
		job, err := w.decodeJob(req.Job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if job.Key() != plainJob.Key() {
			t.Fatalf("%s: job key %s, want %s", name, job.Key(), plainJob.Key())
		}
		resp, err := http.Post(srv.URL+"/worker/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: dispatch: %s", name, resp.Status)
		}
	}
	results := map[string][]byte{}
	for range bodies {
		select {
		case cr := <-done:
			if cr.Error != "" {
				t.Fatalf("%s: %s", cr.Lease, cr.Error)
			}
			results[cr.Lease] = cr.Results
		case <-time.After(15 * time.Second):
			t.Fatal("timed out waiting for completions")
		}
	}
	if !bytes.Equal(results["plain"], results["legacy"]) {
		t.Fatal("legacy dispatch completed with different result bytes")
	}
}
