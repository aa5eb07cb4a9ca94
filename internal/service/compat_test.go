package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
	"repro/internal/system"
)

// legacyConfigJSON renders a default configuration the way clients built
// against the retired sharded kernel sent it: with the Shards and Workers
// knobs still present.
func legacyConfigJSON(t *testing.T, sch system.Scheme) []byte {
	t.Helper()
	cfg, err := json.Marshal(system.DefaultConfig(sch))
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(`{"Shards":2,"Workers":2,`), cfg[1:]...)
}

// postRun sends one raw /run body and decodes the reply.
func postRun(t *testing.T, url string, body []byte) *service.RunResponse {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %s", resp.Status)
	}
	var rr service.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return &rr
}

// TestRunAcceptsRetiredKernelFields pins compatibility with old clients: a
// /run config that still carries the retired Shards/Workers knobs decodes
// (unknown fields are ignored), keys to the same Config.Hash as the plain
// request and is served the plain request's cached result without a new
// simulation.
func TestRunAcceptsRetiredKernelFields(t *testing.T) {
	svc := service.New(service.Options{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	plain := postRun(t, ts.URL, []byte(`{"workload":"mac","scheme":"ARF-tid","scale":"tiny"}`))
	if plain.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	body := append([]byte(`{"workload":"mac","scheme":"ARF-tid","scale":"tiny","config":`),
		legacyConfigJSON(t, system.SchemeARFtid)...)
	body = append(body, '}')
	legacy := postRun(t, ts.URL, body)

	if legacy.ConfigHash != plain.ConfigHash {
		t.Fatalf("legacy config hash %s, plain %s", legacy.ConfigHash, plain.ConfigHash)
	}
	if want := "09ca665c2e9e39ac"; plain.ConfigHash != want {
		t.Fatalf("default ARF-tid config hash %s, want %s", plain.ConfigHash, want)
	}
	if !legacy.CacheHit {
		t.Fatal("legacy request missed the plain request's cache entry")
	}
	a, _ := json.Marshal(plain.Results)
	b, _ := json.Marshal(legacy.Results)
	if !bytes.Equal(a, b) {
		t.Fatal("legacy request served a different result")
	}
	if st := svc.Stats(); st.SimsStarted != 1 {
		t.Fatalf("sims_started = %d, want 1", st.SimsStarted)
	}
}
