package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/workload"
)

// serveKey is one distinct job: a default-config ScaleTiny run of one
// workload on one scheme under one Config.Seed.
type serveKey struct {
	job  service.Job
	body []byte // the POST /run request, encoded once outside timing
	hash string // the config_hash the reply must carry
}

// serveLoad drives an in-process arserved with a closed loop of
// b.cfg.slots clients. Each pass starts a fresh server with a durable store
// in a fresh directory and sends the same seeded request sequence, so every
// pass simulates each key once and serves the rest from the cache. With
// clustered set, the server's executor is a coordinator with two workers of
// one slot each, all over loopback httptest.
type serveLoad struct {
	b         *bench
	clustered bool
	keys      []serveKey
	seq       []int // key index of each request, in sending order

	mu     sync.Mutex
	cycles []uint64 // per key: cycles of its first reply (0 = none yet)
	instr  []uint64
}

func newServe(b *bench, clustered bool) (*serveLoad, error) {
	s := &serveLoad{b: b, clustered: clustered}
	names := append(workload.Benchmarks(), workload.Microbenchmarks()...)
	seeds := make([]uint64, b.cfg.serveSeeds)
	for i := range seeds {
		seeds[i] = b.rng.Uint64()
	}
	for _, wl := range names {
		for _, sch := range system.Schemes() {
			for _, seed := range seeds {
				cfg := system.DefaultConfig(sch)
				cfg.Seed = seed
				req := service.RunRequest{Workload: wl, Scheme: sch.String(), Scale: workload.ScaleTiny.String(), Config: &cfg}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				job := service.Job{Workload: wl, Scheme: sch, Scale: workload.ScaleTiny, Config: &cfg}
				s.keys = append(s.keys, serveKey{job: job, body: body, hash: cfg.Hash()})
			}
		}
	}
	s.seq = requestSequence(b.rng, len(s.keys), b.cfg.serveRequests)
	s.cycles = make([]uint64, len(s.keys))
	s.instr = make([]uint64, len(s.keys))
	return s, nil
}

// requestSequence returns n key indices: every key once, so the set of
// simulations is the same for every seed, plus Zipf-popular repeats (a
// seeded permutation decides which keys are popular), shuffled.
func requestSequence(rng *rand.Rand, keys, n int) []int {
	seq := make([]int, 0, max(n, keys))
	for k := 0; k < keys; k++ {
		seq = append(seq, k)
	}
	rank := rng.Perm(keys)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	for len(seq) < n {
		seq = append(seq, rank[zipf.Uint64()])
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// serveEnv is one pass's running server and its fleet.
type serveEnv struct {
	dir     string
	st      *store.Store
	srv     *service.Server
	front   *httptest.Server
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	wsrvs   []*httptest.Server
	fsync   *timedFS
}

// start brings a server up and waits until /readyz reports ready with the
// whole fleet registered. The caller closes the env even on error.
func (s *serveLoad) start(ctx context.Context, traced bool) (*serveEnv, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	var sopts store.Options
	if traced {
		e.fsync = &timedFS{FS: store.OSFS()}
		sopts.FS = e.fsync
	}
	if e.st, err = store.Open(dir, sopts); err != nil {
		return e, err
	}
	opts := service.Options{Workers: s.b.cfg.slots, Store: e.st, JobTimeout: opTimeout}
	mux := http.NewServeMux()
	if s.clustered {
		e.coord = cluster.NewCoordinator(cluster.CoordinatorOptions{})
		opts.Executor = e.coord
		e.coord.Register(mux)
	}
	e.srv = service.New(opts)
	e.srv.Register(mux)
	e.front = httptest.NewServer(mux)
	if s.clustered {
		for i := 0; i < 2; i++ {
			wmux := http.NewServeMux()
			wsrv := httptest.NewServer(wmux)
			e.wsrvs = append(e.wsrvs, wsrv)
			w, err := cluster.NewWorker(cluster.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Coordinator: e.front.URL, Advertise: wsrv.URL, Workers: 1,
			})
			if err != nil {
				return e, err
			}
			w.Register(wmux)
			w.Start(context.Background())
			e.workers = append(e.workers, w)
		}
	}
	return e, s.waitReady(ctx, e)
}

func (s *serveLoad) waitReady(ctx context.Context, e *serveEnv) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.front.URL+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := e.front.Client().Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (e.coord == nil || e.coord.ClusterStats().WorkersAlive == len(e.workers)) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// close stops the fleet, the listeners and the store, and removes the
// store's directory.
func (e *serveEnv) close() {
	for _, w := range e.workers {
		w.Stop()
	}
	for _, s := range e.wsrvs {
		s.Close()
	}
	if e.front != nil {
		e.front.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	if e.st != nil {
		if err := e.st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing store:", err)
		}
	}
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing store:", err)
	}
}

func (s *serveLoad) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var r passResult
	t0 := time.Now()
	root := tr.begin("serve.start", 0)
	env, err := s.start(ctx, tr != nil)
	tr.end(root)
	defer env.close()
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)

	var stopSampler func() float64
	if tr != nil {
		stopSampler = sampleQueue(env.srv)
	}
	client := env.front.Client()
	var next atomic.Int64
	lats := make([]passResult, s.b.cfg.slots)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lats {
		wg.Add(1)
		go func(mine *passResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.seq) || ctx.Err() != nil {
					return
				}
				s.request(ctx, tr, client, env.front.URL, i, mine)
			}
		}(&lats[c])
	}
	wg.Wait()
	r.wall = time.Since(start)
	for _, l := range lats {
		r.cold = append(r.cold, l.cold...)
		r.cached = append(r.cached, l.cached...)
		r.instr += l.instr
	}
	if tr != nil {
		s.passLayers(ctx, tr, env, stopSampler())
	}
	return r, ctx.Err()
}

// request sends sequence entry i and checks its reply: 200, the requested
// workload, scheme and config_hash, and the cycles of that key's first
// reply.
func (s *serveLoad) request(ctx context.Context, tr *tracer, client *http.Client, url string, i int, out *passResult) {
	k := s.seq[i]
	key := &s.keys[k]
	s.b.attempt(1)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sp := tr.begin("POST /run", 0)
	t := time.Now()
	reply, err := postRun(ctx, client, url, key.body)
	d := time.Since(t)
	tr.end(sp)
	if err != nil {
		s.b.fail("request %d (%s): %v", i, key.job.Key(), err)
		return
	}
	if reply.ConfigHash != key.hash || reply.Workload != key.job.Workload || reply.Scheme != key.job.Scheme.String() {
		s.b.fail("request %d: reply for %s/%s config_hash %s, want %s/%s %s", i,
			reply.Workload, reply.Scheme, reply.ConfigHash, key.job.Workload, key.job.Scheme, key.hash)
		return
	}
	res := reply.Results
	if res == nil || res.Cycles == 0 {
		s.b.fail("request %d: reply without results", i)
		return
	}
	s.mu.Lock()
	if s.cycles[k] == 0 {
		s.cycles[k], s.instr[k] = res.Cycles, res.Instructions
	}
	want := s.cycles[k]
	s.mu.Unlock()
	if !reply.CacheHit && tr != nil {
		s.b.mu.Lock()
		addResults(s.b.layer, res)
		s.b.mu.Unlock()
	}
	if res.Cycles != want {
		s.b.fail("request %d (%s): cycles %d, first reply had %d", i, key.job.Key(), res.Cycles, want)
		return
	}
	if reply.CacheHit {
		out.cached = append(out.cached, d)
	} else {
		out.cold = append(out.cold, d)
		out.instr += res.Instructions
	}
}

func postRun(ctx context.Context, client *http.Client, url string, body []byte) (*service.RunResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var reply service.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	return &reply, nil
}

// sampleQueue polls the server's queue depth from Stats until the returned
// function is called, which reports the largest depth seen.
func sampleQueue(srv *service.Server) func() float64 {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				peak = max(peak, srv.Stats().QueueDepth)
			}
		}
	}()
	return func() float64 {
		close(stop)
		return float64(<-done)
	}
}

// passLayers records the service, store and cluster counters of a traced
// pass, and times Server.Run on a warm key without HTTP. Like every
// per-layer value they are summed here and averaged over traced passes.
func (s *serveLoad) passLayers(ctx context.Context, tr *tracer, env *serveEnv, queueMax float64) {
	job := s.keys[s.seq[0]].job
	var direct []float64
	for i := 0; i < 200; i++ {
		sp := tr.begin("Server.Run cached", 0)
		t := time.Now()
		_, hit, err := env.srv.Run(ctx, job)
		direct = append(direct, float64(time.Since(t))/1e3)
		tr.end(sp)
		if err != nil || !hit {
			s.b.fail("direct Server.Run on a warm key: hit=%v err=%v", hit, err)
			break
		}
	}
	st := env.srv.Stats()
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	l := s.b.layer
	l["service.hit_ratio"] += st.HitRate
	l["service.sims_started"] += float64(st.SimsStarted)
	l["service.queue_depth_max"] += queueMax
	l["service.direct_cached_us"] += median(direct)
	l["store.records"] += float64(st.StoreRecords)
	l["store.bytes_on_disk"] += float64(st.StoreBytesOnDisk)
	l["store.put_failures"] += float64(st.StorePutFailures)
	l["store.fsync_s"] += env.fsync.syncTime().Seconds()
	if c := st.Cluster; c != nil {
		l["cluster.jobs_dispatched"] += float64(c.JobsDispatched)
		l["cluster.jobs_redispatched"] += float64(c.JobsRedispatched)
		l["cluster.dispatch_retries"] += float64(c.DispatchRetries)
		l["cluster.jobs_divergent"] += float64(c.JobsDivergent)
	}
}

// check reruns a seeded sample of keys directly through system.New and
// RunCtx, outside timing, and compares them with the served replies.
func (s *serveLoad) check(ctx context.Context) error {
	const sample = 8
	for _, k := range s.b.rng.Perm(len(s.keys))[:min(sample, len(s.keys))] {
		key := s.keys[k]
		s.b.attempt(1)
		s.mu.Lock()
		served, servedInstr := s.cycles[k], s.instr[k]
		s.mu.Unlock()
		if served == 0 {
			continue // never answered: already counted as failed
		}
		res, err := runDirect(ctx, key.job)
		switch {
		case err != nil:
			s.b.fail("direct run of %s: %v", key.job.Key(), err)
		case res.Cycles != served || res.Instructions != servedInstr:
			s.b.fail("%s served %d cycles/%d instructions, direct run gives %d/%d",
				key.job.Key(), served, servedInstr, res.Cycles, res.Instructions)
		}
	}
	return nil
}

func runDirect(ctx context.Context, job service.Job) (*system.Results, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sys, err := system.New(*job.Config, job.Workload, job.Scale)
	if err != nil {
		return nil, err
	}
	return sys.RunCtx(ctx)
}

// timedFS adds up the time the store spends in fsync on its append files,
// which a CPU profile cannot see.
type timedFS struct {
	store.FS
	ns atomic.Int64
}

func (f *timedFS) OpenAppend(name string) (store.AppendFile, error) {
	af, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{AppendFile: af, fs: f}, nil
}

func (f *timedFS) syncTime() time.Duration {
	if f == nil {
		return 0
	}
	return time.Duration(f.ns.Load())
}

type timedFile struct {
	store.AppendFile
	fs *timedFS
}

func (t *timedFile) Sync() error {
	start := time.Now()
	err := t.AppendFile.Sync()
	t.fs.ns.Add(int64(time.Since(start)))
	return err
}
