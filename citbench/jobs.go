package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	citadel "repro"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/faultsim"
	"repro/internal/jobs"
	"repro/internal/obs/trace"
	"repro/internal/store"
	"repro/internal/stream"
)

// Job traffic shape. Every job is a small Citadel Table-I campaign split
// into many checkpoint chunks, so the request path (queue, chunk, merge,
// checkpoint, store, SSE) carries most of the cost, not the kernel.
const (
	jobClients     = 2    // closed-loop client goroutines (nproc on the reference host)
	jobTrials      = 8000 // trials per job at scale 1
	jobChunkTrials = 1000 // checkpoint chunk size at scale 1
	cacheShare     = 0.25 // share of submits that repeat a finished spec
	jobCacheMB     = 256  // citadel-server's default -job-cache-mb
	jobQueueDepth  = 64   // citadel-server's default -job-queue
	leaseTTL       = 15 * time.Second
	noWorkerGrace  = 10 * time.Second
)

// server is an api/jobs/store/stream(/cluster) stack wired the way
// cmd/citadel-server wires it, listening on a loopback port.
type server struct {
	orch    *jobs.Orchestrator
	coord   *cluster.Coordinator
	srv     *http.Server
	base    string
	served  chan error
	rtt     *rttTransport
	stopWk  context.CancelFunc
	workers sync.WaitGroup
}

// quietLogf formats like log.Printf but discards the line, so server
// logging costs what it costs in production without flooding output.
var quietLogf = log.New(io.Discard, "", log.LstdFlags).Printf

func startServer(dir string, clusterMode bool) (*server, error) {
	s := &server{served: make(chan error, 1)}
	st, err := store.Open(dir, store.Options{MaxBytes: jobCacheMB << 20, Logf: quietLogf})
	if err != nil {
		return nil, fmt.Errorf("job store: %w", err)
	}
	hub := stream.New(stream.Options{Logf: quietLogf})
	opts := jobs.Options{Store: st, Workers: 1, QueueDepth: jobQueueDepth, Stream: hub, Logf: quietLogf}
	if clusterMode {
		s.coord = cluster.New(cluster.Options{LeaseTTL: leaseTTL, NoWorkerGrace: noWorkerGrace, Logf: quietLogf})
		opts.ChunkExec = s.coord
	}
	s.orch = jobs.New(opts)
	s.orch.Recover()
	apiSrv := api.New(api.Options{Jobs: s.orch, Cluster: s.coord, Stream: hub, Logf: quietLogf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: apiSrv.Handler(), ReadTimeout: 30 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	if err := waitReady(s.base); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startWorkers runs jobClients in-process cluster workers with the
// default poll interval, their HTTP traffic timed by an rttTransport.
func (s *server) startWorkers() {
	s.rtt = newRTTTransport()
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWk = cancel
	for i := 0; i < jobClients; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			BaseURL: s.base,
			ID:      fmt.Sprintf("bench-w%d", i),
			Client:  &http.Client{Timeout: 30 * time.Second, Transport: s.rtt},
			Logf:    quietLogf,
		})
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			w.Run(ctx)
		}()
	}
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready after 10s")
}

// close stops workers, the orchestrator, the coordinator and the HTTP
// server, and waits for each.
func (s *server) close() {
	if s.stopWk != nil {
		s.stopWk()
		s.workers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.orch != nil {
		s.orch.Close(ctx)
	}
	if s.coord != nil {
		s.coord.Close()
	}
	s.srv.Shutdown(ctx)
	<-s.served
}

// rttTransport times the cluster workers' requests per path and notes
// when each job's first chunk lease was granted.
type rttTransport struct {
	base http.RoundTripper

	mu         sync.Mutex
	rtt        map[string][]float64 // ms by URL path
	firstLease map[string]time.Time // by job ID
}

func newRTTTransport() *rttTransport {
	return &rttTransport{
		base:       http.DefaultTransport,
		rtt:        make(map[string][]float64),
		firstLease: make(map[string]time.Time),
	}
}

func (t *rttTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	d := float64(time.Since(start).Microseconds()) / 1000
	var grant cluster.LeaseGrant
	granted := false
	if req.URL.Path == cluster.LeasePath && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		granted = json.Unmarshal(body, &grant) == nil
	}
	t.mu.Lock()
	t.rtt[req.URL.Path] = append(t.rtt[req.URL.Path], d)
	if granted {
		if _, ok := t.firstLease[grant.RunID]; !ok {
			t.firstLease[grant.RunID] = time.Now()
		}
	}
	t.mu.Unlock()
	return resp, nil
}

// jobOp is one closed-loop client operation: submit, follow to the
// terminal frame, fetch and revalidate the status.
type jobOp struct {
	fresh     bool
	spec      jobs.ReliabilitySpec
	id        string
	submitted time.Time
	submitMs  float64
	latencyMs float64 // submit → terminal SSE frame (fresh) or terminal status (cache hit)
	sseAt     time.Time
	notModMs  float64
	job       jobs.Job
	err       error
}

type jobClient struct {
	base string
	http *http.Client
}

func (c *jobClient) do(op *jobOp) {
	if c.submit(op); op.err == nil {
		c.finish(op)
	}
}

// submit posts the job; a cache hit completes here.
func (c *jobClient) submit(op *jobOp) {
	body, err := json.Marshal(api.JobRequest{Reliability: &op.spec})
	if err != nil {
		op.err = err
		return
	}
	op.submitted = time.Now()
	resp, err := c.http.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		op.err = err
		return
	}
	var jr api.JobResponse
	err = decodeStatus(resp, http.StatusAccepted, &jr)
	op.submitMs = msSince(op.submitted)
	if err != nil {
		op.err = fmt.Errorf("submit: %w", err)
		return
	}
	op.id = jr.ID
	if jr.State.Terminal() {
		op.latencyMs = op.submitMs
	}
}

// finish follows a running job to its terminal frame, then fetches its
// status and revalidates it.
func (c *jobClient) finish(op *jobOp) {
	if op.latencyMs == 0 {
		if err := c.follow(op); err != nil {
			op.err = fmt.Errorf("events: %w", err)
			return
		}
		op.latencyMs = float64(op.sseAt.Sub(op.submitted).Microseconds()) / 1000
	}
	resp, err := c.http.Get(c.base + "/api/v1/jobs/" + op.id)
	if err != nil {
		op.err = err
		return
	}
	etag := resp.Header.Get("ETag")
	var jr api.JobResponse
	if err := decodeStatus(resp, http.StatusOK, &jr); err != nil {
		op.err = fmt.Errorf("status: %w", err)
		return
	}
	op.job = *jr.Job
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/jobs/"+op.id, nil)
	if err != nil {
		op.err = err
		return
	}
	req.Header.Set("If-None-Match", etag)
	t := time.Now()
	resp, err = c.http.Do(req)
	if err != nil {
		op.err = err
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	op.notModMs = msSince(t)
	if resp.StatusCode != http.StatusNotModified {
		op.err = fmt.Errorf("revalidation: HTTP %d, want 304", resp.StatusCode)
	}
}

// follow reads the job's SSE stream until its terminal frame.
func (c *jobClient) follow(op *jobOp) error {
	resp, err := c.http.Get(c.base + "/api/v1/jobs/" + op.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	event, err := readUntilTerminal(bufio.NewReader(resp.Body))
	if err != nil {
		return err
	}
	op.sseAt = time.Now()
	if event != string(jobs.StateDone) {
		return fmt.Errorf("terminal event %q", event)
	}
	return nil
}

// readUntilTerminal consumes SSE frames and returns the event name of
// the first terminal one (done, failed, cancelled or drain).
func readUntilTerminal(r *bufio.Reader) (string, error) {
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream ended before a terminal frame: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case line == "":
			switch event {
			case "done", "failed", "cancelled", "drain":
				return event, nil
			}
			event = ""
		}
	}
}

func decodeStatus(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

func (c *jobClient) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promSample(resp.Body)
}

// jobSpec is the client's job template with the given seed.
func (b *bench) jobSpec(seed int64) jobs.ReliabilitySpec {
	return jobs.ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           b.size(jobTrials, 40),
		CheckpointTrials: b.size(jobChunkTrials, 10),
		Seed:             seed,
		// Every core: with one engine worker the other CPU idles between
		// requests, and on a shared host an idle sibling swings the busy
		// one's speed by about a fifth from run to run.
		Workers: runtime.GOMAXPROCS(0),
	}
}

// jobWindow runs the closed-loop clients until the window closes and
// returns every operation in completion order per client.
func (b *bench) jobWindow(base string, seconds float64, rec *trace.Recorder) []*jobOp {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	cl := &jobClient{base: base, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jobClients},
	}}
	defer cl.http.CloseIdleConnections()
	results := make([][]*jobOp, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(deriveSeed(b.seed, 100+uint64(c))))
			var finished []jobs.ReliabilitySpec
			for len(results[c]) == 0 || time.Now().Before(end) {
				op := &jobOp{}
				if len(finished) > 0 && rng.Float64() < cacheShare {
					op.spec = finished[rng.Intn(len(finished))]
				} else {
					op.fresh = true
					op.spec = b.jobSpec(rng.Int63())
				}
				t0 := rec.Now()
				cl.do(op)
				if rec != nil {
					rec.Complete("job", "jobs", int64(10+c), t0, rec.Now()-t0,
						trace.Arg{Key: "fresh", Val: boolVal(op.fresh)}, trace.Arg{Key: "id", Str: op.id})
				}
				if op.err == nil && op.fresh {
					finished = append(finished, op.spec)
				}
				results[c] = append(results[c], op)
			}
		}()
	}
	wg.Wait()
	var all []*jobOp
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// startWarm sets up a server on a fresh store and runs one warm-up job
// through it, which opens the client connections and runs every
// request-path layer once before timing starts.
func (b *bench) startWarm(clusterMode bool, repeat int) (*server, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("store-%v-%d", clusterMode, repeat))
	s, err := startServer(dir, clusterMode)
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(s, clusterMode, repeat); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// jobRun is one measured window of client traffic against a server.
type jobRun struct {
	ops    []*jobOp
	window time.Duration
	delta  map[string]float64 // /metrics counters moved during the window
}

// measureJobs runs one window of client traffic against s, recording
// spans into rec when it is non-nil.
func (b *bench) measureJobs(s *server, seconds float64, rec *trace.Recorder) (jobRun, error) {
	cl := &jobClient{base: s.base, http: &http.Client{Timeout: time.Minute}}
	defer cl.http.CloseIdleConnections()
	before, err := cl.metrics()
	if err != nil {
		return jobRun{}, err
	}
	start := time.Now()
	r := jobRun{ops: b.jobWindow(s.base, seconds, rec)}
	r.window = time.Since(start)
	after, err := cl.metrics()
	if err != nil {
		return jobRun{}, err
	}
	r.delta = promDelta(before, after)
	return r, nil
}

// split counts the run's operations and returns the fresh-job and
// cache-hit latencies.
func (b *bench) split(r jobRun) (fresh, hits []float64) {
	for _, op := range r.ops {
		b.attempted++
		if op.err != nil {
			b.failed++
			b.info("job op failed: %v", op.err)
			continue
		}
		if op.fresh {
			fresh = append(fresh, op.latencyMs)
		} else {
			hits = append(hits, op.latencyMs)
		}
	}
	return fresh, hits
}

// requestPathLedger drives job traffic against a server built the way
// cmd/citadel-server builds it, checks every result, and prints the
// jobs, store, stream, api and cluster ledger.
func (b *bench) requestPathLedger() error {
	s, err := b.startWarm(false, 1)
	if err != nil {
		return err
	}
	r, err := b.measureJobs(s, b.seconds/2, b.rec)
	s.close()
	if err != nil {
		return err
	}
	lat, hits := b.split(r)
	if len(lat) == 0 {
		return errNoOps
	}
	b.info("job_latency_p50_ms = %.3f ms, p90 %.3f ms over %d fresh jobs; jobs_per_s = %.3f",
		median(lat), percentile(lat, 90), len(lat), float64(len(lat)+len(hits))/r.window.Seconds())
	b.info("cache_hit_p50_ms = %.3f ms over %d cache hits", median(hits), len(hits))
	folds, err := b.checkJobs(r.ops, r.delta)
	if err != nil {
		return err
	}
	b.jobsLedger(r, hits, folds)
	return b.clusterLedger(r.ops)
}

// clusterLedger runs the same client traffic against a cluster-mode
// server with two in-process workers at the default poll interval and
// lease TTL, checks that every result equals the in-process result of
// the same spec, and prints the cluster ledger.
func (b *bench) clusterLedger(local []*jobOp) error {
	s, err := b.startWarm(true, 0)
	if err != nil {
		return err
	}
	r, err := b.measureJobs(s, b.seconds/2, nil)
	s.close()
	if err != nil {
		return err
	}
	lat, _ := b.split(r)
	b.info("cluster: job latency p50 %.3f ms over %d fresh jobs", median(lat), len(lat))
	bySeed := make(map[int64][]byte)
	for _, op := range local {
		if op.err == nil && op.fresh {
			bySeed[op.spec.Seed] = op.job.Result
		}
	}
	compared, differ := 0, 0
	for _, op := range r.ops {
		if op.err != nil || !op.fresh {
			continue
		}
		want, ok := bySeed[op.spec.Seed]
		if !ok {
			f, err := b.foldJob(op.spec, 30)
			if err != nil {
				return err
			}
			want = f.payload
		}
		compared++
		if !bytes.Equal(want, op.job.Result) {
			differ++
		}
	}
	b.check("cluster.equal", differ == 0 && compared > 0,
		fmt.Sprintf("%d of %d cluster results differ from the in-process result of the same spec", differ, compared))

	var firstLease []float64
	s.rtt.mu.Lock()
	for _, op := range r.ops {
		if t, ok := s.rtt.firstLease[op.id]; ok && op.err == nil && op.fresh {
			firstLease = append(firstLease, float64(t.Sub(op.submitted).Microseconds())/1000)
		}
	}
	b.set("cluster.lease_rtt_ms_p50", median(s.rtt.rtt[cluster.LeasePath]), "ms")
	b.set("cluster.complete_rtt_ms_p50", median(s.rtt.rtt[cluster.CompletePath]), "ms")
	s.rtt.mu.Unlock()
	d := r.delta
	completed := d["citadel_cluster_chunks_completed_total"]
	wasted := d["citadel_cluster_duplicate_results_total"] + d["citadel_cluster_stale_results_total"]
	b.set("cluster.first_lease_ms_p50", median(firstLease), "ms")
	b.set("cluster.leases", d["citadel_cluster_leases_granted_total"], "count")
	b.set("cluster.heartbeats", d["citadel_cluster_heartbeats_total"], "count")
	b.set("cluster.chunks_completed", completed, "count")
	b.set("cluster.wasted_ratio", ratio(wasted, completed), "ratio")
	b.set("cluster.reassignments", d["citadel_cluster_reassignments_total"], "count")
	b.info("cluster base: %.0f chunks completed, %.0f duplicate or stale, %d first leases", completed, wasted, len(firstLease))
	return nil
}

// warmUp runs one job through the server. In cluster mode the workers
// start once the job is running, so their first lease request finds its
// campaign instead of idling for a poll interval.
func (b *bench) warmUp(s *server, clusterMode bool, repeat int) error {
	cl := &jobClient{base: s.base, http: &http.Client{Timeout: time.Minute}}
	defer cl.http.CloseIdleConnections()
	op := &jobOp{fresh: true, spec: b.jobSpec(deriveSeed(b.seed, 200, uint64(repeat)))}
	cl.submit(op)
	if op.err == nil && clusterMode {
		if err := cl.waitRunning(op.id); err != nil {
			return err
		}
		s.startWorkers()
	}
	if op.err == nil {
		cl.finish(op)
	}
	if op.err != nil {
		return fmt.Errorf("warm-up job: %w", op.err)
	}
	return nil
}

// waitRunning polls a job's status until it leaves the queue, then
// allows the orchestrator a moment to hand its campaign to the
// coordinator.
func (c *jobClient) waitRunning(id string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.http.Get(c.base + "/api/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var jr api.JobResponse
		if err := decodeStatus(resp, http.StatusOK, &jr); err != nil {
			return err
		}
		if jr.State != jobs.StateQueued {
			time.Sleep(2 * time.Millisecond)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("warm-up job never started")
}

// foldStats times the reference fold of one job.
type foldStats struct {
	chunks           int
	chunkNs, mergeNs float64
	payload          []byte // the folded result, as the store holds it
}

// foldJob folds jobs.RunChunk over a normalized spec with faultsim.Merge,
// the computation every durable path must reproduce bit for bit.
func (b *bench) foldJob(spec jobs.ReliabilitySpec, tid int64) (foldStats, error) {
	norm := jobs.Spec{Reliability: &spec}.Normalize().Reliability
	var fs foldStats
	var total citadel.Result
	for i := 0; i*norm.CheckpointTrials < norm.Trials; i++ {
		t := time.Now()
		t0 := b.rec.Now()
		res, err := jobs.RunChunk(context.Background(), norm, i, "", nil)
		fs.chunkNs += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return fs, err
		}
		if b.rec != nil {
			b.span("chunk", "jobs", tid, t0, trace.Arg{Key: "chunk", Val: float64(i)})
		}
		t = time.Now()
		total = faultsim.Merge(total, res)
		total.Policy = res.Policy
		fs.mergeNs += float64(time.Since(t).Nanoseconds())
		fs.chunks++
	}
	var err error
	fs.payload, err = json.Marshal(total)
	return fs, err
}

// checkJobs asserts every fresh result is bit-identical to the reference
// fold of its spec, every repeat was served from cache with the same
// bytes, and returns the folds' timings.
func (b *bench) checkJobs(ops []*jobOp, delta map[string]float64) ([]foldStats, error) {
	var fresh []*jobOp
	byKey := make(map[int64][]byte)
	for _, op := range ops {
		if op.err == nil && op.fresh {
			fresh = append(fresh, op)
			byKey[op.spec.Seed] = op.job.Result
		}
	}
	// Folded one at a time, like the orchestrator's single job worker
	// runs them, so run_chunk_ms is comparable with the server's chunks.
	folds := make([]foldStats, len(fresh))
	mismatch, uncached := 0, 0
	for i, op := range fresh {
		var err error
		if folds[i], err = b.foldJob(op.spec, 20); err != nil {
			return nil, err
		}
		if !bytes.Equal(folds[i].payload, op.job.Result) || op.job.Cached {
			mismatch++
		}
	}
	hits := 0
	for _, op := range ops {
		if op.err != nil || op.fresh {
			continue
		}
		hits++
		if !op.job.Cached || !bytes.Equal(op.job.Result, byKey[op.spec.Seed]) {
			uncached++
		}
	}
	b.check("jobs.fold", mismatch == 0,
		fmt.Sprintf("%d of %d fresh results differ from folding jobs.RunChunk over the normalized spec", mismatch, len(fresh)))
	b.check("jobs.cache", uncached == 0,
		fmt.Sprintf("%d of %d repeated specs were not served from cache with the original bytes", uncached, hits))
	b.check("jobs.cache-counter", int(delta["citadel_jobs_cache_hits_total"]) == hits,
		fmt.Sprintf("citadel_jobs_cache_hits_total moved by %.0f for %d cache hits", delta["citadel_jobs_cache_hits_total"], hits))
	return folds, nil
}

// jobsLedger prints the jobs/store/stream/api/cluster ledger of a traced
// run.
func (b *bench) jobsLedger(r jobRun, hits []float64, folds []foldStats) {
	ops, delta := r.ops, r.delta
	var queue, run, submit, notMod, lag []float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		submit = append(submit, op.submitMs)
		notMod = append(notMod, op.notModMs)
		if !op.fresh {
			continue
		}
		j := op.job
		queue = append(queue, float64(j.Started.Sub(j.Created).Microseconds())/1000)
		run = append(run, float64(j.Finished.Sub(j.Started).Microseconds())/1000)
		lag = append(lag, float64(op.sseAt.Sub(j.Finished).Microseconds())/1000)
	}
	var chunks int
	var chunkNs, mergeNs float64
	for _, f := range folds {
		chunks += f.chunks
		chunkNs += f.chunkNs
		mergeNs += f.mergeNs
	}
	chunkMs := chunkNs / float64(chunks) / 1e6
	mergeUs := mergeNs / float64(chunks) / 1e3
	perJob := float64(chunks) / float64(len(folds))
	runMs := median(run)
	b.set("jobs.queue_wait_ms_p50", median(queue), "ms")
	b.set("jobs.run_ms_p50", runMs, "ms")
	b.set("jobs.run_chunk_ms", chunkMs, "ms")
	b.set("jobs.overhead_share", 1-perJob*chunkMs/runMs, "ratio")
	b.set("jobs.checkpoints", delta["citadel_jobs_checkpoints_total"], "count")
	b.set("jobs.cache_hits", delta["citadel_jobs_cache_hits_total"], "count")
	b.set("faultsim.merge_us", mergeUs, "us")
	b.info("jobs base: %d fresh jobs, %.1f chunks per job, %d chunks folded", len(folds), perJob, chunks)

	putJobMs, putResultMs, getResultUs := b.storeProbe(folds)
	b.set("store.put_job_ms", putJobMs, "ms")
	b.set("store.put_result_ms", putResultMs, "ms")
	b.set("store.get_result_us", getResultUs, "us")

	publishUs := b.publishProbe(ops)
	b.set("stream.publish_us", publishUs, "us")
	b.set("stream.terminal_lag_ms", median(lag), "ms")
	b.set("stream.frames", delta["citadel_stream_frames_total"], "count")
	b.set("stream.coalesced", delta["citadel_stream_coalesced_total"], "count")

	attributed := perJob * (chunkMs + mergeUs/1e3 + putJobMs + publishUs/1e3)
	b.set("jobs.unattributed_share", 1-attributed/runMs, "ratio")
	b.info("jobs.run_ms_p50 %.3f ms: per job %.1f × (run_chunk %.3f ms + merge %.4f ms + put_job %.3f ms + publish %.4f ms) = %.3f ms attributed, %.1f%% unattributed",
		runMs, perJob, chunkMs, mergeUs/1e3, putJobMs, publishUs/1e3, attributed, 100*(1-attributed/runMs))

	b.set("api.submit_ms_p50", median(submit), "ms")
	b.set("api.status_304_ms_p50", median(notMod), "ms")
	b.set("api.cache_hit_p50_ms", median(hits), "ms")
	b.set("api.requests", delta["citadel_api_requests_total"], "count")
	b.info("api base: %d submits, %d cache hits", len(submit), len(hits))

}

// storeProbe times the store's write and read paths with payloads the
// size the orchestrator writes: a checkpoint (spec plus the merged
// prefix result) and a finished result.
func (b *bench) storeProbe(folds []foldStats) (putJobMs, putResultMs, getResultUs float64) {
	st, err := store.Open(filepath.Join(b.dir, "probe-store"), store.Options{Logf: quietLogf})
	if err != nil {
		b.fail("store.open", err.Error())
		return 0, 0, 0
	}
	n := len(folds)
	if n > 64 {
		n = 64
	}
	var putJob, putResult, get time.Duration
	for i := 0; i < n; i++ {
		key, err := store.Key(i)
		if err != nil {
			b.fail("store.key", err.Error())
			return 0, 0, 0
		}
		checkpoint, _ := json.Marshal(map[string]any{
			"version": 1, "key": key, "chunksDone": folds[i].chunks - 1, "totalChunks": folds[i].chunks,
			"result": json.RawMessage(folds[i].payload), "updatedAt": time.Now(),
		})
		t := time.Now()
		err = st.PutJob(key, checkpoint)
		putJob += time.Since(t)
		if err == nil {
			t = time.Now()
			err = st.PutResult(key, folds[i].payload)
			putResult += time.Since(t)
		}
		if err == nil {
			t = time.Now()
			data, ok := st.GetResult(key)
			get += time.Since(t)
			if !ok || !bytes.Equal(data, folds[i].payload) {
				err = errors.New("result read back differs")
			}
		}
		if err != nil {
			b.fail("store.probe", err.Error())
			return 0, 0, 0
		}
	}
	nf := float64(n)
	b.info("store base: %d checkpoint writes, result writes and reads (%d-byte results)", n, len(folds[0].payload))
	return putJob.Seconds() * 1e3 / nf, putResult.Seconds() * 1e3 / nf, get.Seconds() * 1e6 / nf
}

// publishProbe times stream.Hub.Publish of a progress snapshot with one
// live subscriber, as the orchestrator publishes after every chunk.
func (b *bench) publishProbe(ops []*jobOp) float64 {
	var snap jobs.Job
	for _, op := range ops {
		if op.err == nil && op.fresh {
			snap = op.job
			break
		}
	}
	snap.Result, snap.State = nil, jobs.StateRunning
	hub := stream.New(stream.Options{Logf: quietLogf})
	sub, err := hub.Subscribe("probe", 0)
	if err != nil {
		b.fail("stream.subscribe", err.Error())
		return 0
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for f := range sub.Frames() {
			if f.Terminal {
				return
			}
		}
	}()
	const n = 2000
	t := time.Now()
	for i := 0; i < n; i++ {
		snap.ChunksDone = i
		if err := hub.Publish("probe", "progress", &snap, false); err != nil {
			b.fail("stream.publish", err.Error())
			break
		}
	}
	d := time.Since(t)
	if err := hub.Publish("probe", "done", &snap, true); err != nil {
		b.fail("stream.publish", err.Error())
		sub.Close()
	}
	<-drained
	sub.Close()
	b.info("stream base: %d publishes to one subscriber", n)
	return d.Seconds() * 1e6 / n
}
