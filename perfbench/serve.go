package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/server"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// serveShape is one serving traffic mix.
type serveShape struct {
	rate       float64       // offered submissions per second (open loop)
	freshShare float64       // share of submissions carrying a new instance
	bypass     bool          // every submission asks cache: bypass
	cluster    bool          // attach a coordinator and one in-process worker
	workers    int           // the daemon's local solve slots
	limit      time.Duration // goodput latency limit
}

var (
	// serveTraffic repeats a quarter of its submissions, so cache hits,
	// cold solves and the WAL writes of both interleave. Cold solves are
	// the majority so that the latency percentiles fall on tens of
	// milliseconds of solving: on the two-vCPU reference VM, millisecond
	// request paths (a cache hit) vary by more than half between runs.
	serveTraffic = serveShape{rate: 10, freshShare: 0.75, workers: 2, limit: 500 * time.Millisecond}
	// clusterTraffic submits every instance once and bypasses the cache,
	// so every job crosses lease → worker solve → report. The daemon keeps
	// one local slot for jobs arriving while the worker's slots are busy.
	// It drives only the third phase of a traced serve run, for the
	// cluster layer: as a workload of its own, at 8, 6 and 4 submissions/s,
	// its solve times moved up to three times as much as the host slowdown
	// that hostspeed.go divides out, and its latencies spread 0.3 to 0.45
	// of their median over ten runs.
	clusterTraffic = serveShape{rate: 4, freshShare: 1, bypass: true, cluster: true, workers: 1, limit: 500 * time.Millisecond}
)

const (
	// serveBudget is the per-job expansion budget of every submission.
	serveBudget = 10000
	// serveProcs is the target system of every submission.
	serveProcs = "ring:3"
	// drainTimeout bounds the wait for the last jobs after the final
	// submission; a job still unfinished then counts as failed.
	drainTimeout = 60 * time.Second
	// storeCap bounds the daemon's retained jobs, so its memory reaches a
	// steady state early in a run instead of growing with every job.
	storeCap = 256
	// workerSlots is the cluster worker's concurrent solve count.
	workerSlots = 2
	// Generator lateness beyond these bounds invalidates a run: the open
	// loop no longer offered the load it claims.
	lateTailBound = 100 * time.Millisecond
	lateMaxBound  = 2 * time.Second
	// kernelGap is the idle time the poller needs before the next
	// submission to time the reference kernel without overlapping it.
	kernelGap = 5 * refKernelMS * time.Millisecond
	// pollPause is the poller's pause after a sweep that resolved no job:
	// short against a solve, long enough that status GETs do not compete
	// with the solves for the two cores.
	pollPause = 3 * time.Millisecond
	// drainSamples is how many reference-kernel times a run takes after
	// its drive, with the daemon idle.
	drainSamples = 5
)

// serveInstance is one distinct submission payload.
type serveInstance struct {
	g    *taskgraph.Graph
	body []byte
}

// servePlan is the seeded request sequence of one run.
type servePlan struct {
	insts []serveInstance
	seq   []int // instance index of each submission
}

// buildServePlan draws n submissions over a pool of round(freshShare·n)
// layered v=20 instances. The pool is the same for every seed, so each
// run solves the same instances cold; the seed decides the order in which
// they first arrive, where the fresh submissions fall, and which earlier
// instance each repeat carries.
func buildServePlan(shape serveShape, seed uint64, n int) (*servePlan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5E4E))
	fresh := max(1, int(math.Round(shape.freshShare*float64(n))))
	order := rng.Perm(fresh)
	cfg := server.JobConfig{MaxExpanded: serveBudget, HFunc: "load"}
	cache := ""
	if shape.bypass {
		cache = server.CacheBypass
	}
	p := &servePlan{insts: make([]serveInstance, fresh)}
	for k := range p.insts {
		g, err := gen.Layered(gen.LayeredConfig{
			Layers: 10, Width: 2, CCR: []float64{1, 10}[k%2], Seed: uint64(k) + 1,
		})
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.SubmitRequest{
			Graph:  raw,
			System: json.RawMessage(`"` + serveProcs + `"`),
			Engine: "astar",
			Config: cfg,
			Cache:  cache,
		})
		if err != nil {
			return nil, err
		}
		p.insts[k] = serveInstance{g: g, body: body}
	}
	introduced := 0
	for i := 0; i < n; i++ {
		left := fresh - introduced
		if introduced == 0 || rng.Float64()*float64(n-i) < float64(left) {
			p.seq = append(p.seq, order[introduced])
			introduced++
			continue
		}
		p.seq = append(p.seq, order[rng.IntN(introduced)])
	}
	return p, nil
}

// daemon is an in-process durable icpp98d on a loopback listener, with an
// optional coordinator and one cluster worker.
type daemon struct {
	dir     string
	base    string
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	coord   *cluster.Coordinator
	wcancel context.CancelFunc
	wdone   chan struct{}
}

func startDaemon(dir string, shape serveShape) (*daemon, error) {
	srv, err := server.Open(server.Config{Workers: shape.workers, StoreDir: dir, StoreCap: storeCap})
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, served: make(chan struct{})}
	if shape.cluster {
		d.coord = cluster.NewCoordinator(cluster.Config{Leases: srv.LeaseStore()})
		srv.EnableCluster(d.coord)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		if d.coord != nil {
			d.coord.Close()
		}
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	if shape.cluster {
		w := cluster.NewWorker(cluster.WorkerConfig{Coordinator: d.base, Name: "bench", Slots: workerSlots})
		ctx, cancel := context.WithCancel(context.Background())
		d.wcancel, d.wdone = cancel, make(chan struct{})
		go func() {
			defer close(d.wdone)
			w.Run(ctx)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for d.coord.Capacity() < workerSlots {
			if time.Now().After(deadline) {
				d.close()
				return nil, fmt.Errorf("cluster worker did not register")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return d, nil
}

// close stops the worker, the listener, the daemon and the coordinator,
// waiting for each, and deletes the job store. Every job has ended by
// then, so a connection still open after a short graceful shutdown is
// closed: net/http's Shutdown otherwise waits five seconds for a
// connection the stopped worker dialled but never sent a request on.
func (d *daemon) close() {
	if d.wcancel != nil {
		d.wcancel()
		<-d.wdone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
	if d.coord != nil {
		d.coord.Close()
	}
	os.RemoveAll(d.dir)
}

// storeBytes is the on-disk size of the daemon's job store.
func (d *daemon) storeBytes() int64 {
	var n int64
	filepath.WalkDir(d.dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// request is one submission's observations.
type request struct {
	inst      int
	due       time.Time
	late      time.Duration
	submit    time.Duration
	id        string
	failed    string // why the operation failed, "" when it did not
	done      bool   // reached a terminal state with a fetched result
	ok        bool   // done, and the result passed verification
	e2e       time.Duration
	state     string
	cache     string
	result    []byte
	spans     *server.TraceResponse
	statusRTs []float64
	resultRT  float64
}

// client is a JSON-over-HTTP client holding one connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do sends one request and returns the status code and the body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) getJSON(path string, v any) error {
	code, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// phase is one open-loop drive of a daemon.
type phase struct {
	reqs   []*request
	start  time.Time // first due time
	end    time.Time // last completion
	health server.Health
	bytes  int64
	rssMB  float64 // peak RSS up to the end of the drive, before verification
}

// drive offers plan to the daemon at shape.rate from one submitter while
// one poller issues status and result GETs (and, when traced, trace
// GETs), then waits for every job to finish. Whenever no job is
// outstanding and the next submission is at least kernelGap away, the
// poller times the reference kernel into speed.
func drive(d *daemon, plan *servePlan, shape serveShape, traced bool, speed *hostSpeed) (*phase, error) {
	sub, poll := newClient(d.base), newClient(d.base)
	defer sub.close()
	defer poll.close()
	ph := &phase{reqs: make([]*request, len(plan.seq))}
	interval := time.Duration(float64(time.Second) / shape.rate)
	ph.start = time.Now().Add(10 * time.Millisecond)

	// The submitter hands each accepted job to the poller; the buffer
	// holds every submission, so the open loop never waits on the poller.
	accepted := make(chan *request, len(plan.seq))
	var submitted atomic.Int64 // submissions made
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(accepted)
		for i, k := range plan.seq {
			q := &request{inst: k, due: ph.start.Add(time.Duration(i) * interval)}
			ph.reqs[i] = q
			time.Sleep(time.Until(q.due))
			sent := time.Now()
			q.late = sent.Sub(q.due)
			code, b, err := sub.do(http.MethodPost, "/v1/jobs", plan.insts[k].body)
			q.submit = time.Since(sent)
			var sr server.SubmitResponse
			switch {
			case err != nil:
				q.failed = "submit: " + err.Error()
			case code != http.StatusAccepted:
				q.failed = fmt.Sprintf("submit refused: %d %s", code, strings.TrimSpace(string(b)))
			case json.Unmarshal(b, &sr) != nil || sr.ID == "":
				q.failed = "submit: undecodable response"
			}
			submitted.Add(1)
			if q.failed == "" {
				q.id = sr.ID
				accepted <- q
			}
		}
	}()
	// The poller sweeps the outstanding jobs, pausing pollPause after a
	// sweep that resolved none, and blocks on the submitter while no job is
	// outstanding.
	go func() {
		defer wg.Done()
		var outstanding []*request
		open := true
		var drainStart time.Time
		for {
			if len(outstanding) == 0 && open {
				next := ph.start.Add(time.Duration(submitted.Load()) * interval)
				if time.Until(next) > kernelGap {
					speed.sample()
				}
				q, ok := <-accepted
				if ok {
					outstanding = append(outstanding, q)
				}
				open = ok
			}
		take:
			for open {
				select {
				case q, ok := <-accepted:
					if !ok {
						open = false
						break take
					}
					outstanding = append(outstanding, q)
				default:
					break take
				}
			}
			if len(outstanding) == 0 && !open {
				return
			}
			if !open && drainStart.IsZero() {
				drainStart = time.Now()
			}
			timedOut := !open && time.Since(drainStart) > drainTimeout
			keep := outstanding[:0]
			for _, q := range outstanding {
				if pollOnce(poll, q, traced) {
					continue
				}
				if timedOut {
					q.failed = "job did not finish within the drain timeout"
					continue
				}
				keep = append(keep, q)
			}
			if len(keep) == len(outstanding) {
				time.Sleep(pollPause)
			}
			outstanding = keep
		}
	}()
	wg.Wait()
	for _, q := range ph.reqs {
		if q.done {
			ph.end = maxTime(ph.end, q.due.Add(q.e2e))
		}
	}
	if err := poll.getJSON("/v1/healthz", &ph.health); err != nil {
		return nil, err
	}
	ph.bytes = d.storeBytes()
	ph.rssMB = peakRSSMB()
	return ph, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// pollOnce issues one status GET for q and, once the job is terminal,
// fetches its result (and its trace when traced). It reports whether q is
// resolved.
func pollOnce(c *client, q *request, traced bool) bool {
	t := time.Now()
	var st server.JobStatus
	err := c.getJSON("/v1/jobs/"+q.id, &st)
	q.statusRTs = append(q.statusRTs, ms(time.Since(t)))
	if err != nil {
		q.failed = "status: " + err.Error()
		return true
	}
	if st.State == server.StateQueued || st.State == server.StateRunning {
		return false
	}
	q.state, q.cache = st.State, st.Cache
	t = time.Now()
	code, b, err := c.do(http.MethodGet, "/v1/jobs/"+q.id+"/result", nil)
	now := time.Now()
	q.resultRT = ms(now.Sub(t))
	switch {
	case err != nil:
		q.failed = "result: " + err.Error()
		return true
	case code != http.StatusOK:
		q.failed = fmt.Sprintf("job ended %s: %d %s", st.State, code, strings.TrimSpace(string(b)))
		return true
	}
	q.done, q.e2e, q.result = true, now.Sub(q.due), b
	if traced {
		var tr server.TraceResponse
		if err := c.getJSON("/v1/jobs/"+q.id+"/trace", &tr); err == nil {
			q.spans = &tr
		}
	}
	return true
}

// verify checks every finished job against a direct engine solve of its
// instance: state done, a valid schedule of the reported length, and a
// result byte-identical to the direct solve's modulo job ID and wall time.
func verify(r *report, plan *servePlan, ph *phase) {
	sys, err := procgraph.ParseSpec(serveProcs, 0)
	if err != nil {
		r.fail("parsing %s: %v", serveProcs, err)
		return
	}
	want, errs := directResults(plan, ph, sys)
	for _, q := range ph.reqs {
		r.attempted++
		if q.failed != "" {
			r.fail("%s", q.failed)
			continue
		}
		if q.state != server.StateDone {
			r.fail("job %s ended %s", q.id, q.state)
			continue
		}
		if err := errs[q.inst]; err != nil {
			r.fail("job %s: %v", q.id, err)
			continue
		}
		inst := plan.insts[q.inst]
		var got server.JobResult
		if err := json.Unmarshal(q.result, &got); err != nil {
			r.fail("job %s: undecodable result: %v", q.id, err)
			continue
		}
		sched, err := got.Schedule.ToSchedule(inst.g, sys)
		if err == nil {
			err = sched.Validate()
		}
		if err == nil && sched.Length != got.Length {
			err = fmt.Errorf("schedule length %d != result length %d", sched.Length, got.Length)
		}
		if err != nil {
			r.fail("job %s: %v", q.id, err)
			continue
		}
		if b := normalizedResult(&got); !bytes.Equal(b, want[q.inst]) {
			r.fail("job %s: result differs from a direct solve:\n got %s\nwant %s", q.id, b, want[q.inst])
			continue
		}
		q.ok = true
	}
}

// directResults solves every instance a finished job carried directly with
// engine astar, on two goroutines, and returns each normalized expected
// result (or the error that prevented one), indexed by instance.
func directResults(plan *servePlan, ph *phase, sys *procgraph.System) ([][]byte, []error) {
	cfg := server.JobConfig{MaxExpanded: serveBudget, HFunc: "load"}.EngineConfig()
	want := make([][]byte, len(plan.insts))
	errs := make([]error, len(plan.insts))
	need := make([]bool, len(plan.insts))
	for _, q := range ph.reqs {
		need[q.inst] = need[q.inst] || q.done
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				res, err := engine.Solve(context.Background(), "astar", plan.insts[k].g, sys, cfg)
				if err != nil {
					errs[k] = fmt.Errorf("direct solve: %w", err)
					continue
				}
				direct := server.JobResultFromSolve("", solverpool.Response{Engine: "astar", Result: res})
				if direct == nil {
					errs[k] = fmt.Errorf("direct solve returned no schedule")
					continue
				}
				direct.State = server.StateDone
				want[k] = normalizedResult(direct)
			}
		}()
	}
	for k, ok := range need {
		if ok {
			next <- k
		}
	}
	close(next)
	wg.Wait()
	return want, errs
}

// normalizedResult is a result's JSON with the job ID and the engine's
// wall time cleared — the two fields that legitimately differ between the
// daemon's answer and a direct solve.
func normalizedResult(res *server.JobResult) []byte {
	if res == nil {
		return nil
	}
	cp := *res
	cp.ID = ""
	cp.Stats.WallTime = 0
	b, _ := json.Marshal(cp) // a plain struct: cannot fail
	return b
}

// serveRun is one serve invocation.
type serveRun struct {
	o        options
	r        *report
	shape    serveShape
	corpusMS []float64
	setups   []timed   // set-up times of the last setup call
	speed    hostSpeed // reference-kernel times of the whole run
}

// phaseSeconds is the open-loop window of one drive: the whole run
// untraced, a third of it for each of the three drives of a traced run.
func (s *serveRun) phaseSeconds() time.Duration {
	if s.o.trace {
		return s.o.seconds / 3
	}
	return s.o.seconds
}

// setup builds the plan and starts a fresh daemon (and worker) for shape
// setupReps times, keeping the set-up times of all but the first and the
// last daemon.
func (s *serveRun) setup(shape serveShape, tag string) (*servePlan, *daemon, error) {
	n := max(1, int(math.Round(shape.rate*s.phaseSeconds().Seconds())))
	s.setups = nil
	var plan *servePlan
	var d *daemon
	for i := 0; i < s.o.setupReps(false); i++ {
		if d != nil {
			d.close()
		}
		s.speed.sample()
		t := time.Now()
		var err error
		plan, err = buildServePlan(shape, s.o.seed, n)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 {
			s.corpusMS = append(s.corpusMS, ms(time.Since(t)))
		}
		dir := filepath.Join(s.o.dir, fmt.Sprintf("%s-%d-%s-%d", s.o.workload, os.Getpid(), tag, i))
		if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
			return nil, nil, err
		}
		d, err = startDaemon(dir, shape)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 {
			s.setups = append(s.setups, timed{t, time.Since(t)})
		}
	}
	return plan, d, nil
}

// run sets up for shape, drives one phase, shuts the daemon down and
// verifies.
func (s *serveRun) run(shape serveShape, tag string, traced bool) (*phase, error) {
	plan, d, err := s.setup(shape, tag)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	ph, err := drive(d, plan, shape, traced, &s.speed)
	d.close()
	if err != nil {
		return nil, err
	}
	for range drainSamples {
		s.speed.sample()
	}
	verify(s.r, plan, ph)
	s.hygiene(ph)
	return ph, nil
}

// hygiene prints the open-loop generator's lateness and the shares of the
// load that the cache and the cluster served, and fails a run whose
// generator fell too far behind its schedule.
func (s *serveRun) hygiene(ph *phase) {
	var late []float64
	for _, q := range ph.reqs {
		late = append(late, ms(q.late))
	}
	lt, lm := tail(late), maxOf(late)
	fmt.Fprintf(s.o.out, "loadgen late_ms_tail=%.3f late_ms_max=%.3f cache_hit_share=%.3f dispatched_share=%.3f\n",
		lt, lm, cacheHitShare(ph), dispatchedShare(ph))
	if lt > ms(lateTailBound) || lm > ms(lateMaxBound) {
		s.r.fail("run invalid: generator lateness tail %.1f ms / max %.1f ms exceeds %v / %v",
			lt, lm, lateTailBound, lateMaxBound)
	}
}

func cacheHitShare(ph *phase) float64 {
	hits, done := 0, 0
	for _, q := range ph.reqs {
		if q.done {
			done++
			if q.cache == "hit" {
				hits++
			}
		}
	}
	return ratio(float64(hits), float64(done))
}

func dispatchedShare(ph *phase) float64 {
	if ph.health.Cluster == nil {
		return 0
	}
	return ratio(float64(ph.health.Cluster.Dispatched), float64(len(ph.reqs)))
}

// endToEnd reports the end-to-end metrics of a serving phase, every
// latency at the reference host speed (hostspeed.go). solve_total_s and
// goodput_rps keep the wall clock: the open loop's schedule sets them.
func (s *serveRun) endToEnd(ph *phase) {
	r := s.r
	s.speed.check(s.o, r)
	var solve, e2e []float64
	done, good := 0, 0
	limit := s.shape.limit
	if s.o.tiny {
		limit *= 20 // smoke sizes also run under the race detector
	}
	proven := map[int]bool{} // by instance: the corpus of distinct instances
	for _, q := range ph.reqs {
		if !q.done {
			continue
		}
		done++
		e := s.speed.scaled(q.due, q.e2e)
		e2e = append(e2e, e)
		if q.ok && e <= ms(limit) {
			good++
		}
		var res server.JobResult
		if json.Unmarshal(q.result, &res) != nil {
			continue
		}
		proven[q.inst] = res.Optimal
		if q.cache != "hit" {
			solve = append(solve, s.speed.scaled(q.due, res.Stats.WallTime))
		}
	}
	r.add("setup_s", scaledMedian(&s.speed, s.setups)/1000, "s", len(s.setups))
	r.add("solve_p50_ms", median(solve), "ms", len(solve))
	r.add("solve_tail_ms", tail(solve), "ms", len(solve))
	r.add("solve_total_s", ph.end.Sub(ph.start).Seconds(), "s", done)
	optimal := 0
	for _, ok := range proven {
		if ok {
			optimal++
		}
	}
	r.add("proven_frac", ratio(float64(optimal), float64(len(proven))), "ratio", len(proven))
	r.add("e2e_p50_ms", median(e2e), "ms", len(e2e))
	r.add("e2e_tail_ms", tail(e2e), "ms", len(e2e))
	r.add("goodput_rps", ratio(float64(good), ph.end.Sub(ph.start).Seconds()), "1/s", done)
	r.add("peak_rss_mb", ph.rssMB, "MB", 1)
	r.add("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
}

func runServe(o options, r *report) error {
	return (&serveRun{o: o, r: r, shape: serveTraffic}).main()
}

func (s *serveRun) main() error {
	if !s.o.trace {
		ph, err := s.run(s.shape, "run", false)
		if err != nil {
			return err
		}
		s.endToEnd(ph)
		return nil
	}
	// A traced run drives three fresh daemons: the serve traffic untraced,
	// the base of obs.trace_overhead, and traced; then the cluster traffic
	// traced, for the cluster layer.
	plain, err := s.run(s.shape, "plain", false)
	if err != nil {
		return err
	}
	traced, err := s.run(s.shape, "traced", true)
	if err != nil {
		return err
	}
	clustered, err := s.run(clusterTraffic, "cluster", true)
	if err != nil {
		return err
	}
	s.layers(plain, traced, clustered)
	return nil
}
