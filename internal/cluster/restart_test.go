package cluster

// Crash-safety acceptance: a coordinator killed and restarted mid-lease
// must re-adopt the live lease (not re-queue the job) on the first report
// carrying its token, finish at the byte-identical optimal schedule
// without charging the retry budget, and serve one trace whose span
// timeline crosses the restart — also when the solve ends while the
// worker's re-registration is still in flight. The expiry companion pins
// the other half of the budget rule: a recovered lease no report claims
// re-queues without a budget charge. The early-report test pins the
// window between the restart and the job's re-dispatch.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/server"
)

// releaseGate blocks every solve until the test releases it, then solves
// optimally via astar. Unlike gateEngine it does not key on context
// cancellation: the solve must survive the coordinator's death and
// conclude only when the test says so.
type releaseGate struct {
	name string

	mu       sync.Mutex
	release  chan struct{}
	started  chan struct{}
	finished chan struct{}
}

func newReleaseGate(name string) *releaseGate {
	g := &releaseGate{name: name}
	g.reset()
	engine.Register(g)
	return g
}

func (g *releaseGate) Name() string { return g.name }

// reset re-arms the gate for a fresh run (`go test -count=N` reuses the
// registered instance).
func (g *releaseGate) reset() {
	g.mu.Lock()
	g.release = make(chan struct{})
	g.started = make(chan struct{}, 64)
	g.finished = make(chan struct{}, 64)
	g.mu.Unlock()
}

// gates returns the current run's channels: release (closed by
// releaseAll), and one started/finished signal per solve.
func (g *releaseGate) gates() (release, started, finished chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.release, g.started, g.finished
}

func (g *releaseGate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

func (g *releaseGate) Solve(ctx context.Context, m *core.Model, cfg engine.Config) (*core.Result, error) {
	release, started, finished := g.gates()
	started <- struct{}{}
	defer func() { finished <- struct{}{} }()
	select {
	case <-release:
	case <-ctx.Done():
	}
	astar, err := engine.Lookup("astar")
	if err != nil {
		return nil, err
	}
	return astar.Solve(context.Background(), m, engine.Config{})
}

var (
	gateRestart = newReleaseGate("gate-restart")
	gateMidReg  = newReleaseGate("gate-midreg")
	gateExpiry  = newReleaseGate("gate-expiry")
)

// restartTimings keep the failure detector inert (minute-scale lease and
// worker timeouts: the crash story must be told by adoption, not expiry;
// the successor's recovered leases expire at its start plus LeaseTTL)
// while polls and reports stay fast. MaxAttempts 1 turns any charge to the
// retry budget into a failed job, which is how these tests pin the
// adoption-is-free rule.
func restartTimings() Config {
	return Config{
		LeaseTTL:       time.Minute,
		WorkerTimeout:  time.Minute,
		MaxAttempts:    1,
		PollWait:       100 * time.Millisecond,
		ReportInterval: 25 * time.Millisecond,
		ReapInterval:   25 * time.Millisecond,
	}
}

// openIncarnation builds one coordinator daemon over the shared store
// directory: durable store, lease journal wired, recovered jobs resumed.
func openIncarnation(t *testing.T, dir string, ccfg Config) (*server.Server, *Coordinator, int) {
	t.Helper()
	srv, err := server.Open(server.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Leases = srv.LeaseStore()
	coord := NewCoordinator(ccfg)
	srv.EnableCluster(coord)
	resumed := srv.ResumeRecovered()
	return srv, coord, resumed
}

// relisten rebinds the first incarnation's address so the worker's
// configured coordinator URL points at the second one.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, err)
	return nil
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// normalizeResult zeroes the one wall-clock field (Stats.WallTime) so two
// result payloads for the same instance can be compared byte-for-byte.
func normalizeResult(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding result payload: %v", err)
	}
	var scrub func(v any)
	scrub = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			if _, ok := x["WallTime"]; ok {
				x["WallTime"] = 0
			}
			for _, child := range x {
				scrub(child)
			}
		case []any:
			for _, child := range x {
				scrub(child)
			}
		}
	}
	scrub(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// crashMidSolve runs a first incarnation until its worker is solving a
// job on gate, then crashes the coordinator: the listener dies and
// nothing is drained or closed — the first server, coordinator, and the
// blocked dispatch goroutine leak exactly like a killed process's state
// would, with timeouts long enough to keep the leaked reaper inert for
// the test's lifetime. Unless the worker survives, it dies too (and the
// gate opens, so the successor's fallback solve cannot block). The
// successor opens the same store directory with cfg, serves srv2 wrapped
// by wrap (nil: as is) on the same address, and must have resumed the
// mid-lease job. It returns the shared URL, the job ID, and the successor
// coordinator.
func crashMidSolve(t *testing.T, gate *releaseGate, cfg Config, survives bool, wrap func(http.Handler) http.Handler) (string, string, *Coordinator) {
	t.Helper()
	gate.reset()
	dir := t.TempDir()

	srv1, coord1, _ := openIncarnation(t, dir, restartTimings())
	ts1 := httptest.NewServer(srv1)
	addr := ts1.Listener.Addr().String()
	url := "http://" + addr
	w := startWorker(t, coord1, url, "survivor", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gate.name,
	})
	_, started, _ := gate.gates()
	select {
	case <-started:
		// The lease is journaled at grant time, strictly before the worker
		// sees the job — a started solve implies a durable lease record.
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started solving")
	}

	ts1.Close()
	if !survives {
		w.Kill()
		gate.releaseAll()
	}

	srv2, coord2, resumed := openIncarnation(t, dir, cfg)
	if resumed != 1 {
		t.Fatalf("ResumeRecovered = %d, want 1 (the mid-lease job)", resumed)
	}
	var h http.Handler = srv2
	if wrap != nil {
		h = wrap(srv2)
	}
	ts2 := httptest.NewUnstartedServer(h)
	ts2.Listener.Close()
	ts2.Listener = relisten(t, addr)
	ts2.Start()
	t.Cleanup(func() {
		gate.releaseAll() // never leave a solve blocked on failure paths
		ts2.Close()
		srv2.Close()
		coord2.Close()
	})
	return url, id, coord2
}

// TestCoordinatorRestartMidLeaseAdoption is the kill-and-restart
// acceptance run: coordinator dies mid-solve, its successor (same store
// directory, same address) re-adopts the journaled lease when the
// worker's first report under its fresh ID carries the lease token, and
// the job concludes as if nothing happened — byte-identical optimal
// schedule, zero failovers, zero fresh leases, retry budget untouched
// (MaxAttempts=1 would fail the job otherwise), and one trace spanning
// both incarnations.
func TestCoordinatorRestartMidLeaseAdoption(t *testing.T) {
	url, id, coord2 := crashMidSolve(t, gateRestart, restartTimings(), true, nil)

	// The worker's next report 404s, it re-registers, and the successor
	// adopts the lease on the first report carrying its token.
	waitFor(t, "lease adoption", func() bool { return coord2.Health().Adoptions == 1 })

	gateRestart.releaseAll()
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done via the adopted lease", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("adopted result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if h := coord2.Health(); h.Adoptions != 1 || h.Failovers != 0 || h.Dispatched != 0 {
		t.Fatalf("successor health = %+v; the restart must re-adopt (no failover, no fresh lease)", h)
	}

	// Byte-identical to a plain local daemon solving the same instance
	// with the same (now-released) engine.
	local := server.New(server.Config{})
	tsL := httptest.NewServer(local)
	t.Cleanup(func() {
		tsL.Close()
		local.Close()
	})
	localID := postJob(t, tsL.URL, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateRestart.name,
	})
	waitTerminal(t, tsL.URL, localID)
	want := normalizeResult(t, getBody(t, tsL.URL+"/v1/jobs/"+localID+"/result"))
	got := normalizeResult(t, getBody(t, url+"/v1/jobs/"+id+"/result"))
	if !bytes.Equal(got, want) {
		t.Fatalf("adopted result drifted from the local solve:\nlocal:   %s\nadopted: %s", want, got)
	}

	// One trace, both incarnations: the pre-crash daemon's admit/dispatch
	// spans were spilled into the durable job record, and the successor
	// appended the adopt and solve spans to the same timeline.
	var tr server.TraceResponse
	if code := getJSON(t, url+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace after restart: got %d, want 200", code)
	}
	seen := map[string]string{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = sp.Attrs["outcome"]
	}
	for _, name := range []string{"admit", "dispatch", "adopt", "solve", "lease"} {
		if _, ok := seen[name]; !ok {
			t.Errorf("trace after restart is missing a %q span (have %v)", name, seen)
		}
	}
	if seen["adopt"] != "adopted" {
		t.Errorf("adopt span outcome = %q, want %q", seen["adopt"], "adopted")
	}
}

// TestRestartSolveEndsMidRegistration ends the solve while the worker's
// re-registration with the successor is in flight: the successor has
// registered the worker but the response is held open until the solve
// has returned. Ending the solve must not cancel the registration, and
// the terminal report — the first report under the fresh ID — must adopt
// the lease and deliver the optimum.
func TestRestartSolveEndsMidRegistration(t *testing.T) {
	registering := make(chan struct{})
	respond := make(chan struct{})
	var arrived, responded sync.Once
	holdRegister := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/workers/register" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			arrived.Do(func() { close(registering) })
			<-respond
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
	url, id, coord2 := crashMidSolve(t, gateMidReg, restartTimings(), true, holdRegister)
	// Registered after crashMidSolve's cleanup, so it runs first: a held
	// register must be let go before the successor's listener closes.
	t.Cleanup(func() { responded.Do(func() { close(respond) }) })

	select {
	case <-registering:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never re-registered with the successor")
	}
	_, _, finished := gateMidReg.gates()
	gateMidReg.releaseAll()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the released solve never returned")
	}
	// Let the worker end the job's context while the registration is
	// still pending: no event marks that moment, and the assertions below
	// hold either way — the pause only makes sure the window a
	// registration bound to the job's context would die in is exercised.
	time.Sleep(50 * time.Millisecond)
	responded.Do(func() { close(respond) })

	st := waitTerminal(t, url, id)
	if st.State != server.StateDone || !st.Optimal || st.Length != 14 {
		t.Fatalf("job = state %s length %d optimal %v (error %q), want done/14/true",
			st.State, st.Length, st.Optimal, st.Error)
	}
	if h := coord2.Health(); h.Adoptions != 1 || h.Failovers != 0 {
		t.Fatalf("successor health = %+v; want the terminal report to adopt (1 adoption, 0 failovers)", h)
	}
}

// TestAdoptionGraceExpiryDoesNotChargeBudget pins the other budget rule:
// a recovered lease no report claims is re-queued when it expires — at
// the successor's start plus its (here short) LeaseTTL — WITHOUT charging
// the job's retry budget. With MaxAttempts=1 a budgeted expiry would fail
// the job on the spot ("gave out after 1 failed attempts"); instead it
// must fall back and finish at the optimum.
func TestAdoptionGraceExpiryDoesNotChargeBudget(t *testing.T) {
	// Coordinator and worker die together; nobody will reclaim the lease.
	cfg := restartTimings()
	cfg.LeaseTTL = 200 * time.Millisecond
	url, id, coord2 := crashMidSolve(t, gateExpiry, cfg, false, nil)

	// The recovered lease expires unclaimed; the unbudgeted re-queue finds
	// no eligible worker and hands the job to the successor's local pool,
	// which finishes it — impossible if the expiry had charged the budget.
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done after an uncharged lease expiry", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if h := coord2.Health(); h.Adoptions != 0 {
		t.Fatalf("successor health = %+v; nothing should have been adopted", h)
	}
	var tr server.TraceResponse
	if code := getJSON(t, url+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace after restart: got %d, want 200", code)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "adopt" && sp.Attrs["outcome"] == "expired" {
			return
		}
	}
	t.Errorf("trace lacks an adopt span with outcome=expired; spans: %+v", tr.Spans)
}

// recoveredJournal is a server.LeaseStore whose only content is a fixed
// set of recovered leases — the journal a restarted coordinator reads,
// without a WAL behind it.
type recoveredJournal []server.LeaseRecord

func (j recoveredJournal) PutLease(server.LeaseRecord)           {}
func (j recoveredJournal) DropLease(string)                      {}
func (j recoveredJournal) RecoveredLeases() []server.LeaseRecord { return j }

// TestEarlyReportWaitsForResume pins the window between a restart and the
// recovered job's re-dispatch: a report carrying the recovered token gets
// a retryable 503 (lease_recovering) and adopts nothing; once the resume
// Dispatch has installed the job, the same report adopts the lease, and a
// forged token gets 410 throughout.
func TestEarlyReportWaitsForResume(t *testing.T) {
	rec := server.LeaseRecord{JobID: "job-7", WorkerID: "w-0badc0de-1", Token: randomHex(16), Attempt: 1}
	cfg := restartTimings()
	cfg.Leases = recoveredJournal{rec}
	coord := NewCoordinator(cfg)
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	wid := registerProbe(t, ts.URL)
	report := func(token string) (int, string) {
		t.Helper()
		return postWire(t, ts.URL+"/v1/workers/jobs/"+rec.JobID+"/report",
			ReportRequest{ProtocolVersion: ProtocolVersion, WorkerID: wid, Token: token})
	}
	forged := randomHex(16)

	if code, apiCode := report(rec.Token); code != http.StatusServiceUnavailable || apiCode != server.ErrCodeLeaseRecovering {
		t.Fatalf("pre-resume report: got %d %q, want 503 %q", code, apiCode, server.ErrCodeLeaseRecovering)
	}
	if code, _ := report(forged); code != http.StatusGone {
		t.Fatalf("pre-resume forged report: got %d, want 410", code)
	}

	sys, err := procgraph.ParseSpec("ring:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	type dispatched struct {
		res     *server.JobResult
		handled bool
	}
	out := make(chan dispatched, 1)
	go func() {
		res, _, handled := coord.Dispatch(context.Background(), server.DispatchJob{
			ID: rec.JobID, Graph: gen.PaperExample(), System: sys, Engines: []string{"astar"}, Resume: &rec})
		out <- dispatched{res, handled}
	}()
	waitFor(t, "the resume Dispatch to install the job", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.tasks[rec.JobID] != nil
	})

	if code, _ := report(forged); code != http.StatusGone || coord.Health().Adoptions != 0 {
		t.Fatalf("post-resume forged report: got %d with %d adoptions, want 410 and none", code, coord.Health().Adoptions)
	}
	if code, _ := report(rec.Token); code != http.StatusOK {
		t.Fatalf("post-resume report: got %d, want 200", code)
	}
	if h := coord.Health(); h.Adoptions != 1 || h.Leased != 1 {
		t.Fatalf("health after the adopting report = %+v, want 1 adoption and 1 leased", h)
	}

	if code, _ := postWire(t, ts.URL+"/v1/workers/jobs/"+rec.JobID+"/report", ReportRequest{
		ProtocolVersion: ProtocolVersion, WorkerID: wid, Token: rec.Token,
		Done: true, Result: &server.JobResult{ID: rec.JobID, Length: 14, Optimal: true},
	}); code != http.StatusOK {
		t.Fatalf("terminal report: got %d, want 200", code)
	}
	got := <-out
	if !got.handled || got.res == nil || got.res.Length != 14 {
		t.Fatalf("Dispatch = %+v, want the adopted lease's result", got)
	}
}
