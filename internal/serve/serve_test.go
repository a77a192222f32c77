package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/ckpt"
	"r3d/internal/core"
	"r3d/internal/experiment"
	"r3d/internal/tech"
)

// tinyQuality keeps experiment jobs test-sized: one benchmark, small
// windows.
func tinyQuality() experiment.Quality {
	return experiment.Quality{
		WarmupInsts:  5_000,
		MeasureInsts: 10_000,
		Benchmarks:   []string{"gzip"},
		ThermalTolC:  1e-3, ThermalMaxIters: 10_000,
		Seed: 42,
	}
}

// fullerQuality is a strictly more expensive second tier for
// degradation tests.
func fullerQuality() experiment.Quality {
	q := tinyQuality()
	q.MeasureInsts = 20_000
	return q
}

// tinyGrid is a one-trial campaign, distinct per seed so tests mint
// distinct job fingerprints.
func tinyGrid(seed int64) *campaign.Grid {
	return &campaign.Grid{
		Benches:      []string{"gzip"},
		Seeds:        []int64{seed},
		LeadRates:    []float64{40},
		Instructions: 20_000,
		Node:         tech.Node65,
	}
}

// withGrid returns tinyGrid(1) with one field changed.
func withGrid(mutate func(*campaign.Grid)) *campaign.Grid {
	g := tinyGrid(1)
	mutate(g)
	return g
}

// blockingBuilder parks every trial build on release, so tests control
// exactly when campaign jobs make progress. started (if non-nil)
// receives one token per build reaching the gate.
func blockingBuilder(release <-chan struct{}, started chan<- struct{}) campaign.SystemBuilder {
	return func(spec campaign.TrialSpec) (*core.System, error) {
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		<-release
		return campaign.BuildSystem(spec)
	}
}

// fakeClock is a manual Clock: Now is advanced explicitly and After
// waiters fire when Advance passes their deadline.
type fakeClock struct {
	mu      sync.Mutex
	now     int64
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at int64
	ch chan struct{}
}

func (c *fakeClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(ns int64) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan struct{})
	c.waiters = append(c.waiters, fakeWaiter{at: c.now + ns, ch: ch})
	return ch
}

func (c *fakeClock) Advance(ns int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += ns
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.at <= c.now {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

func (c *fakeClock) Clock() Clock {
	return Clock{Now: c.Now, After: c.After}
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateExpired, StateCanceled:
		return true
	}
	return false
}

// waitTerminal long-polls one job over HTTP until it is terminal.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var since int64
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s?wait_ms=2000&version=%d", base, id, since))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if terminal(st.State) {
			return st
		}
		since = st.Version
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// getResult fetches a completed job's result bytes.
func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch for %s: status %d", id, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postJob submits a job and returns the HTTP status plus decoded body.
func postJob(t *testing.T, base string, sub Submission) (int, SubmitResult, errorBody, http.Header) {
	t.Helper()
	enc, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res SubmitResult
	var eb errorBody
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return resp.StatusCode, res, eb, resp.Header
}

func (s *Server) countersSnapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Options{Tiers: []Tier{{Name: "tiny", Quality: tinyQuality()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	cases := []struct {
		name string
		sub  Submission
		code int
	}{
		{"unknown kind", Submission{Kind: "frobnicate"}, 400},
		{"campaign without grid", Submission{Kind: KindCampaign}, 400},
		{"campaign with experiment", Submission{Kind: KindCampaign, Grid: tinyGrid(1), Experiment: "table2"}, 400},
		{"experiment without name", Submission{Kind: KindExperiment}, 400},
		{"experiment with grid", Submission{Kind: KindExperiment, Experiment: "table2", Grid: tinyGrid(1)}, 400},
		{"unknown experiment", Submission{Kind: KindExperiment, Experiment: "nope"}, 400},
		{"unknown tier", Submission{Kind: KindExperiment, Experiment: "table2", Quality: "galactic"}, 400},
		{"empty grid", Submission{Kind: KindCampaign, Grid: &campaign.Grid{}}, 400},
		{"unknown benchmark", Submission{Kind: KindCampaign, Grid: withGrid(func(g *campaign.Grid) { g.Benches = []string{"nope"} })}, 400},
		{"unknown L2 organization", Submission{Kind: KindCampaign, Grid: withGrid(func(g *campaign.Grid) { g.L2 = "4d-z" })}, 400},
		{"negative checker cap", Submission{Kind: KindCampaign, Grid: withGrid(func(g *campaign.Grid) { g.CheckerMaxGHz = -3 })}, 400},
	}
	for _, tc := range cases {
		_, serr := s.Submit(tc.sub, "c1")
		if serr == nil || serr.Code != tc.code {
			t.Errorf("%s: got %+v, want code %d", tc.name, serr, tc.code)
		}
	}
	if c := s.countersSnapshot(); c.RejectedInvalid != int64(len(cases)) || c.Accepted != 0 {
		t.Errorf("counters after invalid submissions: %+v", c)
	}

	oversize, err := New(Options{Tiers: []Tier{{Name: "tiny", Quality: tinyQuality()}}, MaxTrialsPerJob: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer oversize.Drain()
	big := tinyGrid(1)
	big.Seeds = []int64{1, 2, 3, 4}
	if _, serr := oversize.Submit(Submission{Kind: KindCampaign, Grid: big}, "c1"); serr == nil || serr.Code != 413 {
		t.Errorf("oversize grid: got %+v, want 413", serr)
	}

	if _, err := New(Options{}); err == nil {
		t.Error("New without tiers must fail")
	}
	if _, err := New(Options{Tiers: []Tier{{Name: "a", Quality: tinyQuality()}, {Name: "a", Quality: tinyQuality()}}}); err == nil {
		t.Error("New with duplicate tier names must fail")
	}
}

// TestConcurrentIdenticalSubmissionsComputeOnce is the idempotency
// acceptance check: N concurrent identical submissions cause exactly
// one accepted job and one computation; every response serves the same
// bytes, and the engine's dedup counters prove no window ran twice.
func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	q := tinyQuality()
	s, err := New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: q}},
		JobWorkers: 2, TrialWorkers: 2, QueueBound: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	sub := Submission{Kind: KindExperiment, Experiment: "table2"}
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, res, _, _ := postJob(t, ts.URL, sub)
			codes[i] = code
			ids[i] = res.Job.ID
		}(i)
	}
	wg.Wait()

	accepted, joined := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			joined++
		default:
			t.Fatalf("submission %d: unexpected status %d", i, code)
		}
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	if accepted != 1 || joined != n-1 {
		t.Fatalf("accepted=%d joined=%d, want 1/%d", accepted, joined, n-1)
	}
	c := s.countersSnapshot()
	if c.Accepted != 1 || c.JoinedInflight+c.JoinedDone != n-1 {
		t.Fatalf("server counters disagree: %+v", c)
	}

	if st := waitTerminal(t, ts.URL, ids[0]); st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	first := getResult(t, ts.URL, ids[0])
	if len(first) == 0 {
		t.Fatal("empty result")
	}
	for i := 0; i < n; i++ {
		if got := getResult(t, ts.URL, ids[0]); !bytes.Equal(got, first) {
			t.Fatalf("result fetch %d differs from first", i)
		}
	}

	// Engine-level proof: every unique manifest window computed exactly
	// once across all N submissions.
	exp, _ := experiment.Find("table2")
	uniq := map[experiment.RunKey]bool{}
	for _, k := range exp.Manifest(q) {
		uniq[k] = true
	}
	sess, _ := s.Session("tiny")
	if st := sess.EngineStats(); st.Computed != len(uniq) || st.Errors != 0 {
		t.Errorf("engine computed %d windows (errors %d), want %d unique manifest windows once each",
			st.Computed, st.Errors, len(uniq))
	}
}

// TestOverloadExactRejections is the ISSUE acceptance scenario: with
// queue bound Q and Q+k concurrent distinct submissions, exactly k are
// rejected with 429 + Retry-After, and none of the Q accepted jobs is
// dropped — after release they all complete.
func TestOverloadExactRejections(t *testing.T) {
	const q, k = 3, 4
	var s *Server
	defer func() { // registered first: runs after releaseAll
		if s != nil {
			s.Drain()
		}
	}()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	var err error
	s, err = New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		QueueBound: q, JobWorkers: 1, TrialWorkers: 1,
		Builder: blockingBuilder(release, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		code  int
		id    string
		retry string
	}
	outcomes := make([]outcome, q+k)
	var wg sync.WaitGroup
	for i := 0; i < q+k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, res, _, hdr := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(int64(i + 1))})
			outcomes[i] = outcome{code: code, id: res.Job.ID, retry: hdr.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var acceptedIDs []string
	rejected := 0
	for i, o := range outcomes {
		switch o.code {
		case http.StatusAccepted:
			acceptedIDs = append(acceptedIDs, o.id)
		case http.StatusTooManyRequests:
			rejected++
			if o.retry == "" {
				t.Errorf("submission %d: 429 without Retry-After", i)
			}
		default:
			t.Fatalf("submission %d: unexpected status %d", i, o.code)
		}
	}
	if len(acceptedIDs) != q || rejected != k {
		t.Fatalf("accepted=%d rejected=%d, want %d/%d", len(acceptedIDs), rejected, q, k)
	}
	if c := s.countersSnapshot(); c.RejectedQueue != k {
		t.Fatalf("RejectedQueue=%d, want %d", c.RejectedQueue, k)
	}

	// Zero dropped accepted jobs: every admitted job completes once the
	// gate opens.
	releaseAll()
	for _, id := range acceptedIDs {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Errorf("accepted job %s ended %s (%s), want done", id, st.State, st.Error)
		}
		if body := getResult(t, ts.URL, id); !bytes.Contains(body, []byte(`"summary"`)) && !bytes.Contains(body, []byte(`"trials"`)) {
			t.Errorf("job %s: result does not look like a campaign report: %.80s", id, body)
		}
	}

	// The freed queue admits again.
	code, res, _, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(99)})
	if code != http.StatusAccepted {
		t.Fatalf("post-release submission got %d, want 202", code)
	}
	if st := waitTerminal(t, ts.URL, res.Job.ID); st.State != StateDone {
		t.Fatalf("post-release job ended %s", st.State)
	}
}

func TestRateLimitRetryAfter(t *testing.T) {
	clk := &fakeClock{}
	var s *Server
	defer func() { // registered first: runs after close(release)
		if s != nil {
			s.Drain()
		}
	}()
	release := make(chan struct{})
	defer close(release)
	var err error
	s, err = New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		QueueBound: 32, RatePerSec: 1, Burst: 2,
		Clock:   clk.Clock(),
		Builder: blockingBuilder(release, nil),
	})
	if err != nil {
		t.Fatal(err)
	}

	seed := int64(0)
	submit := func(client string) *StatusError {
		seed++
		_, serr := s.Submit(Submission{Kind: KindCampaign, Grid: tinyGrid(seed)}, client)
		return serr
	}

	if serr := submit("alice"); serr != nil {
		t.Fatalf("burst submission 1 rejected: %+v", serr)
	}
	if serr := submit("alice"); serr != nil {
		t.Fatalf("burst submission 2 rejected: %+v", serr)
	}
	serr := submit("alice")
	if serr == nil || serr.Code != 429 || serr.RetryAfterSec < 1 {
		t.Fatalf("exhausted bucket: got %+v, want 429 with Retry-After ≥ 1s", serr)
	}
	// Other clients have their own bucket.
	if serr := submit("bob"); serr != nil {
		t.Fatalf("bob's first submission rejected: %+v", serr)
	}
	// One second refills one token.
	clk.Advance(1e9)
	if serr := submit("alice"); serr != nil {
		t.Fatalf("post-refill submission rejected: %+v", serr)
	}
	if serr := submit("alice"); serr == nil || serr.Code != 429 {
		t.Fatalf("bucket must be empty again: got %+v", serr)
	}
	if c := s.countersSnapshot(); c.RejectedRate != 2 {
		t.Errorf("RejectedRate=%d, want 2", c.RejectedRate)
	}
}

// TestDeadlineExpiryThenResubmit exercises the per-request deadline: an
// expired job drains without poisoning any cache, and a later identical
// submission re-admits (it must not join the expired carcass) and
// completes.
func TestDeadlineExpiryThenResubmit(t *testing.T) {
	clk := &fakeClock{}
	var s *Server
	defer func() { // registered first: runs after releaseAll
		if s != nil {
			s.Drain()
		}
	}()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan struct{}, 1)

	var err error
	s, err = New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		QueueBound: 8, JobWorkers: 1, TrialWorkers: 1,
		Clock:   clk.Clock(),
		Builder: blockingBuilder(release, started),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker so the deadline job stays queued.
	code, blocker, _, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(1)})
	if code != http.StatusAccepted {
		t.Fatalf("blocker got %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never reached the builder")
	}

	code, res, _, _ := postJob(t, ts.URL, Submission{Kind: KindExperiment, Experiment: "table2", DeadlineMS: 5})
	if code != http.StatusAccepted {
		t.Fatalf("deadline job got %d", code)
	}
	j, ok := s.JobByID(res.Job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	clk.Advance(5e6)
	select {
	case <-j.stop:
	case <-time.After(10 * time.Second):
		t.Fatal("deadline never interrupted the job")
	}

	releaseAll()
	if st := waitTerminal(t, ts.URL, blocker.Job.ID); st.State != StateDone {
		t.Fatalf("blocker ended %s", st.State)
	}
	st := waitTerminal(t, ts.URL, res.Job.ID)
	if st.State != StateExpired || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%s), want expired", st.State, st.Error)
	}

	// The identical resubmission must be re-admitted, not joined to the
	// expired job, and must complete normally off the unpoisoned cache.
	code, res2, _, _ := postJob(t, ts.URL, Submission{Kind: KindExperiment, Experiment: "table2"})
	if code != http.StatusAccepted || res2.Joined {
		t.Fatalf("resubmission: code=%d joined=%v, want fresh 202", code, res2.Joined)
	}
	if res2.Job.ID != res.Job.ID {
		t.Fatalf("resubmission minted new ID %s, want the content fingerprint %s", res2.Job.ID, res.Job.ID)
	}
	if st := waitTerminal(t, ts.URL, res2.Job.ID); st.State != StateDone {
		t.Fatalf("resubmission ended %s (%s), want done", st.State, st.Error)
	}
	if len(getResult(t, ts.URL, res2.Job.ID)) == 0 {
		t.Fatal("resubmission served an empty result")
	}
	sess, _ := s.Session("tiny")
	if es := sess.EngineStats(); es.Errors != 0 {
		t.Errorf("engine memoized %d errors; an expired request must not poison the cache", es.Errors)
	}
	if c := s.countersSnapshot(); c.Expired != 1 {
		t.Errorf("Expired=%d, want 1", c.Expired)
	}
}

// TestDegradeUnderLoad checks load shedding: once the queue is deep,
// an experiment asking for the expensive tier is downgraded one tier,
// the response marks the downgrade, and the degraded job is shared
// with explicit cheap-tier submissions.
func TestDegradeUnderLoad(t *testing.T) {
	var s *Server
	defer func() { // registered first: runs after releaseAll
		if s != nil {
			s.Drain()
		}
	}()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	var err error
	s, err = New(Options{
		Tiers:        []Tier{{Name: "tiny", Quality: tinyQuality()}, {Name: "fuller", Quality: fullerQuality()}},
		QueueBound:   8,
		DegradeDepth: 1,
		JobWorkers:   1, TrialWorkers: 1,
		Builder: blockingBuilder(release, nil),
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, serr := s.Submit(Submission{Kind: KindCampaign, Grid: tinyGrid(1)}, "c"); serr != nil {
		t.Fatalf("blocker rejected: %+v", serr)
	}

	res, serr := s.Submit(Submission{Kind: KindExperiment, Experiment: "table2", Quality: "fuller"}, "c")
	if serr != nil {
		t.Fatalf("degradable submission rejected: %+v", serr)
	}
	if !res.Degraded || res.RequestedQuality != "fuller" || res.Job.Quality != "tiny" {
		t.Fatalf("want degradation fuller→tiny marked on the response, got %+v", res)
	}

	// An explicit cheap-tier request shares the degraded job.
	joined, serr := s.Submit(Submission{Kind: KindExperiment, Experiment: "table2", Quality: "tiny"}, "c")
	if serr != nil {
		t.Fatalf("explicit tiny submission rejected: %+v", serr)
	}
	if !joined.Joined || joined.Job.ID != res.Job.ID {
		t.Fatalf("explicit tiny submission should join the degraded job: %+v", joined)
	}

	// The cheapest tier cannot degrade further and is not marked.
	cheap, serr := s.Submit(Submission{Kind: KindExperiment, Experiment: "fig4", Quality: "tiny"}, "c")
	if serr != nil {
		t.Fatalf("cheap submission rejected: %+v", serr)
	}
	if cheap.Degraded {
		t.Fatalf("cheapest tier must not be marked degraded: %+v", cheap)
	}

	if c := s.countersSnapshot(); c.Degraded != 1 {
		t.Errorf("Degraded=%d, want 1", c.Degraded)
	}
	releaseAll()
}

// TestCrashRestoreByteIdentity is the crash-safety acceptance check at
// package level (the smoke tool re-runs it with a real SIGKILL): a new
// server restored from the persisted state serves previously computed
// jobs byte-identically, without recomputing them, and preloads the
// window caches.
func TestCrashRestoreByteIdentity(t *testing.T) {
	state := t.TempDir()
	opts := Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		JobWorkers: 1, TrialWorkers: 2,
		StatePath: state,
	}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	_, camp, _, _ := postJob(t, ts1.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(5)})
	_, expr, _, _ := postJob(t, ts1.URL, Submission{Kind: KindExperiment, Experiment: "table2"})
	if st := waitTerminal(t, ts1.URL, camp.Job.ID); st.State != StateDone {
		t.Fatalf("campaign job ended %s", st.State)
	}
	if st := waitTerminal(t, ts1.URL, expr.Job.ID); st.State != StateDone {
		t.Fatalf("experiment job ended %s", st.State)
	}
	campBody := getResult(t, ts1.URL, camp.Job.ID)
	exprBody := getResult(t, ts1.URL, expr.Job.ID)
	s1.Drain() // flushes the final checkpoint, like SIGTERM
	ts1.Close()

	restoredOpts := opts
	restoredOpts.Restore = true
	s2, err := New(restoredOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Both jobs are served from the store, byte-identically, and a
	// duplicate POST joins the restored job instead of recomputing.
	for _, want := range []struct {
		id   string
		body []byte
		sub  Submission
	}{
		{camp.Job.ID, campBody, Submission{Kind: KindCampaign, Grid: tinyGrid(5)}},
		{expr.Job.ID, exprBody, Submission{Kind: KindExperiment, Experiment: "table2"}},
	} {
		code, res, _, _ := postJob(t, ts2.URL, want.sub)
		if code != http.StatusOK || !res.Joined || res.Job.ID != want.id {
			t.Fatalf("restored resubmission: code=%d res=%+v", code, res)
		}
		if !res.Job.Restored {
			t.Errorf("job %s not marked restored", want.id)
		}
		if got := getResult(t, ts2.URL, want.id); !bytes.Equal(got, want.body) {
			t.Errorf("job %s: restored result differs from original", want.id)
		}
	}
	c := s2.countersSnapshot()
	if c.JoinedDone != 2 || c.Accepted != 0 {
		t.Errorf("restored server counters: %+v, want 2 done-joins and 0 accepts", c)
	}
	sess, _ := s2.Session("tiny")
	es := sess.EngineStats()
	if es.Preloaded == 0 {
		t.Error("window cache was not preloaded on restore")
	}
	if es.Computed != 0 {
		t.Errorf("restored server recomputed %d windows for stored jobs", es.Computed)
	}

	// A store written under a different tier configuration fails loudly.
	foreign := opts
	foreign.Restore = true
	foreign.Tiers = []Tier{{Name: "tiny", Quality: fullerQuality()}}
	if _, err := New(foreign); err == nil {
		t.Fatal("restore under a different tier configuration must fail loudly")
	}
}

// TestDrainUnderLoad checks the SIGTERM path: draining cancels queued
// jobs, finishes running jobs at trial granularity, persists, rejects
// new submissions with 503, and unblocks long-polls.
func TestDrainUnderLoad(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan struct{}, 1)

	s, err := New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		QueueBound: 8, JobWorkers: 1, TrialWorkers: 1,
		Builder: blockingBuilder(release, started),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// runningGrid has two trials so the drain provably skips work: the
	// in-flight trial commits, the second is never dispatched.
	runningGrid := tinyGrid(1)
	runningGrid.Seeds = []int64{1, 2}
	_, running, _, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: runningGrid})
	_, queued, _, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(3)})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("running job never reached the builder")
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Wait until the drain has interrupted the running job, then open
	// the gate so its in-flight trial can finish.
	rj, _ := s.JobByID(running.Job.ID)
	select {
	case <-rj.stop:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never interrupted the running job")
	}
	releaseAll()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete")
	}

	if st := waitTerminal(t, ts.URL, running.Job.ID); st.State != StateCanceled {
		t.Errorf("running job ended %s, want canceled", st.State)
	}
	if st := waitTerminal(t, ts.URL, queued.Job.ID); st.State != StateCanceled {
		t.Errorf("queued job ended %s, want canceled", st.State)
	}

	code, _, eb, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(9)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission got %d (%s), want 503", code, eb.Error)
	}
	var health Health
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "draining" {
		t.Errorf("healthz status %q, want draining", health.Status)
	}
	select {
	case <-s.DrainDone():
	default:
		t.Error("DrainDone channel not closed after drain")
	}
}

// tamperTierCache flips one persisted leading window's instruction
// count inside a tier cache, re-sealing the file's own checksums — the
// corruption only a shadow recomputation can expose.
func tamperTierCache(t *testing.T, path string) {
	t.Helper()
	// Discover the cache's fingerprint through the mismatch error, then
	// reload it for real.
	_, err := ckpt.Load(path, ckpt.Meta{Kind: "experiment-runcache", Fingerprint: "?"})
	var mm *ckpt.MismatchError
	if !errors.As(err, &mm) || mm.Field != "fingerprint" {
		t.Fatalf("fingerprint discovery: %v", err)
	}
	meta := ckpt.Meta{Kind: "experiment-runcache", Fingerprint: mm.Got}
	snap, err := ckpt.Load(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Key  experiment.RunKey   `json:"key"`
		Lead *experiment.LeadRun `json:"lead,omitempty"`
		RMT  *experiment.RMTRun  `json:"rmt,omitempty"`
	}
	w := ckpt.NewWriter(meta)
	tampered := false
	for i := 0; i < snap.Len(); i++ {
		var e entry
		if err := snap.Decode(i, &e); err != nil {
			t.Fatal(err)
		}
		if !tampered && e.Lead != nil {
			e.Lead.Stats.Instructions += 999
			tampered = true
		}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !tampered {
		t.Fatal("cache holds no leading window to tamper with")
	}
	if err := w.Commit(path); err != nil {
		t.Fatal(err)
	}
}

// TestShadowDivergenceDegradesHealth is the -shadow satellite: a
// tampered window cache is detected by shadow re-verification, and the
// daemon reports degraded health instead of crashing — the job itself
// still completes.
func TestShadowDivergenceDegradesHealth(t *testing.T) {
	state := t.TempDir()
	opts := Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		JobWorkers: 1, TrialWorkers: 2,
		StatePath: state,
	}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, res, _, _ := postJob(t, ts1.URL, Submission{Kind: KindExperiment, Experiment: "table2"})
	if st := waitTerminal(t, ts1.URL, res.Job.ID); st.State != StateDone {
		t.Fatalf("seed job ended %s", st.State)
	}
	s1.Drain()
	ts1.Close()

	// Lose the job store (so the job recomputes) but keep — and tamper —
	// the window cache.
	for _, p := range []string{filepath.Join(state, "jobs.ckpt"), ckpt.PrevPath(filepath.Join(state, "jobs.ckpt"))} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	tamperTierCache(t, filepath.Join(state, "cache-tiny.ckpt"))

	restored := opts
	restored.Restore = true
	restored.ShadowFraction = 1
	s2, err := New(restored)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if h := s2.HealthSnapshot(); h.Status != "ok" {
		t.Fatalf("pre-traffic health %q, want ok", h.Status)
	}
	code, res2, _, _ := postJob(t, ts2.URL, Submission{Kind: KindExperiment, Experiment: "table2"})
	if code != http.StatusAccepted {
		t.Fatalf("recompute submission got %d", code)
	}
	if st := waitTerminal(t, ts2.URL, res2.Job.ID); st.State != StateDone {
		t.Fatalf("job under divergence ended %s (%s) — divergence must degrade, not crash", st.State, st.Error)
	}

	h := s2.HealthSnapshot()
	if h.Status != "degraded" || h.ShadowDiverged == 0 || len(h.Divergences) == 0 {
		t.Fatalf("health after tampered cache: %+v, want degraded with divergences", h)
	}
	stats := s2.Stats()
	if len(stats.Tiers) != 1 || stats.Tiers[0].Engine.ShadowChecked == 0 {
		t.Fatalf("statsz lost the shadow counters: %+v", stats.Tiers)
	}
}

// TestLongPollSeesCompletion checks the streaming-progress contract: a
// long-poll parked on the running job returns as soon as it completes,
// without any client-side polling interval.
func TestLongPollSeesCompletion(t *testing.T) {
	var s *Server
	defer func() { // registered first: runs after releaseAll
		if s != nil {
			s.Drain()
		}
	}()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan struct{}, 1)

	var err error
	s, err = New(Options{
		Tiers:      []Tier{{Name: "tiny", Quality: tinyQuality()}},
		JobWorkers: 1, TrialWorkers: 1,
		Builder: blockingBuilder(release, started),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, res, _, _ := postJob(t, ts.URL, Submission{Kind: KindCampaign, Grid: tinyGrid(1)})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the builder")
	}

	// Park a long-poll past the running version, then complete the job.
	st := make(chan JobStatus, 1)
	go func() {
		got := waitTerminal(t, ts.URL, res.Job.ID)
		st <- got
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	releaseAll()
	select {
	case got := <-st:
		if got.State != StateDone {
			t.Fatalf("long-poll saw %s, want done", got.State)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// 404 and 409 paths.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}
