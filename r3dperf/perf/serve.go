package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/experiment"
	"r3d/internal/serve"
)

// serveW drives an in-process serve.Server with an open loop of seeded
// arrivals at a few fixed rates, through its HTTP handler without
// sockets. Most requests are fresh one-trial campaign grids (compute,
// then a persister write); some repeat a recent grid (joins) and some
// ask the warm tiny tier for an experiment render. The 85/10/5 split is
// chosen, not measured (there is no recorded production traffic): it
// keeps the daemon compute-bound while every request path (fresh,
// in-flight join, done join, cached experiment) runs in every step.
type serveW struct {
	cfg  Config
	root string
	srv  *serve.Server
	h    http.Handler
	used bool
	reqs []request
	// steps[i] is the index of the first request of rate step i.
	steps []int
	// end is when the last step ends, from the start of the pass.
	end time.Duration
}

// serveLatencyLimitMs is the p95 submit-to-result limit a rate step
// must meet to count toward slo_rate_rps: ten times the service time of
// one fresh request (one 20,000-instruction supervised trial, about
// 30 ms on an unloaded 2-CPU x86-64 host; campaign.trial_ms_p50 in the
// traced run), so a request may wait behind about ten others.
const serveLatencyLimitMs = 300

// serveTrialInsts is the window of each campaign request's one trial.
const serveTrialInsts = 20_000

// serveExperiments are the tiny-tier experiments requests ask for.
var serveExperiments = []string{"table2", "fig6", "fig7", "sec35"}

// request is one scheduled submission.
type request struct {
	at   time.Duration // scheduled send, from the start of the pass
	body []byte
	kind string // "fresh", "repeat" or "experiment"
}

// tinyTier is a one-benchmark tier with very small windows, cheap
// enough to warm during set-up.
func tinyTier(seed int64) serve.Tier {
	return serve.Tier{Name: "tiny", Quality: experiment.Quality{
		WarmupInsts: 5_000, MeasureInsts: 10_000,
		Benchmarks:  []string{"gzip"},
		ThermalTolC: 1e-3, ThermalMaxIters: 10_000,
		Seed: seed,
	}}
}

func newServe(cfg Config) (*serveW, error) {
	root, err := os.MkdirTemp(cfg.OutDir, "serve-")
	if err != nil {
		return nil, err
	}
	return &serveW{cfg: cfg, root: root}, nil
}

func (w *serveW) setupReps() int {
	if w.cfg.Toy {
		return 1
	}
	return 11
}

// schedule generates the open loop: the rates are stepped through in
// order, each step sending the same number of requests, with one
// arrival per 1/rate slot jittered by up to a quarter slot either way.
// The per-step count fills the measuring time; equal counts give every
// step's p95 the same number of samples. It also returns the end of
// the last step.
func schedule(seed int64, seconds float64) ([]request, []int, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	var steps []int
	var recent [][]byte
	var slots float64 // seconds per request, summed over the steps
	for _, rate := range serveRates {
		slots += 1 / rate
	}
	perStep := max(1, int(seconds/slots))
	var stepStart float64
	for _, rate := range serveRates {
		steps = append(steps, len(reqs))
		for k := 0; k < perStep; k++ {
			t := stepStart + (float64(k)+0.5+(rng.Float64()-0.5)/2)/rate
			r := request{at: time.Duration(t * 1e9)}
			switch x := rng.Float64(); {
			case x < 0.05:
				r.kind = "experiment"
				sub := serve.Submission{Kind: serve.KindExperiment, Experiment: serveExperiments[rng.Intn(len(serveExperiments))], Quality: "tiny"}
				body, err := json.Marshal(sub)
				if err != nil {
					return nil, nil, 0, err
				}
				r.body = body
			case x < 0.15 && len(recent) > 0:
				r.kind = "repeat"
				r.body = recent[rng.Intn(len(recent))]
			default:
				r.kind = "fresh"
				g := campaign.Grid{
					Benches:      []string{"gzip"},
					Seeds:        []int64{1 + rng.Int63n(1<<40)},
					LeadRates:    []float64{100},
					RFRates:      []float64{20},
					Instructions: serveTrialInsts,
				}
				body, err := json.Marshal(serve.Submission{Kind: serve.KindCampaign, Grid: &g})
				if err != nil {
					return nil, nil, 0, err
				}
				r.body = body
				recent = append(recent, body)
				if len(recent) > 8 {
					recent = recent[1:]
				}
			}
			reqs = append(reqs, r)
		}
		stepStart += float64(perStep) / rate
	}
	return reqs, steps, time.Duration(stepStart * 1e9), nil
}

// realClock is the server's injected clock.
func realClock() serve.Clock {
	epoch := time.Now()
	return serve.Clock{
		Now: func() int64 { return int64(time.Since(epoch)) },
		After: func(ns int64) <-chan struct{} {
			ch := make(chan struct{})
			time.AfterFunc(time.Duration(ns), func() { close(ch) })
			return ch
		},
	}
}

func (w *serveW) setup() error {
	w.stop()
	dir, err := os.MkdirTemp(w.root, "state-")
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Tiers:        []serve.Tier{tinyTier(w.cfg.Seed)},
		QueueBound:   4096,
		DegradeDepth: -1,
		// One job worker per CPU; each fresh request is a one-trial
		// grid, so more trial workers would sit idle.
		JobWorkers:   workers(),
		TrialWorkers: 1,
		Clock:        realClock(),
		StatePath:    dir,
	})
	if err != nil {
		return err
	}
	w.srv, w.h, w.used = srv, srv.Handler(), false
	sess, _ := srv.Session("tiny")
	exps, err := findAll(serveExperiments)
	if err != nil {
		return err
	}
	if err := sess.Prefetch(experiment.ManifestUnion(sess.Q, exps)); err != nil {
		return fmt.Errorf("warm tiny tier: %w", err)
	}
	w.reqs, w.steps, w.end, err = schedule(w.cfg.Seed, w.cfg.Seconds)
	return err
}

// stop drains the current server, if any.
func (w *serveW) stop() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
}

func (w *serveW) singlePass() bool { return true }

// observed is what the client saw of one request.
type observed struct {
	sent, running, done, got int64 // ns from the pass start; running 0 if never seen
	handlerNs                int64
	span                     int64 // the request's span (0 untraced)
	jobID                    string
	body                     []byte
	joined                   bool
	err                      string
}

// do sends the request through the handler and follows its job to the
// result with long-polls.
func (w *serveW) do(tr *Tracer, root int64, req request, id string, now func() int64) observed {
	var o observed
	o.sent = now()
	rid := tr.Begin("serve.request", root, id)
	defer tr.End(rid)
	o.span = rid
	sp := tr.Begin("serve.handler", rid, id)
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(req.body)))
	tr.End(sp)
	o.handlerNs = now() - o.sent
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		o.err = fmt.Sprintf("submit: HTTP %d: %s", rec.Code, rec.Body.String())
		return o
	}
	var sub serve.SubmitResult
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		o.err = fmt.Sprintf("submit: %v", err)
		return o
	}
	o.jobID, o.joined = sub.Job.ID, sub.Joined
	st := sub.Job
	for {
		if st.State == serve.StateRunning && o.running == 0 {
			o.running = now()
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			break
		}
		rec := httptest.NewRecorder()
		url := fmt.Sprintf("/api/v1/jobs/%s?wait_ms=30000&version=%d", o.jobID, st.Version)
		w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			o.err = fmt.Sprintf("status: HTTP %d", rec.Code)
			return o
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			o.err = fmt.Sprintf("status: %v", err)
			return o
		}
	}
	o.done = now()
	if st.State != serve.StateDone {
		o.err = fmt.Sprintf("job %s ended %s: %s", o.jobID, st.State, st.Error)
		return o
	}
	sp = tr.Begin("serve.result", rid, id)
	rec = httptest.NewRecorder()
	w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+o.jobID+"/result", nil))
	tr.End(sp)
	o.got = now()
	if rec.Code != http.StatusOK {
		o.err = fmt.Sprintf("result: HTTP %d", rec.Code)
		return o
	}
	o.body = rec.Body.Bytes()
	return o
}

func (w *serveW) run(tr *Tracer) (pass, error) {
	if w.srv == nil || w.used {
		if err := w.setup(); err != nil {
			return pass{}, err
		}
	}
	w.used = true
	p := pass{layer: map[string]float64{}, rates: map[string]float64{}}
	obs := make([]observed, len(w.reqs))
	depth := make([]int, len(w.steps)+1)
	start, base := time.Now(), tr.Now()
	now := func() int64 { return int64(time.Since(start)) }
	root := tr.Begin("serve.pass", 0, "")
	var wg sync.WaitGroup
	step := 0
	for i, req := range w.reqs {
		for step < len(w.steps) && w.steps[step] == i {
			depth[step] = w.srv.Stats().QueueDepth
			step++
		}
		if d := time.Until(start.Add(req.at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, req request) {
			defer wg.Done()
			obs[i] = w.do(tr, root, req, "r"+strconv.Itoa(i), now)
		}(i, req)
	}
	for step < len(w.steps) {
		depth[step] = w.srv.Stats().QueueDepth
		step++
	}
	// Backlog at the end of the schedule, before the tail drains.
	if d := time.Until(start.Add(w.end)); d > 0 {
		time.Sleep(d)
	}
	depth[len(w.steps)] = w.srv.Stats().QueueDepth
	wg.Wait()
	tr.End(root)
	p.wall = time.Since(start).Seconds()

	// Per request: latency from the scheduled send; bodies must be
	// byte-identical across every request that joined the same job.
	bodies := map[string][]byte{}
	var lags, handlerUs, queueMs, computeMs []float64
	var failures []string
	for i, o := range obs {
		p.ops++
		sched := int64(w.reqs[i].at)
		lags = append(lags, float64(o.sent-sched)/1e6)
		handlerUs = append(handlerUs, float64(o.handlerNs)/1e3)
		if o.err != "" {
			p.failed++
			failures = append(failures, o.err)
			continue
		}
		if i < w.steps[1] {
			// The end-to-end latency is the lowest rate's: well below
			// the knee it is service time, not host-dependent queueing.
			p.latencies = append(p.latencies, float64(o.got-sched)/1e6)
		}
		if !o.joined && o.running > 0 {
			queueMs = append(queueMs, float64(o.running-o.sent)/1e6)
			computeMs = append(computeMs, float64(o.done-o.running)/1e6)
			tr.Record("serve.queue", o.span, "r"+strconv.Itoa(i), base+o.sent, base+o.running)
			tr.Record("serve.compute", o.span, "r"+strconv.Itoa(i), base+o.running, base+o.done)
		}
		if prev, ok := bodies[o.jobID]; ok && !bytes.Equal(prev, o.body) {
			p.failed++
			failures = append(failures, fmt.Sprintf("job %s served different bytes to a joined request", o.jobID))
		}
		bodies[o.jobID] = o.body
		if w.reqs[i].kind != "experiment" {
			var rep campaign.Report
			if err := json.Unmarshal(o.body, &rep); err != nil || rep.Summary.Trials != 1 || rep.Summary.OK != 1 {
				p.failed++
				failures = append(failures, fmt.Sprintf("job %s: campaign result is not one OK trial (%v)", o.jobID, err))
			}
		}
	}
	for i, f := range failures {
		if i == 5 {
			w.cfg.logf("serve: ... %d more failures\n", len(failures)-i)
			break
		}
		w.cfg.logf("serve: %s\n", f)
	}

	// Rate steps: a step meets the SLO when its p95 is within the limit,
	// nothing failed or was refused, and its backlog did not grow.
	slo := 0.0
	for s, rate := range serveRates {
		lo, hi := w.steps[s], len(w.reqs)
		if s+1 < len(w.steps) {
			hi = w.steps[s+1]
		}
		var lat []float64
		ok := true
		for i := lo; i < hi; i++ {
			if obs[i].err != "" {
				ok = false
				continue
			}
			lat = append(lat, float64(obs[i].got-int64(w.reqs[i].at))/1e6)
		}
		p95 := quantile(lat, 0.95)
		grown := depth[s+1] - depth[s]
		ok = ok && p95 <= serveLatencyLimitMs && grown <= max(2, (hi-lo)/20)
		p.layer["serve.latency_p95_ms.r"+strconv.FormatFloat(rate, 'f', -1, 64)] = p95
		w.cfg.logf("serve: %g rps: %d requests, p95 %.1f ms, backlog %d → %d, meets SLO %v\n", rate, hi-lo, p95, depth[s], depth[s+1], ok)
		if ok {
			slo = rate
		}
	}

	ids := make([]string, 0, len(bodies))
	for id := range bodies {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		_, _ = fmt.Fprintf(h, "%s %d\n%s\n", id, len(bodies[id]), bodies[id]) // hash writes cannot fail
	}
	c := w.srv.Stats().Counters
	p.out = Output{
		Digest: fmt.Sprintf("%x", h.Sum(nil)),
		Counters: map[string]int64{
			"serve.requests":       int64(len(w.reqs)),
			"serve.accepted":       c.Accepted,
			"serve.joined":         c.JoinedInflight + c.JoinedDone,
			"serve.completed":      c.Completed,
			"serve.failed":         c.Failed,
			"serve.rejected_queue": c.RejectedQueue,
		},
	}
	p.rates["slo_rate_rps"] = slo
	var insts float64
	for _, r := range w.reqs {
		if r.kind == "fresh" {
			insts += serveTrialInsts
		}
	}
	p.rates["sim_kinst_per_s"] = insts / 1e3 / p.wall
	p.layer["serve.handler_us"] = median(handlerUs)
	p.layer["serve.queue_wait_ms"] = median(queueMs)
	p.layer["serve.compute_ms"] = median(computeMs)
	p.layer["serve.sched_lag_ms"] = quantile(lags, 0.95)
	p.layer["serve.joined_inflight"] = float64(c.JoinedInflight)
	p.layer["serve.joined_done"] = float64(c.JoinedDone)
	return p, nil
}

func (w *serveW) verify(c *checker) {
	if w.srv == nil {
		return
	}
	h := w.srv.HealthSnapshot()
	c.expect(h.Status == "ok" && h.Persistence == "ok", "serve: health %s, persistence %s", h.Status, h.Persistence)
}

func (w *serveW) layers(tr *Tracer, traced, untraced []pass, m map[string]float64) error {
	p := traced[0]
	for k, v := range p.layer {
		m[k] = v
	}
	c := p.out.Counters
	m["serve.accepted"] = float64(c["serve.accepted"])
	m["serve.rejected_queue"] = float64(c["serve.rejected_queue"])
	m["serve.completed"] = float64(c["serve.completed"])
	m["serve.failed"] = float64(c["serve.failed"])
	m["serve.join_ratio"] = float64(c["serve.joined"]) / float64(c["serve.requests"]) * 100
	spec, err := campaign.Grid{Benches: []string{"gzip"}, Seeds: []int64{1}, LeadRates: []float64{100}, RFRates: []float64{20}, Instructions: serveTrialInsts}.Trials()
	if err != nil {
		return err
	}
	return probeLayers(tr, []string{"gzip"}, w.cfg.Seed, window{0, serveTrialInsts}, spec[0], w.cfg.Toy, m)
}

func (w *serveW) close() {
	w.stop()
	if err := os.RemoveAll(w.root); err != nil {
		w.cfg.logf("serve: cleanup: %v\n", err)
	}
}
