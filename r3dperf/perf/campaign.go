package perf

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/core"
)

// campaignW runs a seeded fault-injection grid through campaign.Run
// with the journal and checkpoint on disk: many short, watchdogged
// trials of the coupled core with injected faults, each committed
// durably.
type campaignW struct {
	cfg   Config
	specs []campaign.TrialSpec
	// root holds one directory per pass; lastDir is the last pass's.
	root, lastDir string
	lastDigest    string
}

// campaignBenches are fixed so that every seed asks for the same work:
// the seed varies trial seeds, not the mix of programs.
var campaignBenches = []string{"gzip", "mcf", "swim", "twolf"}

// campaignGrid draws the grid's trial seeds from the run's seed.
func campaignGrid(seed int64, toy bool) campaign.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := campaign.Grid{
		Benches:      campaignBenches,
		LeadRates:    []float64{0, 100, 400},
		RFRates:      []float64{20},
		Instructions: 20_000,
	}
	nSeeds := 3
	if toy {
		g.Benches, g.LeadRates, g.Instructions, nSeeds = []string{"gzip"}, []float64{0, 100}, 2_000, 1
	}
	for len(g.Seeds) < nSeeds {
		s := 1 + rng.Int63n(1<<30)
		dup := false
		for _, have := range g.Seeds {
			dup = dup || have == s
		}
		if !dup {
			g.Seeds = append(g.Seeds, s)
		}
	}
	return g
}

// defaultTrial is the trial the layer probe repeats on workloads that
// have no grid of their own.
func defaultTrial(toy bool) campaign.TrialSpec {
	g := campaign.Grid{Benches: []string{"gzip"}, Seeds: []int64{1}, LeadRates: []float64{100}, RFRates: []float64{20}, Instructions: 20_000}
	if toy {
		g.Instructions = 2_000
	}
	specs, err := g.Trials()
	if err != nil {
		panic(err) // the literal grid above is valid
	}
	return specs[0]
}

func newCampaign(cfg Config) (*campaignW, error) {
	root, err := os.MkdirTemp(cfg.OutDir, "campaign-")
	if err != nil {
		return nil, err
	}
	return &campaignW{cfg: cfg, root: root}, nil
}

func (w *campaignW) setupReps() int { return 200 }

func (w *campaignW) setup() error {
	specs, err := campaignGrid(w.cfg.Seed, w.cfg.Toy).Trials()
	if err != nil {
		return err
	}
	w.specs = specs
	return nil
}

func (w *campaignW) singlePass() bool { return false }

// runCampaign runs the grid once; persist selects the journal and
// checkpoint under a fresh directory. It returns the report, its
// digest, the per-trial latencies and the pass directory.
func (w *campaignW) runCampaign(tr *Tracer, persist bool) (*campaign.Report, string, []float64, string, error) {
	dir, err := os.MkdirTemp(w.root, "pass-")
	if err != nil {
		return nil, "", nil, "", err
	}
	var mu sync.Mutex
	starts := map[string]int64{}
	var lats []float64
	root := tr.Begin("campaign.run", 0, "")
	cfg := campaign.Config{
		Workers:    workers(),
		MaxRetries: 2,
		Builder: func(spec campaign.TrialSpec) (*core.System, error) {
			mu.Lock()
			if _, ok := starts[spec.ID]; !ok {
				starts[spec.ID] = tr.Now()
			}
			mu.Unlock()
			return campaign.BuildSystem(spec)
		},
		OnOutcome: func(out campaign.TrialOutcome) {
			end := tr.Now()
			mu.Lock()
			defer mu.Unlock()
			start := starts[out.ID]
			lats = append(lats, float64(end-start)/1e6)
			tr.Record("campaign.trial", root, out.ID, start, end)
		},
	}
	if persist {
		cfg.JournalPath = filepath.Join(dir, "journal.jsonl")
		cfg.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
	}
	rep, err := campaign.Run(cfg, w.specs)
	tr.End(root)
	if err != nil {
		return nil, "", nil, "", err
	}
	body, err := rep.JSON()
	if err != nil {
		return nil, "", nil, "", err
	}
	return rep, fmt.Sprintf("%x", sha256.Sum256(body)), lats, dir, nil
}

func (w *campaignW) run(tr *Tracer) (pass, error) {
	t0 := time.Now()
	rep, digest, lats, dir, err := w.runCampaign(tr, true)
	if err != nil {
		return pass{}, err
	}
	wall := time.Since(t0).Seconds()

	var attempts, cycles int64
	for _, t := range rep.Trials {
		attempts += int64(t.Attempts)
		if t.Result != nil {
			cycles += int64(t.Result.Cycles)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return pass{}, err
	}
	if w.lastDir != "" {
		if err := os.RemoveAll(w.lastDir); err != nil {
			return pass{}, err
		}
	}
	w.lastDir, w.lastDigest = dir, digest
	s := rep.Summary
	return pass{
		wall:      wall,
		latencies: lats,
		ops:       int64(len(w.specs)),
		failed:    int64(s.Hung + s.Crashed),
		out: Output{
			Digest: digest,
			Counters: map[string]int64{
				"campaign.trials":        int64(s.Trials),
				"campaign.attempts":      attempts,
				"campaign.ok":            int64(s.OK),
				"campaign.hung":          int64(s.Hung),
				"campaign.crashed":       int64(s.Crashed),
				"campaign.instructions":  int64(s.Instructions),
				"campaign.detected":      int64(s.Detected),
				"campaign.journal_bytes": fi.Size(),
				"ooo.sim_cycles":         cycles,
			},
		},
		rates: map[string]float64{
			"trials_per_s":    float64(s.Trials) / wall,
			"sim_kinst_per_s": float64(s.Instructions) / 1e3 / wall,
		},
	}, nil
}

// verify restores the last pass's journal and checkpoint: every trial
// must come back from disk, none re-run, with a byte-identical report.
func (w *campaignW) verify(c *checker) {
	if w.lastDir == "" {
		return
	}
	var mu sync.Mutex
	rerun := 0
	rep, err := campaign.Run(campaign.Config{
		Workers:        workers(),
		MaxRetries:     2,
		JournalPath:    filepath.Join(w.lastDir, "journal.jsonl"),
		CheckpointPath: filepath.Join(w.lastDir, "campaign.ckpt"),
		Restore:        true,
		OnOutcome: func(campaign.TrialOutcome) {
			mu.Lock()
			defer mu.Unlock()
			rerun++
		},
	}, w.specs)
	c.expect(err == nil, "campaign: restore: %v", err)
	if err != nil {
		return
	}
	body, err := rep.JSON()
	c.expect(err == nil, "campaign: restored report: %v", err)
	c.expect(rerun == 0, "campaign: restore re-ran %d trial(s)", rerun)
	c.expect(fmt.Sprintf("%x", sha256.Sum256(body)) == w.lastDigest, "campaign: restored report differs from the run's")
}

func (w *campaignW) layers(tr *Tracer, traced, untraced []pass, m map[string]float64) error {
	c := traced[0].out.Counters
	for _, k := range []string{"campaign.trials", "campaign.attempts", "campaign.hung", "campaign.crashed", "campaign.journal_bytes", "ooo.sim_cycles"} {
		m[k] = float64(c[k])
	}
	// persist_s: persisted and bare (no journal, no checkpoint) passes
	// of the grid alternate, the side that goes first swapping each
	// pair, so both see the same host conditions; persist_s is the
	// median of the paired differences.
	pairs := 5
	if w.cfg.Toy {
		pairs = 1
	}
	var diffs []float64
	for i := 0; i < pairs; i++ {
		var walls [2]float64 // persisted, bare
		for j := 0; j < 2; j++ {
			side := (i + j) % 2
			t0 := time.Now()
			_, digest, _, dir, err := w.runCampaign(NewTracer(false), side == 0)
			if err != nil {
				return err
			}
			walls[side] = time.Since(t0).Seconds()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if digest != traced[0].out.Digest {
				return fmt.Errorf("campaign report differs between persisted and bare passes")
			}
		}
		diffs = append(diffs, walls[0]-walls[1])
	}
	m["campaign.persist_s"] = median(diffs)
	var trialMs float64
	for _, p := range traced {
		for _, l := range p.latencies {
			trialMs += l
		}
	}
	m["bench.trial_share_of_wall"] = trialMs / 1e3 / (medianWall(traced) * float64(len(traced)) * float64(workers())) * 100
	spec := w.specs[0]
	for _, s := range w.specs {
		if s.Config.LeadSoftPerMCycle > 0 {
			spec = s
			break
		}
	}
	return probeLayers(tr, campaignGrid(w.cfg.Seed, w.cfg.Toy).Benches, w.cfg.Seed, window{0, spec.Config.Instructions}, spec, w.cfg.Toy, m)
}

func (w *campaignW) close() {
	if err := os.RemoveAll(w.root); err != nil {
		w.cfg.logf("campaign: cleanup: %v\n", err)
	}
}
