// Package ooo is a trace-driven, cycle-level model of the paper's
// out-of-order leading core (Table 1): 4-wide fetch/dispatch/commit, an
// 80-entry reorder buffer, 20/15-entry integer/FP issue queues, a
// 40-entry load/store queue, 4 integer ALUs, 2 integer multipliers, one
// FP ALU and one FP multiplier, a combined branch predictor with a
// 16K-set 2-way BTB and a 12-cycle misprediction redirect, 32 KB 2-way
// L1 caches (2-cycle D-cache) and a NUCA L2 with a 300-cycle memory
// behind it.
//
// The model executes the correct-path instruction stream produced by
// package trace. Branch mispredictions stall fetch until the branch
// resolves plus the redirect latency — the standard trace-driven
// approximation, which captures the timing cost of speculation without
// simulating wrong-path instructions.
package ooo

import (
	"fmt"

	"r3d/internal/bpred"
	"r3d/internal/cache"
	"r3d/internal/isa"
	"r3d/internal/nuca"
	"r3d/internal/trace"
)

// Config holds the microarchitectural parameters (defaults in Default).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int
	IFQSize       int
	ROBSize       int
	IQInt         int
	IQFP          int
	LSQSize       int

	IntALU  int
	IntMult int
	FPALU   int
	FPMult  int
	// LoadPorts/StorePorts bound memory issue per cycle; Table 4's via
	// budget implies two of each.
	LoadPorts  int
	StorePorts int

	// MispredictRedirect is the front-end redirect latency after a
	// mispredicted branch resolves (Table 1: 12 cycles).
	MispredictRedirect int

	// MemLatencyCycles is the first-chunk memory latency in core cycles
	// (Table 1: 300 cycles at 2 GHz; a frequency-scaled core sees
	// proportionally fewer cycles because the wall-clock latency is
	// unchanged, which is why the §3.3 thermal-constrained performance
	// loss is smaller than the frequency reduction).
	MemLatencyCycles int

	// TLBMissPenalty is the fill latency for I/D TLB misses.
	TLBMissPenalty int
}

// Default returns the Table 1 configuration.
func Default() Config {
	return Config{
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		IFQSize:       32,
		ROBSize:       80,
		IQInt:         20,
		IQFP:          15,
		LSQSize:       40,
		IntALU:        4,
		IntMult:       2,
		FPALU:         1,
		FPMult:        1,
		LoadPorts:     2,
		StorePorts:    2,

		MispredictRedirect: bpred.MispredictLatency,
		MemLatencyCycles:   nuca.MemoryLatency,
		TLBMissPenalty:     30,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("ooo: non-positive width")
	}
	if c.ROBSize <= 0 || c.IFQSize <= 0 || c.LSQSize <= 0 || c.IQInt <= 0 || c.IQFP <= 0 {
		return fmt.Errorf("ooo: non-positive queue size")
	}
	if c.IntALU <= 0 || c.LoadPorts <= 0 || c.StorePorts <= 0 {
		return fmt.Errorf("ooo: non-positive functional unit count")
	}
	if c.MemLatencyCycles < 0 || c.MispredictRedirect < 0 {
		return fmt.Errorf("ooo: negative latency")
	}
	return nil
}

// Activity counts microarchitectural events, consumed by the power model
// (accesses drive Wattch-style dynamic power with cc3 clock gating).
type Activity struct {
	Cycles         uint64
	Fetched        uint64
	Dispatched     uint64
	IssuedInt      uint64
	IssuedFP       uint64
	IssuedMem      uint64
	Committed      uint64
	BpredLookups   uint64
	ICacheAccesses uint64
	DCacheAccesses uint64
	L2Accesses     uint64
	RegReads       uint64
	RegWrites      uint64
}

// Stats is the result of a simulation window.
type Stats struct {
	Activity Activity

	Instructions uint64
	Mispredicts  uint64
	L1IMisses    uint64
	L1DMisses    uint64
	L2Misses     uint64
	L2HitLatSum  uint64
	L2Hits       uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Activity.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Activity.Cycles)
}

// L2MissesPer10k returns L2 misses per 10k committed instructions (the
// §3.3 metric: suite average 1.43 at 6 MB, 1.25 at 15 MB).
func (s Stats) L2MissesPer10k() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.Instructions) * 1e4
}

// MeanL2HitLatency returns the average observed L2 hit latency.
func (s Stats) MeanL2HitLatency() float64 {
	if s.L2Hits == 0 {
		return 0
	}
	return float64(s.L2HitLatSum) / float64(s.L2Hits)
}

const (
	stateWaiting = iota // in ROB, operands not ready
	stateIssued         // executing
	stateDone           // complete, awaiting commit
)

type robEntry struct {
	inst     isa.Inst
	state    uint8
	mispred  bool
	fp       bool
	complete uint64 // cycle at which result is available
	// deps identify producers by ROB index *and* sequence number; a
	// mismatch means the producer already committed (its slot may have
	// been reused by a younger instruction) and the operand is ready.
	dep1, dep2       int // ROB index, -1 if ready at dispatch
	dep1Seq, dep2Seq uint64
}

// InstSource supplies the committed-order instruction stream.
type InstSource interface {
	Next() isa.Inst
}

// Core is one out-of-order core instance.
type Core struct {
	cfg  Config
	src  InstSource
	pred *bpred.Predictor
	btb  *bpred.BTB
	l1i  *cache.Cache
	l1d  *cache.Cache
	itlb *cache.TLB
	dtlb *cache.TLB
	l2   *nuca.Cache

	cycle uint64
	stats Stats

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	ifq        []isa.Inst
	ifqMispred []bool
	ifqHead    int
	ifqTail    int
	ifqCount   int

	// lastWriter maps a register to the ROB index of its in-flight
	// producer, or -1 when the architectural value is ready.
	lastWriter [isa.NumRegs]int

	// fetchStallUntil blocks fetch until the given cycle (mispredict
	// redirect or I-cache miss).
	fetchStallUntil uint64
	// iqInt/iqFP/lsq track occupancy of the scheduling structures.
	iqInt, iqFP, lsq int

	// done marks that the instruction budget was consumed by fetch.
	fetchBudget uint64
	fetchedTot  uint64

	committedBuf []isa.Inst
}

// New builds a core over the given instruction source and L2. The L2 is
// passed in (rather than constructed) because the paper's models differ
// only in L2 organization and because the RMT system shares it.
func New(cfg Config, src InstSource, l2 *nuca.Cache) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:          cfg,
		src:          src,
		pred:         bpred.New(),
		btb:          bpred.NewBTB(),
		l1i:          cache.New(cache.L1I),
		l1d:          cache.New(cache.L1D),
		itlb:         cache.NewTLB("ITLB"),
		dtlb:         cache.NewTLB("DTLB"),
		l2:           l2,
		rob:          make([]robEntry, cfg.ROBSize),
		ifq:          make([]isa.Inst, cfg.IFQSize),
		ifqMispred:   make([]bool, cfg.IFQSize),
		fetchBudget:  ^uint64(0),
		committedBuf: make([]isa.Inst, 0, cfg.CommitWidth),
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	return c, nil
}

// ForBench builds the leading core every simulation window uses: the
// named synthetic workload's generator, seeded with seed, feeding a
// core with configuration cfg over a fresh NUCA L2 of organization l2
// (reach it through Core.L2).
func ForBench(bench string, seed int64, cfg Config, l2 nuca.Config) (*Core, error) {
	b, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(b.Profile, seed)
	if err != nil {
		return nil, err
	}
	return New(cfg, g, nuca.New(l2))
}

// Stats returns a copy of the statistics so far.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics while preserving microarchitectural
// state (caches, predictor, in-flight instructions). Experiments use it
// to discard warmup windows, mirroring the paper's use of Simpoint
// windows rather than whole-program runs.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// L2 returns the core's L2 cache.
func (c *Core) L2() *nuca.Cache { return c.l2 }

// PredictorStats returns branch predictor statistics.
func (c *Core) PredictorStats() bpred.PredStats { return c.pred.Stats() }

// L1DStats returns the data-cache statistics.
func (c *Core) L1DStats() cache.Stats { return c.l1d.Stats() }

// SetFetchBudget bounds the total number of instructions fetched; after
// the budget is exhausted the pipeline drains.
func (c *Core) SetFetchBudget(n uint64) { c.fetchBudget = n }

// Drained reports whether the fetch budget is exhausted and the pipeline
// is empty.
func (c *Core) Drained() bool {
	return c.fetchedTot >= c.fetchBudget && c.robCount == 0 && c.ifqCount == 0
}

// Step advances the core one cycle, committing at most commitBudget
// instructions (the RMT coupler uses this to model leading-thread stalls
// when the RVQ or StB is full). The returned slice is valid until the
// next call.
func (c *Core) Step(commitBudget int) []isa.Inst {
	c.cycle++
	c.stats.Activity.Cycles++

	committed := c.commit(commitBudget)
	c.issue()
	c.dispatch()
	c.fetch()
	return committed
}

// Run executes until n instructions commit (or the pipeline drains) and
// returns the statistics.
func (c *Core) Run(n uint64) Stats {
	c.SetFetchBudget(n)
	for c.stats.Instructions < n && !c.Drained() {
		c.Step(c.cfg.CommitWidth)
	}
	return c.stats
}

// --- pipeline stages -------------------------------------------------------

func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	var lastBlock uint64 = ^uint64(0)
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.ifqCount >= c.cfg.IFQSize || c.fetchedTot >= c.fetchBudget {
			return
		}
		in := c.src.Next()
		c.fetchedTot++
		c.stats.Activity.Fetched++

		// I-cache/ITLB per 64-byte fetch block.
		block := in.PC &^ 63
		if block != lastBlock {
			lastBlock = block
			c.stats.Activity.ICacheAccesses++
			if !c.itlb.Access(in.PC) {
				c.fetchStallUntil = c.cycle + uint64(c.cfg.TLBMissPenalty)
			}
			if hit, _ := c.l1i.Access(in.PC, false); !hit {
				c.stats.L1IMisses++
				lat, miss := c.l2.Access(block, false)
				c.noteL2(lat, miss)
				stall := uint64(lat)
				if miss {
					stall += uint64(c.cfg.MemLatencyCycles)
				}
				c.fetchStallUntil = c.cycle + stall
			}
		}

		// Branch prediction.
		if in.Op == isa.BranchCond {
			c.stats.Activity.BpredLookups++
			predTaken := c.pred.Lookup(in.PC)
			tgt, btbHit := c.btb.Lookup(in.PC)
			effTaken := predTaken && btbHit
			mispred := effTaken != in.Taken || (effTaken && tgt != in.Target)
			c.pred.Update(in.PC, predTaken, in.Taken)
			if in.Taken {
				c.btb.Update(in.PC, in.Target)
			}
			c.pushIFQ(in, mispred)
			if mispred {
				c.stats.Mispredicts++
				// Fetch stalls until the branch resolves; the resolve
				// path adds the redirect latency when the branch issues.
				c.fetchStallUntil = ^uint64(0) >> 1 // released at issue
				return
			}
			if in.Taken {
				// One taken branch per fetch cycle.
				return
			}
			continue
		}
		if in.Op == isa.BranchUncond {
			c.pushIFQ(in, false)
			return
		}
		c.pushIFQ(in, false)
	}
}

func (c *Core) pushIFQ(in isa.Inst, mispred bool) {
	c.ifq[c.ifqTail] = in
	c.ifqMispred[c.ifqTail] = mispred
	c.ifqTail = (c.ifqTail + 1) % c.cfg.IFQSize
	c.ifqCount++
}

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DispatchWidth && c.ifqCount > 0 && c.robCount < c.cfg.ROBSize; n++ {
		in := c.ifq[c.ifqHead]
		mispred := c.ifqMispred[c.ifqHead]
		fp := in.Op.IsFP()
		// Scheduling-structure occupancy.
		if in.Op.IsMem() {
			if c.lsq >= c.cfg.LSQSize {
				return
			}
		}
		if fp {
			if c.iqFP >= c.cfg.IQFP {
				return
			}
		} else if c.iqInt >= c.cfg.IQInt {
			return
		}

		c.ifqHead = (c.ifqHead + 1) % c.cfg.IFQSize
		c.ifqCount--

		e := &c.rob[c.robTail]
		*e = robEntry{inst: in, state: stateWaiting, mispred: mispred, fp: fp, dep1: -1, dep2: -1}
		if !in.Src1.IsZero() {
			if w := c.lastWriter[in.Src1]; w >= 0 {
				e.dep1, e.dep1Seq = w, c.rob[w].inst.Seq
			}
		}
		if !in.Src2.IsZero() {
			if w := c.lastWriter[in.Src2]; w >= 0 {
				e.dep2, e.dep2Seq = w, c.rob[w].inst.Seq
			}
		}
		if in.HasDest() {
			c.lastWriter[in.Dest] = c.robTail
		}
		c.robTail = (c.robTail + 1) % c.cfg.ROBSize
		c.robCount++

		if in.Op.IsMem() {
			c.lsq++
		}
		if fp {
			c.iqFP++
		} else {
			c.iqInt++
		}
		c.stats.Activity.Dispatched++
		c.stats.Activity.RegReads += 2
	}
}

func (c *Core) ready(e *robEntry) bool {
	return c.depReady(e.dep1, e.dep1Seq) && c.depReady(e.dep2, e.dep2Seq)
}

func (c *Core) depReady(idx int, seq uint64) bool {
	if idx < 0 {
		return true
	}
	p := &c.rob[idx]
	if p.inst.Seq != seq {
		// Producer committed; its slot belongs to a younger instruction.
		return true
	}
	return p.state == stateDone || (p.state == stateIssued && p.complete <= c.cycle)
}

func (c *Core) issue() {
	slots := c.cfg.IssueWidth
	alu, mul, fpa, fpm := c.cfg.IntALU, c.cfg.IntMult, c.cfg.FPALU, c.cfg.FPMult
	loads, stores := c.cfg.LoadPorts, c.cfg.StorePorts

	for n, idx := 0, c.robHead; n < c.robCount; n, idx = n+1, (idx+1)%c.cfg.ROBSize {
		e := &c.rob[idx]
		if e.state == stateIssued && e.complete <= c.cycle {
			// Writeback: release the scheduling-structure entry even
			// when no issue slots remain this cycle.
			e.state = stateDone
			if e.inst.Op.IsMem() {
				c.lsq--
			}
			if e.fp {
				c.iqFP--
			} else {
				c.iqInt--
			}
			continue
		}
		if slots == 0 || e.state != stateWaiting || !c.ready(e) {
			continue
		}
		// Functional unit availability.
		switch e.inst.Op {
		case isa.IntALU, isa.BranchCond, isa.BranchUncond:
			if alu == 0 {
				continue
			}
			alu--
		case isa.IntMult:
			if mul == 0 {
				continue
			}
			mul--
		case isa.FPALU:
			if fpa == 0 {
				continue
			}
			fpa--
		case isa.FPMult:
			if fpm == 0 {
				continue
			}
			fpm--
		case isa.Load:
			if loads == 0 {
				continue
			}
			loads--
		case isa.Store:
			if stores == 0 {
				continue
			}
			stores--
		}
		slots--
		lat := uint64(e.inst.Op.Latency())
		if e.inst.Op == isa.Load {
			lat += c.loadLatency(e.inst.Addr)
			c.stats.Activity.IssuedMem++
		} else if e.inst.Op == isa.Store {
			// Stores complete at issue; the write drains at commit.
			c.stats.Activity.IssuedMem++
		} else if e.fp {
			c.stats.Activity.IssuedFP++
		} else {
			c.stats.Activity.IssuedInt++
		}
		e.state = stateIssued
		e.complete = c.cycle + lat
		if e.inst.HasDest() {
			c.stats.Activity.RegWrites++
		}
		if e.mispred {
			// Redirect the front end after resolution.
			c.fetchStallUntil = e.complete + uint64(c.cfg.MispredictRedirect)
		}
	}
}

// loadLatency returns the additional cycles beyond address generation
// for a load: 2-cycle L1D hit, plus L2 and memory on misses.
func (c *Core) loadLatency(addr uint64) uint64 {
	c.stats.Activity.DCacheAccesses++
	var extra uint64
	if !c.dtlb.Access(addr) {
		extra = uint64(c.cfg.TLBMissPenalty)
	}
	hit, _ := c.l1d.Access(addr, false)
	if hit {
		return extra + uint64(cache.L1D.LatencyCycles)
	}
	c.stats.L1DMisses++
	lat, miss := c.l2.Access(addr, false)
	c.noteL2(lat, miss)
	total := extra + uint64(cache.L1D.LatencyCycles+lat)
	if miss {
		total += uint64(c.cfg.MemLatencyCycles)
	}
	return total
}

func (c *Core) noteL2(lat int, miss bool) {
	c.stats.Activity.L2Accesses++
	if miss {
		c.stats.L2Misses++
	} else {
		c.stats.L2Hits++
		c.stats.L2HitLatSum += uint64(lat)
	}
}

func (c *Core) commit(budget int) []isa.Inst {
	c.committedBuf = c.committedBuf[:0]
	if budget > c.cfg.CommitWidth {
		budget = c.cfg.CommitWidth
	}
	for n := 0; n < budget && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state == stateIssued && e.complete <= c.cycle {
			e.state = stateDone
			if e.inst.Op.IsMem() {
				c.lsq--
			}
			if e.fp {
				c.iqFP--
			} else {
				c.iqInt--
			}
		}
		if e.state != stateDone {
			break
		}
		// Stores write the cache at commit (the leading core commits
		// stores to the store buffer; the architectural write happens
		// after checking, but the cache-timing effect is modeled here).
		if e.inst.Op == isa.Store {
			c.stats.Activity.DCacheAccesses++
			c.dtlb.Access(e.inst.Addr) // fill charged, commit not stalled
			if hit, _ := c.l1d.Access(e.inst.Addr, true); !hit {
				c.stats.L1DMisses++
				lat, miss := c.l2.Access(e.inst.Addr, true)
				c.noteL2(lat, miss)
			}
		}
		// Clear register mapping if this entry is still the last writer.
		if e.inst.HasDest() && c.lastWriter[e.inst.Dest] == c.robHead {
			c.lastWriter[e.inst.Dest] = -1
		}
		c.committedBuf = append(c.committedBuf, e.inst)
		c.robHead = (c.robHead + 1) % c.cfg.ROBSize
		c.robCount--
		c.stats.Instructions++
		c.stats.Activity.Committed++
	}
	return c.committedBuf
}
