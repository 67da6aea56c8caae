// Package bpred implements the branch predictor of the paper's Table 2: a
// hybrid of a 2K-entry gshare and a 2K-entry bimodal predictor arbitrated
// by a 1K-entry selector, plus a 2048-entry 4-way set-associative BTB.
//
// The simulator is trace-driven, so the predictor's job is to decide — per
// dynamic branch — whether the front end would have followed the correct
// path. Direction mispredictions and BTB misses on taken branches both
// redirect fetch when the branch resolves.
package bpred

// Counter is a 2-bit saturating counter. Values 0-1 predict not taken,
// 2-3 predict taken.
type Counter uint8

// Predict returns the counter's current direction prediction.
func (c Counter) Predict() bool { return c >= 2 }

// Update trains the counter toward the actual outcome.
func (c *Counter) Update(taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else {
		if *c > 0 {
			*c--
		}
	}
}

// Config sizes the predictor. All table sizes must be powers of two.
// Fields are declared in JSON key order, so json.Marshal writes the
// canonical encoding a content key hashes.
type Config struct {
	BTBAssoc        int // BTB associativity
	BTBEntries      int // total BTB entries
	BimodalEntries  int // bimodal table entries
	GshareEntries   int // pattern history table entries for gshare
	HistoryBits     int // global history length for gshare
	SelectorEntries int // chooser table entries
}

// DefaultConfig matches the paper's Table 2: hybrid 2K gshare, 2K bimodal,
// 1K selector; BTB 2048 entries 4-way.
func DefaultConfig() Config {
	return Config{
		GshareEntries:   2048,
		BimodalEntries:  2048,
		SelectorEntries: 1024,
		HistoryBits:     11,
		BTBEntries:      2048,
		BTBAssoc:        4,
	}
}

// Predictor is a hybrid direction predictor plus BTB. Not safe for
// concurrent use.
type Predictor struct {
	cfg      Config
	gshare   []Counter
	bimodal  []Counter
	selector []Counter // >=2 selects gshare, <2 selects bimodal
	history  uint64

	btbTags  []uint64 // 0 = invalid
	btbTgts  []uint64
	btbLRU   []uint8
	btbSets  int
	btbAssoc int

	// Stats
	Lookups      uint64
	DirMispreds  uint64
	BTBMisses    uint64
	TakenBridges uint64
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// New returns a predictor with the given configuration. It panics if any
// table size is not a positive power of two.
func New(cfg Config) *Predictor {
	for _, v := range []int{cfg.GshareEntries, cfg.BimodalEntries, cfg.SelectorEntries, cfg.BTBEntries, cfg.BTBAssoc} {
		if !isPow2(v) {
			panic("bpred: table sizes must be powers of two")
		}
	}
	p := &Predictor{
		cfg:      cfg,
		gshare:   make([]Counter, cfg.GshareEntries),
		bimodal:  make([]Counter, cfg.BimodalEntries),
		selector: make([]Counter, cfg.SelectorEntries),
		btbSets:  cfg.BTBEntries / cfg.BTBAssoc,
		btbAssoc: cfg.BTBAssoc,
	}
	p.btbTags = make([]uint64, cfg.BTBEntries)
	p.btbTgts = make([]uint64, cfg.BTBEntries)
	p.btbLRU = make([]uint8, cfg.BTBEntries)
	// Weakly taken start for bimodal mirrors common simulator practice.
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.selector {
		p.selector[i] = 2
	}
	return p
}

// Reset returns the predictor to its just-constructed state for cfg,
// reusing the existing tables when their sizes match. Validation matches
// New.
func (p *Predictor) Reset(cfg Config) {
	for _, v := range []int{cfg.GshareEntries, cfg.BimodalEntries, cfg.SelectorEntries, cfg.BTBEntries, cfg.BTBAssoc} {
		if !isPow2(v) {
			panic("bpred: table sizes must be powers of two")
		}
	}
	resize := func(s []Counter, n int) []Counter {
		if cap(s) < n {
			return make([]Counter, n)
		}
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	p.cfg = cfg
	p.gshare = resize(p.gshare, cfg.GshareEntries)
	p.bimodal = resize(p.bimodal, cfg.BimodalEntries)
	p.selector = resize(p.selector, cfg.SelectorEntries)
	p.history = 0
	if cap(p.btbTags) < cfg.BTBEntries {
		p.btbTags = make([]uint64, cfg.BTBEntries)
		p.btbTgts = make([]uint64, cfg.BTBEntries)
		p.btbLRU = make([]uint8, cfg.BTBEntries)
	} else {
		p.btbTags = p.btbTags[:cfg.BTBEntries]
		p.btbTgts = p.btbTgts[:cfg.BTBEntries]
		p.btbLRU = p.btbLRU[:cfg.BTBEntries]
		for i := range p.btbTags {
			p.btbTags[i], p.btbTgts[i], p.btbLRU[i] = 0, 0, 0
		}
	}
	p.btbSets = cfg.BTBEntries / cfg.BTBAssoc
	p.btbAssoc = cfg.BTBAssoc
	p.Lookups, p.DirMispreds, p.BTBMisses, p.TakenBridges = 0, 0, 0, 0
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.selector {
		p.selector[i] = 2
	}
}

// Result describes one prediction.
type Result struct {
	// PredTaken is the predicted direction.
	PredTaken bool
	// PredTarget is the BTB-provided target (0 on BTB miss).
	PredTarget uint64
	// BTBHit reports whether the BTB held the branch.
	BTBHit bool
}

// indices computes the three table indices for pc under current history.
func (p *Predictor) indices(pc uint64) (gi, bi, si int) {
	word := pc >> 2
	gi = int((word ^ p.history) & uint64(p.cfg.GshareEntries-1))
	bi = int(word & uint64(p.cfg.BimodalEntries-1))
	si = int(word & uint64(p.cfg.SelectorEntries-1))
	return
}

// Lookup predicts the branch at pc. It does not modify predictor state;
// call Update with the outcome afterwards (the simulator resolves branches
// out of order but trains in order at commit).
func (p *Predictor) Lookup(pc uint64) Result {
	gi, bi, si := p.indices(pc)
	var r Result
	if p.selector[si].Predict() {
		r.PredTaken = p.gshare[gi].Predict()
	} else {
		r.PredTaken = p.bimodal[bi].Predict()
	}
	set := int((pc >> 2) & uint64(p.btbSets-1))
	base := set * p.btbAssoc
	for w := 0; w < p.btbAssoc; w++ {
		if p.btbTags[base+w] == pc && pc != 0 {
			r.BTBHit = true
			r.PredTarget = p.btbTgts[base+w]
			break
		}
	}
	return r
}

// Update trains the predictor with the resolved outcome of the branch at
// pc and returns whether the front end would have mispredicted: a wrong
// direction, or a taken branch whose target the BTB could not supply.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) (mispredict bool) {
	p.Lookups++
	gi, bi, si := p.indices(pc)
	gPred := p.gshare[gi].Predict()
	bPred := p.bimodal[bi].Predict()
	var used bool
	if p.selector[si].Predict() {
		used = gPred
	} else {
		used = bPred
	}

	btbHit := false
	set := int((pc >> 2) & uint64(p.btbSets-1))
	base := set * p.btbAssoc
	hitWay := -1
	for w := 0; w < p.btbAssoc; w++ {
		if p.btbTags[base+w] == pc && pc != 0 {
			btbHit = true
			hitWay = w
			break
		}
	}

	mispredict = used != taken
	if taken && (!btbHit || p.btbTgts[base+hitWay] != target) {
		// Taken branch without a usable target also redirects fetch.
		mispredict = true
		p.TakenBridges++
	}
	if used != taken {
		p.DirMispreds++
	}
	if !btbHit {
		p.BTBMisses++
	}

	// Train direction tables.
	p.gshare[gi].Update(taken)
	p.bimodal[bi].Update(taken)
	if gPred != bPred {
		// Selector moves toward whichever component was right.
		p.selector[si].Update(gPred == taken)
	}
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << uint(p.cfg.HistoryBits)) - 1)

	// Train BTB on taken branches.
	if taken {
		if btbHit {
			p.btbTgts[base+hitWay] = target
			p.touchBTB(base, hitWay)
		} else {
			victim := 0
			for w := 1; w < p.btbAssoc; w++ {
				if p.btbLRU[base+w] < p.btbLRU[base+victim] {
					victim = w
				}
			}
			p.btbTags[base+victim] = pc
			p.btbTgts[base+victim] = target
			p.touchBTB(base, victim)
		}
	}
	return mispredict
}

// touchBTB marks way as most recently used within its set.
func (p *Predictor) touchBTB(base, way int) {
	if p.btbLRU[base+way] == 255 {
		for w := 0; w < p.btbAssoc; w++ {
			p.btbLRU[base+w] >>= 1
		}
	}
	max := uint8(0)
	for w := 0; w < p.btbAssoc; w++ {
		if p.btbLRU[base+w] > max {
			max = p.btbLRU[base+w]
		}
	}
	p.btbLRU[base+way] = max + 1
}

// MispredictRate returns the fraction of trained branches that redirected
// fetch, or 0 before any branch trained.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.DirMispreds) / float64(p.Lookups)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
