package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ModelProgress is one device model's running campaign outcome.
type ModelProgress struct {
	Model       string  `json:"model"`
	Trials      int     `json:"trials"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"successRate"`
}

// ProgressReport is a point-in-time view of a running campaign: shard and
// home completion, throughput, an ETA, and per-model running success. It
// is the JSON payload of the observability plane's /progress endpoint and
// the data behind phantomlab's stderr progress line — one computation, two
// renderings, so the two can never disagree.
type ProgressReport struct {
	ShardsDone  int     `json:"shardsDone"`
	ShardsTotal int     `json:"shardsTotal"`
	HomesDone   int     `json:"homesDone"`
	HomesTotal  int     `json:"homesTotal"`
	ElapsedSecs float64 `json:"elapsedSecs"`
	// HomesResumed counts homes restored from a checkpoint rather than run
	// in this process. They are part of HomesDone but excluded from the
	// rate: a 90%-resumed campaign reports the throughput of the homes it
	// is actually running, not a fantasy extrapolated from free work.
	HomesResumed int `json:"homesResumed,omitempty"`
	// HomesPerSec is the live-home rate — (HomesDone-HomesResumed) per
	// elapsed second — and 0 until any wall-clock time has elapsed.
	HomesPerSec float64 `json:"homesPerSec"`
	// ETASecs estimates remaining wall-clock seconds from the live rate;
	// 0 while the rate is unknown or once the campaign is done.
	ETASecs float64 `json:"etaSecs"`
	// PerModel is sorted by model label.
	PerModel []ModelProgress `json:"perModel"`
}

// ProgressTracker folds shard results into running campaign progress.
//
// It sits on the wall-clock side of the sim/wall seam: the fleet package
// never reads a clock (phantomlint fences that), so the tracker is
// handed its start instant at construction and the current instant on
// every read. Writes arrive on the campaign's collector goroutine via
// OnShard; reads may come from any goroutine (the /progress HTTP handler),
// so the state is mutex-guarded. The tracker observes results only — it
// cannot perturb aggregation.
type ProgressTracker struct {
	mu           sync.Mutex
	start        time.Time
	homesTotal   int
	shardsDone   int
	shardsTotal  int
	homesDone    int
	homesResumed int
	models       []string // sorted model labels
	trials       map[string]int
	successes    map[string]int
}

// NewProgressTracker creates a tracker for a campaign over homesTotal
// homes, measuring elapsed time from start.
func NewProgressTracker(start time.Time, homesTotal int) *ProgressTracker {
	return &ProgressTracker{
		start:      start,
		homesTotal: homesTotal,
		trials:     make(map[string]int),
		successes:  make(map[string]int),
	}
}

// OnShard folds one live shard result. Its signature matches
// Campaign.OnShard, so it can be wired directly or wrapped.
func (p *ProgressTracker) OnShard(s ShardResult, done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shardsDone = done
	p.shardsTotal = total
	p.homesDone += s.Homes
	for _, t := range s.Tallies {
		p.noteTally(t)
	}
}

// OnResume folds a checkpoint's resumed partial aggregate. Its signature
// matches Campaign.OnResume. Resumed homes count toward completion but
// not toward the throughput rate — they cost this process nothing.
func (p *ProgressTracker) OnResume(pt Partial, done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shardsDone = done
	p.shardsTotal = total
	homes := pt.Homes()
	p.homesDone += homes
	p.homesResumed += homes
	for _, t := range pt.Tallies {
		p.noteTally(t.ModelTally)
	}
	for _, s := range pt.Window {
		for _, t := range s.Tallies {
			p.noteTally(t)
		}
	}
}

// noteTally folds one model tally; the caller holds the mutex.
func (p *ProgressTracker) noteTally(t ModelTally) {
	if _, ok := p.trials[t.Model]; !ok {
		i := sort.SearchStrings(p.models, t.Model)
		p.models = append(p.models, "")
		copy(p.models[i+1:], p.models[i:])
		p.models[i] = t.Model
	}
	p.trials[t.Model] += t.Trials
	p.successes[t.Model] += t.Successes
}

// ReportAt returns the progress as of now.
func (p *ProgressTracker) ReportAt(now time.Time) ProgressReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := ProgressReport{
		ShardsDone:   p.shardsDone,
		ShardsTotal:  p.shardsTotal,
		HomesDone:    p.homesDone,
		HomesTotal:   p.homesTotal,
		HomesResumed: p.homesResumed,
		ElapsedSecs:  now.Sub(p.start).Seconds(),
	}
	if r.ElapsedSecs > 0 {
		r.HomesPerSec = float64(p.homesDone-p.homesResumed) / r.ElapsedSecs
		if remaining := p.homesTotal - p.homesDone; remaining > 0 && r.HomesPerSec > 0 {
			r.ETASecs = float64(remaining) / r.HomesPerSec
		}
	}
	for _, m := range p.models {
		mp := ModelProgress{Model: m, Trials: p.trials[m], Successes: p.successes[m]}
		if mp.Trials > 0 {
			mp.SuccessRate = float64(mp.Successes) / float64(mp.Trials)
		}
		r.PerModel = append(r.PerModel, mp)
	}
	return r
}

// LineAt renders the report as the one-line stderr progress format:
//
//	fleet: shard 3/7  homes 192/400  412.3 homes/s  ETA 1s  C1 93%  P4 88%
func (p *ProgressTracker) LineAt(now time.Time) string {
	return p.ReportAt(now).Line()
}

// Line renders the report in the stderr progress-line format.
func (r ProgressReport) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: shard %d/%d  homes %d/%d", r.ShardsDone, r.ShardsTotal, r.HomesDone, r.HomesTotal)
	if r.HomesResumed > 0 {
		fmt.Fprintf(&b, " (%d resumed)", r.HomesResumed)
	}
	if r.ElapsedSecs > 0 {
		fmt.Fprintf(&b, "  %.1f homes/s", r.HomesPerSec)
		if r.ETASecs > 0 {
			eta := time.Duration(r.ETASecs * float64(time.Second)).Round(time.Second)
			fmt.Fprintf(&b, "  ETA %v", eta)
		}
	}
	for _, m := range r.PerModel {
		if m.Trials > 0 {
			fmt.Fprintf(&b, "  %s %.0f%%", m.Model, 100*m.SuccessRate)
		}
	}
	return b.String()
}
