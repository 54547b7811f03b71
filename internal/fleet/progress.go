package fleet

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ProgressReport is a point-in-time view of a running campaign: shard and
// home completion, throughput, an ETA, and each model's outcome so far. It
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
	// PerModel is the Result's per-model summary over the shards landed
	// so far, sorted by model label.
	PerModel []ModelSummary `json:"perModel"`
}

// ProgressTracker keeps a campaign's last Progress for the live plane's
// /progress and /metrics and for phantomlab's stderr progress line.
//
// It sits on the wall-clock side of the sim/wall seam: the fleet package
// never reads a clock (phantomlint fences that), so the tracker is
// handed its start instant at construction and the current instant on
// every read. Writes arrive on the campaign's collector goroutine via
// Observe; reads may come from any goroutine (the HTTP handlers), so the
// state is mutex-guarded. The tracker folds nothing itself: every number
// it reports is read from the aggregator's own Partial.
type ProgressTracker struct {
	mu           sync.Mutex
	start        time.Time
	homesTotal   int
	last         Progress
	homesResumed int
}

// NewProgressTracker creates a tracker for a campaign over homesTotal
// homes, measuring elapsed time from start.
func NewProgressTracker(start time.Time, homesTotal int) *ProgressTracker {
	return &ProgressTracker{start: start, homesTotal: homesTotal}
}

// Observe records one observation. Its signature matches
// Campaign.Observe, so it can be wired directly or wrapped. The homes of
// a Resumed observation count toward completion but not toward the
// throughput rate — they cost this process nothing.
func (p *ProgressTracker) Observe(pr Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.last = pr
	if pr.Resumed {
		p.homesResumed = pr.Partial.Homes()
	}
}

// Metrics returns the metrics of the last observation: the aggregate of
// the shards landed so far, so every monotone sample is at most its final
// value in Result.Metrics. Empty before the first shard.
func (p *ProgressTracker) Metrics() obs.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last.Partial.Metrics
}

// ReportAt returns the progress as of now.
func (p *ProgressTracker) ReportAt(now time.Time) ProgressReport {
	p.mu.Lock()
	last, resumed := p.last, p.homesResumed
	p.mu.Unlock()
	r := ProgressReport{
		ShardsDone:   last.Partial.Shards(),
		ShardsTotal:  last.Total,
		HomesDone:    last.Partial.Homes(),
		HomesTotal:   p.homesTotal,
		HomesResumed: resumed,
		ElapsedSecs:  now.Sub(p.start).Seconds(),
		PerModel:     perModel(last.Partial.Metrics),
	}
	if r.ElapsedSecs > 0 {
		r.HomesPerSec = float64(r.HomesDone-resumed) / r.ElapsedSecs
		if remaining := p.homesTotal - r.HomesDone; remaining > 0 && r.HomesPerSec > 0 {
			r.ETASecs = float64(remaining) / r.HomesPerSec
		}
	}
	return r
}

// Line renders the report as the one-line stderr progress format:
//
//	fleet: shard 3/7  homes 192/400  412.3 homes/s  ETA 1s  C1 93%  P4 88%
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
