package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// progressShard is shard index's Partial: homes attacked homes whose
// registry recorded trials trials against model, successes of them
// successful.
func progressShard(index int, model string, homes, trials, successes int) Partial {
	reg := obs.NewRegistry()
	recordTrials(reg, model, successes, make([]time.Duration, trials)...)
	return registryPartial([]Span{{First: index, Last: index + 1}}, homes, reg)
}

// progressFeed folds shards through the campaign aggregator and returns
// the Progress the collector observes after each, for a range of total
// shards.
type progressFeed struct {
	t     *testing.T
	g     *aggregator
	total int
}

func newProgressFeed(t *testing.T, total int) *progressFeed {
	return &progressFeed{t: t, g: newAggregator(), total: total}
}

func (f *progressFeed) step(s Partial) Progress {
	if err := f.g.absorb(s); err != nil {
		f.t.Fatal(err)
	}
	return Progress{Partial: f.g.partial(), Total: f.total}
}

func TestProgressTrackerReport(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewProgressTracker(start, 100)
	feed := newProgressFeed(t, 5)
	p.Observe(feed.step(progressShard(0, "C1", 10, 20, 18)))
	p.Observe(feed.step(progressShard(1, "P4", 10, 8, 4)))

	r := p.ReportAt(start.Add(4 * time.Second))
	if r.ShardsDone != 2 || r.ShardsTotal != 5 || r.HomesDone != 20 || r.HomesTotal != 100 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if r.HomesPerSec != 5 {
		t.Fatalf("rate = %v, want 5", r.HomesPerSec)
	}
	if r.ETASecs != 16 {
		t.Fatalf("eta = %v, want 16 (80 homes at 5/s)", r.ETASecs)
	}
	if len(r.PerModel) != 2 || r.PerModel[0].Model != "C1" || r.PerModel[1].Model != "P4" {
		t.Fatalf("per-model not sorted: %+v", r.PerModel)
	}
	if r.PerModel[0].SuccessRate != 0.9 || r.PerModel[1].SuccessRate != 0.5 {
		t.Fatalf("success rates wrong: %+v", r.PerModel)
	}
}

// TestProgressLineFormat pins the stderr rendering — the same line format
// the CLI printed before the formatter was shared with /progress.
func TestProgressLineFormat(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewProgressTracker(start, 100)
	feed := newProgressFeed(t, 5)
	p.Observe(feed.step(progressShard(0, "P4", 10, 8, 4)))
	p.Observe(feed.step(progressShard(1, "C1", 10, 20, 18)))

	got := p.ReportAt(start.Add(4 * time.Second)).Line()
	want := "fleet: shard 2/5  homes 20/100  5.0 homes/s  ETA 16s  C1 90%  P4 50%"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}

	// Campaign complete: no ETA segment.
	done := NewProgressTracker(start, 10)
	done.Observe(newProgressFeed(t, 1).step(progressShard(0, "C1", 10, 20, 20)))
	line := done.ReportAt(start.Add(time.Second)).Line()
	if strings.Contains(line, "ETA") {
		t.Fatalf("completed campaign still shows ETA: %q", line)
	}
	if !strings.Contains(line, "C1 100%") {
		t.Fatalf("missing model segment: %q", line)
	}
}

// TestProgressTrackerResumedRate: homes restored from a checkpoint count
// toward completion but not toward the rate, so the ETA reflects the
// speed of this process rather than a fantasy extrapolated from free
// work. The resumed partial's metrics still feed the per-model breakdown.
func TestProgressTrackerResumedRate(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewProgressTracker(start, 100)
	reg := obs.NewRegistry()
	recordTrials(reg, "C1", 18, make([]time.Duration, 20)...)
	recordTrials(reg, "P4", 4, make([]time.Duration, 8)...)
	resumed := registryPartial([]Span{{First: 0, Last: 2}, {First: 3, Last: 4}}, 28, reg)
	feed := newProgressFeed(t, 10)
	if err := feed.g.absorb(resumed); err != nil {
		t.Fatal(err)
	}
	p.Observe(Progress{Partial: resumed, Total: 10, Resumed: true})
	p.Observe(feed.step(progressShard(2, "C1", 10, 10, 9)))
	p.Observe(feed.step(progressShard(4, "C1", 10, 10, 9)))

	r := p.ReportAt(start.Add(4 * time.Second))
	if r.HomesDone != 48 || r.HomesResumed != 28 {
		t.Fatalf("homes done/resumed = %d/%d, want 48/28", r.HomesDone, r.HomesResumed)
	}
	if r.ShardsDone != 5 || r.ShardsTotal != 10 {
		t.Fatalf("shards = %d/%d, want 5/10", r.ShardsDone, r.ShardsTotal)
	}
	// 20 live homes over 4s, not 48/4: resumed homes cost nothing here.
	if r.HomesPerSec != 5 {
		t.Fatalf("rate = %v, want 5 (live homes only)", r.HomesPerSec)
	}
	if want := float64(100-48) / 5; r.ETASecs != want {
		t.Fatalf("eta = %v, want %v", r.ETASecs, want)
	}
	if len(r.PerModel) != 2 || r.PerModel[0].Model != "C1" || r.PerModel[1].Model != "P4" {
		t.Fatalf("per-model missing resumed models: %+v", r.PerModel)
	}
	if r.PerModel[0].Trials != 40 || r.PerModel[1].Trials != 8 {
		t.Fatalf("resumed trials not folded: %+v", r.PerModel)
	}

	line := r.Line()
	if !strings.Contains(line, "homes 48/100 (28 resumed)") {
		t.Fatalf("line missing resumed segment: %q", line)
	}
	if !strings.Contains(line, "5.0 homes/s") {
		t.Fatalf("line rate not live-only: %q", line)
	}
}

func TestProgressTrackerZeroElapsed(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewProgressTracker(start, 100)
	p.Observe(newProgressFeed(t, 5).step(progressShard(0, "C1", 10, 1, 1)))
	r := p.ReportAt(start)
	if r.HomesPerSec != 0 || r.ETASecs != 0 {
		t.Fatalf("zero-elapsed report invented a rate: %+v", r)
	}
	if got := r.Line(); strings.Contains(got, "homes/s") {
		t.Fatalf("zero-elapsed line shows a rate: %q", got)
	}
}

// TestProgressTrackerConcurrent drives the wall-clock-plane shape under
// -race: the collector observes while /progress and /metrics readers
// report.
func TestProgressTrackerConcurrent(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewProgressTracker(start, 1000)
	feed := newProgressFeed(t, 100)
	steps := make([]Progress, 100)
	for i := range steps {
		steps[i] = feed.step(progressShard(i, "C1", 10, 5, 3))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = p.Metrics()
				rep := p.ReportAt(start.Add(time.Second))
				if rep.HomesDone%10 != 0 {
					t.Errorf("torn read: homesDone = %d", rep.HomesDone)
					return
				}
			}
		}()
	}
	for _, pr := range steps {
		p.Observe(pr)
	}
	close(done)
	wg.Wait()
	if got := p.ReportAt(start.Add(time.Second)).HomesDone; got != 1000 {
		t.Fatalf("homesDone = %d", got)
	}
}
