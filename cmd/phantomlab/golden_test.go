package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperOutputGolden pins the bytes of the full paper run,
// `phantomlab -trials 20 -recovery 2m all` at the default seed: its
// stdout, its -metrics JSON, and the text timeline of the same run with
// -trace. Every table, finding, defense and replay row goes into stdout,
// the merged metrics go through obs.Merge, and the timeline holds every
// flight-recorder event the traced runs recorded, so a change meant to
// leave results alone (a faster fold, reused buffers) proves it here.
// The traced run's -metrics file must be the untraced run's: turning the
// recorder on changes no metric. Each constant is the first 16 hex digits
// of the SHA-256 of the bytes.
func TestPaperOutputGolden(t *testing.T) {
	const (
		wantStdout   = "8b08afdf0e5d33e8"
		wantMetrics  = "3bbf2576f70958b0"
		wantTimeline = "37d056b62b17f944"
	)
	type pin struct{ name, path, want string }
	dir := t.TempDir()
	stdoutPath := filepath.Join(dir, "stdout")
	metricsPath := filepath.Join(dir, "metrics.json")
	tracedMetricsPath := filepath.Join(dir, "traced-metrics.json")
	timelinePath := filepath.Join(dir, "trace.txt")
	for _, c := range []struct {
		flags []string
		pins  []pin
	}{
		{
			flags: []string{"-metrics", metricsPath},
			pins:  []pin{{"-metrics file", metricsPath, wantMetrics}},
		},
		{
			flags: []string{"-metrics", tracedMetricsPath, "-trace", timelinePath, "-trace-format", "text"},
			pins: []pin{
				{"-metrics file", tracedMetricsPath, wantMetrics},
				{"-trace timeline", timelinePath, wantTimeline},
			},
		},
	} {
		f, err := os.Create(stdoutPath)
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-trials", "20", "-recovery", "2m"}, c.flags...)
		saved := os.Stdout
		os.Stdout = f
		err = run(append(args, "all"))
		os.Stdout = saved
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range append([]pin{{"stdout", stdoutPath, wantStdout}}, c.pins...) {
			data, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:])[:16]; got != p.want {
				t.Errorf("%v: %s digest %s, want %s: the paper run's output changed. "+
					"If that is intended, update these constants in the same commit.",
					c.flags, p.name, got, p.want)
			}
		}
	}
}
