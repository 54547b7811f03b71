package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperOutputGolden pins the bytes of the full paper run: stdout and
// the -metrics JSON of `phantomlab -trials 20 -recovery 2m all` at the
// default seed. Every table, finding, defense and replay row goes into
// stdout, and the merged metrics go through obs.Merge, so a change meant
// to leave results alone (a faster fold, reused buffers) proves it here.
// Each constant is the first 16 hex digits of the SHA-256 of the bytes.
func TestPaperOutputGolden(t *testing.T) {
	const wantStdout, wantMetrics = "8b08afdf0e5d33e8", "bd73fff17d4f0246"
	dir := t.TempDir()
	stdoutPath := filepath.Join(dir, "stdout")
	metricsPath := filepath.Join(dir, "metrics.json")
	f, err := os.Create(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run([]string{"-trials", "20", "-recovery", "2m", "-metrics", metricsPath, "all"})
	os.Stdout = saved
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, path, want string }{
		{"stdout", stdoutPath, wantStdout},
		{"-metrics file", metricsPath, wantMetrics},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:])[:16]; got != c.want {
			t.Errorf("%s digest %s, want %s: the paper run's output changed. "+
				"If that is intended, update these constants in the same commit.",
				c.name, got, c.want)
		}
	}
}
