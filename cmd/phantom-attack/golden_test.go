package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestAttackOutputGolden pins the bytes phantom-attack prints: every case
// run with -trace at seed 1, which streams each TLS record crossing the
// hijacked bridges, and the -list table. The eleven traced outputs are
// hashed in case order as one stream. Each constant is the first 16 hex
// digits of the SHA-256 of the bytes.
func TestAttackOutputGolden(t *testing.T) {
	const (
		wantTraces = "f4a305b8bdcdb4d3"
		wantList   = "d37a9a4ced8bf826"
	)
	traces := sha256.New()
	for n := 1; n <= 11; n++ {
		traces.Write(captureRun(t, "-seed", "1", "-trace", strconv.Itoa(n)))
	}
	list := sha256.Sum256(captureRun(t, "-list"))
	for _, p := range []struct{ name, got, want string }{
		{"-trace 1..11", hex.EncodeToString(traces.Sum(nil))[:16], wantTraces},
		{"-list", hex.EncodeToString(list[:])[:16], wantList},
	} {
		if p.got != p.want {
			t.Errorf("%s digest %s, want %s: phantom-attack's output changed. "+
				"If that is intended, update these constants in the same commit.",
				p.name, p.got, p.want)
		}
	}
}

// captureRun runs the command with args and returns what it wrote to
// stdout.
func captureRun(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
