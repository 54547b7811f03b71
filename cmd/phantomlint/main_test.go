// End-to-end test of phantomlint: builds the real binary and runs it over
// a throwaway module, so packages are loaded through `go list -export`
// and facts cross from a dependency type-checked from source to an
// importer that sees it through export data.
package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a module named repro (the analyzers' scoping
// is path-based, so the fixture must live under the real module path)
// with a wall-clock helper in the exempt bench subtree and a simulation
// package laundering the clock through it. callSuffix ends the line of
// the laundering call.
func writeTestModule(t *testing.T, dir, callSuffix string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/bench/vthelp/vthelp.go": `// Package vthelp wraps the wall clock; bench code may.
package vthelp

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/vtprobe/probe.go": `// Package vtprobe is simulation-scoped and calls the launderer.
package vtprobe

import "repro/internal/bench/vthelp"

// Use smuggles wall-clock time into sim code.
func Use() int64 {
	return vthelp.Stamp()` + callSuffix + `
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// lint runs the binary over the patterns' packages of the module in dir,
// returning combined output and exit code.
func lint(t *testing.T, bin, dir string, patterns ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, patterns...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running phantomlint: %v\n%s", err, out)
	return "", 0
}

func TestEndToEndFactFlow(t *testing.T) {
	work := t.TempDir()
	bin := filepath.Join(work, "phantomlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phantomlint: %v\n%s", err, out)
	}

	// vtprobe sees vthelp only through export data, so the finding needs
	// Stamp's taint summary to travel from vthelp's pass to vtprobe's.
	// A run over vtprobe alone still analyzes vthelp, a dependency in the
	// same module, for its facts.
	mod := filepath.Join(work, "mod")
	writeTestModule(t, mod, "")
	const want = "call to vthelp.Stamp reads the wall clock (vthelp.Stamp → time.Now)"
	for _, pattern := range []string{"./...", "./internal/vtprobe/"} {
		out, code := lint(t, bin, mod, pattern)
		if code != 1 {
			t.Fatalf("laundered call, %s: exit %d, want 1:\n%s", pattern, code, out)
		}
		if !strings.Contains(out, want) {
			t.Errorf("laundered call, %s: output lacks %q:\n%s", pattern, want, out)
		}
	}

	// A justified allow on the call clears the run.
	writeTestModule(t, mod, " //lint:allow determinism -- fixture: calibration read")
	if out, code := lint(t, bin, mod, "./..."); code != 0 {
		t.Errorf("allowed call: exit %d, want 0:\n%s", code, out)
	}
}
