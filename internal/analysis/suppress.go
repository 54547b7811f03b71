package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments.
//
// A finding is suppressed by a comment of the form
//
//	//lint:allow <analyzer>[,<analyzer>...] [-- reason]
//
// placed either on the same line as the finding or on the line directly
// above it. The analyzer list is exact names (no globs); everything after
// "--" is a free-form justification. The mechanism is deliberately narrow:
// one line of reach, named analyzers only, so a suppression can never
// silently swallow findings it was not written for.
//
// A //lint:bridge comment has the same grammar and the same reach. It
// marks the declaration that starts on its line or the next as a
// sanctioned seam between simulated and wall-clock time, which the named
// analyzer reads through Pass.Bridged.

const (
	allowPrefix  = "lint:allow"
	bridgePrefix = "lint:bridge"
)

// grants maps file name → line → set of analyzer names a directive names
// on that line.
type grants map[string]map[int]map[string]bool

func (g grants) granted(analyzer string, pos token.Position) bool {
	return g[pos.Filename][pos.Line][analyzer]
}

// grant records a directive's names at pos on its own line (same-line
// placement) and on the next line (placement directly above), so both
// placements resolve to simple line lookups.
func (g grants) grant(pos token.Position, names []string) {
	if len(names) == 0 {
		return
	}
	lines := g[pos.Filename]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		g[pos.Filename] = lines
	}
	for _, line := range [2]int{pos.Line, pos.Line + 1} {
		set := lines[line]
		if set == nil {
			set = make(map[string]bool)
			lines[line] = set
		}
		for _, n := range names {
			set[n] = true
		}
	}
}

// directives holds a package's //lint:allow and //lint:bridge grants.
type directives struct {
	allow, bridge grants
}

// collectDirectives scans every comment in the package for lint:allow
// and lint:bridge directives.
func collectDirectives(fset *token.FileSet, files []*ast.File) directives {
	d := directives{allow: make(grants), bridge: make(grants)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				d.allow.grant(pos, parseDirective(allowPrefix, c.Text))
				d.bridge.grant(pos, parseDirective(bridgePrefix, c.Text))
			}
		}
	}
	return d
}

// parseDirective extracts the analyzer names from one comment's text, or
// nil if it is not a directive with the given prefix.
func parseDirective(prefix, text string) []string {
	body, ok := strings.CutPrefix(text, "//")
	if !ok {
		return nil // /* */ comments are not directives
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, prefix)
	if !ok {
		return nil
	}
	// Directives require whitespace after the prefix ("lint:allowx" is not
	// a directive).
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return nil
	}
	rest = strings.TrimSpace(rest)
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}
