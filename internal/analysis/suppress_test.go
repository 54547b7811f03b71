package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// bothDirectives runs a case written for //lint:allow against
// //lint:allow and against //lint:bridge, which shares its grammar: the
// bridge form of a case is its text with "allow" spelled "bridge".
func bothDirectives(text string, fn func(prefix, text string)) {
	fn(allowPrefix, text)
	fn(bridgePrefix, strings.NewReplacer("allow", "bridge", "ALLOW", "BRIDGE").Replace(text))
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:allow maporder", []string{"maporder"}},
		{"//lint:allow maporder -- reason text", []string{"maporder"}},
		{"//lint:allow maporder,timerguard -- two at once", []string{"maporder", "timerguard"}},
		{"//lint:allow  maporder , timerguard", []string{"maporder", "timerguard"}},
		{"// lint:allow maporder", []string{"maporder"}},
		{"//lint:allow", nil}, // no analyzer named
		{"//lint:allow -- only reason", nil},
		{"//lint:allowx maporder", nil}, // prefix must be whole word
		{"// plain comment", nil},
		{"/*lint:allow maporder*/", nil}, // block comments are not directives
	}
	for _, c := range cases {
		bothDirectives(c.text, func(prefix, text string) {
			if got := parseDirective(prefix, text); !reflect.DeepEqual(got, c.want) {
				t.Errorf("parseDirective(%q, %q) = %v, want %v", prefix, text, got, c.want)
			}
		})
	}
}

func TestParseAllowMalformed(t *testing.T) {
	cases := []string{
		"//lint:allow ,",         // only separators
		"//lint:allow , , --",    // separators then reason marker
		"//lint:allow\t",         // whitespace, no names
		"//lint:allow --",        // bare reason marker
		"//lint: allow maporder", // space inside the prefix
		"//LINT:ALLOW maporder",  // directives are case-sensitive
	}
	for _, text := range cases {
		bothDirectives(text, func(prefix, text string) {
			if got := parseDirective(prefix, text); got != nil {
				t.Errorf("parseDirective(%q, %q) = %v, want nil", prefix, text, got)
			}
		})
	}
	// Each directive is blind to the other.
	if got := parseDirective(allowPrefix, "//lint:bridge determinism"); got != nil {
		t.Errorf("a bridge parsed as an allow: %v", got)
	}
	if got := parseDirective(bridgePrefix, "//lint:allow determinism"); got != nil {
		t.Errorf("an allow parsed as a bridge: %v", got)
	}
}

func TestParseAllowReasonless(t *testing.T) {
	// A reason is strongly encouraged but not required by the parser;
	// review, not tooling, enforces justification quality.
	bothDirectives("//lint:allow determinism", func(prefix, text string) {
		if got := parseDirective(prefix, text); !reflect.DeepEqual(got, []string{"determinism"}) {
			t.Errorf("reason-less %s = %v", prefix, got)
		}
	})
	bothDirectives("//lint:allow determinism,goroutineguard", func(prefix, text string) {
		if got := parseDirective(prefix, text); !reflect.DeepEqual(got, []string{"determinism", "goroutineguard"}) {
			t.Errorf("reason-less multi-analyzer %s = %v", prefix, got)
		}
	})
}

func TestCollectAllowsPlacement(t *testing.T) {
	const src = `package p

//lint:allow alpha -- above placement
func a() {}

func b() { //lint:allow beta,gamma -- same-line, two analyzers
}

//lint:allow delta
func gap() {
}
`
	bothDirectives(src, func(prefix, src string) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		d := collectDirectives(fset, []*ast.File{f})
		set, other := d.allow, d.bridge
		if prefix == bridgePrefix {
			set, other = d.bridge, d.allow
		}

		pos := func(line int) token.Position { return token.Position{Filename: "s.go", Line: line} }
		if !set.granted("alpha", pos(3)) || !set.granted("alpha", pos(4)) {
			t.Errorf("%s: directive must grant its own line and the next", prefix)
		}
		if set.granted("alpha", pos(5)) {
			t.Errorf("%s: directive reach must stop after one line", prefix)
		}
		if !set.granted("beta", pos(6)) || !set.granted("gamma", pos(6)) {
			t.Errorf("%s: same-line multi-analyzer grant failed", prefix)
		}
		if set.granted("beta", pos(4)) {
			t.Errorf("%s: analyzers must not leak across directives", prefix)
		}
		if !set.granted("delta", pos(10)) {
			t.Errorf("%s: reason-less directive must still grant", prefix)
		}
		if set.granted("epsilon", pos(10)) {
			t.Errorf("%s: unnamed analyzer must not be granted", prefix)
		}
		if other.granted("alpha", pos(4)) || other.granted("beta", pos(6)) {
			t.Errorf("%s: directive granted the other kind", prefix)
		}
	})
}

func TestPassAllowedSanitizerSeam(t *testing.T) {
	// Pass.Allowed is the seam fact producers use to treat a justified
	// suppression as a sanitizer (determinism drops the source from the
	// taint summary or the import from the NetFact). It must see the same
	// set the report filter uses.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", `package p

func f() {
	g() //lint:allow determinism -- charter exception

	g()
}

func g() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, dirs: collectDirectives(fset, []*ast.File{f})}

	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("want 2 calls, got %d", len(calls))
	}
	if !pass.Allowed("determinism", calls[0].Pos()) {
		t.Error("allowed call site not recognized")
	}
	if pass.Allowed("determinism", calls[1].Pos()) {
		t.Error("unallowed call site wrongly sanctioned")
	}
	if pass.Allowed("goroutineguard", calls[0].Pos()) {
		t.Error("suppression must not spill onto unnamed analyzers")
	}
}

func TestPassBridged(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", `package p

// seam reconciles wall time by charter.
//
//lint:bridge determinism -- calibration seam
func seam() {}

func policed() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, dirs: collectDirectives(fset, []*ast.File{f})}
	seam, policed := f.Decls[0].Pos(), f.Decls[1].Pos()

	if !pass.Bridged("determinism", seam) {
		t.Error("bridge directive above a declaration not recognized")
	}
	if pass.Bridged("goroutineguard", seam) {
		t.Error("bridge must not spill onto unnamed analyzers")
	}
	if pass.Bridged("determinism", policed) {
		t.Error("bridge reached past its declaration")
	}
	if pass.Allowed("determinism", seam) {
		t.Error("a bridge is not a suppression")
	}
}
