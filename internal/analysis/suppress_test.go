package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

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
		if got := parseAllow(c.text); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
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
		"//lint:bridge detflow",  // a different directive, not allow
	}
	for _, text := range cases {
		if got := parseAllow(text); got != nil {
			t.Errorf("parseAllow(%q) = %v, want nil", text, got)
		}
	}
}

func TestParseAllowReasonless(t *testing.T) {
	// A reason is strongly encouraged but not required by the parser;
	// review, not tooling, enforces justification quality.
	if got := parseAllow("//lint:allow detflow"); !reflect.DeepEqual(got, []string{"detflow"}) {
		t.Errorf("reason-less directive = %v", got)
	}
	if got := parseAllow("//lint:allow detflow,goroutineguard"); !reflect.DeepEqual(got, []string{"detflow", "goroutineguard"}) {
		t.Errorf("reason-less multi-analyzer directive = %v", got)
	}
}

func TestCollectAllowsPlacement(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", `package p

//lint:allow alpha -- above placement
func a() {}

func b() { //lint:allow beta,gamma -- same-line, two analyzers
}

//lint:allow delta
func gap() {
}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set := collectAllows(fset, []*ast.File{f})

	pos := func(line int) token.Position { return token.Position{Filename: "s.go", Line: line} }
	if !set.suppressed("alpha", pos(3)) || !set.suppressed("alpha", pos(4)) {
		t.Error("directive must grant its own line and the next")
	}
	if set.suppressed("alpha", pos(5)) {
		t.Error("directive reach must stop after one line")
	}
	if !set.suppressed("beta", pos(6)) || !set.suppressed("gamma", pos(6)) {
		t.Error("same-line multi-analyzer grant failed")
	}
	if set.suppressed("beta", pos(4)) {
		t.Error("analyzers must not leak across directives")
	}
	// Fact-producing analyzers are suppressed by exact name like any
	// other; the taint sanitizer path reads the same set via
	// Pass.Allowed.
	if !set.suppressed("delta", pos(10)) {
		t.Error("reason-less directive must still grant")
	}
	if set.suppressed("epsilon", pos(10)) {
		t.Error("unnamed analyzer must not be granted")
	}
}

func TestPassAllowedSanitizerSeam(t *testing.T) {
	// Pass.Allowed is the seam fact producers use to treat a justified
	// suppression as a sanitizer (taint drops sources, wallclockboundary
	// drops the NetFact). It must see the same set the report filter uses.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", `package p

func f() {
	g() //lint:allow detflow -- charter exception

	g()
}

func g() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, allow: collectAllows(fset, []*ast.File{f})}

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
	if !pass.Allowed("detflow", calls[0].Pos()) {
		t.Error("allowed call site not recognized")
	}
	if pass.Allowed("detflow", calls[1].Pos()) {
		t.Error("unallowed call site wrongly sanctioned")
	}
	if pass.Allowed("simdeterminism", calls[0].Pos()) {
		t.Error("suppression must not spill onto unnamed analyzers")
	}
}
