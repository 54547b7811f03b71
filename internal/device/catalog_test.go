package device

import (
	"testing"
	"time"

	"repro/internal/proto"
)

func TestCatalogHasFiftyDevices(t *testing.T) {
	cat := Catalog()
	if len(cat) != 50 {
		t.Fatalf("catalog size = %d, want 50", len(cat))
	}
	if got := len(CloudProfiles()); got != 33 {
		t.Fatalf("cloud roster = %d, want 33 (Table I)", got)
	}
	if got := len(LocalProfiles()); got != 17 {
		t.Fatalf("local roster = %d, want 17 (Table II)", got)
	}
}

func TestCatalogLabelsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range Catalog() {
		if p.Label == "" {
			t.Fatalf("profile %q has empty label", p.Model)
		}
		if seen[p.Label] {
			t.Fatalf("duplicate label %s", p.Label)
		}
		seen[p.Label] = true
	}
}

func TestCatalogStructurallySound(t *testing.T) {
	byLabel := Index()
	for _, p := range Catalog() {
		if p.Model == "" || p.Vendor == "" || p.Class == "" {
			t.Errorf("%s: missing identity fields", p.Label)
		}
		if p.EventAttr == "" || len(p.EventValues) == 0 {
			t.Errorf("%s: no reportable attribute", p.Label)
		}
		if p.EventLen <= 0 {
			t.Errorf("%s: no event length", p.Label)
		}
		switch p.Transport {
		case TransportViaHub:
			hub, ok := byLabel[p.ViaHub]
			if !ok {
				t.Errorf("%s: unknown hub %q", p.Label, p.ViaHub)
				continue
			}
			if !hub.IsHub() {
				t.Errorf("%s: via non-hub %s", p.Label, hub.Label)
			}
		case TransportMQTT, TransportHTTPLong:
			if p.KeepAlivePeriod <= 0 || p.KeepAliveTimeout <= 0 {
				t.Errorf("%s: long-lived transport without keep-alive parameters", p.Label)
			}
			if p.KeepAlivePattern != proto.PatternFixed && p.KeepAlivePattern != proto.PatternOnIdle {
				t.Errorf("%s: bad keep-alive pattern", p.Label)
			}
			if p.KeepAliveLen <= 0 {
				t.Errorf("%s: no keep-alive length", p.Label)
			}
			if p.ServerDomain == "" {
				t.Errorf("%s: no server domain", p.Label)
			}
		case TransportHTTPOnDemand:
			if p.EventTimeout <= 0 || p.ServerIdleTimeout <= 0 {
				t.Errorf("%s: on-demand device needs event + server-idle timeouts", p.Label)
			}
		case TransportHAP:
			if p.ServerDomain != "local" {
				t.Errorf("%s: HAP device must use the local domain", p.Label)
			}
		default:
			t.Errorf("%s: unknown transport", p.Label)
		}
		if p.CommandAttr != "" && p.Transport != TransportViaHub {
			if p.CommandLen <= 0 {
				t.Errorf("%s: commandable device without command length", p.Label)
			}
		}
	}
}

func TestPaperProseValuesEncodedExactly(t *testing.T) {
	byLabel := Index()
	st := byLabel["H1"]
	if st.KeepAlivePeriod != 31*time.Second || st.KeepAliveTimeout != 16*time.Second ||
		st.KeepAlivePattern != proto.PatternOnIdle || st.KeepAliveLen != 40 {
		t.Fatalf("SmartThings hub mismatch: %+v", st)
	}
	if st.EventTimeout != 0 {
		t.Fatal("SmartThings events must have no dedicated timeout")
	}
	hue := byLabel["H2"]
	if hue.KeepAlivePeriod != 120*time.Second || hue.KeepAlivePattern != proto.PatternFixed ||
		hue.KeepAliveTimeout != 60*time.Second || hue.CommandTimeout != 21*time.Second {
		t.Fatalf("Hue bridge mismatch: %+v", hue)
	}
	ring := byLabel["H3"]
	if ring.KeepAliveLen != 48 {
		t.Fatalf("Ring keep-alive len = %d, want 48", ring.KeepAliveLen)
	}
	if byLabel["C2"].EventLen != 986 {
		t.Fatalf("Ring contact event len = %d, want 986", byLabel["C2"].EventLen)
	}
	if byLabel["L1"].KeepAlivePeriod > 2*time.Second {
		t.Fatal("LIFX keep-alive must be sub-2s")
	}
}

func TestSessionProfileResolution(t *testing.T) {
	byLabel := Index()
	c2 := byLabel["C2"]
	sp, err := SessionProfile(c2, byLabel)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Label != "H3" {
		t.Fatalf("C2 session owner = %s, want H3", sp.Label)
	}
	h1 := byLabel["H1"]
	sp, err = SessionProfile(h1, byLabel)
	if err != nil || sp.Label != "H1" {
		t.Fatalf("hub should own its session: %v %v", sp.Label, err)
	}
	if _, err := SessionProfile(Profile{Label: "X", Transport: TransportViaHub, ViaHub: "GONE"}, byLabel); err == nil {
		t.Fatal("dangling hub reference should fail")
	}
}

func TestLookup(t *testing.T) {
	p, err := Lookup("H1")
	if err != nil || p.Label != "H1" {
		t.Fatalf("Lookup(H1) = %v, %v", p.Label, err)
	}
	if _, err := Lookup("ZZ"); err == nil {
		t.Fatal("unknown label should fail")
	}
}

func TestBodyCodec(t *testing.T) {
	b := EncodeBody("LK1", "lock", "unlocked")
	origin, attr, value, err := DecodeBody(b)
	if err != nil || origin != "LK1" || attr != "lock" || value != "unlocked" {
		t.Fatalf("decode = %s %s %s %v", origin, attr, value, err)
	}
	if _, _, _, err := DecodeBody([]byte("no separators")); err == nil {
		t.Fatal("malformed body should fail")
	}
	// Values may contain the separator; only the first two split.
	b = EncodeBody("D", "a", "x|y")
	_, _, v, err := DecodeBody(b)
	if err != nil || v != "x|y" {
		t.Fatalf("value with separator: %q %v", v, err)
	}
}

func TestTopicHelpers(t *testing.T) {
	if EventTopic("C2") != "C2/event" || CommandTopic("LK1") != "LK1/set" {
		t.Fatal("topic helpers wrong")
	}
}

// TestDeclaredLengthsFitEncodings: every profile's declared wire lengths
// must exceed the raw protocol encoding of its messages, or padding could
// not reach them and the fingerprint signatures would be wrong.
func TestDeclaredLengthsFitEncodings(t *testing.T) {
	byLabel := Index()
	for _, p := range Catalog() {
		owner, err := SessionProfile(p, byLabel)
		if err != nil {
			t.Fatal(err)
		}
		longestValue := ""
		for _, v := range p.EventValues {
			if len(v) > len(longestValue) {
				longestValue = v
			}
		}
		// Conservative upper bounds on raw encodings per transport: header
		// fields + topic/path + ids + body.
		rawEvent := 64 + len(p.Label) + len(p.EventAttr) + len(longestValue)
		if p.EventLen < rawEvent && p.EventLen > 0 {
			// The encoding itself would exceed the declared length.
			t.Errorf("%s: event length %d below raw encoding bound %d", p.Label, p.EventLen, rawEvent)
		}
		if p.CommandAttr != "" && p.CommandLen > 0 {
			rawCmd := 64 + len(p.Label) + len(p.CommandAttr) + len(longestValue)
			if p.CommandLen < rawCmd {
				t.Errorf("%s: command length %d below raw encoding bound %d", p.Label, p.CommandLen, rawCmd)
			}
		}
		if owner.KeepAliveLen > 0 && owner.KeepAliveLen < 16 {
			t.Errorf("%s: keep-alive length %d too small for any framing", owner.Label, owner.KeepAliveLen)
		}
	}
}
