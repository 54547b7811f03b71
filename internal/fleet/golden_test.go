package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCampaignOutputGolden pins the bytes six campaigns write, so a change
// meant to leave every simulated stream alone (a faster queue, reused
// buffers) proves it without hashing outputs by hand. The cdelay case runs
// the command branch of delayTrial over both HAP and cloud command windows;
// the three replay cases run each injection mode over the same population,
// so a swapped mode mapping moves a digest. Each constant is the first 16
// hex digits of the SHA-256 of Result.WriteJSON.
func TestCampaignOutputGolden(t *testing.T) {
	offline, err := ParseSpec([]byte(`{"attack":"offline","holdSecs":3600}`))
	if err != nil {
		t.Fatal(err)
	}
	cdelay, err := ParseSpec([]byte(`{"attack":"cdelay","targets":{"classes":["plug","bulb","lock","thermostat","garage controller","camera"],"perHome":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	replaySpec := func(mode string) Spec {
		s, err := ParseSpec([]byte(`{"attack":"replay","targets":{"classes":["plug","thermostat","water sensor"],"perHome":2},"replay":{"mode":"` + mode + `"}}`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name  string
		spec  Spec
		homes int
		want  string
	}{
		{"default-64", DefaultSpec(), 64, "a13dc1cfd1077645"},
		{"offline-hour-16", offline, 16, "429da42b5650134c"},
		{"cdelay-64", cdelay, 64, "80cf7f3c5a018296"},
		{"replay-auto-64", replaySpec(ReplayModeAuto), 64, "62d0c53362210297"},
		{"replay-raw-64", replaySpec(ReplayModeRaw), 64, "0e8362e46b969ec6"},
		{"replay-app-64", replaySpec(ReplayModeApp), 64, "a0228684ee130d65"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Campaign{Spec: tc.spec, Homes: tc.homes, Workers: 2, Seed: 1}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(resultJSON(t, res))
			if got := hex.EncodeToString(sum[:])[:16]; got != tc.want {
				t.Fatalf("output digest %s, want %s: the simulated streams changed. "+
					"If that is intended, update these constants and bump "+
					"checkpointVersion in the same commit, so no checkpoint "+
					"written before the change resumes into a result after it.",
					got, tc.want)
			}
		})
	}
}
