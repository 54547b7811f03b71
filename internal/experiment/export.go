package experiment

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
)

// Export DTOs: stable JSON shapes for downstream tooling (plots, diffing
// across runs). Durations are exported as seconds so spreadsheets and
// plotting libraries consume them directly.

// TableRowJSON is the export shape of a TableRow.
type TableRowJSON struct {
	Label     string `json:"label"`
	Model     string `json:"model"`
	Class     string `json:"class"`
	Transport string `json:"transport"`
	ViaHub    string `json:"viaHub,omitempty"`

	HasKeepAlive          bool    `json:"hasKeepAlive"`
	KeepAlivePeriodSecs   float64 `json:"keepAlivePeriodSecs,omitempty"`
	KeepAlivePattern      string  `json:"keepAlivePattern,omitempty"`
	KeepAliveTimeoutSecs  float64 `json:"keepAliveTimeoutSecs,omitempty"`
	EventTimeoutSecs      float64 `json:"eventTimeoutSecs,omitempty"`
	CommandTimeoutSecs    float64 `json:"commandTimeoutSecs,omitempty"`
	OnDemand              bool    `json:"onDemand,omitempty"`
	ServerIdleTimeoutSecs float64 `json:"serverIdleTimeoutSecs,omitempty"`

	EventDelaySecs      float64 `json:"eventDelaySecs"`
	EventDelayUnbounded bool    `json:"eventDelayUnbounded"`
	CommandDelaySecs    float64 `json:"commandDelaySecs,omitempty"`
	HasCommands         bool    `json:"hasCommands"`

	ParametersVerified bool   `json:"parametersVerified"`
	StealthOK          bool   `json:"stealthOk"`
	Error              string `json:"error,omitempty"`
}

func secs(d time.Duration) float64 { return d.Seconds() }

// ToJSON converts a measured row to its export shape.
func (r TableRow) ToJSON() TableRowJSON {
	out := TableRowJSON{
		Label:     r.Label,
		Model:     r.Model,
		Class:     r.Class,
		Transport: r.Transport,
		ViaHub:    r.ViaHub,

		HasKeepAlive:        r.Measured.HasKeepAlive,
		OnDemand:            r.Measured.OnDemand,
		EventDelaySecs:      secs(r.EventDelayAchieved),
		EventDelayUnbounded: r.EventDelayUnbounded,
		CommandDelaySecs:    secs(r.CommandDelayAchieved),
		HasCommands:         r.HasCommands,
		ParametersVerified:  r.ParametersVerified,
		StealthOK:           r.StealthOK,
	}
	if r.Measured.HasKeepAlive {
		out.KeepAlivePeriodSecs = secs(r.Measured.KeepAlivePeriod)
		out.KeepAlivePattern = r.Measured.Pattern.String()
		out.KeepAliveTimeoutSecs = secs(r.Measured.KeepAliveTimeout)
	}
	out.EventTimeoutSecs = secs(r.Measured.EventTimeout)
	out.CommandTimeoutSecs = secs(r.Measured.CommandTimeout)
	out.ServerIdleTimeoutSecs = secs(r.Measured.ServerIdleTimeout)
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// WriteRowsJSON writes rows as an indented JSON array.
func WriteRowsJSON(w io.Writer, rows []TableRow) error {
	out := make([]TableRowJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.ToJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MergedMetrics merges the per-row testbed snapshots into one table-wide
// snapshot: counters and histogram buckets sum across devices, gauge
// high-water marks take the per-run maximum.
func MergedMetrics(rows []TableRow) obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(rows))
	for _, r := range rows {
		snaps = append(snaps, r.Metrics)
	}
	return obs.Merge(snaps...)
}

// CaseResultJSON is the export shape of a Table III case outcome.
type CaseResultJSON struct {
	Case        int    `json:"case"`
	Type        string `json:"type"`
	Trigger     string `json:"trigger"`
	Condition   string `json:"condition,omitempty"`
	Action      string `json:"action"`
	Consequence string `json:"consequence"`

	BaselineConsequence bool   `json:"baselineConsequence"`
	BaselineDetail      string `json:"baselineDetail"`
	AttackConsequence   bool   `json:"attackConsequence"`
	AttackDetail        string `json:"attackDetail"`
	AttackAlarms        int    `json:"attackAlarms"`
	Succeeded           bool   `json:"succeeded"`
	Error               string `json:"error,omitempty"`
}

// ToJSON converts a case result to its export shape.
func (r CaseResult) ToJSON() CaseResultJSON {
	out := CaseResultJSON{
		Case:                r.Case.ID,
		Type:                r.Case.Type,
		Trigger:             r.Case.Trigger,
		Condition:           r.Case.Condition,
		Action:              r.Case.Action,
		Consequence:         r.Case.Consequence,
		BaselineConsequence: r.BaselineConsequence,
		BaselineDetail:      r.BaselineDetail,
		AttackConsequence:   r.AttackConsequence,
		AttackDetail:        r.AttackDetail,
		AttackAlarms:        r.AttackAlarms,
		Succeeded:           r.Succeeded(),
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// WriteCasesJSON writes case results as an indented JSON array.
func WriteCasesJSON(w io.Writer, results []CaseResult) error {
	out := make([]CaseResultJSON, 0, len(results))
	for _, r := range results {
		out = append(out, r.ToJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
