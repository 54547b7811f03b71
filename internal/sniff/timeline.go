package sniff

import (
	"sort"
	"time"

	"repro/internal/simtime"
)

// InferredMessage is one recognized IoT message in passively captured
// traffic: who generated it and what kind it is — the paper's Section II-C
// side-channel capability, which the active attacks consume.
type InferredMessage struct {
	At     simtime.Time
	Flow   FlowKey
	Origin string
	Kind   MsgKind
}

// Timeline classifies a capture's application records against identified
// flows: flowModels maps each flow to the device model identified for it
// (via IdentifyFlow). Unrecognized records are omitted. The result is
// sorted by time.
func (c *Classifier) Timeline(records []RecordMeta, flowModels map[FlowKey]string) []InferredMessage {
	var out []InferredMessage
	for _, r := range records {
		model, ok := flowModels[r.Flow]
		if !ok {
			continue
		}
		m, ok := c.ClassifyLen(model, r.Dir, r.WireLen)
		if !ok {
			continue
		}
		out = append(out, InferredMessage{At: r.At, Flow: r.Flow, Origin: m.Origin, Kind: m.Kind})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// minFlowScore is the least confidence at which IdentifyAllFlows
// attributes a flow to a model.
const minFlowScore = 0.5

// IdentifyAllFlows runs flow identification over a capture and returns the
// flows it could attribute with at least minFlowScore confidence.
func (c *Classifier) IdentifyAllFlows(cap *Capture) map[FlowKey]string {
	out := make(map[FlowKey]string)
	for _, flow := range cap.Flows() {
		model, score, ok := c.IdentifyFlow(cap.FlowRecords(flow))
		if ok && score >= minFlowScore {
			out[flow] = model
		}
	}
	return out
}

// CorrelationResult reports how often a cause message was followed by an
// effect message within a window — the attacker's automation-rule
// inference (the paper's Case 3: door-close events consistently followed
// by lock commands reveal the "lock on close" rule).
type CorrelationResult struct {
	CauseCount  int
	EffectCount int
	// Matched counts cause messages followed by an effect within Window.
	Matched int
	// MeanLag is the average cause-to-effect latency over matches.
	MeanLag time.Duration
}

// Confidence is the fraction of cause messages that produced an effect.
func (r CorrelationResult) Confidence() float64 {
	if r.CauseCount == 0 {
		return 0
	}
	return float64(r.Matched) / float64(r.CauseCount)
}

// Correlate measures the cause→effect pattern in a timeline.
func Correlate(timeline []InferredMessage, causeOrigin string, causeKind MsgKind, effectOrigin string, effectKind MsgKind, window time.Duration) CorrelationResult {
	var res CorrelationResult
	var lagTotal time.Duration
	for i, m := range timeline {
		switch {
		case m.Origin == effectOrigin && m.Kind == effectKind:
			res.EffectCount++
		case m.Origin == causeOrigin && m.Kind == causeKind:
			res.CauseCount++
			for _, e := range timeline[i+1:] {
				if e.At-m.At > window {
					break
				}
				if e.Origin == effectOrigin && e.Kind == effectKind {
					res.Matched++
					lagTotal += e.At - m.At
					break
				}
			}
		}
	}
	if res.Matched > 0 {
		res.MeanLag = lagTotal / time.Duration(res.Matched)
	}
	return res
}
