package sniff

import (
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/tlssim"
)

// MsgKind classifies a record's application meaning.
type MsgKind int

// Message kinds.
const (
	KindKeepAlive MsgKind = iota + 1
	KindEvent
	KindCommand
)

// String names the kind.
func (k MsgKind) String() string {
	switch k {
	case KindKeepAlive:
		return "keep-alive"
	case KindEvent:
		return "event"
	case KindCommand:
		return "command"
	default:
		return "unknown"
	}
}

// MsgSignature matches one message type of a device model on the wire.
type MsgSignature struct {
	// Origin is the device the message belongs to (a hub session carries
	// messages for several origins).
	Origin  string
	Kind    MsgKind
	Dir     Direction
	WireLen int
}

// ModelSignature is the traffic fingerprint of one session-owning device
// model, assembled offline by profiling an attacker-owned copy.
type ModelSignature struct {
	// Owner is the session-owning device label.
	Owner string
	// KeepAlivePeriod is the observed idle keep-alive interval.
	KeepAlivePeriod time.Duration
	// Messages lists the model's distinguishable records.
	Messages []MsgSignature
}

// wireLen converts an application-message pad length to the on-the-wire
// TLS record size an observer measures. The per-record overhead depends on
// the session's replay mode (explicit-sequence modes carry the sequence on
// the wire), which the session owner's hello negotiates for the whole
// session — children's messages ride the owner's records.
func wireLen(padLen int, mode tlssim.ReplayMode) int {
	return padLen + tlssim.ModeOverhead(mode)
}

// BuildSignature derives a model signature from ground-truth profiles (the
// attacker obtains the same numbers empirically from a lab device; see
// core.Profiler).
func BuildSignature(owner device.Profile, children []device.Profile) ModelSignature {
	sig := ModelSignature{Owner: owner.Label, KeepAlivePeriod: owner.KeepAlivePeriod}
	mode := owner.ReplayMode
	if owner.KeepAliveLen > 0 {
		sig.Messages = append(sig.Messages, MsgSignature{
			Origin: owner.Label, Kind: KindKeepAlive, Dir: DirClientToServer,
			WireLen: wireLen(owner.KeepAliveLen, mode),
		})
	}
	add := func(p device.Profile) {
		if p.EventLen > 0 {
			sig.Messages = append(sig.Messages, MsgSignature{
				Origin: p.Label, Kind: KindEvent, Dir: DirClientToServer,
				WireLen: wireLen(p.EventLen, mode),
			})
		}
		if p.CommandAttr != "" && p.CommandLen > 0 {
			sig.Messages = append(sig.Messages, MsgSignature{
				Origin: p.Label, Kind: KindCommand, Dir: DirServerToClient,
				WireLen: wireLen(p.CommandLen, mode),
			})
		}
	}
	add(owner)
	for _, c := range children {
		add(c)
	}
	return sig
}

// BuildCatalogSignatures assembles signatures for every session-owning
// model in the catalog. The catalog is static, so the result is computed
// once and shared; callers must treat it as read-only.
func BuildCatalogSignatures() []ModelSignature {
	catalogSigsOnce.Do(func() { catalogSigsCache = buildCatalogSignatures() })
	return catalogSigsCache
}

var (
	catalogSigsOnce  sync.Once
	catalogSigsCache []ModelSignature
)

func buildCatalogSignatures() []ModelSignature {
	byLabel := device.Index()
	childrenOf := make(map[string][]device.Profile)
	var owners []device.Profile
	for _, p := range device.Catalog() {
		if p.Transport == device.TransportViaHub {
			childrenOf[p.ViaHub] = append(childrenOf[p.ViaHub], p)
			continue
		}
		owners = append(owners, p)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Label < owners[j].Label })
	out := make([]ModelSignature, 0, len(owners))
	for _, o := range owners {
		children := childrenOf[o.Label]
		sort.Slice(children, func(i, j int) bool { return children[i].Label < children[j].Label })
		out = append(out, BuildSignature(byLabel[o.Label], children))
	}
	return out
}

// Classifier recognises models and message types from record metadata.
type Classifier struct {
	sigs map[string]ModelSignature
}

// NewClassifier indexes the given signatures.
func NewClassifier(sigs []ModelSignature) *Classifier {
	m := make(map[string]ModelSignature, len(sigs))
	for _, s := range sigs {
		m[s.Owner] = s
	}
	return &Classifier{sigs: m}
}

// CatalogClassifier returns a classifier over the full catalog's
// signatures. Classifiers are immutable after construction, so one shared
// instance serves every testbed.
func CatalogClassifier() *Classifier {
	catalogClassifierOnce.Do(func() {
		catalogClassifierCache = NewClassifier(BuildCatalogSignatures())
	})
	return catalogClassifierCache
}

var (
	catalogClassifierOnce  sync.Once
	catalogClassifierCache *Classifier
)

// Classify matches one record against a known model's signature.
func (c *Classifier) Classify(model string, r RecordMeta) (MsgSignature, bool) {
	return c.ClassifyLen(model, r.Dir, r.WireLen)
}

// ClassifyLen matches a direction and wire length against a model.
func (c *Classifier) ClassifyLen(model string, dir Direction, wire int) (MsgSignature, bool) {
	sig, ok := c.sigs[model]
	if !ok {
		return MsgSignature{}, false
	}
	for _, m := range sig.Messages {
		if m.Dir == dir && m.WireLen == wire {
			return m, true
		}
	}
	return MsgSignature{}, false
}

// IdentifyFlow scores every known model against a flow's records and
// returns the best match: the model whose signature explains the largest
// fraction of observed device-to-server application records (the server
// side carries generic acknowledgements that no signature covers), with
// keep-alive evidence required when the model has keep-alives. ok is
// false if nothing scores above zero.
func (c *Classifier) IdentifyFlow(records []RecordMeta) (string, float64, bool) {
	bestModel := ""
	bestScore := 0.0
	c2s := 0
	for _, r := range records {
		if r.Type == tlssim.RecordApplication && r.Dir == DirClientToServer {
			c2s++
		}
	}
	if c2s == 0 {
		return "", 0, false
	}
	for owner, sig := range c.sigs {
		matched := 0
		kaSeen := false
		for _, r := range records {
			if r.Type != tlssim.RecordApplication || r.Dir != DirClientToServer {
				continue
			}
			if m, ok := c.ClassifyLen(owner, r.Dir, r.WireLen); ok {
				matched++
				if m.Kind == KindKeepAlive {
					kaSeen = true
				}
			}
		}
		if sig.KeepAlivePeriod > 0 && !kaSeen {
			continue
		}
		score := float64(matched) / float64(c2s)
		if score > bestScore || (score == bestScore && owner < bestModel) {
			bestModel, bestScore = owner, score
		}
	}
	if bestScore == 0 {
		return "", 0, false
	}
	return bestModel, bestScore, true
}
