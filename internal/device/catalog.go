package device

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/tlssim"
)

// Catalog returns the 50-device roster of the paper's evaluation:
// 33 cloud-connected devices (Table I) and 17 HomeKit accessories paired
// with a local hub (Table II).
//
// Parameters stated in the paper's prose are encoded exactly:
//
//   - SmartThings hub: 31s on-idle keep-alive (40-byte requests), 16s
//     keep-alive timeout, no event/command timeout;
//   - Philips Hue bridge: 120s fixed keep-alive, 60s keep-alive timeout
//     (events delayable [60s, 180s]), 21s command timeout;
//   - Ring base station: 48-byte keep-alives, 986-byte contact events,
//     events delayable up to 60s;
//   - LIFX: sub-2s keep-alive interval (the traffic-cost example);
//   - SimpliSafe keypad: the only device with an event window under 30s;
//   - M7/C5-style on-demand sensors: windows beyond 2 minutes bounded only
//     by server-side idle timeouts (Finding 1);
//   - HomeKit accessories: unacknowledged events, unbounded delay.
//
// The remaining rows carry representative values consistent with the
// paper's aggregate claims (all 50 vulnerable; every event window ≥ 30s
// except the SimpliSafe keypad; command windows from several seconds to
// sub-minute). EXPERIMENTS.md marks which rows are prose-exact.
// The roster is static, so it is assembled once and shared: Catalog and
// Index return views that callers must treat as read-only. Per-home
// parameter overrides are separate Profile values (Profile.WithTimingJitter
// returns a copy) that a testbed consults before the catalog; nothing
// writes them into these shared views.
func Catalog() []Profile {
	catalogOnce.Do(buildCatalog)
	return catalogCache
}

var (
	catalogOnce  sync.Once
	catalogCache []Profile
	indexCache   map[string]Profile
)

func buildCatalog() {
	var out []Profile
	out = append(out, cloudHubs()...)
	out = append(out, hubChildren()...)
	out = append(out, wifiDirect()...)
	out = append(out, onDemand()...)
	out = append(out, homeKit()...)
	catalogCache = out
	indexCache = make(map[string]Profile, len(out))
	for _, p := range out {
		indexCache[p.Label] = p
	}
}

func cloudHubs() []Profile {
	return []Profile{
		{
			Label: "H1", Model: "SmartThings Hub v3", Vendor: "Samsung", Class: "hub",
			Transport: TransportMQTT, ServerDomain: "smartthings.com",
			KeepAlivePeriod: 31 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 16 * time.Second,
			EventLen:         208, KeepAliveLen: 40, CommandLen: 230,
			EventAttr: "status", EventValues: []string{"online"},
			AppDownloads: 10_000_000,
		},
		{
			Label: "H2", Model: "Philips Hue Bridge", Vendor: "Signify", Class: "bridge",
			Transport: TransportMQTT, ServerDomain: "meethue.com",
			KeepAlivePeriod: 120 * time.Second, KeepAlivePattern: proto.PatternFixed,
			KeepAliveTimeout: 60 * time.Second, CommandTimeout: 21 * time.Second,
			EventLen: 180, KeepAliveLen: 64, CommandLen: 470,
			EventAttr: "status", EventValues: []string{"online"},
			AppDownloads: 10_000_000,
		},
		{
			Label: "H3", Model: "Ring Alarm Base Station", Vendor: "Ring", Class: "hub",
			Transport: TransportMQTT, ServerDomain: "ring.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 30 * time.Second, CommandTimeout: 25 * time.Second,
			EventLen: 210, KeepAliveLen: 48, CommandLen: 320,
			EventAttr: "mode", EventValues: []string{"disarmed", "home", "away"},
			CommandAttr: "mode", AppDownloads: 10_000_000,
			CellularBackup: true,
		},
		{
			Label: "H4", Model: "Aqara Hub M2", Vendor: "Aqara", Class: "hub",
			Transport: TransportMQTT, ServerDomain: "aqara.com",
			KeepAlivePeriod: 60 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 20 * time.Second, CommandTimeout: 15 * time.Second,
			EventLen: 190, KeepAliveLen: 52, CommandLen: 260,
			EventAttr: "status", EventValues: []string{"online"},
			AppDownloads: 1_000_000,
		},
		{
			Label: "H5", Model: "August Connect Bridge", Vendor: "August", Class: "bridge",
			Transport: TransportHTTPLong, ServerDomain: "august.com",
			KeepAlivePeriod: 40 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 18 * time.Second, CommandTimeout: 16 * time.Second,
			EventLen: 200, KeepAliveLen: 44, CommandLen: 540,
			EventAttr: "status", EventValues: []string{"online"},
			AppDownloads: 1_000_000,
		},
	}
}

func hubChildren() []Profile {
	children := []struct {
		label, model, vendor, class, hub string
		eventLen, cmdLen                 int
		attr                             string
		values                           []string
		cmdAttr                          string
		downloads                        int
	}{
		{"C1", "SmartThings Multipurpose Sensor", "Samsung", "contact sensor", "H1", 1135, 0, "contact", []string{"open", "closed"}, "", 10_000_000},
		{"M1", "SmartThings Motion Sensor", "Samsung", "motion sensor", "H1", 1142, 0, "motion", []string{"active", "inactive"}, "", 10_000_000},
		{"P1", "SmartThings Arrival Sensor", "Samsung", "presence sensor", "H1", 1150, 0, "presence", []string{"present", "away"}, "", 10_000_000},
		{"S1", "SmartThings Button", "Samsung", "button", "H1", 1128, 0, "button", []string{"pushed", "held"}, "", 10_000_000},
		{"L2", "Philips Hue White A19", "Signify", "bulb", "H2", 420, 470, "switch", []string{"on", "off"}, "switch", 10_000_000},
		{"S2", "Philips Hue Dimmer Switch", "Signify", "button", "H2", 275, 0, "button", []string{"pushed", "held"}, "", 10_000_000},
		{"M2", "Philips Hue Motion Sensor", "Signify", "motion sensor", "H2", 290, 0, "motion", []string{"active", "inactive"}, "", 10_000_000},
		{"C2", "Ring Contact Sensor", "Ring", "contact sensor", "H3", 986, 0, "contact", []string{"open", "closed"}, "", 10_000_000},
		{"M3", "Ring Motion Detector", "Ring", "motion sensor", "H3", 1010, 0, "motion", []string{"active", "inactive"}, "", 10_000_000},
		{"K1", "Ring Alarm Keypad", "Ring", "keypad", "H3", 940, 960, "mode", []string{"disarmed", "home", "away"}, "mode", 10_000_000},
		{"C3", "Aqara Door & Window Sensor", "Aqara", "contact sensor", "H4", 410, 0, "contact", []string{"open", "closed"}, "", 1_000_000},
		{"M4", "Aqara Motion Sensor P1", "Aqara", "motion sensor", "H4", 418, 0, "motion", []string{"active", "inactive"}, "", 1_000_000},
		{"LK1", "August Smart Lock Pro", "August", "lock", "H5", 512, 540, "lock", []string{"locked", "unlocked"}, "lock", 1_000_000},
	}
	out := make([]Profile, 0, len(children))
	for _, c := range children {
		out = append(out, Profile{
			Label: c.label, Model: c.model, Vendor: c.vendor, Class: c.class,
			Transport: TransportViaHub, ViaHub: c.hub,
			EventLen: c.eventLen, CommandLen: c.cmdLen,
			EventAttr: c.attr, EventValues: c.values, CommandAttr: c.cmdAttr,
			AppDownloads: c.downloads,
		})
	}
	return out
}

func wifiDirect() []Profile {
	return []Profile{
		{
			Label: "CM1", Model: "Wyze Cam v3", Vendor: "Wyze", Class: "camera",
			Transport: TransportHTTPLong, ServerDomain: "wyze.com",
			KeepAlivePeriod: 20 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 15 * time.Second, EventTimeout: 45 * time.Second,
			CommandTimeout: 20 * time.Second,
			EventLen:       620, KeepAliveLen: 96, CommandLen: 300,
			EventAttr: "motion", EventValues: []string{"active", "inactive"},
			CommandAttr: "recording", AppDownloads: 5_000_000,
		},
		{
			Label: "CM2", Model: "Arlo Q", Vendor: "Arlo", Class: "camera",
			Transport: TransportHTTPLong, ServerDomain: "arlo.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternFixed,
			KeepAliveTimeout: 35 * time.Second, EventTimeout: 60 * time.Second,
			CommandTimeout: 25 * time.Second,
			EventLen:       680, KeepAliveLen: 88, CommandLen: 310,
			EventAttr: "motion", EventValues: []string{"active", "inactive"},
			CommandAttr: "recording", AppDownloads: 5_000_000,
		},
		{
			Label: "CM3", Model: "Blink Mini", Vendor: "Amazon", Class: "camera",
			Transport: TransportHTTPLong, ServerDomain: "blink.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 25 * time.Second, EventTimeout: 40 * time.Second,
			CommandTimeout: 30 * time.Second,
			EventLen:       590, KeepAliveLen: 84, CommandLen: 295,
			EventAttr: "motion", EventValues: []string{"active", "inactive"},
			CommandAttr: "recording", AppDownloads: 5_000_000,
		},
		{
			Label: "P2", Model: "Kasa Smart Plug HS103", Vendor: "TP-Link", Class: "plug",
			Transport: TransportMQTT, ServerDomain: "tplinkcloud.com",
			KeepAlivePeriod: 60 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 30 * time.Second, CommandTimeout: 12 * time.Second,
			EventLen: 340, KeepAliveLen: 72, CommandLen: 360,
			EventAttr: "switch", EventValues: []string{"on", "off"},
			CommandAttr: "switch", AppDownloads: 10_000_000,
		},
		{
			Label: "P3", Model: "Wemo Mini Smart Plug", Vendor: "Belkin", Class: "plug",
			Transport: TransportHTTPLong, ServerDomain: "wemo.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternFixed,
			KeepAliveTimeout: 32 * time.Second, EventTimeout: 35 * time.Second,
			CommandTimeout: 18 * time.Second,
			EventLen:       355, KeepAliveLen: 80, CommandLen: 370,
			EventAttr: "switch", EventValues: []string{"on", "off"},
			CommandAttr: "switch", AppDownloads: 1_000_000,
			// Legacy explicit-nonce TLS build, no anti-replay window, no
			// cloud dedup: captured records re-inject cleanly.
			ReplayMode: tlssim.ModeLegacyNonce,
		},
		{
			Label: "P4", Model: "Meross Smart Plug MSS110", Vendor: "Meross", Class: "plug",
			Transport: TransportMQTT, ServerDomain: "meross.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 20 * time.Second, CommandTimeout: 15 * time.Second,
			EventLen: 330, KeepAliveLen: 64, CommandLen: 345,
			EventAttr: "switch", EventValues: []string{"on", "off"},
			CommandAttr: "switch", AppDownloads: 1_000_000,
			// Legacy explicit-nonce TLS build with no replay defenses.
			ReplayMode: tlssim.ModeLegacyNonce,
		},
		{
			Label: "L1", Model: "LIFX Mini White", Vendor: "LIFX", Class: "bulb",
			Transport: TransportMQTT, ServerDomain: "lifx.com",
			// The paper's traffic-cost example: keep-alives under every 2s.
			KeepAlivePeriod: 2 * time.Second, KeepAlivePattern: proto.PatternFixed,
			KeepAliveTimeout: 35 * time.Second, CommandTimeout: 10 * time.Second,
			EventLen: 412, KeepAliveLen: 60, CommandLen: 420,
			EventAttr: "switch", EventValues: []string{"on", "off"},
			CommandAttr: "switch", AppDownloads: 1_000_000,
		},
		{
			Label: "L3", Model: "Kasa Smart Bulb KL110", Vendor: "TP-Link", Class: "bulb",
			Transport: TransportMQTT, ServerDomain: "tplinkcloud.com",
			KeepAlivePeriod: 60 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 30 * time.Second, CommandTimeout: 12 * time.Second,
			EventLen: 348, KeepAliveLen: 72, CommandLen: 365,
			EventAttr: "switch", EventValues: []string{"on", "off"},
			CommandAttr: "switch", AppDownloads: 10_000_000,
			// Legacy TLS build, but the firmware negotiates a DTLS-style
			// anti-replay window that silently drops re-injected records.
			ReplayMode: tlssim.ModeLegacyNonce, ReplayWindow: 64,
		},
		{
			Label: "K2", Model: "SimpliSafe Keypad (HS3)", Vendor: "SimpliSafe", Class: "keypad",
			Transport: TransportHTTPLong, ServerDomain: "simplisafe.com",
			KeepAlivePeriod: 25 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 20 * time.Second,
			// The one sub-30s event window in Table I.
			EventTimeout: 25 * time.Second, CommandTimeout: 20 * time.Second,
			EventLen: 510, KeepAliveLen: 76, CommandLen: 520,
			EventAttr: "mode", EventValues: []string{"off", "home", "away"},
			CommandAttr: "mode", AppDownloads: 1_000_000,
			// Null-cipher firmware, but defense in depth elsewhere: a
			// session replay window stops raw injection and the vendor cloud
			// discards duplicate events, so fresh-session replays die too.
			ReplayMode: tlssim.ModeNullCipher, ReplayWindow: 64,
			CloudDedup: true,
		},
		{
			Label: "T1", Model: "Ecobee3 Thermostat", Vendor: "Ecobee", Class: "thermostat",
			Transport: TransportHTTPLong, ServerDomain: "ecobee.com",
			KeepAlivePeriod: 30 * time.Second, KeepAlivePattern: proto.PatternFixed,
			KeepAliveTimeout: 40 * time.Second, EventTimeout: 60 * time.Second,
			CommandTimeout: 30 * time.Second,
			EventLen:       700, KeepAliveLen: 100, CommandLen: 710,
			EventAttr: "heating", EventValues: []string{"on", "off"},
			CommandAttr: "heating", AppDownloads: 1_000_000,
			// Null-cipher firmware with a per-session replay window: raw
			// re-injection on the live session is dropped, but the readable
			// capture replays from a fresh attacker session (no cloud dedup).
			ReplayMode: tlssim.ModeNullCipher, ReplayWindow: 64,
		},
		{
			Label: "SD1", Model: "Nest Protect", Vendor: "Google", Class: "smoke detector",
			Transport: TransportHTTPLong, ServerDomain: "nest.com",
			KeepAlivePeriod: 60 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 40 * time.Second, EventTimeout: 90 * time.Second,
			EventLen: 720, KeepAliveLen: 90,
			EventAttr: "smoke", EventValues: []string{"detected", "clear"},
			AppDownloads: 5_000_000,
		},
		{
			Label: "V1", Model: "LeakSmart Shut-off Valve", Vendor: "LeakSmart", Class: "valve",
			Transport: TransportMQTT, ServerDomain: "leaksmart.com",
			KeepAlivePeriod: 45 * time.Second, KeepAlivePattern: proto.PatternOnIdle,
			KeepAliveTimeout: 25 * time.Second, CommandTimeout: 20 * time.Second,
			EventLen: 280, KeepAliveLen: 56, CommandLen: 310,
			EventAttr: "valve", EventValues: []string{"open", "closed"},
			CommandAttr: "valve", AppDownloads: 100_000,
			// Legacy TLS build saved by its cloud: the vendor backend
			// discards duplicate events, so replays inject but never fire.
			ReplayMode: tlssim.ModeLegacyNonce, CloudDedup: true,
		},
	}
}

func onDemand() []Profile {
	mk := func(label, model, vendor, class, domain, attr string, values []string, eventLen, downloads int) Profile {
		return Profile{
			Label: label, Model: model, Vendor: vendor, Class: class,
			Transport: TransportHTTPOnDemand, ServerDomain: domain,
			// The device itself gives up after 30s, but the server accepts
			// the held event until its idle reaper fires — the >2min
			// windows of Finding 1.
			EventTimeout:      30 * time.Second,
			ServerIdleTimeout: 5 * time.Minute,
			EventLen:          eventLen,
			EventAttr:         attr, EventValues: values,
			AppDownloads: downloads,
		}
	}
	// Govee ships a null-cipher TLS build: its on-demand bursts are too
	// short-lived for raw re-injection, but the readable capture replays
	// from a fresh attacker session at the application layer.
	w1 := mk("W1", "Govee Water Leak Detector", "Govee", "water sensor", "govee.com", "water", []string{"wet", "dry"}, 440, 1_000_000)
	w1.ReplayMode = tlssim.ModeNullCipher
	return []Profile{
		mk("M7", "SmartLife WiFi Motion Sensor", "Tuya", "motion sensor", "tuya.com", "motion", []string{"active", "inactive"}, 470, 10_000_000),
		mk("C5", "SmartLife WiFi Contact Sensor", "Tuya", "contact sensor", "tuya.com", "contact", []string{"open", "closed"}, 455, 10_000_000),
		w1,
	}
}

func homeKit() []Profile {
	mk := func(label, model, vendor, class string, eventLen, cmdLen int, attr string, values []string, cmdAttr string) Profile {
		return Profile{
			Label: label, Model: model, Vendor: vendor, Class: class,
			Transport: TransportHAP, ServerDomain: "local",
			CommandTimeout: 10 * time.Second,
			EventLen:       eventLen, CommandLen: cmdLen,
			EventAttr: attr, EventValues: values, CommandAttr: cmdAttr,
			AppDownloads: 1_000_000,
		}
	}
	return []Profile{
		mk("A1", "Aqara Door & Window Sensor (HomeKit)", "Aqara", "contact sensor", 1345, 0, "contact", []string{"open", "closed"}, ""),
		mk("A2", "Aqara Motion Sensor (HomeKit)", "Aqara", "motion sensor", 1310, 0, "motion", []string{"active", "inactive"}, ""),
		mk("A3", "Aqara Wireless Mini Switch (HomeKit)", "Aqara", "button", 1453, 0, "button", []string{"pushed", "held"}, ""),
		mk("A4", "Philips Hue Dimmer (HomeKit)", "Signify", "button", 275, 0, "button", []string{"pushed", "held"}, ""),
		mk("A5", "Philips Hue Motion (HomeKit)", "Signify", "motion sensor", 290, 0, "motion", []string{"active", "inactive"}, ""),
		mk("A6", "Philips Hue White A19 (HomeKit)", "Signify", "bulb", 420, 423, "switch", []string{"on", "off"}, "switch"),
		mk("A7", "LIFX Mini White (HomeKit)", "LIFX", "bulb", 412, 415, "switch", []string{"on", "off"}, "switch"),
		mk("A8", "iHome iSP6X Smart Plug", "iHome", "plug", 341, 345, "switch", []string{"on", "off"}, "switch"),
		mk("A9", "Ecobee Smart Sensor", "Ecobee", "motion sensor", 679, 0, "motion", []string{"active", "inactive"}, ""),
		mk("A10", "Insignia Garage Controller", "Insignia", "garage controller", 129, 135, "door", []string{"open", "closed"}, "door"),
		mk("A11", "Arlo Q (HomeKit)", "Arlo", "camera", 200, 210, "motion", []string{"active", "inactive"}, "recording"),
		mk("A12", "Eve Door & Window", "Eve", "contact sensor", 980, 0, "contact", []string{"open", "closed"}, ""),
		mk("A13", "Eve Motion", "Eve", "motion sensor", 1010, 0, "motion", []string{"active", "inactive"}, ""),
		mk("A14", "Eve Energy Plug", "Eve", "plug", 870, 880, "switch", []string{"on", "off"}, "switch"),
		mk("A15", "Meross Smart Plug (HomeKit)", "Meross", "plug", 355, 360, "switch", []string{"on", "off"}, "switch"),
		mk("A16", "Nanoleaf Essentials Bulb", "Nanoleaf", "bulb", 402, 408, "switch", []string{"on", "off"}, "switch"),
		mk("A17", "Ecobee3 Lite (HomeKit)", "Ecobee", "thermostat", 700, 705, "heating", []string{"on", "off"}, "heating"),
	}
}

// Index returns the shared label→profile index. The map is built once and
// must not be modified.
func Index() map[string]Profile {
	catalogOnce.Do(buildCatalog)
	return indexCache
}

// Lookup returns the catalog profile with the given label.
func Lookup(label string) (Profile, error) {
	p, ok := Index()[label]
	if !ok {
		return Profile{}, fmt.Errorf("device: no catalog entry %q", label)
	}
	return p, nil
}

// CloudProfiles returns the Table I roster (cloud-connected devices,
// including hub-attached ones).
func CloudProfiles() []Profile {
	var out []Profile
	for _, p := range Catalog() {
		if p.Transport != TransportHAP {
			out = append(out, p)
		}
	}
	return out
}

// LocalProfiles returns the Table II roster (HomeKit accessories).
func LocalProfiles() []Profile {
	var out []Profile
	for _, p := range Catalog() {
		if p.Transport == TransportHAP {
			out = append(out, p)
		}
	}
	return out
}

// SessionProfile resolves the session-owning profile for p: hubs and
// direct devices own their sessions; via-hub devices ride their hub's.
func SessionProfile(p Profile, byLabel map[string]Profile) (Profile, error) {
	if p.Transport != TransportViaHub {
		return p, nil
	}
	hub, ok := byLabel[p.ViaHub]
	if !ok {
		return Profile{}, fmt.Errorf("device: %s references unknown hub %q", p.Label, p.ViaHub)
	}
	return hub, nil
}
