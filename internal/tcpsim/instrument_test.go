package tcpsim

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStackMetricsCountTraffic(t *testing.T) {
	e := newEnv(Config{})
	reg := obs.NewRegistry()
	e.client.Instrument(reg, "client")
	e.server.Instrument(reg, "server")

	cli, srv := e.connect(t, 443)
	if err := cli.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	cli.Close()
	e.clk.RunFor(time.Second)

	snap := reg.Snapshot()
	lc, ls := obs.L("host", "client"), obs.L("host", "server")
	if got := snap.Counter("tcpsim_conns_opened_total", lc); got != 1 {
		t.Fatalf("client conns_opened = %d, want 1", got)
	}
	if got := snap.Counter("tcpsim_conns_opened_total", ls); got != 1 {
		t.Fatalf("server conns_opened = %d, want 1", got)
	}
	// The obs counter and the per-conn stats agree.
	if got := snap.Counter("tcpsim_segments_sent_total", lc); got != cli.Stats().SegmentsSent {
		t.Fatalf("client segments_sent = %d, conn stats say %d", got, cli.Stats().SegmentsSent)
	}
	if got := snap.Counter("tcpsim_retransmits_total", lc); got != 0 {
		t.Fatalf("retransmits on a clean link = %d, want 0", got)
	}
	for _, host := range []obs.Label{lc, ls} {
		if got := snap.Counter("tcpsim_conns_closed_total", host, obs.L("cause", "graceful")); got != 1 {
			t.Fatalf("graceful closes for %v = %d, want 1", host, got)
		}
	}
	if srv.State() != StateClosed {
		t.Fatalf("server state = %v", srv.State())
	}
}

func TestRetransmitAndBackoffResetMetrics(t *testing.T) {
	e := newEnv(Config{RTOInitial: 100 * time.Millisecond})
	reg := obs.NewRegistry()
	e.client.Instrument(reg, "client")
	cli, _ := e.connect(t, 443)

	// Lose every frame so the first data segment must be retransmitted,
	// then heal the link and let the ACK reset the backoff state.
	e.seg.SetLossRate(1)
	if err := cli.Send([]byte("lossy")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(250 * time.Millisecond) // ~2 RTO firings
	e.seg.SetLossRate(0)
	e.clk.RunFor(time.Second)

	snap := reg.Snapshot()
	l := obs.L("host", "client")
	if got := snap.Counter("tcpsim_retransmits_total", l); got == 0 {
		t.Fatal("expected retransmissions under total loss")
	}
	if got := snap.Counter("tcpsim_backoff_resets_total", l); got != 1 {
		t.Fatalf("backoff_resets = %d, want 1", got)
	}
}

func TestTimeoutCauseMetric(t *testing.T) {
	e := newEnv(Config{RTOInitial: 50 * time.Millisecond, MaxRetries: 2})
	reg := obs.NewRegistry()
	e.client.Instrument(reg, "client")
	cli, _ := e.connect(t, 443)

	e.seg.SetLossRate(1)
	var closeErr error
	cli.OnClose = func(err error) { closeErr = err }
	if err := cli.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(10 * time.Second)

	if closeErr != ErrTimeout {
		t.Fatalf("close error = %v, want ErrTimeout", closeErr)
	}
	got := reg.Snapshot().Counter("tcpsim_conns_closed_total",
		obs.L("host", "client"), obs.L("cause", "timeout"))
	if got != 1 {
		t.Fatalf("timeout closes = %d, want 1", got)
	}
}

func TestKeepAliveProbeMetric(t *testing.T) {
	cfg := Config{
		EnableKeepAlive:   true,
		KeepAliveIdle:     time.Second,
		KeepAliveInterval: 500 * time.Millisecond,
		KeepAliveProbes:   3,
	}
	e := newEnv(cfg)
	reg := obs.NewRegistry()
	e.client.Instrument(reg, "client")
	cli, _ := e.connect(t, 443)

	e.clk.RunFor(2 * time.Second) // idle past KeepAliveIdle
	snap := reg.Snapshot()
	l := obs.L("host", "client")
	if got := snap.Counter("tcpsim_keepalive_probes_total", l); got == 0 {
		t.Fatal("expected keep-alive probes after idle period")
	}
	if got := snap.Counter("tcpsim_keepalive_probes_total", l); got != cli.Stats().ProbesSent {
		t.Fatalf("probe metric %d != conn stats %d", got, cli.Stats().ProbesSent)
	}
}

func TestUninstrumentedStackUnaffected(t *testing.T) {
	e := newEnv(Config{})
	cli, _ := e.connect(t, 443)
	if err := cli.Send([]byte("no registry attached")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if cli.Stats().SegmentsSent == 0 {
		t.Fatal("conn stats must work without a registry")
	}
}

// TestInstrumentAllocs guards what instrumenting a stack costs once its
// series are known to the process: handles are found by series id, come
// from chunks, and the callers' label slices stay on the stack. A testbed
// instruments one stack per device, so this is paid per device per home.
func TestInstrumentAllocs(t *testing.T) {
	e := newEnv(Config{})
	e.client.Instrument(obs.NewRegistry(), "client") // interns the series
	n := testing.AllocsPerRun(100, func() {
		e.client.Instrument(obs.NewRegistry(), "client")
	})
	if n > 16 {
		t.Fatalf("Instrument into a fresh registry made %.0f allocations, want at most 16", n)
	}
}
