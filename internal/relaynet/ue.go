package relaynet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2dhb/internal/hbproto"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// UEApp is one registered heartbeat-producing app — the real-stack analog
// of the paper's Message Monitor, through which "app developers integrate
// the proposed D2D based framework into their existing apps" (Section
// IV-B) by declaring each app's heartbeat parameters.
type UEApp struct {
	// Name identifies the app.
	Name string
	// Period is the heartbeat interval.
	Period time.Duration
	// Expiry is the per-heartbeat expiration time (T_k).
	Expiry time.Duration
	// Pad is the nominal heartbeat size in bytes.
	Pad int
}

func (a UEApp) validate() error {
	if a.Period <= 0 || a.Expiry <= 0 {
		return fmt.Errorf("relaynet: app %q period/expiry must be positive (%v/%v)",
			a.Name, a.Period, a.Expiry)
	}
	return nil
}

// UEClientConfig parameterizes a UE client.
type UEClientConfig struct {
	// ID is the device id.
	ID string
	// App names the primary heartbeat-producing app.
	App string
	// Period is the primary app's heartbeat interval.
	Period time.Duration
	// Expiry is the primary app's per-heartbeat expiration time (T_k).
	Expiry time.Duration
	// Pad is the primary app's nominal heartbeat size in bytes.
	Pad int
	// ExtraApps registers additional apps on the same device, each with
	// its own heartbeat loop sharing the relay link and fallback path.
	ExtraApps []UEApp
	// RelayAddr is the relay's UE-side address. Empty means direct mode.
	RelayAddr string
	// FallbackRelayAddrs are additional relays tried in order when
	// RelayAddr is unreachable — the real-stack analog of the simulator's
	// nearest-relay matching with failover.
	FallbackRelayAddrs []string
	// ServerAddr is the presence server, used directly when no relay is
	// configured or as the fallback path.
	ServerAddr string
	// ResolveServer, when non-nil, re-resolves the direct-path server
	// address on every dial (e.g. by asking the cluster router for the
	// shard owning this UE's ID). With a resolver ServerAddr may be empty;
	// when both are set the resolver wins and ServerAddr is the fallback
	// for resolver failures.
	ResolveServer func() (string, error)
	// FeedbackTimeout is how long to wait for relay feedback before
	// resending directly. Zero selects Expiry plus a small grace.
	FeedbackTimeout time.Duration
	// Tracer receives structured events when non-nil (AtMs is Unix ms).
	Tracer trace.Tracer
	// Telemetry registers fleet-wide UE counters when non-nil. Metrics are
	// unlabeled by device: every client sharing a registry shares one set,
	// keeping cardinality flat for fleets of thousands.
	Telemetry *telemetry.Registry
	// Dial overrides every outbound dial (relay and direct paths); nil
	// selects net.Dial. Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
}

// dial resolves the dial hook.
func (c UEClientConfig) dial(network, addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(network, addr)
	}
	return net.Dial(network, addr)
}

func (c UEClientConfig) validate() error {
	if c.ID == "" {
		return errors.New("relaynet: empty ue id")
	}
	if c.Period <= 0 || c.Expiry <= 0 {
		return fmt.Errorf("relaynet: period/expiry must be positive (%v/%v)", c.Period, c.Expiry)
	}
	for _, a := range c.ExtraApps {
		if err := a.validate(); err != nil {
			return err
		}
	}
	if c.ServerAddr == "" && c.ResolveServer == nil {
		return errors.New("relaynet: empty server address")
	}
	return nil
}

// serverAddr resolves the direct-path target for one dial.
func (c UEClientConfig) serverAddr() string {
	if c.ResolveServer != nil {
		if a, err := c.ResolveServer(); err == nil && a != "" {
			return a
		}
	}
	return c.ServerAddr
}

// apps returns every registered app, primary first.
func (c UEClientConfig) apps() []UEApp {
	apps := make([]UEApp, 0, 1+len(c.ExtraApps))
	apps = append(apps, UEApp{Name: c.App, Period: c.Period, Expiry: c.Expiry, Pad: c.Pad})
	apps = append(apps, c.ExtraApps...)
	return apps
}

// UEClientStats aggregates a UE client's behaviour.
type UEClientStats struct {
	Generated       int
	ViaRelay        int
	Direct          int
	FallbackResends int
	// FeedbackAcks counts heartbeats settled by relay feedback, ServerAcks
	// those settled by a server ack on the direct path (direct sends and
	// fallback resends), and Lost those that missed every attempt or never
	// reached the wire. Each heartbeat lands in exactly one of the three;
	// heartbeats still in flight at Shutdown land in none.
	FeedbackAcks int
	ServerAcks   int
	Lost         int
	// RelayReconnects counts successful relay (re)connections, including
	// the initial one.
	RelayReconnects int
}

// ueInstruments holds the fleet-wide UE telemetry handles. The zero value
// is a valid no-op (nil handles).
type ueInstruments struct {
	generated *telemetry.Counter
	viaRelay  *telemetry.Counter
	direct    *telemetry.Counter
	fallbacks *telemetry.Counter
	acks      *telemetry.Counter
	dials     *telemetry.Counter
}

// UEClient periodically emits heartbeats, forwarding them through a relay
// when one is reachable and falling back to the server on feedback
// timeout.
type UEClient struct {
	cfg UEClientConfig
	ins ueInstruments

	pending *Pending

	mu      sync.Mutex
	relay   net.Conn
	direct  net.Conn
	stats   UEClientStats
	seq     uint64
	started bool
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewUEClient returns an unstarted client.
func NewUEClient(cfg UEClientConfig) (*UEClient, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	u := &UEClient{
		cfg:     cfg,
		pending: NewPending(),
		done:    make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		u.ins = ueInstruments{
			generated: reg.Counter("relaynet_ue_generated_total"),
			viaRelay:  reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "relay")),
			direct:    reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "direct")),
			fallbacks: reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "fallback")),
			acks:      reg.Counter("relaynet_ue_feedback_acks_total"),
			dials:     reg.Counter("relaynet_ue_relay_connects_total"),
		}
	}
	return u, nil
}

// Start begins the heartbeat loop. The first heartbeat goes out
// immediately.
func (u *UEClient) Start() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		return errors.New("relaynet: ue already started")
	}
	u.started = true
	u.mu.Unlock()
	u.dialRelay()
	u.mu.Lock()
	for _, app := range u.cfg.apps() {
		app := app
		u.wg.Add(1)
		go u.loop(app)
	}
	return nil
}

// dialRelay attempts to (re)establish a relay connection, trying the
// primary address and then each fallback in order. It is called at startup
// and again before any heartbeat that finds the relay link down — the
// real-time analog of the simulator UE re-scanning for relays each period.
func (u *UEClient) dialRelay() {
	if u.cfg.RelayAddr == "" && len(u.cfg.FallbackRelayAddrs) == 0 {
		return
	}
	u.mu.Lock()
	if u.closed || u.relay != nil {
		u.mu.Unlock()
		return
	}
	u.mu.Unlock()

	addrs := make([]string, 0, 1+len(u.cfg.FallbackRelayAddrs))
	if u.cfg.RelayAddr != "" {
		addrs = append(addrs, u.cfg.RelayAddr)
	}
	addrs = append(addrs, u.cfg.FallbackRelayAddrs...)
	for _, addr := range addrs {
		if u.dialOneRelay(addr) {
			return
		}
	}
}

// dialOneRelay tries a single relay address; it returns true on success.
func (u *UEClient) dialOneRelay(addr string) bool {
	conn, err := u.cfg.dial("tcp", addr)
	if err != nil {
		return false
	}
	if err := hbproto.WriteFrame(conn, &hbproto.Register{
		ID: u.cfg.ID, Role: hbproto.RoleUE, App: u.cfg.App,
		Period: u.cfg.Period, Expiry: u.cfg.Expiry,
	}); err != nil {
		_ = conn.Close()
		return false
	}
	if got := u.adopt(&u.relay, conn, u.feedbackAck); got != conn {
		return got != nil
	}
	u.mu.Lock()
	u.stats.RelayReconnects++
	u.mu.Unlock()
	u.ins.dials.Inc()
	return true
}

// adopt caches a freshly dialed conn in *slot (the relay or direct link)
// and starts its ack reader, which uncaches the link when it breaks. If the
// client closed or another heartbeat cached a link first, conn is closed
// and the cached link (nil once closed) is returned instead.
func (u *UEClient) adopt(slot *net.Conn, conn net.Conn, settle func(PendingEntry, time.Time)) net.Conn {
	u.mu.Lock()
	cur := *slot
	if u.closed {
		cur = nil
	} else if cur == nil {
		cur, *slot = conn, conn
		u.wg.Add(1)
		go func() {
			defer u.wg.Done()
			_ = u.pending.ReadAcks(conn, settle)
			u.mu.Lock()
			if *slot == conn {
				*slot = nil
			}
			u.mu.Unlock()
		}()
	}
	u.mu.Unlock()
	if cur != conn {
		_ = conn.Close()
	}
	return cur
}

// Stats returns a snapshot of the counters.
func (u *UEClient) Stats() UEClientStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// Shutdown stops the loop and closes connections.
func (u *UEClient) Shutdown() {
	u.mu.Lock()
	if u.closed || !u.started {
		u.mu.Unlock()
		return
	}
	u.closed = true
	close(u.done)
	if u.relay != nil {
		_ = u.relay.Close()
	}
	if u.direct != nil {
		_ = u.direct.Close()
	}
	u.mu.Unlock()
	u.wg.Wait()
}

func (u *UEClient) feedbackTimeout(expiry time.Duration) time.Duration {
	if u.cfg.FeedbackTimeout > 0 {
		return u.cfg.FeedbackTimeout
	}
	return expiry + expiry/10
}

// nextSeq allocates a device-wide sequence number (shared across apps so
// feedback refs stay unambiguous).
func (u *UEClient) nextSeq() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.seq++
	return u.seq
}

// loop runs one app's heartbeat schedule.
func (u *UEClient) loop(app UEApp) {
	defer u.wg.Done()
	ticker := time.NewTicker(app.Period)
	defer ticker.Stop()
	u.sendHeartbeat(u.nextSeq(), app)
	for {
		select {
		case <-u.done:
			return
		case <-ticker.C:
			u.sendHeartbeat(u.nextSeq(), app)
		}
	}
}

func (u *UEClient) sendHeartbeat(seq uint64, app UEApp) {
	hb := &hbproto.Heartbeat{
		Src: u.cfg.ID, Seq: seq, App: app.Name,
		Origin: time.Now(), Expiry: app.Expiry, Pad: app.Pad,
	}
	u.mu.Lock()
	u.stats.Generated++
	relay := u.relay
	u.mu.Unlock()
	u.ins.generated.Inc()
	trace.Emit(u.cfg.Tracer, trace.Event{
		AtMs: hb.Origin.UnixMilli(), Device: u.cfg.ID, Kind: trace.KindGenerated,
		App: hb.App, Seq: hb.Seq,
	})
	if relay == nil {
		// The relay link is down (or never came up): try to re-match
		// before falling back to the direct path.
		u.dialRelay()
		u.mu.Lock()
		relay = u.relay
		u.mu.Unlock()
	}

	ref := hbproto.Ref{Src: hb.Src, Seq: hb.Seq}
	timeout := u.feedbackTimeout(app.Expiry)
	if relay != nil {
		u.pending.Track(ref, hb, time.Now(), timeout, true)
		u.armExpiry(timeout)
		if err := hbproto.WriteFrame(relay, hb); err == nil {
			trace.Emit(u.cfg.Tracer, trace.Event{
				AtMs: time.Now().UnixMilli(), Device: u.cfg.ID, Kind: trace.KindD2DSend,
				App: hb.App, Seq: hb.Seq,
			})
			u.mu.Lock()
			u.stats.ViaRelay++
			u.mu.Unlock()
			u.ins.viaRelay.Inc()
			return
		}
		// The relay link is dead: drop the link and fall through to
		// direct, unless feedback already settled the heartbeat.
		u.mu.Lock()
		u.relay = nil
		u.mu.Unlock()
		_ = relay.Close()
		if !u.pending.Forget(ref) {
			return
		}
	}
	u.pending.Track(ref, hb, time.Now(), timeout, false)
	u.armExpiry(timeout)
	if !u.sendDirect(hb, false) && u.pending.Forget(ref) {
		u.mu.Lock()
		u.stats.Lost++
		u.mu.Unlock()
	}
}

// armExpiry judges the pending heartbeats once timeout has passed.
func (u *UEClient) armExpiry(timeout time.Duration) {
	time.AfterFunc(timeout, u.expire)
}

// expire runs when a heartbeat's feedback timeout passes: a first miss on
// the relay path resends directly over "cellular" and waits one more
// timeout; a second miss, or a miss on the direct path, loses the
// heartbeat.
func (u *UEClient) expire() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.wg.Add(1)
	u.mu.Unlock()
	defer u.wg.Done()
	resend, lost := u.pending.Expire(time.Now())
	if len(lost) > 0 {
		u.mu.Lock()
		u.stats.Lost += len(lost)
		u.mu.Unlock()
	}
	for _, e := range resend {
		u.armExpiry(e.Deadline.Sub(e.Sent))
		u.sendDirect(e.HB, true)
	}
}

// sendDirect transmits straight to the server, lazily maintaining one
// direct connection, and reports whether the heartbeat hit the wire. A
// write failure drops the cached connection and retries once with a
// freshly resolved dial: the cached conn may point at a presence shard that
// has since left the cluster, and a single stale connection must not cost
// the heartbeat its fallback delivery.
func (u *UEClient) sendDirect(hb *hbproto.Heartbeat, fallback bool) bool {
	var conn net.Conn
	for attempt := 0; attempt < 2; attempt++ {
		u.mu.Lock()
		conn = u.direct
		u.mu.Unlock()
		if conn == nil {
			addr := u.cfg.serverAddr()
			if addr == "" {
				return false
			}
			var err error
			conn, err = u.cfg.dial("tcp", addr)
			if err != nil {
				return false
			}
			if conn = u.adopt(&u.direct, conn, u.serverAck); conn == nil {
				return false
			}
		}
		if err := hbproto.WriteFrame(conn, hb); err == nil {
			break
		}
		u.mu.Lock()
		if u.direct == conn {
			u.direct = nil
		}
		u.mu.Unlock()
		_ = conn.Close()
		if attempt == 1 {
			return false
		}
	}
	kind, count, ins := trace.KindDirectSend, &u.stats.Direct, u.ins.direct
	if fallback {
		kind, count, ins = trace.KindFallback, &u.stats.FallbackResends, u.ins.fallbacks
	}
	trace.Emit(u.cfg.Tracer, trace.Event{
		AtMs: time.Now().UnixMilli(), Device: u.cfg.ID, Kind: kind,
		App: hb.App, Seq: hb.Seq,
	})
	u.mu.Lock()
	*count++
	u.mu.Unlock()
	ins.Inc()
	return true
}

// feedbackAck settles a heartbeat by relay feedback.
func (u *UEClient) feedbackAck(e PendingEntry, _ time.Time) {
	u.mu.Lock()
	u.stats.FeedbackAcks++
	u.mu.Unlock()
	u.ins.acks.Inc()
	trace.Emit(u.cfg.Tracer, trace.Event{
		AtMs: time.Now().UnixMilli(), Device: u.cfg.ID,
		Kind: trace.KindAck, Seq: e.Ref.Seq,
	})
}

// serverAck settles a heartbeat by a server ack on the direct path.
func (u *UEClient) serverAck(PendingEntry, time.Time) {
	u.mu.Lock()
	u.stats.ServerAcks++
	u.mu.Unlock()
}
