package relaynet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/sched"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// RelayAgentConfig parameterizes a relay agent.
type RelayAgentConfig struct {
	// ID is the relay's device id.
	ID string
	// App names the relay's own heartbeat app.
	App string
	// Period is the relay's own heartbeat period (the scheduling window
	// T).
	Period time.Duration
	// Expiry is the relay's own heartbeat expiration time.
	Expiry time.Duration
	// Pad is the relay's own heartbeat size in bytes.
	Pad int
	// Capacity is M, the per-period collection capacity.
	Capacity int
	// Tracer receives structured events when non-nil (AtMs is Unix ms).
	Tracer trace.Tracer
	// Dial overrides upstream (server) dialing; nil selects net.Dial.
	// Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
	// Listen overrides the UE-side listener construction; nil selects
	// net.Listen. Fault-injection hook.
	Listen func(network, addr string) (net.Listener, error)
	// ReconnectBase is the initial upstream redial backoff, doubled per
	// failed dial up to maxShardBackoff with ±50% seeded jitter so relay
	// fleets losing the same server do not stampede it in lockstep. Zero
	// selects 50 ms.
	ReconnectBase time.Duration
	// Seed seeds the backoff jitter RNG; zero derives a seed from ID, so
	// distinct relays jitter differently by default.
	Seed int64
	// Cluster is the upstream view: every flushed batch is partitioned by
	// the client's current ring epoch and each sub-batch goes to its
	// owning presence node over a per-node connection. Nil selects a
	// one-node view of the serverAddr passed to Start. A node that cannot
	// be reached costs only its own sub-batch (the affected UEs recover
	// through the feedback-timeout fallback); the relay never blocks its
	// scheduling loop on a dead node.
	Cluster *cluster.Client
	// Telemetry registers the agent's runtime metrics (batch sizes,
	// collect-to-flush latency, reconnect attempts, scheduler occupancy
	// and deadline slack) in the given registry. Nil disables telemetry.
	Telemetry *telemetry.Registry
}

func (c RelayAgentConfig) validate() error {
	if c.ID == "" {
		return errors.New("relaynet: empty relay id")
	}
	if c.Period <= 0 || c.Expiry <= 0 {
		return fmt.Errorf("relaynet: period/expiry must be positive (%v/%v)", c.Period, c.Expiry)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("relaynet: capacity must be positive, got %d", c.Capacity)
	}
	if c.ReconnectBase < 0 {
		return fmt.Errorf("relaynet: negative reconnect base %v", c.ReconnectBase)
	}
	return nil
}

// dial resolves the upstream dial hook.
func (c RelayAgentConfig) dial(network, addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(network, addr)
	}
	return net.Dial(network, addr)
}

// listen resolves the UE-side listen hook.
func (c RelayAgentConfig) listen(network, addr string) (net.Listener, error) {
	if c.Listen != nil {
		return c.Listen(network, addr)
	}
	return net.Listen(network, addr)
}

// RelayAgentStats aggregates a relay agent's behaviour.
type RelayAgentStats struct {
	UEConnections      int
	Collected          int
	RejectedClosed     int
	RejectedExpire     int
	Flushes            int
	Forwarded          int
	OwnHeartbeats      int
	FeedbacksSent      int
	Credits            int
	UpstreamReconnects int
	// ShardDials counts successful upstream dials (including each node's
	// first).
	ShardDials int
	// DroppedNoShard counts heartbeats abandoned because their owning
	// node was unreachable (or in dial backoff) at flush time. The UEs
	// recover through the feedback-timeout fallback.
	DroppedNoShard int
	// FeedbackWritesSaved counts UE feedback writes avoided by merging
	// refs from several server acks into one Feedback frame per UE per
	// event drain (each merge into an already-pending group is one write
	// the per-ack path would have issued).
	FeedbackWritesSaved int
}

// ueConn is one connected UE on the relay's "D2D" listener.
type ueConn struct {
	conn net.Conn
	id   string
}

// relayEvent is the main loop's input alphabet.
type relayEvent struct {
	// exactly one of ueMsg/ueClosed/ack/upErr is set
	ueMsg    hbproto.Message
	ueFrom   *ueConn
	ueClosed *ueConn
	ack      *hbproto.Ack
	upErr    error
	// upShard and upConn attribute an upstream error to the node
	// connection it broke, so the run loop can ignore errors from
	// connections it has already replaced.
	upShard string
	upConn  net.Conn
}

// RelayAgent collects heartbeats from UE connections and forwards them
// upstream in aggregated batches under the Algorithm 1 schedule, sending
// feedback to each UE once the server acknowledges the batch. Every flush
// fans out per owning node of the upstream view: one node for a single
// server, the ring's shards for a presence cluster.
type RelayAgent struct {
	cfg RelayAgentConfig

	mu      sync.Mutex
	ln      net.Listener
	upConns map[net.Conn]struct{} // live upstream conns, for Shutdown
	started bool
	closed  bool
	stats   RelayAgentStats

	events chan relayEvent
	done   chan struct{}
	wg     sync.WaitGroup

	// main-loop state (owned by run goroutine; Start sets it up before
	// the goroutine runs)
	upstream  *cluster.Client // the view every flush routes through
	policy    *sched.Nagle
	start     time.Time
	periodEnd time.Duration // policy time at which the current period ends
	seq       uint64
	ownHB     *hbproto.Heartbeat
	sources   map[hbproto.Ref]*ueConn
	ueConns   map[*ueConn]struct{}
	rng       *rand.Rand // backoff jitter; owned by run goroutine
	// ups maps node ID -> live upstream connection. downUntil/backoffCur
	// arm the per-node redial backoff so flush never hammers a dead node,
	// and everDialed distinguishes a reconnect from a node's first dial in
	// the stats.
	ups        map[string]net.Conn
	downUntil  map[string]time.Duration
	backoffCur map[string]time.Duration
	everDialed map[string]bool
	// collectedAt mirrors the policy's pending buffer with each message's
	// collect instant, so flush can histogram collect-to-flush latency.
	// Owned by the run goroutine, like the policy itself.
	collectedAt []time.Duration
	// pendingFB accumulates acked refs per UE connection across the acks
	// of one event drain; flushFeedback writes one Feedback frame per UE.
	// ackTouched is handleAck's per-call scratch for counting merges.
	// sendBuf/fbBuf/batchMsg/fbMsg are reusable encode state. All owned
	// by the run goroutine.
	pendingFB  map[*ueConn][]hbproto.Ref
	ackTouched map[*ueConn]bool
	sendBuf    []byte
	fbBuf      []byte
	batchMsg   hbproto.Batch
	fbMsg      hbproto.Feedback

	ins relayInstruments
}

// relayInstruments is the agent's live-telemetry handle block; every
// handle is nil (a no-op) without a configured registry.
type relayInstruments struct {
	collected      *telemetry.Counter
	feedbacks      *telemetry.Counter
	reconnectTries *telemetry.Counter
	reconnects     *telemetry.Counter
	shardDrops     *telemetry.Counter
	batchSize      *telemetry.Histogram
	collectToFlush *telemetry.Histogram
	// Wire-path coalescing: feedback frames written, per-ack feedback
	// writes saved by merging, refs per feedback frame, and bytes written
	// upstream per flush.
	fbFlushes  *telemetry.Counter
	fbSaved    *telemetry.Counter
	fbRefs     *telemetry.Histogram
	upBytesOut *telemetry.Counter
}

// NewRelayAgent returns an unstarted relay agent.
func NewRelayAgent(cfg RelayAgentConfig) (*RelayAgent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy, err := sched.NewNagle(cfg.Capacity, cfg.Period)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		// FNV-1a over the relay ID: distinct relays jitter differently
		// without any wall-clock dependence.
		h := uint64(14695981039346656037)
		for i := 0; i < len(cfg.ID); i++ {
			h = (h ^ uint64(cfg.ID[i])) * 1099511628211
		}
		seed = int64(h)
	}
	r := &RelayAgent{
		cfg:        cfg,
		upConns:    make(map[net.Conn]struct{}),
		events:     make(chan relayEvent),
		done:       make(chan struct{}),
		policy:     policy,
		sources:    make(map[hbproto.Ref]*ueConn),
		ueConns:    make(map[*ueConn]struct{}),
		ups:        make(map[string]net.Conn),
		downUntil:  make(map[string]time.Duration),
		backoffCur: make(map[string]time.Duration),
		everDialed: make(map[string]bool),
		pendingFB:  make(map[*ueConn][]hbproto.Ref),
		ackTouched: make(map[*ueConn]bool),
		rng:        rand.New(rand.NewSource(seed)),
	}
	if reg := cfg.Telemetry; reg != nil {
		rl := telemetry.L("relay", cfg.ID)
		r.ins = relayInstruments{
			collected:      reg.Counter("relaynet_relay_collected_total", rl),
			feedbacks:      reg.Counter("relaynet_relay_feedbacks_total", rl),
			reconnectTries: reg.Counter("relaynet_relay_reconnect_attempts_total", rl),
			reconnects:     reg.Counter("relaynet_relay_reconnects_total", rl),
			shardDrops:     reg.Counter("relaynet_relay_shard_drops_total", rl),
			batchSize:      reg.Histogram("relaynet_relay_batch_size", "msgs", 1, rl),
			collectToFlush: reg.Histogram("relaynet_relay_collect_to_flush_us", "us", 1, rl),
			fbFlushes:      reg.Counter("relaynet_relay_feedback_flushes_total", rl),
			fbSaved:        reg.Counter("relaynet_relay_feedback_writes_saved_total", rl),
			fbRefs:         reg.Histogram("relaynet_relay_feedback_refs_per_flush", "refs", 1, rl),
			upBytesOut:     reg.Counter("relaynet_relay_upstream_bytes_total", rl),
		}
		// The Algorithm 1 scheduler records its own occupancy-vs-capacity
		// and deadline-slack figures from the instants the agent injects —
		// telemetry never hands it the wall clock.
		kl := telemetry.L("policy", policy.Kind().String())
		policy.SetInstruments(&sched.Instruments{
			Occupancy:     reg.Histogram("sched_pending_occupancy", "msgs", 1, rl, kl),
			FlushSize:     reg.Histogram("sched_flush_size", "msgs", 1, rl, kl),
			FlushSlack:    reg.Histogram("sched_flush_slack_us", "us", 1, rl, kl),
			Capacity:      reg.Gauge("sched_capacity", rl, kl),
			RejectClosed:  reg.Counter("sched_rejects_total", telemetry.L("reason", "closed"), rl, kl),
			RejectExpired: reg.Counter("sched_rejects_total", telemetry.L("reason", "expired"), rl, kl),
		})
		reg.Gauge("sched_capacity", rl, kl).Set(int64(policy.Capacity()))
	}
	return r, nil
}

// register writes the relay's Register frame on a fresh upstream conn.
func (r *RelayAgent) register(conn net.Conn) error {
	return hbproto.WriteFrame(conn, &hbproto.Register{
		ID: r.cfg.ID, Role: hbproto.RoleRelay, App: r.cfg.App,
		Period: r.cfg.Period, Expiry: r.cfg.Expiry,
	})
}

// trackUp registers a live upstream conn for Shutdown and reserves its
// reader's slot in r.wg under the same lock, so a Shutdown racing Start
// never waits on a group it has not seen grow. False means the agent is
// already closing and the caller must discard the conn.
func (r *RelayAgent) trackUp(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.upConns[conn] = struct{}{}
	r.wg.Add(1)
	return true
}

// untrackUp closes and forgets a dead upstream conn.
func (r *RelayAgent) untrackUp(conn net.Conn) {
	_ = conn.Close()
	r.mu.Lock()
	delete(r.upConns, conn)
	r.mu.Unlock()
}

// Start listens for UE connections on listenAddr and connects upstream.
// Without a configured Cluster, serverAddr is the one presence server and
// the relay routes through a one-node view of it; with one, serverAddr
// must be empty. Start dials every node of the initial view and fails when
// none answers; a node lost later is redialed at flush time under its own
// backoff.
//
// The listen/dial/register sequence runs outside r.mu: these calls block
// on the network, and holding the agent lock across them would stall
// Addr, Stats and Shutdown for a full dial timeout when the server is
// unreachable. The started flag reserves the slot up front so a
// concurrent Start fails fast instead of racing the setup.
func (r *RelayAgent) Start(listenAddr, serverAddr string) error {
	up := r.cfg.Cluster
	if up != nil && serverAddr != "" {
		return errors.New("relaynet: Cluster and serverAddr are mutually exclusive")
	}
	if up == nil {
		var err error
		if up, err = cluster.NewOneNodeClient(serverAddr); err != nil {
			return fmt.Errorf("relaynet: relay server address: %w", err)
		}
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("relaynet: relay already started")
	}
	r.started = true
	r.mu.Unlock()

	fail := func(err error) error {
		r.mu.Lock()
		r.started = false
		r.mu.Unlock()
		return err
	}
	ln, err := r.cfg.listen("tcp", listenAddr)
	if err != nil {
		return fail(fmt.Errorf("relaynet: relay listen: %w", err))
	}

	// The clock origin precedes the first dial: shardConn stamps backoff
	// deadlines in policy time.
	r.upstream, r.start = up, time.Now()
	view := up.View()
	reached := 0
	for _, n := range view.Config.Nodes {
		if r.shardConn(n.ID, view) != nil {
			reached++
		}
	}
	if reached == 0 {
		_ = ln.Close()
		// A retried Start must dial at once, not wait out this one's backoff.
		clear(r.downUntil)
		clear(r.backoffCur)
		return fail(fmt.Errorf("relaynet: relay reaches no upstream node of %v", view.Config.IDs()))
	}

	r.mu.Lock()
	if r.closed {
		// Shutdown ran while we were dialing: it closed the upstream conns
		// it saw but not the listener it could not see, so close it here.
		r.mu.Unlock()
		_ = ln.Close()
		return errors.New("relaynet: relay shut down during start")
	}
	r.ln = ln
	r.wg.Add(2)
	r.mu.Unlock()

	go r.acceptLoop()
	go r.run()
	return nil
}

// Addr returns the UE-side listening address.
func (r *RelayAgent) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Stats returns a snapshot of the counters.
func (r *RelayAgent) Stats() RelayAgentStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Shutdown stops the agent and waits for its goroutines. Pending collected
// heartbeats are lost — exactly the failure the UE fallback covers.
func (r *RelayAgent) Shutdown() {
	r.mu.Lock()
	if r.closed || !r.started {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	// ln is nil when Start is still mid-dial; Start sees closed=true and
	// closes its own connections.
	if r.ln != nil {
		_ = r.ln.Close()
	}
	for c := range r.upConns {
		_ = c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *RelayAgent) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *RelayAgent) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		uc := &ueConn{conn: conn}
		r.mu.Lock()
		r.stats.UEConnections++
		r.mu.Unlock()
		r.wg.Add(1)
		go r.ueReader(uc)
	}
}

// ueReader decodes frames from one UE and forwards them to the main loop.
// It decodes through a FrameReader (reused scratch, interned strings) and
// copies each message into an owned value before handing it over: the run
// loop processes the event after this goroutine has already moved on to
// the next frame, so the reader's reused values must not cross the
// channel. Interned strings are stable and copy for free.
func (r *RelayAgent) ueReader(uc *ueConn) {
	defer r.wg.Done()
	defer func() { _ = uc.conn.Close() }()
	fr := hbproto.NewFrameReader(uc.conn)
	for {
		msg, err := fr.Next()
		if err != nil {
			select {
			case r.events <- relayEvent{ueClosed: uc}:
			case <-r.done:
			}
			return
		}
		select {
		case r.events <- relayEvent{ueMsg: copyMessage(msg), ueFrom: uc}:
		case <-r.done:
			return
		}
	}
}

// copyMessage deep-copies a FrameReader-owned message so it can outlive
// the reader's next frame.
func copyMessage(msg hbproto.Message) hbproto.Message {
	switch m := msg.(type) {
	case *hbproto.Register:
		c := *m
		return &c
	case *hbproto.Heartbeat:
		c := *m
		return &c
	case *hbproto.Batch:
		c := *m
		c.HBs = append([]hbproto.Heartbeat(nil), m.HBs...)
		return &c
	case *hbproto.Ack:
		c := *m
		c.Refs = append([]hbproto.Ref(nil), m.Refs...)
		return &c
	case *hbproto.Feedback:
		c := *m
		c.Refs = append([]hbproto.Ref(nil), m.Refs...)
		return &c
	default:
		return msg
	}
}

// upstreamReader decodes server acknowledgements from one upstream
// connection, reporting any terminal error (tagged with its shard) to the
// main loop so it can reconnect or back off.
func (r *RelayAgent) upstreamReader(conn net.Conn, shard string) {
	defer r.wg.Done()
	defer r.untrackUp(conn)
	fr := hbproto.NewFrameReader(conn)
	for {
		msg, err := fr.Next()
		if err != nil {
			if !r.isClosed() {
				select {
				case r.events <- relayEvent{upErr: err, upShard: shard, upConn: conn}:
				case <-r.done:
				}
			}
			return
		}
		if ack, ok := msg.(*hbproto.Ack); ok {
			// Copy out of the reader's reused value (see ueReader).
			owned := &hbproto.Ack{Refs: append([]hbproto.Ref(nil), ack.Refs...)}
			select {
			case r.events <- relayEvent{ack: owned}:
			case <-r.done:
				return
			}
		}
	}
}

// Upstream redial policy: the backoff doubles from the base per failed
// dial. Dials are retried at every flush for as long as a node stays down,
// so the backoff needs a ceiling rather than an attempt budget.
const (
	defaultReconnectBase = 50 * time.Millisecond
	maxShardBackoff      = 5 * time.Second
)

// reconnectBase resolves the configured backoff base.
func (r *RelayAgent) reconnectBase() time.Duration {
	if r.cfg.ReconnectBase > 0 {
		return r.cfg.ReconnectBase
	}
	return defaultReconnectBase
}

// jittered spreads one backoff across [d/2, 3d/2) using the relay's seeded
// RNG: when a whole relay fleet loses the same server, their redial storms
// decorrelate instead of arriving in doubling lockstep.
func (r *RelayAgent) jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.5 + r.rng.Float64()))
}

// armShardBackoff schedules the next allowed dial for a node after a
// failure, doubling up to maxShardBackoff.
func (r *RelayAgent) armShardBackoff(shard string, now time.Duration) {
	b := r.backoffCur[shard]
	if b == 0 {
		b = r.reconnectBase()
	}
	r.downUntil[shard] = now + r.jittered(b)
	if b *= 2; b > maxShardBackoff {
		b = maxShardBackoff
	}
	r.backoffCur[shard] = b
}

// shardConn returns the live connection to a node, dialing it if absent
// and not in backoff. A failed dial arms the node's backoff and returns
// nil — the caller drops that sub-batch and the scheduling loop moves on.
func (r *RelayAgent) shardConn(shard string, view *cluster.View) net.Conn {
	if conn, ok := r.ups[shard]; ok {
		return conn
	}
	now := r.now()
	if until, ok := r.downUntil[shard]; ok && now < until {
		return nil
	}
	node, ok := view.Config.Node(shard)
	if !ok {
		return nil
	}
	r.ins.reconnectTries.Inc()
	conn, err := r.cfg.dial("tcp", node.Addr)
	if err == nil {
		err = r.register(conn)
	}
	if err != nil {
		if conn != nil {
			_ = conn.Close()
		}
		r.armShardBackoff(shard, now)
		return nil
	}
	if !r.trackUp(conn) {
		_ = conn.Close()
		return nil
	}
	delete(r.downUntil, shard)
	delete(r.backoffCur, shard)
	r.ups[shard] = conn
	r.ins.reconnects.Inc()
	r.mu.Lock()
	r.stats.ShardDials++
	if r.everDialed[shard] {
		r.stats.UpstreamReconnects++
	}
	r.mu.Unlock()
	r.everDialed[shard] = true
	go r.upstreamReader(conn, shard)
	return conn
}

// dropShardConn retires a node connection the reader reported broken,
// unless flush already replaced it (stale error from a conn this loop has
// moved past).
func (r *RelayAgent) dropShardConn(shard string, conn net.Conn) {
	cur, ok := r.ups[shard]
	if !ok || cur != conn {
		return
	}
	delete(r.ups, shard)
	_ = conn.Close()
	r.armShardBackoff(shard, r.now())
}

// now returns policy time: the duration since the agent started.
func (r *RelayAgent) now() time.Duration { return time.Since(r.start) }

// run is the single goroutine owning the scheduling state.
func (r *RelayAgent) run() {
	defer r.wg.Done()
	r.startPeriod()

	// One timer serves both Algorithm 1 deadlines: it is armed at
	// min(policy deadline, period end), and a firing at or past the period
	// end flushes and opens the next period in the same step. The two must
	// not be split: between them collection is closed, and a forward
	// landing there would be rejected.
	timer := time.NewTimer(time.Hour)
	r.armTimer(timer)
	defer timer.Stop()

	// maxEventDrain bounds how many queued events one loop iteration may
	// absorb before feedback is flushed and the timer gets a look-in.
	const maxEventDrain = 64

	for {
		select {
		case <-r.done:
			return
		case <-timer.C:
			r.flush()
			if r.now() >= r.periodEnd {
				r.startPeriod()
			}
			r.armTimer(timer)
		case ev := <-r.events:
			// Drain whatever else is already queued (bounded) before
			// flushing feedback, so refs from several acks — one per
			// upstream node — merge into one Feedback frame per UE
			// instead of one write per ack.
			for n := 0; ; n++ {
				r.handleEvent(ev, timer)
				if n >= maxEventDrain {
					break
				}
				select {
				case ev = <-r.events:
					continue
				default:
				}
				break
			}
			r.flushFeedback()
		}
	}
}

// handleEvent dispatches one main-loop event.
func (r *RelayAgent) handleEvent(ev relayEvent, timer *time.Timer) {
	switch {
	case ev.ueMsg != nil:
		r.handleUE(ev.ueFrom, ev.ueMsg)
		r.armTimer(timer)
	case ev.ueClosed != nil:
		delete(r.ueConns, ev.ueClosed)
		delete(r.pendingFB, ev.ueClosed)
	case ev.ack != nil:
		r.handleAck(ev.ack)
	case ev.upErr != nil:
		// An upstream node broke: retire its connection and back off. The
		// next flush redials; meanwhile the run loop keeps its schedule —
		// it never blocks on a dead node.
		r.dropShardConn(ev.upShard, ev.upConn)
	}
}

// armTimer points the run loop's timer at min(policy deadline, period
// end). Once a flush has closed collection only the period end remains.
func (r *RelayAgent) armTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	at := r.periodEnd
	if d, ok := r.policy.Deadline(); ok && d < at {
		at = d
	}
	t.Reset(max(at-r.now(), 0))
}

func (r *RelayAgent) startPeriod() {
	r.seq++
	now := r.now()
	r.periodEnd = now + r.cfg.Period
	r.policy.StartPeriod(now)
	r.ownHB = &hbproto.Heartbeat{
		Src: r.cfg.ID, Seq: r.seq, App: r.cfg.App,
		Origin: time.Now(), Expiry: r.cfg.Expiry, Pad: r.cfg.Pad,
	}
	r.mu.Lock()
	r.stats.OwnHeartbeats++
	r.mu.Unlock()
}

func (r *RelayAgent) handleUE(uc *ueConn, msg hbproto.Message) {
	switch m := msg.(type) {
	case *hbproto.Register:
		uc.id = m.ID
		r.ueConns[uc] = struct{}{}
	case *hbproto.Heartbeat:
		r.collect(uc, m)
	default:
		// UEs only register and send heartbeats; ignore anything else.
	}
}

// collect runs Algorithm 1 on one forwarded heartbeat.
func (r *RelayAgent) collect(uc *ueConn, m *hbproto.Heartbeat) {
	now := r.now()
	hb := hbmsg.Heartbeat{
		App:    m.App,
		Src:    hbmsg.DeviceID(m.Src),
		Seq:    m.Seq,
		Origin: now - time.Since(m.Origin), // arrival-relative origin
		Expiry: m.Expiry,
		Size:   m.Pad,
	}
	flushNow, err := r.policy.Collect(hb, now)
	switch {
	case errors.Is(err, sched.ErrClosed):
		r.mu.Lock()
		r.stats.RejectedClosed++
		r.mu.Unlock()
		return
	case errors.Is(err, sched.ErrExpired):
		r.mu.Lock()
		r.stats.RejectedExpire++
		r.mu.Unlock()
		return
	case err != nil:
		return
	}
	r.sources[hbproto.Ref{Src: m.Src, Seq: m.Seq}] = uc
	r.collectedAt = append(r.collectedAt, now)
	r.ins.collected.Inc()
	r.mu.Lock()
	r.stats.Collected++
	r.mu.Unlock()
	trace.Emit(r.cfg.Tracer, trace.Event{
		AtMs: time.Now().UnixMilli(), Device: r.cfg.ID, Kind: trace.KindCollect,
		App: m.App, Seq: m.Seq, Peer: m.Src,
	})
	if flushNow {
		r.flush()
	}
}

// flush transmits the batch plus the relay's own heartbeat upstream. The
// batch is partitioned by the current view and each sub-batch goes to its
// owning node; exactly one View is captured per flush, so a batch never
// mixes two epochs.
func (r *RelayAgent) flush() {
	now := r.now()
	batch := r.policy.Flush(now)
	// The batch preserves collect order, so collectedAt lines up index by
	// index; the histogram gets each message's collect-to-flush wait.
	for i := range batch {
		if i < len(r.collectedAt) {
			r.ins.collectToFlush.Record(uint64((now - r.collectedAt[i]) / time.Microsecond))
		}
	}
	r.collectedAt = r.collectedAt[:0]
	hbs := make([]hbproto.Heartbeat, 0, len(batch)+1)
	for _, hb := range batch {
		hbs = append(hbs, hbproto.Heartbeat{
			Src: string(hb.Src), Seq: hb.Seq, App: hb.App,
			Origin: r.start.Add(hb.Origin), Expiry: hb.Expiry, Pad: hb.Size,
		})
	}
	if r.ownHB != nil {
		hbs = append(hbs, *r.ownHB)
		r.ownHB = nil
	}
	if len(hbs) == 0 {
		return
	}

	flushed := false
	view := r.upstream.View()
	keys := make([]string, len(hbs))
	for i := range hbs {
		keys[i] = hbs[i].Src
	}
	for _, g := range view.Ring().GroupSorted(keys) {
		shard := g.Shard
		sub := make([]hbproto.Heartbeat, 0, len(g.Idxs))
		for _, i := range g.Idxs {
			sub = append(sub, hbs[i])
		}
		conn := r.shardConn(shard, view)
		if conn == nil || !r.sendBatch(conn, shard, sub) {
			if conn != nil {
				r.dropShardConn(shard, conn)
			}
			r.ins.shardDrops.Add(uint64(len(sub)))
			r.mu.Lock()
			r.stats.DroppedNoShard += len(sub)
			r.mu.Unlock()
			continue
		}
		flushed = true
	}
	if flushed {
		r.mu.Lock()
		r.stats.Flushes++
		r.mu.Unlock()
	}
}

// sendBatch writes one wire batch to an upstream connection as a single
// Write from the run loop's reusable encode buffer, updating the
// forwarding counters on success.
func (r *RelayAgent) sendBatch(conn net.Conn, shard string, hbs []hbproto.Heartbeat) bool {
	r.batchMsg.Relay, r.batchMsg.HBs = r.cfg.ID, hbs
	out, err := hbproto.AppendFrame(r.sendBuf[:0], &r.batchMsg)
	r.sendBuf, r.batchMsg.HBs = out[:0], nil
	if err != nil {
		return false
	}
	if _, err := conn.Write(out); err != nil {
		return false
	}
	r.ins.upBytesOut.Add(uint64(len(out)))
	r.ins.batchSize.Record(uint64(len(hbs)))
	// The relay's own heartbeat is not a forwarded UE message.
	ueCount := 0
	for i := range hbs {
		if hbs[i].Src != r.cfg.ID {
			ueCount++
		}
	}
	trace.Emit(r.cfg.Tracer, trace.Event{
		AtMs: time.Now().UnixMilli(), Device: r.cfg.ID, Kind: trace.KindFlush,
		N: len(hbs), Reason: r.policy.LastFlushReason().String(), Peer: shard,
	})
	r.mu.Lock()
	r.stats.Forwarded += ueCount
	r.stats.Credits += ueCount
	r.mu.Unlock()
	return true
}

// handleAck resolves the server's acknowledgement into per-UE feedback
// refs, accumulated in pendingFB until the run loop's event drain ends.
// Acks from every node funnel through the same path: the refs identify
// their UEs regardless of which upstream carried the batch, and refs from
// several acks merge into one Feedback frame per UE (the saved writes are
// counted).
func (r *RelayAgent) handleAck(ack *hbproto.Ack) {
	saved := 0
	for _, ref := range ack.Refs {
		uc, ok := r.sources[ref]
		if !ok {
			continue // the relay's own heartbeat, or a vanished UE
		}
		delete(r.sources, ref)
		if _, alive := r.ueConns[uc]; !alive {
			continue
		}
		if !r.ackTouched[uc] {
			r.ackTouched[uc] = true
			if len(r.pendingFB[uc]) > 0 {
				// Refs from an earlier ack in this drain are still
				// pending for the UE: the per-ack path would have
				// written them as a separate Feedback frame.
				saved++
			}
		}
		r.pendingFB[uc] = append(r.pendingFB[uc], ref)
	}
	for uc := range r.ackTouched {
		delete(r.ackTouched, uc)
	}
	if saved > 0 {
		r.ins.fbSaved.Add(uint64(saved))
		r.mu.Lock()
		r.stats.FeedbackWritesSaved += saved
		r.mu.Unlock()
	}
}

// flushFeedback writes the accumulated feedback: one frame — one Write —
// per UE connection, composed in the run loop's reusable buffer. Write
// order across UEs is not observable (each write targets a different
// connection), so plain map iteration is fine here, as it was on the old
// per-ack path.
func (r *RelayAgent) flushFeedback() {
	if len(r.pendingFB) == 0 {
		return
	}
	sent := 0
	for uc, refs := range r.pendingFB {
		delete(r.pendingFB, uc)
		if len(refs) == 0 {
			continue
		}
		r.fbMsg.Refs = refs
		out, err := hbproto.AppendFrame(r.fbBuf[:0], &r.fbMsg)
		r.fbBuf, r.fbMsg.Refs = out[:0], nil
		if err != nil {
			continue
		}
		if _, err := uc.conn.Write(out); err != nil {
			continue
		}
		r.ins.feedbacks.Add(uint64(len(refs)))
		r.ins.fbFlushes.Inc()
		r.ins.fbRefs.Record(uint64(len(refs)))
		sent += len(refs)
	}
	if sent > 0 {
		r.mu.Lock()
		r.stats.FeedbacksSent += sent
		r.mu.Unlock()
	}
}
