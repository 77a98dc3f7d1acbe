package loadgen

// Live trace replay: ReplayLive drives a recorded timeline (internal/rec)
// through the real TCP stack. Direct clients replay over their own
// connections exactly like vues; relayed and trunked clients replay
// through one trunk connection per recorded relay group, with consecutive
// sends coalesced into Batch frames by their *recorded* gaps — so the
// batching structure is a deterministic function of the trace even though
// wall-clock latencies are not. The same trace file replayed through
// experiments.ReplaySim gives the sim column of the parity report; this
// gives the live column.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
)

// ReplayOptions parameterizes one live replay.
type ReplayOptions struct {
	// ServerAddr targets an existing presence server. Empty spawns an
	// in-process relaynet.Server on loopback. The replay routes through a
	// one-node view of it.
	ServerAddr string
	// ClusterAddr targets a cluster instead of a single server: the
	// router's base URL (e.g. "http://127.0.0.1:7590"). The replay
	// resolves every client's owning shard through the epoch config —
	// direct clients dial their owner, trunk groups partition each batch
	// per shard under one ring view — so a trace recorded against a
	// cluster replays through the same routing function. Mutually
	// exclusive with ServerAddr.
	ClusterAddr string
	// Speedup divides recorded offsets so long recordings replay quickly.
	// Zero means 1.
	Speedup float64
	// AckTimeout bounds the post-send drain wait. Zero selects 2 s.
	AckTimeout time.Duration
	// Coalesce folds consecutive same-group sends whose *recorded* gap is
	// at most this into one Batch frame. Zero selects 2 ms. The decision
	// uses recorded instants, never the wall clock, so two replays of the
	// same trace always build the same frames.
	Coalesce time.Duration
	// Faults re-injects a fault schedule into every replay dial. Nil
	// replays over a clean network.
	Faults *faultnet.Schedule
}

// replayUnit is one connection's worth of replayed clients: a single
// direct client, or every client of one relay/trunk group.
type replayUnit struct {
	group   int // -1 for a direct unit
	relayID string
	sends   []rec.Event
}

// liveReplay is the shared state of one ReplayLive run.
type liveReplay struct {
	tl      *rec.Timeline
	opts    ReplayOptions
	cluster *cluster.Client // the upstream view
	start   time.Time
	pending *relaynet.Pending

	uplinks, batches, werrs atomic.Uint64

	mu        sync.Mutex
	lat       *rec.Sample
	delivered uint64
	conns     []net.Conn

	readers sync.WaitGroup
}

// ReplayLive replays the recorded timeline against the live stack and
// returns the measured outcome.
func ReplayLive(tl *rec.Timeline, opts ReplayOptions) (rec.Metrics, error) {
	if tl == nil {
		return rec.Metrics{}, fmt.Errorf("loadgen: nil timeline")
	}
	if err := tl.Validate(); err != nil {
		return rec.Metrics{}, err
	}
	if opts.ClusterAddr != "" && opts.ServerAddr != "" {
		return rec.Metrics{}, fmt.Errorf("loadgen: cluster and server replay targets are mutually exclusive")
	}
	if opts.Speedup <= 0 {
		opts.Speedup = 1
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	if opts.Coalesce <= 0 {
		opts.Coalesce = 2 * time.Millisecond
	}

	r := &liveReplay{
		tl:      tl,
		opts:    opts,
		pending: relaynet.NewPending(),
		lat:     rec.NewSample(),
	}

	var err error
	if opts.ClusterAddr != "" {
		r.cluster, err = cluster.NewClient(cluster.ClientConfig{RouterURL: clusterURL(opts.ClusterAddr)})
	} else {
		addr := opts.ServerAddr
		if addr == "" {
			server := relaynet.NewServer()
			if err := server.Start("127.0.0.1:0"); err != nil {
				return rec.Metrics{}, err
			}
			defer server.Shutdown()
			addr = server.Addr()
		}
		r.cluster, err = cluster.NewOneNodeClient(addr)
	}
	if err != nil {
		return rec.Metrics{}, err
	}
	defer r.cluster.Close()

	// Split the send timeline into per-connection units, preserving order.
	direct := make(map[int]*replayUnit)
	groups := make(map[int]*replayUnit)
	for _, e := range tl.Events {
		if e.Kind != rec.EvSend {
			continue
		}
		c := tl.Clients[e.Client]
		var u *replayUnit
		if c.Relay < 0 {
			if u = direct[e.Client]; u == nil {
				u = &replayUnit{group: -1}
				direct[e.Client] = u
			}
		} else {
			if u = groups[c.Relay]; u == nil {
				u = &replayUnit{group: c.Relay, relayID: fmt.Sprintf("replay-trunk-%04d", c.Relay)}
				groups[c.Relay] = u
			}
		}
		u.sends = append(u.sends, e)
	}
	units := make([]*replayUnit, 0, len(direct)+len(groups))
	for _, u := range direct {
		units = append(units, u)
	}
	for _, u := range groups {
		units = append(units, u)
	}
	// Map iteration order is random; fix the spawn order so runs are
	// structurally identical.
	sort.Slice(units, func(i, j int) bool {
		if units[i].group != units[j].group {
			return units[i].group < units[j].group
		}
		return units[i].sends[0].Client < units[j].sends[0].Client
	})

	var sendWg sync.WaitGroup
	r.start = time.Now()
	if opts.Faults != nil {
		opts.Faults.Start()
	}
	for _, u := range units {
		sendWg.Add(1)
		go func(u *replayUnit) {
			defer sendWg.Done()
			r.runUnit(u)
		}(u)
	}
	sendWg.Wait()

	// Drain: give in-flight acks one timeout window to land.
	deadline := time.Now().Add(opts.AckTimeout)
	for time.Now().Before(deadline) && r.pending.Len() > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	r.mu.Lock()
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	r.readers.Wait()
	lost := uint64(len(r.pending.Drain()))

	m := rec.Metrics{Source: "live"}
	r.mu.Lock()
	m.Sent = lost + r.delivered + r.werrs.Load()
	m.Delivered = r.delivered
	m.AckLatency = r.lat.Quantiles()
	r.mu.Unlock()
	m.Timeouts = lost + r.werrs.Load()
	m.Signaling.Uplinks = r.uplinks.Load()
	m.Signaling.Batches = r.batches.Load()
	m.Finish()
	return m, nil
}

// pace sleeps until the recorded offset's replay instant.
func (r *liveReplay) pace(at time.Duration) {
	target := r.start.Add(time.Duration(float64(at) / r.opts.Speedup))
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
}

// ownerAddr resolves where a client's heartbeats go: its owning node's
// listener under the current view.
func (r *liveReplay) ownerAddr(clientID string) string {
	node, _ := r.cluster.View().Owner(clientID) // a view's ring owns every key
	return node.Addr
}

// dial opens a server connection to addr, optionally through the fault
// schedule, and starts its ack reader.
func (r *liveReplay) dial(addr string, register *hbproto.Register) net.Conn {
	dial := net.Dial
	if r.opts.Faults != nil {
		dial = r.opts.Faults.Dial
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil
	}
	if register != nil {
		if err := hbproto.WriteFrame(conn, register); err != nil {
			_ = conn.Close()
			return nil
		}
	}
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		_ = r.pending.ReadAcks(conn, r.settle)
	}()
	return conn
}

// runUnit replays one connection's send subsequence.
func (r *liveReplay) runUnit(u *replayUnit) {
	if u.group < 0 {
		r.runDirect(u)
		return
	}
	r.runTrunk(u)
}

// runDirect replays a direct client: one heartbeat frame per recorded
// send, paced to the recorded offsets.
func (r *liveReplay) runDirect(u *replayUnit) {
	c := r.tl.Clients[u.sends[0].Client]
	conn := r.dial(r.ownerAddr(c.ID), nil)
	for _, e := range u.sends {
		r.pace(e.At)
		if conn == nil {
			// Re-resolve on every redial: a reshard between batches moves
			// the client's owner, and the replay should follow it the way
			// the live fleet does.
			conn = r.dial(r.ownerAddr(c.ID), nil)
		}
		if conn == nil {
			r.werrs.Add(1)
			continue
		}
		now := time.Now()
		hb := &hbproto.Heartbeat{
			Src: c.ID, Seq: e.Seq, App: c.App,
			Origin: now, Expiry: c.Expiry, Pad: c.Pad,
		}
		ref := hbproto.Ref{Src: c.ID, Seq: e.Seq}
		r.pending.Track(ref, nil, now, r.opts.AckTimeout, false)
		if err := hbproto.WriteFrame(conn, hb); err != nil {
			if r.pending.Forget(ref) {
				r.werrs.Add(1)
			}
			_ = conn.Close()
			conn = nil
			continue
		}
		r.uplinks.Add(1)
	}
	if conn != nil {
		r.keep(conn)
	}
}

// runTrunk replays one relay/trunk group: consecutive sends within the
// recorded coalesce window become one Batch frame, written at the last
// member's offset — exactly the aggregation the group performed live. Each
// coalesced batch is partitioned per owning node under one view (one
// connection per node), the same split the live trunk performs.
func (r *liveReplay) runTrunk(u *replayUnit) {
	conns := make(map[string]net.Conn) // node ID → conn
	for i := 0; i < len(u.sends); {
		// The batch is [i, j): recorded gaps ≤ Coalesce, bounded by the
		// trace's relay capacity when one is recorded.
		j := i + 1
		for j < len(u.sends) && u.sends[j].At-u.sends[j-1].At <= r.opts.Coalesce {
			if r.tl.RelayCapacity > 0 && j-i >= r.tl.RelayCapacity {
				break
			}
			j++
		}
		r.pace(u.sends[j-1].At)
		view := r.cluster.View()
		keys := make([]string, j-i)
		for k, e := range u.sends[i:j] {
			keys[k] = r.tl.Clients[e.Client].ID
		}
		for _, g := range view.Ring().GroupSorted(keys) {
			sub := make([]rec.Event, len(g.Idxs))
			for k, idx := range g.Idxs {
				sub[k] = u.sends[i+idx]
			}
			node, _ := view.Config.Node(g.Shard) // the ring's shards are the config's nodes
			r.sendTrunkBatch(conns, u, g.Shard, node.Addr, sub)
		}
		i = j
	}
	for _, conn := range conns {
		r.keep(conn)
	}
}

// sendTrunkBatch writes one (node-local) Batch frame on the group's
// cached connection to that node, redialing once per batch if needed.
func (r *liveReplay) sendTrunkBatch(conns map[string]net.Conn, u *replayUnit, shard, addr string, events []rec.Event) {
	conn := conns[shard]
	if conn == nil {
		conn = r.dial(addr, &hbproto.Register{
			ID: u.relayID, Role: hbproto.RoleRelay, App: "replay",
			Period: r.tl.RelayPeriod, Expiry: r.tl.RelayPeriod,
		})
		if conn == nil {
			r.werrs.Add(uint64(len(events)))
			return
		}
		conns[shard] = conn
	}
	now := time.Now()
	b := &hbproto.Batch{Relay: u.relayID, HBs: make([]hbproto.Heartbeat, 0, len(events))}
	for _, e := range events {
		c := r.tl.Clients[e.Client]
		b.HBs = append(b.HBs, hbproto.Heartbeat{
			Src: c.ID, Seq: e.Seq, App: c.App,
			Origin: now, Expiry: c.Expiry, Pad: c.Pad,
		})
		r.pending.Track(hbproto.Ref{Src: c.ID, Seq: e.Seq}, nil, now, r.opts.AckTimeout, false)
	}
	if err := hbproto.WriteFrame(conn, b); err != nil {
		for _, hb := range b.HBs {
			if r.pending.Forget(hbproto.Ref{Src: hb.Src, Seq: hb.Seq}) {
				r.werrs.Add(1)
			}
		}
		_ = conn.Close()
		delete(conns, shard)
		return
	}
	r.uplinks.Add(1)
	r.batches.Add(1)
}

// keep parks a finished unit's connection so the drain phase can still
// collect its acks; ReplayLive closes it after the drain.
func (r *liveReplay) keep(conn net.Conn) {
	r.mu.Lock()
	r.conns = append(r.conns, conn)
	r.mu.Unlock()
}

// settle accounts one delivered heartbeat.
func (r *liveReplay) settle(e relaynet.PendingEntry, at time.Time) {
	r.mu.Lock()
	r.delivered++
	r.lat.Add(float64(at.Sub(e.Sent)) / float64(time.Millisecond))
	r.mu.Unlock()
}
