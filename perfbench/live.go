package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/rrc"
)

// liveSpec fixes the shape of one live workload. Load is open loop: user
// u's heartbeat seq falls due at phase[u] + (seq-1)*livePeriod, phases sit
// on a 1 ms grid, and each tick's due heartbeats leave in one write per
// connection.
type liveSpec struct {
	name     string
	relayed  bool
	users    int
	latSlice time.Duration // latency percentiles are medians over slices this long
}

var (
	// directLive: 40k users multiplexed over two connections to the
	// server.
	directLive = liveSpec{name: "direct", users: 40_000, latSlice: 50 * time.Millisecond}
	// relayedLive: half that load over one D2D connection to a relay that
	// batches for relayPeriod (about 2000 heartbeats a batch), falling
	// back to a direct connection when feedback is late. At 40k hb/s the
	// relay saturates: its deadline scan cannot keep up and rejects pass
	// 10%. A batch's feedback arrives at one instant, so latency slices
	// span ten relay periods.
	relayedLive = liveSpec{name: "relayed", relayed: true, users: 20_000, latSlice: time.Second}
)

const (
	livePeriod      = time.Second            // each user's heartbeat period
	liveExpiry      = 400 * time.Millisecond // heartbeat expiry
	feedbackTimeout = liveExpiry + liveExpiry/10
	relayPeriod     = 100 * time.Millisecond // the relay's T
	relayCapacity   = 16_384                 // M, above the ~2000 heartbeats a period
	liveTick        = time.Millisecond
	liveLead        = 200 * time.Millisecond // from epoch to the first tick
	liveWarmRounds  = 2                      // rounds before the measured window
	liveSlice       = time.Second            // CPU and cost rates are medians over slices this long
	liveSetupReps   = 11
	liveDrainSlack  = 2 * time.Second
	hbPad           = energy.ReferenceMessageSize
	genID           = "gen-0"
	relayID         = "relay-0"
)

// sutSnap is the program-under-test's state at a mark.
type sutSnap struct {
	CPUNs   int64                    `json:"cpu_ns"`
	Server  relaynet.ServerStats     `json:"server"`
	Relay   relaynet.RelayAgentStats `json:"relay"`
	Mallocs uint64                   `json:"mallocs"`
	NumGC   uint32                   `json:"num_gc"`
	Final   *sutFinal                `json:"final,omitempty"`
	Ready   map[string]string        `json:"ready,omitempty"`
	Err     string                   `json:"error,omitempty"`
}

// sutFinal is reported once, after the drain.
type sutFinal struct {
	PeakRSSMB     float64            `json:"peak_rss_mb"`
	LayerShares   map[string]float64 `json:"layer_shares,omitempty"`
	HBPerAckFrame float64            `json:"hb_per_ack_frame"`
	HoldP50Ms     float64            `json:"hold_p50_ms"`
}

// deliveredUE is how many UE heartbeats the server has taken in: relay
// batches carry one relay heartbeat per flush on top.
func (s sutSnap) deliveredUE() int {
	return s.Server.HeartbeatsDirect + s.Server.HeartbeatsRelayed - s.Relay.Flushes
}

// liveRun is one run of a live workload as the generator saw it.
type liveRun struct {
	spec      liveSpec
	setupS    []float64
	marks     []sutSnap       // at the window's start and each slice's end
	genCPU    []time.Duration // generator CPU at the same instants
	final     sutSnap
	windowDue int

	lat     [][]float64 // per slice: due to first ack, ms, sorted
	lag     []float64   // send minus due, ms, heartbeats due in the window
	due     int
	unacked int
	span    time.Duration // first due to last outcome

	relaySends, fallbacks    int
	fbFrames, fbRefs         int
	bytesUp, bytesDown       int64
	backlogFirst, backlogEnd float64
	failures                 []string
}

func (r *liveRun) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runLive runs a live workload, and with tracing a second, traced run whose
// differences from the first are the tracing overhead.
func runLive(o options, spec liveSpec) (result, error) {
	plain, err := liveOnce(o, spec, false)
	if err != nil {
		return result{}, err
	}
	res := plain.result()
	if !o.trace {
		return res, nil
	}
	traced, err := liveOnce(o, spec, true)
	if err != nil {
		return result{}, err
	}
	t := traced.result()
	res.failures = append(res.failures, t.failures...)
	res.layers = traced.layers()
	res.addOverhead(t.e2e)
	return res, nil
}

// schedule derives the users from the seed: a permutation of the user IDs
// and each user's phase on the tick grid.
func schedule(spec liveSpec, seed int64) (ids []string, phase []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(spec.users)
	ticks := int(livePeriod / liveTick)
	ids = make([]string, spec.users)
	phase = make([]time.Duration, spec.users)
	for u := range ids {
		ids[u] = fmt.Sprintf("ue-%06d", perm[u])
		phase[u] = liveLead + time.Duration(rng.Intn(ticks))*liveTick
	}
	return ids, phase
}

// countingConn counts bytes read; writes are counted by the caller.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// sutConns starts the program under test and connects to it: two
// connections to the server for direct, or the D2D connection to the relay
// (registered) plus the fallback connection to the server for relayed.
func sutConns(spec liveSpec, traced bool) (*child, []*countingConn, error) {
	args := []string{"--role", "sut", "--mode", spec.name}
	if traced {
		args = append(args, "--traced")
	}
	c, err := startChild(args...)
	if err != nil {
		return nil, nil, err
	}
	var ready sutSnap
	if err := c.recv(&ready); err != nil || ready.Err != "" {
		c.kill()
		return nil, nil, fmt.Errorf("program under test did not start: %v %s", err, ready.Err)
	}
	addrs := []string{ready.Ready["server"], ready.Ready["server"]}
	if spec.relayed {
		addrs[0] = ready.Ready["relay"]
	}
	var conns []*countingConn
	for _, a := range addrs {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			closeConns(conns)
			c.kill()
			return nil, nil, err
		}
		conns = append(conns, &countingConn{Conn: nc})
	}
	if spec.relayed {
		reg := &hbproto.Register{ID: genID, Role: hbproto.RoleUE, App: "im", Period: livePeriod, Expiry: liveExpiry}
		if err := hbproto.WriteFrame(conns[0], reg); err != nil {
			closeConns(conns)
			c.kill()
			return nil, nil, err
		}
	}
	return c, conns, nil
}

func closeConns(conns []*countingConn) {
	for _, c := range conns {
		_ = c.Close()
	}
}

// liveOnce sets the program under test up liveSetupReps times (keeping the
// last), then offers the open-loop load, drains, and checks the outcome.
func liveOnce(o options, spec liveSpec, traced bool) (*liveRun, error) {
	run := &liveRun{spec: spec}
	var c *child
	var conns []*countingConn
	for i := 0; i < liveSetupReps; i++ {
		start := time.Now()
		var err error
		if c, conns, err = sutConns(spec, traced); err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, time.Since(start).Seconds())
		if i < liveSetupReps-1 {
			closeConns(conns)
			if err := c.wait(); err != nil {
				return nil, fmt.Errorf("program under test: %w", err)
			}
		}
	}
	defer c.kill()

	// The generator's own garbage collection would stall its sender and
	// receivers for milliseconds and show up as latency: keep it off
	// unless the heap outgrows the memory limit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	runtime.GC()

	ids, phase := schedule(spec, o.seed)
	measured := int((time.Duration(o.seconds*float64(time.Second)) + liveSlice - 1) / liveSlice)
	rounds := liveWarmRounds + int(time.Duration(measured)*liveSlice/livePeriod)
	led := newLedger(ids, phase, livePeriod, rounds)
	winFrom := liveLead + liveWarmRounds*livePeriod
	winTo := winFrom + time.Duration(measured)*liveSlice
	run.lag = make([]float64, 0, spec.users*int((winTo-winFrom)/livePeriod)+spec.users)
	epoch := time.Now()

	var wg sync.WaitGroup
	var recvMu sync.Mutex
	for i, cc := range conns {
		p := pathDirect
		if spec.relayed && i == 0 {
			p = pathRelay
		}
		wg.Add(1)
		go func(cc *countingConn, p path) {
			defer wg.Done()
			fr := hbproto.NewFrameReader(cc)
			for {
				msg, err := fr.Next()
				if err != nil {
					return
				}
				at := time.Since(epoch)
				recvMu.Lock()
				switch m := msg.(type) {
				case *hbproto.Ack:
					led.ackRefs(m.Refs, p, at)
				case *hbproto.Feedback:
					run.fbFrames++
					run.fbRefs += len(m.Refs)
					led.ackRefs(m.Refs, p, at)
				default:
					run.fail("unexpected %v frame from the program under test", msg.Type())
				}
				recvMu.Unlock()
			}
		}(cc, p)
	}

	// Marks at the window's start and at the end of each slice: CPU and
	// counters of both processes. begin and end also bracket the profile.
	var markErr error
	markDone := make(chan struct{})
	go func() {
		defer close(markDone)
		for i := 0; i <= measured; i++ {
			time.Sleep(time.Until(epoch.Add(winFrom + time.Duration(i)*liveSlice)))
			cmd := "mark"
			switch i {
			case 0:
				cmd = "begin"
			case measured:
				cmd = "end"
			}
			g := cpuTime()
			var snap sutSnap
			if markErr = c.call(cmd, &snap); markErr != nil {
				return
			}
			run.marks = append(run.marks, snap)
			run.genCPU = append(run.genCPU, g)
		}
	}()

	// Fallback: relay-path heartbeats with no outcome after the feedback
	// timeout are resent on the direct connection, oldest first.
	type sentRef struct {
		u   int
		seq uint64
		at  time.Duration
	}
	var fbMu sync.Mutex
	var fbQueue []sentRef
	fbStop := make(chan struct{})
	fbDone := make(chan struct{})
	var writeErr atomic.Value
	go func() {
		defer close(fbDone)
		if !spec.relayed {
			return
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var hb hbproto.Heartbeat
		var buf []byte
		for {
			select {
			case <-fbStop:
				return
			case <-tick.C:
			}
			now := time.Since(epoch)
			fbMu.Lock()
			n := 0
			for n < len(fbQueue) && fbQueue[n].at+feedbackTimeout <= now {
				n++
			}
			expired := append([]sentRef(nil), fbQueue[:n]...)
			fbQueue = fbQueue[n:]
			fbMu.Unlock()
			buf = buf[:0]
			for _, s := range expired {
				if led.acked(s.u, s.seq) {
					continue
				}
				hb = hbproto.Heartbeat{Src: ids[s.u], Seq: s.seq, App: "im",
					Origin: epoch.Add(led.due(s.u, s.seq)), Expiry: liveExpiry, Pad: hbPad}
				buf, _ = hbproto.AppendFrame(buf, &hb)
				led.markSent(s.u, s.seq, pathDirect, now)
				run.fallbacks++
			}
			if len(buf) > 0 {
				if _, err := conns[1].Write(buf); err != nil {
					writeErr.Store(err)
					return
				}
				atomic.AddInt64(&run.bytesUp, int64(len(buf)))
			}
		}
	}()

	// The open-loop sender.
	ticks := int(livePeriod / liveTick)
	buckets := make([][]int, ticks)
	for u := range phase {
		t := int((phase[u] - liveLead) / liveTick)
		buckets[t] = append(buckets[t], u)
	}
	hb := hbproto.Heartbeat{App: "im", Expiry: liveExpiry, Pad: hbPad}
	bufs := make([][]byte, len(conns))
	for g := 0; g < rounds*ticks; g++ {
		users := buckets[g%ticks]
		if len(users) == 0 {
			continue
		}
		seq := uint64(g/ticks + 1)
		due := liveLead + time.Duration(g)*liveTick
		time.Sleep(time.Until(epoch.Add(due)))
		now := time.Since(epoch)
		inWindow := due >= winFrom && due < winTo
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		for _, u := range users {
			hb.Src, hb.Seq, hb.Origin = ids[u], seq, epoch.Add(due)
			ci, p := u%2, pathDirect
			if spec.relayed {
				ci, p = 0, pathRelay
			}
			bufs[ci], _ = hbproto.AppendFrame(bufs[ci], &hb)
			led.markSent(u, seq, p, now)
			if inWindow {
				run.lag = append(run.lag, float64(now-due)/float64(time.Millisecond))
			}
		}
		if spec.relayed {
			run.relaySends += len(users)
			fbMu.Lock()
			for _, u := range users {
				fbQueue = append(fbQueue, sentRef{u, seq, now})
			}
			fbMu.Unlock()
		}
		for i, b := range bufs {
			if len(b) == 0 {
				continue
			}
			if _, err := conns[i].Write(b); err != nil {
				return nil, fmt.Errorf("send: %w", err)
			}
			atomic.AddInt64(&run.bytesUp, int64(len(b)))
		}
	}

	// Drain: wait for every outcome, bounded by the feedback timeout.
	lastDue := liveLead + time.Duration(rounds*ticks)*liveTick
	deadline := epoch.Add(lastDue + feedbackTimeout + liveDrainSlack)
	for led.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(fbStop)
	<-fbDone
	<-markDone
	if markErr != nil {
		return nil, markErr
	}
	if err, ok := writeErr.Load().(error); ok {
		return nil, fmt.Errorf("fallback send: %w", err)
	}
	// Hang up first: the relay's shutdown in "final" waits for its UE
	// readers, which end when the D2D connection does.
	closeConns(conns)
	wg.Wait()
	if err := c.call("final", &run.final); err != nil {
		return nil, err
	}
	if run.final.Final == nil {
		return nil, fmt.Errorf("program under test sent no final report: %s", run.final.Err)
	}
	if err := c.wait(); err != nil {
		return nil, fmt.Errorf("program under test: %w", err)
	}
	for _, cc := range conns {
		run.bytesDown += cc.read.Load()
	}

	run.lat, run.windowDue = led.slices(winFrom, spec.latSlice, int((winTo-winFrom)/spec.latSlice))
	sort.Float64s(run.lag)
	run.due = len(ids) * rounds
	run.unacked = led.pending()
	run.span = led.lastAck() - liveLead
	run.backlogFirst, run.backlogEnd = led.backlog(winFrom, winTo, 100*time.Millisecond)
	run.check(led)
	return run, nil
}

// check applies the live output checks beyond the ledger's own.
func (r *liveRun) check(led *ledger) {
	if err := led.check(); err != nil {
		r.fail("%v", err)
	}
	st, rs := r.final.Server, r.final.Relay
	if r.spec.relayed {
		if st.HeartbeatsDirect != r.fallbacks {
			r.fail("server took %d direct heartbeats, generator sent %d fallbacks", st.HeartbeatsDirect, r.fallbacks)
		}
		if rs.Collected+rs.RejectedClosed+rs.RejectedExpire != r.relaySends {
			r.fail("relay saw %d heartbeats, generator sent %d", rs.Collected+rs.RejectedClosed+rs.RejectedExpire, r.relaySends)
		}
		if rs.Forwarded != rs.Collected {
			r.fail("relay collected %d heartbeats but forwarded %d", rs.Collected, rs.Forwarded)
		}
		if st.HeartbeatsRelayed != rs.Forwarded+rs.Flushes {
			r.fail("server took %d relayed heartbeats, relay forwarded %d in %d flushes", st.HeartbeatsRelayed, rs.Forwarded, rs.Flushes)
		}
		if rs.FeedbacksSent != r.fbRefs {
			r.fail("relay sent %d feedback refs, generator got %d", rs.FeedbacksSent, r.fbRefs)
		}
	} else {
		sent := r.due // every due heartbeat was sent exactly once
		if st.HeartbeatsDirect != sent || st.HeartbeatsRelayed != 0 {
			r.fail("server took %d direct and %d relayed heartbeats, generator sent %d direct", st.HeartbeatsDirect, st.HeartbeatsRelayed, sent)
		}
	}
	if st.ProtocolErrors != 0 {
		r.fail("server dropped %d connections for protocol errors", st.ProtocolErrors)
	}
	// Open loop: a backlog that grows across the window means the system
	// did not keep up, and the run's latencies describe a queue, not the
	// system. Slack: 50 ms of offered load.
	rate := float64(r.spec.users) / livePeriod.Seconds()
	if r.backlogEnd > 1.5*r.backlogFirst+0.05*rate {
		r.fail("backlog grew from %.0f to %.0f outstanding heartbeats: the run is invalid", r.backlogFirst, r.backlogEnd)
	}
}

// l3AndCharge applies the paper's per-transmission model to the cellular
// transmissions the server received between two marks: each starts from
// RRC idle, as at minute-scale heartbeat periods, and costs a connection
// cycle's L3 messages and one cellular transfer's charge. Relayed UE
// heartbeats add their D2D send and the relay's receive at the reference
// distance. It returns the totals and the heartbeats delivered.
func l3AndCharge(b, e sutSnap) (l3, uah, delivered float64) {
	cfg, model := rrc.DefaultConfig(), energy.DefaultModel()
	direct := float64(e.Server.HeartbeatsDirect - b.Server.HeartbeatsDirect)
	flushes := float64(e.Relay.Flushes - b.Relay.Flushes)
	forwarded := float64(e.Relay.Forwarded - b.Relay.Forwarded)
	reached := func(s sutSnap) int { return s.Relay.Collected + s.Relay.RejectedClosed + s.Relay.RejectedExpire }
	delivered = direct + float64(e.Server.HeartbeatsRelayed-b.Server.HeartbeatsRelayed)

	cycle := float64(cfg.SetupMessages + cfg.ReleaseMessages)
	l3 = direct * cycle
	uah = direct * float64(model.CellularTxCharge(1, hbPad))
	if flushes > 0 {
		// A batch carries the relay's heartbeat plus its UE heartbeats;
		// its charge is linear in the count, so totals are exact.
		l3 += flushes * cycle
		if (forwarded/flushes+1)*hbPad > float64(cfg.LargePayloadBytes) {
			l3 += flushes * float64(cfg.LargePayloadMessages)
		}
		uah += flushes*float64(model.CellularTxBase) + forwarded*float64(model.CellularPerExtraMsg)
		d2d := model.D2DSendCharge(hbPad, 0) + model.D2DRecvCharge(hbPad, 0, false)
		uah += float64(d2d) * float64(reached(e)-reached(b))
	}
	return l3, uah, delivered
}

// result derives the end-to-end metrics. Rates and latency percentiles
// are taken per one-second slice of the window and reported as the median
// over slices, which keeps a scheduling hiccup on a shared host from
// deciding the run's figure.
func (r *liveRun) result() result {
	res := result{attempted: r.due, failed: r.unacked, failures: r.failures}
	var p50, p99, cpu, l3s, uahs []float64
	samples := 0
	for i, lat := range r.lat {
		v50, err := mustPercentile(lat, 0.50, "ack latency")
		if err != nil {
			res.fail("latency slice %d: %v", i, err)
		}
		v99, err := mustPercentile(lat, 0.99, "ack latency")
		if err != nil {
			res.fail("latency slice %d: %v", i, err)
		}
		p50, p99 = append(p50, v50), append(p99, v99)
		samples += len(lat)
	}
	for i := 1; i < len(r.marks); i++ {
		b, e := r.marks[i-1], r.marks[i]
		cpu = append(cpu, float64(e.CPUNs-b.CPUNs)/1e3/float64(e.deliveredUE()-b.deliveredUE()))
		l3, uah, delivered := l3AndCharge(b, e)
		l3s, uahs = append(l3s, l3/delivered), append(uahs, uah/delivered)
	}
	st := r.final.Server
	res.e2e = map[string]float64{
		"setup_s":         median(r.setupS),
		"peak_rss_mb":     r.final.Final.PeakRSSMB,
		"sim_wall_s":      r.span.Seconds(),
		"l3_per_hb":       median(l3s),
		"uah_per_hb":      median(uahs),
		"on_time_rate":    1 - float64(st.Late)/float64(st.HeartbeatsDirect+st.HeartbeatsRelayed),
		"ack_p50_ms":      median(p50),
		"ack_p99_ms":      median(p99),
		"cpu_us_per_hb":   median(cpu),
		"delivered_ratio": 1 - float64(r.unacked)/float64(r.due),
	}
	res.n = map[string]int{
		"setup_s": len(r.setupS), "ack_p50_ms": samples, "ack_p99_ms": samples,
		"cpu_us_per_hb": len(cpu), "l3_per_hb": len(l3s), "uah_per_hb": len(uahs),
	}
	return res
}

// layers derives the per-layer metrics of a traced run.
func (r *liveRun) layers() map[string]float64 {
	m := emptyLayers()
	f := r.final.Final
	for l, v := range f.LayerShares {
		m[l+".cpu_share"] = v
	}
	b, e := r.marks[0], r.marks[len(r.marks)-1]
	windowHB := float64(e.deliveredUE() - b.deliveredUE())
	m["hbproto.up_bytes_per_hb"] = ratio(float64(r.bytesUp), float64(r.due))
	m["hbproto.down_bytes_per_hb"] = ratio(float64(r.bytesDown), float64(r.due))
	m["relaynet.server.hb_per_ack_frame"] = f.HBPerAckFrame
	if r.spec.relayed {
		rs := r.final.Relay
		m["relaynet.relay.hb_per_batch"] = ratio(float64(rs.Forwarded), float64(rs.Flushes))
		m["relaynet.relay.hold_ms_p50"] = f.HoldP50Ms
		m["relaynet.relay.hb_per_feedback_frame"] = ratio(float64(r.fbRefs), float64(r.fbFrames))
		m["relaynet.relay.reject_ratio"] = ratio(float64(rs.RejectedClosed+rs.RejectedExpire), float64(r.relaySends))
		m["relaynet.relay.fallback_ratio"] = ratio(float64(r.fallbacks), float64(r.relaySends))
	}
	m["runtime.gc_cycles"] = float64(e.NumGC - b.NumGC)
	m["runtime.allocs_per_hb"] = ratio(float64(e.Mallocs-b.Mallocs), windowHB)
	if lag, ok := percentile(r.lag, 0.99); ok {
		m["gen.lag_p99_ms"] = lag
	}
	genCPU := r.genCPU[len(r.genCPU)-1] - r.genCPU[0]
	m["gen.cpu_us_per_hb"] = ratio(float64(genCPU)/1e3, float64(r.windowDue))
	return m
}
