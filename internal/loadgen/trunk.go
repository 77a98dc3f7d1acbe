package loadgen

import (
	"net"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
)

// maxTrunkBatch caps heartbeats per Batch frame: hbproto bounds frames at
// MaxFrameSize and one encoded heartbeat is a few dozen bytes, so 4096
// leaves comfortable headroom while keeping syscall counts low.
const maxTrunkBatch = 4096

// tuser is one multiplexed virtual user on a trunk.
type tuser struct {
	id   string
	seq  uint64
	last uint64 // highest acknowledged seq
}

// trunk multiplexes many virtual users over one hbproto relay connection
// per target node — the paper's aggregation argument applied to the load
// generator itself, and the only way a single box offers a million users
// (per-UE sockets exhaust ephemeral ports around a few tens of thousands
// per destination). Every tick each user emits one heartbeat; the trunk
// partitions them per owning node under a single view (one node for a
// single server) and writes one Batch per node. A heartbeat whose ack
// misses the window is re-sent once through the then-current view before a
// second miss counts as a timeout, mirroring the vue fallback that keeps
// reshards lossless.
type trunk struct {
	id      string
	app     string
	period  time.Duration
	expiry  time.Duration
	pad     int
	timeout time.Duration
	rec     *telemetry.Recorder
	trec    *rec.Recorder // trace recorder; nil-safe
	trecIdx []int         // per-user trace client indices (immutable after build)
	c       *fleetCounters
	dial    func(network, addr string) (net.Conn, error)
	cluster *cluster.Client // the upstream view
	shards  *shardCounter
	readers *sync.WaitGroup

	// paceSlots spreads each period's emissions over this many sub-ticks
	// (≤1 disables pacing: the whole fleet bursts at once). slotUsers is
	// the deterministic user→slot partition, immutable after build.
	paceSlots int
	slotUsers [][]int

	// Encode scratch owned by the send path. run() is the only sender
	// while load is offered and drain() sweeps only after the send loop
	// has exited (sendWg.Wait precedes it), so no lock is needed.
	sendBuf   []byte
	hbScratch []hbproto.Heartbeat
	batchMsg  hbproto.Batch

	pending *relaynet.Pending
	index   map[string]int // user id → index (ids are immutable after build)

	mu     sync.Mutex
	users  []tuser
	conns  map[string]net.Conn
	closed bool
}

// run is the send loop: activate after the arrival offset, then batch one
// heartbeat per user every period until the run stops. With pacing enabled
// the period is divided into paceSlots sub-ticks and each user's emission
// lands in its deterministically assigned slot — every user still sends
// exactly once per period (the open-loop schedule is preserved), only the
// intra-period phase changes, which flattens the per-period burst the
// server would otherwise absorb all at once.
func (t *trunk) run(done <-chan struct{}, offset time.Duration, sendWg *sync.WaitGroup) {
	defer sendWg.Done()
	if offset > 0 {
		select {
		case <-done:
			return
		case <-time.After(offset):
		}
	}
	slots := t.paceSlots
	if slots <= 1 || len(t.slotUsers) != slots {
		tick := time.NewTicker(t.period)
		defer tick.Stop()
		t.tick()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.tick()
			}
		}
	}
	tick := time.NewTicker(t.period / time.Duration(slots))
	defer tick.Stop()
	slot := 0
	t.tickSlot(slot)
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			slot = (slot + 1) % slots
			t.tickSlot(slot)
		}
	}
}

// tick is one heartbeat interval for every user on the trunk: expire and
// re-send stale pendings, then emit the fresh round.
func (t *trunk) tick() {
	now := time.Now()
	t.emit(nil, now, t.expire(now))
}

// tickSlot is one paced sub-tick: emit the users assigned to this slot.
// Expiry collection runs once per full period (on slot 0), matching the
// unpaced cadence so fallback/timeout timing is unchanged by pacing.
func (t *trunk) tickSlot(slot int) {
	now := time.Now()
	var resend []hbproto.Ref
	if slot == 0 {
		resend = t.expire(now)
	}
	t.emit(t.slotUsers[slot], now, resend)
}

// emit sends one fresh heartbeat for each listed user index (nil means the
// whole fleet) plus any expired re-sends.
func (t *trunk) emit(idxs []int, now time.Time, resend []hbproto.Ref) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	n := len(idxs)
	if idxs == nil {
		n = len(t.users)
	}
	fresh := make([]hbproto.Ref, n)
	for j := 0; j < n; j++ {
		i := j
		if idxs != nil {
			i = idxs[j]
		}
		t.users[i].seq++
		fresh[j] = hbproto.Ref{Src: t.users[i].id, Seq: t.users[i].seq}
	}
	t.mu.Unlock()
	for _, ref := range fresh {
		t.pending.Track(ref, nil, now, t.timeout, true)
	}
	if len(fresh) > 0 {
		t.send(fresh, now, false)
	}
	if len(resend) > 0 {
		t.send(resend, now, true)
	}
}

// paceSlot deterministically assigns a user to one of slots emission slots:
// FNV-1a over the trunk and user IDs. Seeded jitter with no RNG and no wall
// clock, so repeated runs (and record/replay) see an identical schedule.
func paceSlot(trunkID, userID string, slots int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(trunkID); i++ {
		h = (h ^ uint64(trunkID[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("a","bc") must differ from ("ab","c")
	for i := 0; i < len(userID); i++ {
		h = (h ^ uint64(userID[i])) * prime64
	}
	return int(h % uint64(slots))
}

// send partitions heartbeats per owning node under one view (so a round
// never mixes epochs) and writes one chunked Batch per node.
func (t *trunk) send(refs []hbproto.Ref, now time.Time, fallback bool) {
	view := t.cluster.View()
	keys := make([]string, len(refs))
	for i, ref := range refs {
		keys[i] = ref.Src
	}
	for _, g := range view.Ring().GroupSorted(keys) {
		group := make([]hbproto.Ref, len(g.Idxs))
		for j, k := range g.Idxs {
			group[j] = refs[k]
		}
		t.sendShard(g.Shard, group, now, fallback)
	}
}

// sendShard writes one node's heartbeats as Batch frames, composing every
// chunk frame into one reusable buffer and issuing a single write — the
// syscall count per emission is one per node, not one per 4096 heartbeats.
// Heartbeats that missed the wire stay pending: the sweep re-sends them
// through a newer view. A fresh heartbeat is therefore recorded as sent
// whether or not its first write landed.
func (t *trunk) sendShard(shard string, refs []hbproto.Ref, now time.Time, fallback bool) {
	if t.writeShard(shard, refs, now) {
		if fallback {
			t.c.fallbackResends.Add(uint64(len(refs)))
		} else {
			t.c.sentRelayed.Add(uint64(len(refs)))
		}
		t.shards.add(shard, uint64(len(refs)))
	}
	if !fallback {
		for _, ref := range refs {
			t.trec.Record(rec.EvSend, t.recIdx(ref.Src), ref.Seq, now)
		}
	}
}

// writeShard encodes refs as chunked Batch frames and writes them in one
// call on the node's connection, counting a failed dial or write. A failed
// write drops the connection; an encode failure is a bug, not a transport
// fault, so it leaves the (healthy) connection alone.
func (t *trunk) writeShard(shard string, refs []hbproto.Ref, now time.Time) bool {
	conn := t.ensureConn(shard)
	if conn == nil {
		t.c.dialErrors.Add(1)
		return false
	}
	out := t.sendBuf[:0]
	frames := uint64(0)
	for start := 0; start < len(refs); start += maxTrunkBatch {
		end := min(start+maxTrunkBatch, len(refs))
		chunk := refs[start:end]
		if cap(t.hbScratch) < len(chunk) {
			t.hbScratch = make([]hbproto.Heartbeat, len(chunk))
		}
		hbs := t.hbScratch[:len(chunk)]
		for i, ref := range chunk {
			hbs[i] = hbproto.Heartbeat{
				Src: ref.Src, Seq: ref.Seq, App: t.app,
				Origin: now, Expiry: t.expiry, Pad: t.pad,
			}
		}
		t.batchMsg.Relay, t.batchMsg.HBs = t.id, hbs
		var err error
		out, err = hbproto.AppendFrame(out, &t.batchMsg)
		t.batchMsg.HBs = nil
		if err != nil {
			t.c.writeErrors.Add(1)
			return false
		}
		frames++
	}
	t.sendBuf = out[:0]
	if _, err := conn.Write(out); err != nil {
		t.c.writeErrors.Add(1)
		t.dropConn(shard, conn)
		return false
	}
	t.c.trunkWrites.Add(1)
	t.c.trunkFrames.Add(frames)
	return true
}

// recIdx maps a user to its trace client index (-1 when the trunk was
// built without a recorder, which skips the index lookup).
func (t *trunk) recIdx(id string) int {
	if t.trec == nil {
		return -1
	}
	return t.trecIdx[t.index[id]]
}

// expire judges heartbeats past the ack timeout: a first miss with
// fallback enabled comes back for a re-send, anything else is written off
// as a timeout.
func (t *trunk) expire(now time.Time) []hbproto.Ref {
	resend, lost := t.pending.Expire(now)
	t.lost(lost, now)
	refs := make([]hbproto.Ref, len(resend))
	for i, e := range resend {
		refs[i] = e.Ref
	}
	return refs
}

// lost writes heartbeats off as timeouts.
func (t *trunk) lost(es []relaynet.PendingEntry, now time.Time) {
	t.c.timeoutRelayed.Add(uint64(len(es)))
	for _, e := range es {
		t.trec.Record(rec.EvTimeout, t.recIdx(e.Ref.Src), e.Ref.Seq, now)
	}
}

// sweep re-sends expired heartbeats (drain-phase entry point; tick folds
// the same judgement into its round).
func (t *trunk) sweep(now time.Time) {
	if resend := t.expire(now); len(resend) > 0 {
		t.send(resend, now, true)
	}
}

// ensureConn returns the live connection for a node, resolving the
// address through the current view and registering as a relay when
// dialing fresh.
func (t *trunk) ensureConn(shard string) net.Conn {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	if conn := t.conns[shard]; conn != nil {
		t.mu.Unlock()
		return conn
	}
	t.mu.Unlock()

	node, ok := t.cluster.View().Config.Node(shard)
	if !ok {
		return nil // evicted since the round's view was taken
	}
	conn, err := t.dial("tcp", node.Addr)
	if err != nil {
		return nil
	}
	if err := hbproto.WriteFrame(conn, &hbproto.Register{
		ID: t.id, Role: hbproto.RoleRelay, App: t.app,
		Period: t.period, Expiry: t.expiry,
	}); err != nil {
		_ = conn.Close()
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	if existing := t.conns[shard]; existing != nil {
		t.mu.Unlock()
		_ = conn.Close()
		return existing
	}
	t.conns[shard] = conn
	t.mu.Unlock()
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		_ = t.pending.ReadAcks(conn, t.settle)
		t.dropConn(shard, conn)
	}()
	return conn
}

// dropConn forgets a node's connection if still current and closes it.
func (t *trunk) dropConn(shard string, conn net.Conn) {
	t.mu.Lock()
	if t.conns[shard] == conn {
		delete(t.conns, shard)
	}
	t.mu.Unlock()
	_ = conn.Close()
}

// settle accounts one acknowledged heartbeat.
func (t *trunk) settle(e relaynet.PendingEntry, at time.Time) {
	i := t.index[e.Ref.Src]
	t.rec.Record(uint64(at.Sub(e.Sent) / time.Microsecond))
	t.trec.Record(rec.EvAck, t.trecIdx[i], e.Ref.Seq, at)
	t.c.ackedRelayed.Add(1)
	t.mu.Lock()
	u := &t.users[i]
	stale := e.Ref.Seq <= u.last
	if !stale {
		u.last = e.Ref.Seq
	}
	t.mu.Unlock()
	if stale {
		t.c.outOfOrderAcks.Add(1)
	}
}

// pendingCount returns how many heartbeats still await acknowledgement.
func (t *trunk) pendingCount() int { return t.pending.Len() }

// expireAll writes off every remaining pending heartbeat (end-of-run
// drain).
func (t *trunk) expireAll() { t.lost(t.pending.Drain(), time.Now()) }

// close shuts every node connection down; readers exit on the closed
// conns.
func (t *trunk) close() {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = make(map[string]net.Conn)
	t.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
}
