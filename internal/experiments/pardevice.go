package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/radio"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// This file is the windowed substrate of the parallel city kernel. The
// protocol itself — UE matching, forwarding, feedback and fallback, relay
// Algorithm 1, flush and acks — is internal/device's UE and Relay, the same
// code the sequential kernel runs; pdevice implements device.UESubstrate
// and device.RelaySubstrate for it. Every cross-device interaction —
// discovery, group formation, heartbeat forwarding, feedback acks — happens
// against immutable window-boundary snapshots and is applied at the next
// boundary as a canonically ordered operation. That makes each device's
// entire window a pure function of (its own state, its own RNG stream, the
// shared snapshot), so tiles can run concurrently and the merged result is
// bit-identical for any tile count. The price is semantics: D2D effects
// land one window (≤ W virtual seconds) later than in the sequential
// kernel, so the two kernels produce different — each internally
// deterministic — golden digests.

// opKind discriminates boundary operations.
type opKind uint8

const (
	opConnect opKind = iota + 1 // UE → relay: group formation (responder charges)
	opForward                   // UE → relay: one forwarded heartbeat
	opAck                       // relay → UE: feedback acknowledgement
)

// parOp is one deferred cross-device effect. Ops are sorted globally by
// (createdAt, src, srcSeq) — a strict total order, since srcSeq never
// repeats within a device — and applied at the start of the next window on
// the destination's tile, which is what makes application order
// independent of the partition.
type parOp struct {
	createdAt time.Duration
	src, dst  int // population orders
	srcSeq    uint64
	kind      opKind
	hb        hbmsg.Heartbeat      // opForward
	ref       d2d.AckRef           // opAck
	charge    energy.MicroAmpHours // opForward: receiver-side recv charge at send distance
}

// parDelivery is one heartbeat observed at the network side, keyed by the
// transmitting (via) device so per-window merges are canonical.
type parDelivery struct {
	hb       hbmsg.Heartbeat
	via      hbmsg.DeviceID
	viaOrder int
	viaSeq   uint64
	at       time.Duration
	onTime   bool
}

// parTile is the per-tile mutable state. Everything here is owned by the
// tile's worker during a window and by the barrier between windows.
type parTile struct {
	sched      *simtime.Scheduler
	devices    []*pdevice
	inOps      []parOp
	outOps     []parOp
	deliveries []parDelivery
	events     []trace.Keyed
	migrants   []*pdevice
	// Discovery scratch, shared by the tile's devices: the worker runs one
	// device event at a time and a scan's result is consumed before the
	// next scan.
	scanBuf []d2d.Beacon
	peerBuf []d2d.PeerInfo
}

// parEnv is the shared environment of one parallel city run. Slices
// indexed by population order are written only at disjoint indices by the
// owning workers (posSnap, adv*) or only by the barrier; the rest is
// immutable after setup.
type parEnv struct {
	cfg     ParallelCityConfig
	profile hbmsg.AppProfile
	radio   radio.Profile
	model   energy.Model
	match   matching.Config
	rrcCfg  rrc.Config
	grid    *geo.TileGrid

	devices   []*pdevice
	numRelays int
	orderOf   map[hbmsg.DeviceID]int

	// Window-boundary snapshot, read-only during a window. The end hooks
	// write the *Next buffers — tiles finish windows at different wall
	// times, so writing the live snapshot would race slower tiles' reads —
	// and the barrier swaps them in. Every entry is rewritten at every
	// boundary, so the swapped-out buffer never leaks stale state.
	posSnap      []geo.Point
	advFree      []int
	advIntent    []int
	advAccepting []bool
	posNext      []geo.Point
	advFreeNext  []int
	advIntNext   []int
	advAccNext   []bool
	beacons      *d2d.BeaconIndex
	beaconBuf    []d2d.Beacon

	tiles   []*parTile
	traceOn bool
}

// pdevice is one simulated device of the parallel kernel and its windowed
// substrate. Exactly one of relay/ue is non-nil. The embedded agenda is the
// device's clock: every timer it arms migrates with it between tiles.
type pdevice struct {
	*simtime.Agenda
	env   *parEnv
	id    hbmsg.DeviceID
	order int
	role  d2d.Role
	mob   geo.Mobility

	tile    int
	tileIdx int // index in tiles[tile].devices, maintained by migration

	rng    *rand.Rand
	ledger *energy.Ledger
	rrc    *rrc.Machine

	emitSeq    uint64
	deliverSeq uint64
	opSeq      uint64

	relay *device.Relay
	ue    *device.UE

	// UE side: the current link.
	relayOrder int // -1 when not linked
	transfers  int // heartbeats forwarded over the current link

	// Relay side: the beacon the end hook samples into the snapshot.
	advAccepting       bool
	advFree, advIntent int
}

func (d *pdevice) pos(at time.Duration) geo.Point { return d.mob.Pos(at) }

// Emit records one trace event into the owning tile's window buffer, keyed
// for the canonical merge.
func (d *pdevice) Emit(ev trace.Event) {
	if !d.env.traceOn {
		return
	}
	tl := d.env.tiles[d.tile]
	tl.events = append(tl.events, trace.Keyed{At: d.Now(), Order: d.order, Seq: d.emitSeq, Ev: ev})
	d.emitSeq++
}

// sendOp queues one cross-device effect for the next boundary.
func (d *pdevice) sendOp(op parOp) {
	op.createdAt = d.Now()
	op.src = d.order
	op.srcSeq = d.opSeq
	d.opSeq++
	tl := d.env.tiles[d.tile]
	tl.outOps = append(tl.outOps, op)
}

// SendCellular transmits a batch over the device's cellular modem: RRC,
// energy, network-side delivery log and per-heartbeat delivery trace. The
// delivery records are keyed by this (via) device so the per-window merge
// feeding the presence tracker is canonical.
func (d *pdevice) SendCellular(hbs []hbmsg.Heartbeat, phase energy.Phase) error {
	now := d.Now()
	payload := 0
	for _, hb := range hbs {
		payload += hb.Size
	}
	if err := d.rrc.Send(payload); err != nil {
		return err
	}
	d.ledger.Add(phase, d.env.model.CellularTxCharge(len(hbs), payload))
	tl := d.env.tiles[d.tile]
	for _, hb := range hbs {
		onTime := !hb.Expired(now)
		tl.deliveries = append(tl.deliveries, parDelivery{
			hb: hb, via: d.id, viaOrder: d.order, viaSeq: d.deliverSeq,
			at: now, onTime: onTime,
		})
		d.deliverSeq++
		d.Emit(trace.Event{
			AtMs: trace.At(now), Device: string(hb.Src), Kind: trace.KindDelivery,
			App: hb.App, Seq: hb.Seq, Peer: string(d.id), OnTime: onTime,
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// UE side

// Scan discovers relays in the beacon snapshot.
func (d *pdevice) Scan() []d2d.PeerInfo {
	d.ledger.Add(energy.PhaseDiscovery, d.env.model.UEDiscovery)
	pos := d.pos(d.Now())
	tl := d.env.tiles[d.tile]
	tl.scanBuf = d.env.beacons.Neighborhood(pos, tl.scanBuf[:0])
	found := tl.peerBuf[:0]
	// Candidates arrive in population order, so the per-candidate RSSI
	// draws consume this device's RNG stream in a partition-independent
	// sequence.
	for _, b := range tl.scanBuf {
		if !b.Accepting || b.Order == d.order {
			continue
		}
		dist := pos.Dist(b.Pos)
		if !d.env.radio.InRange(dist) {
			continue
		}
		rssi := d.env.radio.MeasureRSSI(dist, d.rng)
		found = append(found, d2d.PeerInfo{
			ID:           b.ID,
			RSSI:         rssi,
			EstDistance:  d.env.radio.EstimateDistance(rssi),
			Intent:       b.Intent,
			FreeCapacity: b.FreeCapacity,
		})
	}
	tl.peerBuf = found
	sort.Slice(found, func(i, j int) bool {
		if found[i].EstDistance != found[j].EstDistance {
			return found[i].EstDistance < found[j].EstDistance
		}
		return found[i].ID < found[j].ID
	})
	return found
}

// Connect links the UE to relay. Group formation: the initiator pays its
// connection energy now; the responder's discovery + connection phases are
// billed when the op is applied on its tile. Reconnecting to the current
// relay reuses the link, with no charges — as in d2d.Connect.
func (d *pdevice) Connect(relay hbmsg.DeviceID) error {
	order := d.env.orderOf[relay]
	if order != d.relayOrder {
		d.ledger.Add(energy.PhaseConnection, d.env.model.UEConnection)
		d.sendOp(parOp{dst: order, kind: opConnect})
		d.relayOrder = order
		d.transfers = 0
	}
	return nil
}

// Linked reports the current relay.
func (d *pdevice) Linked() (hbmsg.DeviceID, bool) {
	if d.relayOrder < 0 {
		return "", false
	}
	return d.env.devices[d.relayOrder].id, true
}

// LinkDistance measures against the relay's snapshot position.
func (d *pdevice) LinkDistance() float64 {
	return d.pos(d.Now()).Dist(d.env.posSnap[d.relayOrder])
}

// LinkFree is the relay's advertised capacity in the boundary snapshot —
// possibly up to one window stale, the windowed model's analogue of beacon
// lag.
func (d *pdevice) LinkFree() int { return d.env.advFree[d.relayOrder] }

// Forward judges the transfer against the relay's snapshot position and
// queues it for the next boundary. A lost transfer does not kill the link;
// the next heartbeat retries it, as in the sequential kernel.
func (d *pdevice) Forward(hb hbmsg.Heartbeat) error {
	dist := d.LinkDistance()
	if !d.env.radio.InRange(dist) {
		return fmt.Errorf("%w: %.1fm", d2d.ErrOutOfRange, dist)
	}
	d.ledger.Add(energy.PhaseD2DSend, d.env.model.D2DSendCharge(hb.Size, dist))
	if !d.env.radio.TransferOK(dist, d.rng) {
		return fmt.Errorf("%w at %.1fm", d2d.ErrTransferFailed, dist)
	}
	// The receiver's recv charge depends on the link distance and on
	// whether this is the first transfer of the link's round — both known
	// only here, so the op carries the computed charge.
	charge := d.env.model.D2DRecvCharge(hb.Size, dist, d.transfers == 0)
	d.transfers++
	d.sendOp(parOp{dst: d.relayOrder, kind: opForward, hb: hb, charge: charge})
	return nil
}

// Unlink drops the current link.
func (d *pdevice) Unlink() { d.relayOrder = -1 }

// ---------------------------------------------------------------------------
// Relay side

// Advertise stores the beacon; the end hook samples it into the next
// boundary snapshot.
func (d *pdevice) Advertise(free, intent int) {
	d.advAccepting = true
	d.advFree, d.advIntent = free, intent
}

// Ack judges the ack transfer against the relay's live position and the
// source's snapshot — range and loss draw from the relay's own stream —
// and queues it for the next boundary. Unlike the sequential kernel there
// is no shared link whose closure could fail the send, so acks fail only
// on range and loss.
func (d *pdevice) Ack(origin any, ref d2d.AckRef) error {
	src := origin.(*pdevice)
	dist := d.pos(d.Now()).Dist(d.env.posSnap[src.order])
	if !d.env.radio.InRange(dist) {
		return d2d.ErrOutOfRange
	}
	if !d.env.radio.TransferOK(dist, d.rng) {
		return d2d.ErrTransferFailed
	}
	d.sendOp(parOp{dst: src.order, kind: opAck, ref: ref})
	return nil
}

// Leave drops the relay from the next snapshot's beacons.
func (d *pdevice) Leave() { d.advAccepting = false }

// applyOp dispatches one inbound boundary op on the destination device.
func (d *pdevice) applyOp(op parOp) {
	switch op.kind {
	case opConnect:
		// The responder's discovery and connection phases, billed at
		// formation as in d2d.Connect.
		d.ledger.Add(energy.PhaseDiscovery, d.env.model.RelayDiscovery)
		d.ledger.Add(energy.PhaseConnection, d.env.model.RelayConnection)
	case opForward:
		// The receive energy is charged before the policy decision, as the
		// sequential link charges the receiver before invoking its handler.
		d.ledger.Add(energy.PhaseD2DRecv, op.charge)
		d.relay.Receive(op.hb, d.env.devices[op.src])
	case opAck:
		d.ue.Feedback(op.ref)
	}
}
