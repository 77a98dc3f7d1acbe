package device

import (
	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// Substrate is what a device needs from the simulator kernel that runs it:
// the clock and timers, trace emission and the cellular modem. UE and Relay
// talk only to a substrate, so the protocol exists once and both kernels run
// it. NewUE and NewRelay wire a device onto the sequential kernel's shared
// scheduler, D2D medium and base station, where every effect lands at once;
// the tile kernel supplies a windowed substrate through NewUEOn and
// NewRelayOn, where cross-device effects land at the next window boundary.
type Substrate interface {
	simtime.Clock
	// Emit records one trace event, already stamped with the device id and
	// the current virtual time.
	Emit(ev trace.Event)
	// SendCellular transmits hbs in one cellular connection, charging the
	// given energy phase and delivering the heartbeats network-side. The
	// caller reuses hbs afterwards, so it must not be retained.
	SendCellular(hbs []hbmsg.Heartbeat, phase energy.Phase) error
}

// UESubstrate is a UE's side of the D2D medium. The substrate holds the
// UE's current relay link; an earlier link stays open after a handover, so
// feedback for heartbeats it carried still arrives.
type UESubstrate interface {
	Substrate
	// Scan discovers accepting relays in range, nearest first, charging
	// the scan's discovery energy.
	Scan() []d2d.PeerInfo
	// Connect makes the link to relay the current one, reusing an open
	// link to it.
	Connect(relay hbmsg.DeviceID) error
	// Linked reports the relay at the far end of the current link, and
	// whether that link is open.
	Linked() (relay hbmsg.DeviceID, ok bool)
	// LinkDistance is the current distance to the linked relay.
	LinkDistance() float64
	// LinkFree is the linked relay's advertised free capacity.
	LinkFree() int
	// Forward transfers hb to the linked relay, which receives it through
	// Relay.Receive. The error wraps d2d.ErrOutOfRange or
	// d2d.ErrLinkClosed when the link is gone, d2d.ErrTransferFailed on a
	// loss the link survives.
	Forward(hb hbmsg.Heartbeat) error
	// Unlink closes the current link.
	Unlink()
}

// RelaySubstrate is a relay's side of the D2D medium. Forwarded heartbeats
// arrive through Relay.Receive together with an origin token that Ack
// routes the feedback back to.
type RelaySubstrate interface {
	Substrate
	// Advertise publishes the relay's beacon: it accepts connections, with
	// this free collection capacity and group-owner intent.
	Advertise(free, intent int)
	// Ack sends the feedback for ref back to origin.
	Ack(origin any, ref d2d.AckRef) error
	// Leave takes the relay off the medium: it stops answering discovery
	// and its links close.
	Leave()
}

// medium is the sequential kernel's substrate: the device's D2D node and
// cellular modem on the shared scheduler. Effects are immediate — a
// forward runs the relay's Receive, and an ack the UE's Feedback, before
// the call returns.
type medium struct {
	*simtime.Scheduler
	node   *d2d.Node
	modem  *cellular.Modem
	tracer trace.Tracer
	link   *d2d.Link // UE: the current relay link
}

func (m *medium) Emit(ev trace.Event) { trace.Emit(m.tracer, ev) }

func (m *medium) SendCellular(hbs []hbmsg.Heartbeat, phase energy.Phase) error {
	return m.modem.Send(hbs, phase)
}

func (m *medium) Scan() []d2d.PeerInfo { return m.node.Scan() }

func (m *medium) Connect(relay hbmsg.DeviceID) error {
	link, err := m.node.Connect(relay)
	if err != nil {
		return err
	}
	m.link = link
	return nil
}

func (m *medium) Linked() (hbmsg.DeviceID, bool) {
	if m.link == nil || !m.link.Open() {
		return "", false
	}
	return m.link.Peer(m.node).ID(), true
}

func (m *medium) LinkDistance() float64 { return m.link.Distance() }

func (m *medium) LinkFree() int {
	free, _ := m.link.Peer(m.node).Advertised()
	return free
}

func (m *medium) Forward(hb hbmsg.Heartbeat) error { return m.link.Send(m.node, hb) }

func (m *medium) Unlink() {
	if m.link != nil {
		m.link.Close()
		m.link = nil
	}
}

func (m *medium) Advertise(free, intent int) {
	m.node.SetAccepting(true)
	m.node.Advertise(free, intent)
}

func (m *medium) Ack(origin any, ref d2d.AckRef) error {
	return origin.(*d2d.Link).SendAck(m.node, []d2d.AckRef{ref})
}

func (m *medium) Leave() {
	m.node.SetAccepting(false)
	for _, l := range m.node.Links() {
		l.Close()
	}
}
