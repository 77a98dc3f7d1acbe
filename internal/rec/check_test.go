package rec

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func ev(at time.Duration, kind EventKind, client int, seq uint64) Event {
	return Event{At: at * time.Millisecond, Kind: kind, Client: client, Seq: seq}
}

func TestCheckCleanTrace(t *testing.T) {
	tl := &Timeline{
		Clients: []Client{{ID: "a", Relay: -1}, {ID: "b", Relay: -1}},
		Events: []Event{
			ev(1, EvSend, 0, 1), ev(1, EvSend, 1, 1),
			ev(2, EvAck, 0, 1),
			ev(3, EvSend, 0, 2),
			// A late ack of an older seq is legitimate (fallback resend).
			ev(4, EvAck, 0, 2), ev(5, EvTimeout, 1, 1),
			// The same (client, seq) may be sent again once settled.
			ev(6, EvSend, 1, 1), ev(7, EvAck, 1, 1),
		},
	}
	if vs := Check(tl); len(vs) != 0 {
		t.Fatalf("clean trace flagged: %v", vs)
	}
	if vs := Check(&Timeline{}); len(vs) != 0 {
		t.Fatalf("empty trace flagged: %v", vs)
	}
}

func TestCheckFindsEveryRule(t *testing.T) {
	tl := &Timeline{
		Clients: []Client{{ID: "a", Relay: -1}, {ID: "b", Relay: -1}},
		Events: []Event{
			ev(1, EvAck, 0, 9), // orphan ack
			ev(2, EvSend, 0, 1),
			ev(3, EvAck, 0, 1),
			ev(4, EvTimeout, 0, 1), // second outcome
			ev(5, EvSend, 1, 4),    // never settled
			ev(6, EvTimeout, 1, 3), // orphan timeout
			ev(7, EvSend, 0, 2),    // never settled
		},
	}
	got := Check(tl)
	want := []Violation{
		{RuleOrphan, ev(1, EvAck, 0, 9)},
		{RuleSecondOutcome, ev(4, EvTimeout, 0, 1)},
		{RuleOrphan, ev(6, EvTimeout, 1, 3)},
		{RuleNoOutcome, ev(5, EvSend, 1, 4)},
		{RuleNoOutcome, ev(7, EvSend, 0, 2)},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations\n got %v\nwant %v", got, want)
	}
	if s := got[0].String(); !strings.Contains(s, "outcome without a send") || !strings.Contains(s, "seq 9") {
		t.Fatalf("violation string %q", s)
	}
}

// An ack recorded at its send's instant sorts after the send (Kind
// breaks ties), so it is not an orphan.
func TestCheckSameInstantAck(t *testing.T) {
	r := NewRecorder()
	r.Start(t0, 0)
	c := r.AddClient(Client{ID: "a", Relay: -1})
	r.Record(EvAck, c, 1, t0.Add(time.Millisecond))
	r.Record(EvSend, c, 1, t0.Add(time.Millisecond))
	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(tl); len(vs) != 0 {
		t.Fatalf("same-instant ack flagged: %v", vs)
	}
}
