package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/experiments"
	"d2dhb/internal/trace"
)

// hbKey identifies one heartbeat across trace events.
type hbKey struct {
	device string
	seq    uint64
}

// hbLife is one heartbeat's life as checkOutcomes sees it.
type hbLife struct {
	generated   bool
	forwarded   bool
	forwardedAt int64
	outcomes    []trace.Kind
	badOrder    bool
}

// checkOutcomes checks the "exactly one outcome" invariant on a recorded
// simulator trace. Every heartbeat a UE generated must end in exactly one
// of a direct send, a relay ack or a fallback resend, or still be awaiting
// feedback at the horizon — forwarded, with no outcome yet. An ack or
// fallback must follow a D2D forward of the same heartbeat, and no outcome
// may appear for a heartbeat never generated.
//
// "Follows" is in virtual time, not stream position: the sequential
// kernel acknowledges a forward that fills the relay's batch inside the
// send itself, so that ack is recorded at the same instant just before its
// forward. Hence two passes.
func checkOutcomes(events []trace.Event) error {
	hbs := make(map[hbKey]*hbLife)
	get := func(ev trace.Event) *hbLife {
		k := hbKey{device: ev.Device, seq: ev.Seq}
		if hbs[k] == nil {
			hbs[k] = &hbLife{}
		}
		return hbs[k]
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindGenerated:
			get(ev).generated = true
		case trace.KindD2DSend:
			if h := get(ev); !h.forwarded {
				h.forwarded, h.forwardedAt = true, ev.AtMs
			}
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindDirectSend, trace.KindAck, trace.KindFallback:
			h := get(ev)
			h.outcomes = append(h.outcomes, ev.Kind)
			if ev.Kind != trace.KindDirectSend && (!h.forwarded || h.forwardedAt > ev.AtMs) {
				h.badOrder = true
			}
		}
	}
	var bad []string
	for k, h := range hbs {
		var why string
		switch {
		case len(h.outcomes) > 0 && !h.generated:
			why = fmt.Sprintf("outcome %v for a heartbeat never generated", h.outcomes)
		case len(h.outcomes) > 1:
			why = fmt.Sprintf("%d outcomes %v", len(h.outcomes), h.outcomes)
		case h.badOrder:
			why = fmt.Sprintf("%v without an earlier d2d forward", h.outcomes[0])
		case h.generated && len(h.outcomes) == 0 && !h.forwarded:
			why = "no outcome and never forwarded"
		default:
			continue
		}
		bad = append(bad, fmt.Sprintf("%s#%d: %s", k.device, k.seq, why))
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more", len(bad)-5))
	}
	return fmt.Errorf("outcome invariant violated for %s", strings.Join(bad, "; "))
}

func TestCheckOutcomes(t *testing.T) {
	ev := func(at int64, k trace.Kind, seq uint64) trace.Event {
		return trace.Event{AtMs: at, Device: "u", Kind: k, Seq: seq}
	}
	gen := func(at int64, seq uint64) trace.Event { return ev(at, trace.KindGenerated, seq) }
	cases := []struct {
		name   string
		events []trace.Event
		want   string // substring of the error; empty means valid
	}{
		{"direct", []trace.Event{gen(0, 1), ev(0, trace.KindDirectSend, 1)}, ""},
		{"acked", []trace.Event{gen(0, 1), ev(0, trace.KindD2DSend, 1), ev(9, trace.KindAck, 1)}, ""},
		{"fallback", []trace.Event{gen(0, 1), ev(0, trace.KindD2DSend, 1), ev(9, trace.KindFallback, 1)}, ""},
		{"failed forward then direct", []trace.Event{gen(0, 1), ev(0, trace.KindD2DFail, 1), ev(0, trace.KindDirectSend, 1)}, ""},
		{"pending at horizon", []trace.Event{gen(0, 1), ev(0, trace.KindD2DSend, 1)}, ""},
		{"same-instant ack before its forward", []trace.Event{gen(5, 1), ev(5, trace.KindAck, 1), ev(5, trace.KindD2DSend, 1)}, ""},
		{"relay events ignored", []trace.Event{ev(3, trace.KindCollect, 1), ev(3, trace.KindFlush, 0)}, ""},
		{"two outcomes", []trace.Event{gen(0, 1), ev(0, trace.KindD2DSend, 1), ev(4, trace.KindAck, 1), ev(9, trace.KindFallback, 1)}, "2 outcomes"},
		{"ack without forward", []trace.Event{gen(0, 1), ev(4, trace.KindAck, 1)}, "without an earlier d2d forward"},
		{"fallback before forward", []trace.Event{gen(0, 1), ev(4, trace.KindFallback, 1), ev(6, trace.KindD2DSend, 1)}, "without an earlier d2d forward"},
		{"never generated", []trace.Event{ev(0, trace.KindDirectSend, 7)}, "never generated"},
		{"lost", []trace.Event{gen(0, 1)}, "never forwarded"},
		{"report truncated", []trace.Event{gen(0, 1), gen(0, 2), gen(0, 3), gen(0, 4), gen(0, 5), gen(0, 6), gen(0, 7)}, "and 2 more"},
	}
	for _, c := range cases {
		err := checkOutcomes(c.events)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// requireKinds fails when the trace lacks an outcome kind the check must
// judge, which would make it vacuous.
func requireKinds(t *testing.T, label string, rec *trace.Recorder) {
	t.Helper()
	for _, k := range []trace.Kind{trace.KindDirectSend, trace.KindD2DSend, trace.KindAck} {
		if len(rec.ByKind(k)) == 0 {
			t.Errorf("%s: no %s events; the check is vacuous", label, k)
		}
	}
}

// TestOneOutcome feeds traces from both simulator kernels — the shared
// device model over the sequential and over the windowed substrate —
// through one checker: the sequential mixed crowd of the determinism
// suite, and the tile kernel's golden scenario at tiles 1, 4 and 16.
func TestOneOutcome(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rec := &trace.Recorder{}
		if _, err := core.MixedCrowdTraced(t, seed, rec).Run(); err != nil {
			t.Fatalf("sequential seed=%d: %v", seed, err)
		}
		label := fmt.Sprintf("sequential seed=%d", seed)
		if err := checkOutcomes(rec.Events()); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		requireKinds(t, label, rec)

		for _, tiles := range []int{1, 4, 16} {
			rec := &trace.Recorder{}
			cfg := experiments.ParallelCityConfig{
				CityConfig: experiments.CityConfig{
					Seed: seed, Devices: 400, RelayFraction: 0.10, Side: 200,
					Duration: 300 * time.Second, Capacity: 16,
				},
				Tiles:  tiles,
				Tracer: rec,
			}
			if _, _, err := experiments.RunCityParallel(cfg); err != nil {
				t.Fatalf("tiles=%d seed=%d: %v", tiles, seed, err)
			}
			label := fmt.Sprintf("tiles=%d seed=%d", tiles, seed)
			if err := checkOutcomes(rec.Events()); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			requireKinds(t, label, rec)
		}
	}
}
