package rec

import "fmt"

// Rule names one outcome invariant a recorded trace must keep.
type Rule string

// Trace rules checked by Check.
const (
	// RuleOrphan: an ack or timeout with no earlier send of the same
	// (client, seq).
	RuleOrphan Rule = "outcome without a send"
	// RuleSecondOutcome: a send that already had its ack or timeout got
	// another one.
	RuleSecondOutcome Rule = "second outcome"
	// RuleNoOutcome: a send that never got an ack or timeout. A trace
	// recorded through the load generator's end-of-run drain has none; a
	// trace cut mid-flight may.
	RuleNoOutcome Rule = "send without an outcome"
)

// Violation is one broken rule, pinned to the offending event (the send,
// for RuleNoOutcome).
type Violation struct {
	Rule  Rule
	Event Event
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s client %d seq %d at %v", v.Rule, v.Event.Kind, v.Event.Client, v.Event.Seq, v.Event.At)
}

// Check walks the timeline in order and reports, in timeline order, every
// ack or timeout that follows no send of its (client, seq), every send
// given a second outcome, and then every send left without one.
//
// Acks are deliberately not required to be monotonic per client: a
// fallback resend can be acked after a later seq, and that is not a bug.
func Check(tl *Timeline) []Violation {
	type key struct {
		client int
		seq    uint64
	}
	type state struct {
		open    []Event // sends still awaiting their outcome, oldest first
		settled bool    // some send of this key has had its outcome
	}
	keys := make(map[key]*state)
	var order []key // first-seen order, so open sends report deterministically
	var out []Violation
	for _, e := range tl.Events {
		k := key{e.Client, e.Seq}
		st := keys[k]
		if st == nil {
			st = &state{}
			keys[k] = st
			order = append(order, k)
		}
		switch e.Kind {
		case EvSend:
			st.open = append(st.open, e)
		case EvAck, EvTimeout:
			switch {
			case len(st.open) > 0:
				st.open = st.open[1:]
				st.settled = true
			case st.settled:
				out = append(out, Violation{Rule: RuleSecondOutcome, Event: e})
			default:
				out = append(out, Violation{Rule: RuleOrphan, Event: e})
			}
		}
	}
	for _, k := range order {
		for _, e := range keys[k].open {
			out = append(out, Violation{Rule: RuleNoOutcome, Event: e})
		}
	}
	return out
}
