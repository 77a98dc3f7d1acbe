package relaynet

import (
	"cmp"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"d2dhb/internal/hbproto"
)

// PendingEntry is one heartbeat awaiting its acknowledgement (Section
// III-A: a UE forwards, waits for feedback and, failing that, falls back to
// cellular).
type PendingEntry struct {
	// Ref is the heartbeat's wire identity (Src, Seq).
	Ref hbproto.Ref
	// HB is kept for the fallback resend; nil when the caller rebuilds it.
	HB *hbproto.Heartbeat
	// Sent is the latest transmission instant: the original send, or the
	// fallback resend once the entry has been re-armed.
	Sent time.Time
	// Deadline is when the current attempt counts as missed.
	Deadline time.Time
	// Fallback reports that a first miss still earns one resend.
	Fallback bool
}

// Pending is the send → wait → ack/fallback/lost bookkeeping shared by
// every live heartbeat sender: UEClient and the load generator's virtual
// UEs, trunks and replay. Entries are keyed by the wire's own identity, so
// a ref for another client, an already-settled heartbeat or an unknown seq
// is simply not found. Each caller drives the clock: it calls Expire when
// it wants misses judged and Drain when it gives up on the rest. Safe for
// concurrent use.
type Pending struct {
	mu      sync.Mutex
	entries map[hbproto.Ref]PendingEntry
}

// NewPending returns an empty tracker.
func NewPending() *Pending {
	return &Pending{entries: make(map[hbproto.Ref]PendingEntry)}
}

// Track starts waiting for ref's acknowledgement. sent is the transmission
// instant, timeout how long one attempt may wait, and fallback whether a
// first miss earns one resend; hb, when non-nil, is kept for that resend.
// Track before writing: on loopback the ack can beat the writer back.
func (p *Pending) Track(ref hbproto.Ref, hb *hbproto.Heartbeat, sent time.Time, timeout time.Duration, fallback bool) {
	p.mu.Lock()
	p.entries[ref] = PendingEntry{Ref: ref, HB: hb, Sent: sent, Deadline: sent.Add(timeout), Fallback: fallback}
	p.mu.Unlock()
}

// Forget drops a heartbeat whose write never reached the wire. It reports
// whether the entry was still pending; false means an ack already settled
// it, so the heartbeat did get through.
func (p *Pending) Forget(ref hbproto.Ref) bool {
	p.mu.Lock()
	_, ok := p.entries[ref]
	delete(p.entries, ref)
	p.mu.Unlock()
	return ok
}

// Settle removes every pending ref in refs and appends the settled
// entries to dst, in refs order. Refs that are not pending — another
// client's, a stale duplicate, a seq never tracked — are skipped, so each
// heartbeat settles at most once however many paths ack it.
func (p *Pending) Settle(dst []PendingEntry, refs []hbproto.Ref) []PendingEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ref := range refs {
		if e, ok := p.entries[ref]; ok {
			delete(p.entries, ref)
			dst = append(dst, e)
		}
	}
	return dst
}

// Expire judges every entry whose deadline is at or before now. An entry
// with its fallback left is re-armed from now for another timeout and
// returned in resend; any other is removed and returned in lost. Both are
// in (Src, Seq) order, so what callers record does not depend on map
// order.
func (p *Pending) Expire(now time.Time) (resend, lost []PendingEntry) {
	p.mu.Lock()
	for ref, e := range p.entries {
		if e.Deadline.After(now) {
			continue
		}
		if e.Fallback {
			e.Deadline = now.Add(e.Deadline.Sub(e.Sent))
			e.Sent, e.Fallback = now, false
			p.entries[ref] = e
			resend = append(resend, e)
			continue
		}
		delete(p.entries, ref)
		lost = append(lost, e)
	}
	p.mu.Unlock()
	sortEntries(resend)
	sortEntries(lost)
	return resend, lost
}

// Drain removes and returns every remaining entry as lost, in (Src, Seq)
// order.
func (p *Pending) Drain() []PendingEntry {
	p.mu.Lock()
	out := make([]PendingEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e)
	}
	clear(p.entries)
	p.mu.Unlock()
	sortEntries(out)
	return out
}

// Len reports how many heartbeats are pending.
func (p *Pending) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// ReadAcks reads frames from r until a read fails and settles the refs of
// every Ack (server) and Feedback (relay) frame; other frames are skipped.
// fn, which may be nil, sees each settled entry with the instant its frame
// was read. It runs on the reading goroutine without the tracker locked, so
// callers reading several connections into one tracker synchronize what fn
// touches. Frames are consumed inline, so the FrameReader's reused messages
// never escape an iteration. It returns the read error.
func (p *Pending) ReadAcks(r io.Reader, fn func(e PendingEntry, at time.Time)) error {
	fr := hbproto.NewFrameReader(r)
	var settled []PendingEntry
	for {
		msg, err := fr.Next()
		if err != nil {
			return err
		}
		var refs []hbproto.Ref
		switch m := msg.(type) {
		case *hbproto.Ack:
			refs = m.Refs
		case *hbproto.Feedback:
			refs = m.Refs
		default:
			continue
		}
		settled = p.Settle(settled[:0], refs)
		if fn == nil {
			continue
		}
		at := time.Now()
		for _, e := range settled {
			fn(e, at)
		}
	}
}

func sortEntries(es []PendingEntry) {
	slices.SortFunc(es, func(a, b PendingEntry) int {
		if c := strings.Compare(a.Ref.Src, b.Ref.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Ref.Seq, b.Ref.Seq)
	})
}
