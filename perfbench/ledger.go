package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"d2dhb/internal/hbproto"
)

// path is the route a heartbeat copy took: through the relay (answered by
// Feedback) or straight to the server (answered by Ack).
type path uint8

const (
	pathRelay  path = 1
	pathDirect path = 2
)

var errUnknownRef = errors.New("unknown ref")

// hbRecord is the generator's view of one due heartbeat. Times are offsets
// from the run epoch; a path's bit in sentMask/ackMask says whether the
// matching sent/ack slot is set.
type hbRecord struct {
	sent     [3]time.Duration // indexed by path
	ackAt    time.Duration    // first ack on any path: the outcome
	sentMask uint8
	ackMask  uint8
}

// ledger maps every (user, seq) the schedule makes due to its due time and
// records sends and acks against it. It enforces the live output checks:
// no ack for a ref that was never sent on that path, none before its send,
// none twice on one path, and each user's first acks rise with seq.
type ledger struct {
	period time.Duration
	rounds int
	phase  []time.Duration // per user: due time of seq 1
	index  map[string]int32

	mu         sync.Mutex
	rec        []hbRecord // user*rounds + seq-1
	lastSeq    []uint64   // per user: highest seq with a first ack
	firstAcks  int
	violations map[string]int
	example    string
}

func newLedger(ids []string, phase []time.Duration, period time.Duration, rounds int) *ledger {
	l := &ledger{
		period:     period,
		rounds:     rounds,
		phase:      phase,
		index:      make(map[string]int32, len(ids)),
		rec:        make([]hbRecord, len(ids)*rounds),
		lastSeq:    make([]uint64, len(ids)),
		violations: make(map[string]int),
	}
	for i, id := range ids {
		l.index[id] = int32(i)
	}
	return l
}

// due is the instant (from the run epoch) at which user u's seq falls due.
func (l *ledger) due(u int, seq uint64) time.Duration {
	return l.phase[u] + time.Duration(seq-1)*l.period
}

// resolve maps a ref to its record index, rejecting refs the schedule never
// made due.
func (l *ledger) resolve(src string, seq uint64) (int, error) {
	u, ok := l.index[src]
	if !ok || seq < 1 || seq > uint64(l.rounds) {
		return 0, fmt.Errorf("%w %s#%d", errUnknownRef, src, seq)
	}
	return int(u)*l.rounds + int(seq-1), nil
}

// markSent records that (u, seq) left on p at the given instant. The
// caller marks before the write, so a correct ack can never precede it.
func (l *ledger) markSent(u int, seq uint64, p path, at time.Duration) {
	l.mu.Lock()
	r := &l.rec[u*l.rounds+int(seq-1)]
	r.sent[p] = at
	r.sentMask |= uint8(p)
	l.mu.Unlock()
}

// ackRefs records the refs of one Ack or Feedback frame arriving on p.
func (l *ledger) ackRefs(refs []hbproto.Ref, p path, at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range refs {
		l.ack(r.Src, r.Seq, p, at)
	}
}

// ack records one ack for src#seq; the caller holds l.mu.
func (l *ledger) ack(src string, seq uint64, p path, at time.Duration) {
	i, err := l.resolve(src, seq)
	if err != nil {
		l.violate("unknown ref", err.Error())
		return
	}
	r := &l.rec[i]
	switch {
	case r.sentMask&uint8(p) == 0:
		l.violate("ack for unsent ref", fmt.Sprintf("%s#%d on path %d", src, seq, p))
		return
	case at < r.sent[p]:
		l.violate("ack before send", fmt.Sprintf("%s#%d", src, seq))
		return
	case r.ackMask&uint8(p) != 0:
		l.violate("duplicate ack", fmt.Sprintf("%s#%d on path %d", src, seq, p))
		return
	}
	first := r.ackMask == 0
	r.ackMask |= uint8(p)
	if !first {
		return // the resent copy's ack; the first one was the outcome
	}
	r.ackAt = at
	l.firstAcks++
	u := i / l.rounds
	if seq <= l.lastSeq[u] {
		l.violate("non-monotonic ack", fmt.Sprintf("%s#%d after #%d", src, seq, l.lastSeq[u]))
	}
	l.lastSeq[u] = seq
}

func (l *ledger) violate(kind, detail string) {
	if len(l.violations) == 0 {
		l.example = kind + ": " + detail
	}
	l.violations[kind]++
}

// check returns the first violation seen, with the totals by kind.
func (l *ledger) check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.violations) == 0 {
		return nil
	}
	return fmt.Errorf("ack checks failed %v (first: %s)", l.violations, l.example)
}

// acked reports whether (u, seq) has its outcome.
func (l *ledger) acked(u int, seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec[u*l.rounds+int(seq-1)].ackMask != 0
}

// pending returns how many due heartbeats still lack an outcome.
func (l *ledger) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rec) - l.firstAcks
}

// lastAck returns the latest first-ack instant.
func (l *ledger) lastAck() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var last time.Duration
	for i := range l.rec {
		if l.rec[i].ackMask != 0 && l.rec[i].ackAt > last {
			last = l.rec[i].ackAt
		}
	}
	return last
}

// slices cuts [from, from+n*width) into n slices by due time and returns,
// per slice, the due-to-first-ack latencies in ms, sorted, and the number
// of heartbeats due.
func (l *ledger) slices(from, width time.Duration, n int) (lat [][]float64, due int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lat = make([][]float64, n)
	for u := range l.phase {
		for s := 1; s <= l.rounds; s++ {
			d := l.due(u, uint64(s))
			if d < from || d >= from+time.Duration(n)*width {
				continue
			}
			due++
			if r := &l.rec[u*l.rounds+s-1]; r.ackMask != 0 {
				i := int((d - from) / width)
				lat[i] = append(lat[i], float64(r.ackAt-d)/float64(time.Millisecond))
			}
		}
	}
	for _, xs := range lat {
		sort.Float64s(xs)
	}
	return lat, due
}

// backlog samples the outstanding count (due so far minus first-acked so
// far) every step across [from, to) and returns its mean over the first and
// the last fifth of the window. A last fifth well above the first means
// acks fell behind the open-loop load.
func (l *ledger) backlog(from, to, step time.Duration) (first, last float64) {
	l.mu.Lock()
	var dues, acks []time.Duration
	for u := range l.phase {
		for s := 1; s <= l.rounds; s++ {
			dues = append(dues, l.due(u, uint64(s)))
			if r := &l.rec[u*l.rounds+s-1]; r.ackMask != 0 {
				acks = append(acks, r.ackAt)
			}
		}
	}
	l.mu.Unlock()
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	count := func(xs []time.Duration, t time.Duration) int {
		return sort.Search(len(xs), func(i int) bool { return xs[i] >= t })
	}
	var samples []float64
	for t := from; t < to; t += step {
		samples = append(samples, float64(count(dues, t)-count(acks, t)))
	}
	k := len(samples) / 5
	if k == 0 {
		return 0, 0
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return mean(samples[:k]), mean(samples[len(samples)-k:])
}
