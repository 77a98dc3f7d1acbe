package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

func testLedger() *ledger {
	ids := []string{"a", "b"}
	phase := []time.Duration{100 * time.Millisecond, 350 * time.Millisecond}
	return newLedger(ids, phase, time.Second, 3)
}

func TestLedgerDueTimes(t *testing.T) {
	l := testLedger()
	for _, tc := range []struct {
		src  string
		seq  uint64
		want time.Duration
	}{{"a", 1, 100 * time.Millisecond}, {"a", 3, 2100 * time.Millisecond}, {"b", 2, 1350 * time.Millisecond}} {
		i, err := l.resolve(tc.src, tc.seq)
		if err != nil {
			t.Fatalf("resolve %s#%d: %v", tc.src, tc.seq, err)
		}
		if got := l.due(i/l.rounds, tc.seq); got != tc.want {
			t.Errorf("due %s#%d = %v, want %v", tc.src, tc.seq, got, tc.want)
		}
	}
}

func TestLedgerRejectsUnknownRefs(t *testing.T) {
	l := testLedger()
	for _, ref := range []hbproto.Ref{{Src: "zz", Seq: 1}, {Src: "a", Seq: 0}, {Src: "a", Seq: 4}} {
		if _, err := l.resolve(ref.Src, ref.Seq); !errors.Is(err, errUnknownRef) {
			t.Errorf("resolve %v: err %v, want errUnknownRef", ref, err)
		}
	}
	l.ackRefs([]hbproto.Ref{{Src: "zz", Seq: 1}}, pathDirect, time.Second)
	if err := l.check(); err == nil || !strings.Contains(err.Error(), "unknown ref") {
		t.Errorf("check after unknown ref: %v", err)
	}
}

func violation(t *testing.T, l *ledger, kind string) {
	t.Helper()
	err := l.check()
	if err == nil || !strings.Contains(err.Error(), kind) {
		t.Errorf("want a %q violation, got %v", kind, err)
	}
}

func TestLedgerAckChecks(t *testing.T) {
	ms := time.Millisecond
	t.Run("clean", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathRelay, 100*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}}, pathRelay, 150*ms)
		if err := l.check(); err != nil {
			t.Fatal(err)
		}
		if l.pending() != 5 {
			t.Errorf("pending = %d, want 5 of 6", l.pending())
		}
		lat, due := l.slices(0, 500*ms, 2)
		if len(lat[0]) != 1 || lat[0][0] != 50 || len(lat[1]) != 0 || due != 2 {
			t.Errorf("slices = %v, %d due; want [[50] []], 2 due", lat, due)
		}
	})
	t.Run("unsent", func(t *testing.T) {
		l := testLedger()
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 2}}, pathDirect, 150*ms)
		violation(t, l, "ack for unsent ref")
	})
	t.Run("wrong path", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathRelay, 100*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}}, pathDirect, 150*ms)
		violation(t, l, "ack for unsent ref")
	})
	t.Run("before send", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathDirect, 100*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}}, pathDirect, 90*ms)
		violation(t, l, "ack before send")
	})
	t.Run("duplicate", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathDirect, 100*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}, {Src: "a", Seq: 1}}, pathDirect, 110*ms)
		violation(t, l, "duplicate ack")
	})
	t.Run("resent copy acked too", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathRelay, 100*ms)
		l.markSent(0, 1, pathDirect, 550*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}}, pathDirect, 560*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 1}}, pathRelay, 570*ms)
		if err := l.check(); err != nil {
			t.Fatalf("one ack per path is allowed: %v", err)
		}
		lat, _ := l.slices(0, time.Second, 1)
		if len(lat[0]) != 1 || lat[0][0] != 460 {
			t.Errorf("outcome latency = %v, want the first ack's 460 ms", lat)
		}
	})
	t.Run("non-monotonic", func(t *testing.T) {
		l := testLedger()
		l.markSent(0, 1, pathDirect, 100*ms)
		l.markSent(0, 2, pathDirect, 1100*ms)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: 2}, {Src: "a", Seq: 1}}, pathDirect, 1200*ms)
		violation(t, l, "non-monotonic ack")
	})
}

func TestLedgerBacklog(t *testing.T) {
	// Two users for 3 s: all acked promptly, except that user b's acks
	// stop after its first heartbeat, so the backlog climbs.
	l := testLedger()
	ms := time.Millisecond
	for s := uint64(1); s <= 3; s++ {
		at := l.due(0, s)
		l.markSent(0, s, pathDirect, at)
		l.ackRefs([]hbproto.Ref{{Src: "a", Seq: s}}, pathDirect, at+ms)
		l.markSent(1, s, pathDirect, l.due(1, s))
	}
	l.ackRefs([]hbproto.Ref{{Src: "b", Seq: 1}}, pathDirect, l.due(1, 1)+ms)
	first, last := l.backlog(0, 3*time.Second, 100*ms)
	if last <= first {
		t.Errorf("backlog first %.1f, last %.1f: want growth", first, last)
	}
}
