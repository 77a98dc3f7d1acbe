package relaynet

import (
	"net"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

var pt0 = time.Unix(1_700_000_000, 0)

func ref(src string, seq uint64) hbproto.Ref { return hbproto.Ref{Src: src, Seq: seq} }

func refsOf(es []PendingEntry) []hbproto.Ref {
	out := make([]hbproto.Ref, len(es))
	for i, e := range es {
		out[i] = e.Ref
	}
	return out
}

func sameRefs(t *testing.T, what string, got, want []hbproto.Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

func TestPendingFallbackOnce(t *testing.T) {
	p := NewPending()
	hb := &hbproto.Heartbeat{Src: "ue", Seq: 1}
	p.Track(ref("ue", 1), hb, pt0, time.Second, true)
	p.Track(ref("ue", 2), nil, pt0, time.Second, false)

	if resend, lost := p.Expire(pt0.Add(999 * time.Millisecond)); len(resend)+len(lost) != 0 {
		t.Fatalf("expired before the deadline: %v %v", resend, lost)
	}
	now := pt0.Add(time.Second)
	resend, lost := p.Expire(now)
	sameRefs(t, "first-miss resend", refsOf(resend), []hbproto.Ref{ref("ue", 1)})
	sameRefs(t, "first-miss lost", refsOf(lost), []hbproto.Ref{ref("ue", 2)})
	e := resend[0]
	if e.HB != hb || !e.Sent.Equal(now) || !e.Deadline.Equal(now.Add(time.Second)) || e.Fallback {
		t.Fatalf("re-armed entry %+v", e)
	}
	if p.Len() != 1 {
		t.Fatalf("len %d after first miss, want the re-armed entry", p.Len())
	}
	// The re-armed entry waits a full timeout again, then is lost: the
	// fallback is spent.
	if resend, lost := p.Expire(now.Add(500 * time.Millisecond)); len(resend)+len(lost) != 0 {
		t.Fatalf("re-armed entry expired early: %v %v", resend, lost)
	}
	resend, lost = p.Expire(now.Add(time.Second))
	if len(resend) != 0 {
		t.Fatalf("second fallback granted: %v", resend)
	}
	sameRefs(t, "second-miss lost", refsOf(lost), []hbproto.Ref{ref("ue", 1)})
	if p.Len() != 0 {
		t.Fatalf("len %d, want 0", p.Len())
	}
}

func TestPendingSettleIgnoresUnknownRefs(t *testing.T) {
	p := NewPending()
	p.Track(ref("ue", 1), nil, pt0, time.Second, true)
	p.Track(ref("ue", 2), nil, pt0.Add(time.Millisecond), time.Second, true)

	got := p.Settle(nil, []hbproto.Ref{
		ref("other", 1), // foreign: another client's seq
		ref("ue", 7),    // never tracked
		ref("ue", 2),
		ref("ue", 2), // duplicate within the frame
	})
	if len(got) != 1 || got[0].Ref != ref("ue", 2) || !got[0].Sent.Equal(pt0.Add(time.Millisecond)) {
		t.Fatalf("settled %+v", got)
	}
	// A stale ack of an already settled heartbeat settles nothing.
	if got := p.Settle(nil, []hbproto.Ref{ref("ue", 2)}); len(got) != 0 {
		t.Fatalf("stale ref settled: %+v", got)
	}
	if got := p.Settle(got[:0], []hbproto.Ref{ref("ue", 1)}); len(got) != 1 || p.Len() != 0 {
		t.Fatalf("settled %+v, %d left pending", got, p.Len())
	}
}

func TestPendingForget(t *testing.T) {
	p := NewPending()
	p.Track(ref("ue", 1), nil, pt0, time.Second, true)
	if !p.Forget(ref("ue", 1)) {
		t.Fatal("Forget of a pending entry reported false")
	}
	if p.Forget(ref("ue", 1)) {
		t.Fatal("second Forget reported true")
	}
	// A heartbeat settled before its failed write is reported delivered.
	p.Track(ref("ue", 2), nil, pt0, time.Second, true)
	p.Settle(nil, []hbproto.Ref{ref("ue", 2)})
	if p.Forget(ref("ue", 2)) {
		t.Fatal("Forget of a settled entry reported true")
	}
	if resend, lost := p.Expire(pt0.Add(time.Hour)); len(resend)+len(lost) != 0 || p.Len() != 0 {
		t.Fatalf("forgotten entries resurfaced: %v %v", resend, lost)
	}
}

func TestPendingExpireAndDrainSorted(t *testing.T) {
	p := NewPending()
	// Insert out of order; both listings come back in (Src, Seq) order.
	for _, r := range []hbproto.Ref{ref("b", 2), ref("a", 10), ref("b", 1), ref("a", 9), ref("c", 1)} {
		p.Track(r, nil, pt0, time.Second, r.Src != "c")
	}
	resend, lost := p.Expire(pt0.Add(time.Second))
	sameRefs(t, "resend", refsOf(resend), []hbproto.Ref{ref("a", 9), ref("a", 10), ref("b", 1), ref("b", 2)})
	sameRefs(t, "lost", refsOf(lost), []hbproto.Ref{ref("c", 1)})
	p.Track(ref("a", 1), nil, pt0, time.Hour, true)
	sameRefs(t, "drain", refsOf(p.Drain()),
		[]hbproto.Ref{ref("a", 1), ref("a", 9), ref("a", 10), ref("b", 1), ref("b", 2)})
	if p.Len() != 0 || len(p.Drain()) != 0 {
		t.Fatal("drain left entries behind")
	}
}

// Settles racing expiry: every tracked heartbeat ends in exactly one
// outcome — settled or lost — whatever the interleaving. Run under -race.
func TestPendingConcurrentSettleAndExpire(t *testing.T) {
	const n = 2000
	p := NewPending()
	for i := 0; i < n; i++ {
		p.Track(ref("ue", uint64(i)), nil, pt0, time.Duration(i%7)*time.Millisecond, false)
	}
	var (
		mu      sync.Mutex
		settled int
		lost    int
		wg      sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				s := len(p.Settle(nil, []hbproto.Ref{ref("ue", uint64(i))}))
				mu.Lock()
				settled += s
				mu.Unlock()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < 8; d++ {
				_, l := p.Expire(pt0.Add(time.Duration(d) * time.Millisecond))
				mu.Lock()
				lost += len(l)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	lost += len(p.Drain())
	if settled+lost != n {
		t.Fatalf("settled %d + lost %d != tracked %d", settled, lost, n)
	}
}

// ReadAcks settles Ack and Feedback refs off the wire, skips other frames,
// and returns when the connection closes.
func TestPendingReadAcks(t *testing.T) {
	p := NewPending()
	p.Track(ref("ue", 1), nil, pt0, time.Second, true)
	p.Track(ref("ue", 2), nil, pt0, time.Second, true)
	p.Track(ref("ue", 3), nil, pt0, time.Second, true)
	a, b := net.Pipe()
	done := make(chan error, 1)
	var got []hbproto.Ref // written by the reader; read after done
	go func() {
		done <- p.ReadAcks(a, func(e PendingEntry, at time.Time) {
			if at.Before(e.Sent) {
				t.Errorf("ack instant %v before send %v", at, e.Sent)
			}
			got = append(got, e.Ref)
		})
	}()
	for _, m := range []hbproto.Message{
		&hbproto.Ack{Refs: []hbproto.Ref{ref("ue", 1), ref("other", 2)}},
		&hbproto.Heartbeat{Src: "x", Seq: 1, App: "a", Origin: pt0, Expiry: time.Second},
		&hbproto.Feedback{Refs: []hbproto.Ref{ref("ue", 3), ref("ue", 1)}},
	} {
		if err := hbproto.WriteFrame(b, m); err != nil {
			t.Fatal(err)
		}
	}
	_ = b.Close()
	if err := <-done; err == nil {
		t.Fatal("ReadAcks returned nil on a closed connection")
	}
	sameRefs(t, "settled", got, []hbproto.Ref{ref("ue", 1), ref("ue", 3)})
	if p.Len() != 1 {
		t.Fatalf("len %d, want ue/2 still pending", p.Len())
	}
}
