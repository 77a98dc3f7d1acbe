package loadgen

import (
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
)

// recordRun executes one small in-process loadgen run with a recorder
// attached and returns the captured timeline, after checking that every
// recorded send ended in exactly one outcome (the run drains before it
// returns).
func recordRun(t *testing.T, cfg Config) *rec.Timeline {
	t.Helper()
	recorder := rec.NewRecorder()
	cfg.Recorder = recorder
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("recorded run sent nothing")
	}
	tl, err := recorder.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if vs := rec.Check(tl); len(vs) > 0 {
		t.Fatalf("recorded trace breaks %d outcome rules, first %v", len(vs), vs[0])
	}
	return tl
}

func TestRecordCapturesTimeline(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      4,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	if len(tl.Clients) != 4 {
		t.Fatalf("client table %d, want 4", len(tl.Clients))
	}
	for _, c := range tl.Clients {
		if c.Path != rec.PathDirect || c.Relay != -1 {
			t.Fatalf("direct run recorded client %+v", c)
		}
	}
	if tl.Sends() == 0 {
		t.Fatal("no sends recorded")
	}
	m := tl.RecordedMetrics()
	if m.Delivered == 0 {
		t.Fatal("no acks recorded")
	}
	// The trace must survive its own codec.
	rt, err := rec.Decode(tl.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Digest() != tl.Digest() {
		t.Fatal("recorded trace not canonical")
	}
}

func TestRecordTrunkedRun(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      12,
		Trunks:   2,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	if len(tl.Clients) != 12 {
		t.Fatalf("client table %d, want 12", len(tl.Clients))
	}
	groups := map[int]bool{}
	for _, c := range tl.Clients {
		if c.Path != rec.PathTrunked || c.Relay < 0 {
			t.Fatalf("trunked run recorded client %+v", c)
		}
		groups[c.Relay] = true
	}
	if len(groups) != 2 {
		t.Fatalf("trunk groups %d, want 2", len(groups))
	}
	if tl.RelayPeriod <= 0 || tl.RelayCapacity <= 0 {
		t.Fatalf("relay params %v/%d not recorded", tl.RelayPeriod, tl.RelayCapacity)
	}
}

func TestRecordFaultWindows(t *testing.T) {
	sched := faultnet.NewSchedule(7, []faultnet.Window{
		{From: 50 * time.Millisecond, To: 150 * time.Millisecond, Fault: faultnet.Fault{Kind: faultnet.KindLatency, Latency: 5 * time.Millisecond}},
	})
	tl := recordRun(t, Config{
		UEs:      2,
		Duration: 300 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
		Faults:   sched,
	})
	if tl.Seed != 7 {
		t.Fatalf("seed %d, want the fault schedule's 7", tl.Seed)
	}
	if len(tl.Faults) != 1 || tl.Faults[0].Kind != "latency" {
		t.Fatalf("fault windows %+v", tl.Faults)
	}
	if tl.Faults[0].From != 50*time.Millisecond || tl.Faults[0].To != 150*time.Millisecond {
		t.Fatalf("fault window times %+v", tl.Faults[0])
	}
}

// TestReplayLiveFromRecording is the full loop: record a trunked run, then
// replay the identical timeline through the live stack and check every
// replayed heartbeat is delivered again.
func TestReplayLiveFromRecording(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      8,
		Trunks:   2,
		Duration: 300 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	m, err := ReplayLive(tl, ReplayOptions{Speedup: 4, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "live" {
		t.Fatalf("source %q", m.Source)
	}
	if int(m.Sent) != tl.Sends() {
		t.Fatalf("replayed %d of %d recorded sends", m.Sent, tl.Sends())
	}
	if m.Delivered != m.Sent || m.Timeouts != 0 {
		t.Fatalf("live replay lost heartbeats: %+v", m)
	}
	// Trunked sends must actually batch: fewer frames than heartbeats.
	if m.Signaling.Uplinks >= m.Sent || m.Signaling.Batches == 0 {
		t.Fatalf("no live aggregation: %+v", m.Signaling)
	}
}

func TestReplayLiveMixedPaths(t *testing.T) {
	tl := &rec.Timeline{
		RelayPeriod:   100 * time.Millisecond,
		RelayCapacity: 4,
		Clients: []rec.Client{
			{ID: "d0", App: "chat", Period: 50 * time.Millisecond, Expiry: time.Second, Relay: -1},
			{ID: "g0", App: "chat", Period: 50 * time.Millisecond, Expiry: time.Second, Path: rec.PathTrunked, Relay: 0},
			{ID: "g1", App: "chat", Period: 50 * time.Millisecond, Expiry: time.Second, Path: rec.PathTrunked, Relay: 0},
		},
	}
	for p := 0; p < 3; p++ {
		base := time.Duration(p) * 50 * time.Millisecond
		for i := 0; i < 3; i++ {
			tl.Events = append(tl.Events, rec.Event{
				At: base + time.Duration(i)*500*time.Microsecond, Kind: rec.EvSend,
				Client: i, Seq: uint64(p + 1),
			})
		}
	}
	m, err := ReplayLive(tl, ReplayOptions{AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sent != 9 || m.Delivered != 9 {
		t.Fatalf("mixed replay %+v", m)
	}
	// Per round: one direct frame + one coalesced batch of two.
	if m.Signaling.Uplinks != 6 || m.Signaling.Batches != 3 {
		t.Fatalf("frame structure %+v, want 6 uplinks / 3 batches", m.Signaling)
	}
}

func TestReplayLiveErrors(t *testing.T) {
	if _, err := ReplayLive(nil, ReplayOptions{}); err == nil {
		t.Fatal("nil timeline accepted")
	}
	bad := &rec.Timeline{RelayPeriod: -1}
	if _, err := ReplayLive(bad, ReplayOptions{}); err == nil {
		t.Fatal("invalid timeline accepted")
	}
	empty := &rec.Timeline{}
	m, err := ReplayLive(empty, ReplayOptions{AckTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sent != 0 {
		t.Fatalf("empty replay sent %d", m.Sent)
	}
}
