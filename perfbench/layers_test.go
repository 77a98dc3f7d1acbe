package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/sched"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"d2dhb/internal/sched.(*Nagle).Deadline":                 "sched",
		"d2dhb/internal/simtime.(*Scheduler).Step":               "simtime",
		"d2dhb/internal/relaynet.(*Server).touch":                "relaynet.server",
		"d2dhb/internal/relaynet.(*Server).acceptLoop.func1":     "relaynet.server",
		"d2dhb/internal/relaynet.(*ackAggregator).add":           "relaynet.server",
		"d2dhb/internal/relaynet.(*RelayAgent).collect":          "relaynet.relay",
		"d2dhb/internal/relaynet.(*UEClient).send":               "other",
		"d2dhb/internal/hbproto.(*FrameReader).Next":             "hbproto",
		"d2dhb/internal/hbmsg.Heartbeat.Deadline":                "other",
		"internal/poll.(*FD).Write":                              "net",
		"internal/runtime/syscall.Syscall6":                      "net",
		"runtime.netpoll":                                        "net",
		"runtime.scanobject":                                     "runtime.gc",
		"runtime.gcDrain":                                        "runtime.gc",
		"runtime.findRunnable":                                   "runtime.sched",
		"runtime.futex":                                          "runtime.sched",
		"runtime.mallocgc":                                       "other",
		"main.main":                                              "other",
		"d2dhb/internal/schedule.Fake":                           "other",
		"":                                                       "other",
		"d2dhb/internal/experiments.RunCityParallel.func3":       "experiments",
		"d2dhb/internal/experiments.(*pdevice).relayStartPeriod": "experiments",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerTableNamesOnlyKnownLayers(t *testing.T) {
	known := make(map[string]bool)
	for _, l := range layerNames {
		known[l] = true
	}
	for prefix, l := range layerTable {
		if !known[l] {
			t.Errorf("prefix %q maps to unlisted layer %q", prefix, l)
		}
	}
}

func TestStackLayerChargesNearestNamedFrame(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2_faststr", "d2dhb/internal/relaynet.(*Server).touch", "runtime.goexit"}, "relaynet.server"},
		{[]string{"d2dhb/internal/hbmsg.Heartbeat.Deadline", "d2dhb/internal/sched.(*Nagle).Deadline"}, "sched"},
		{[]string{"runtime.futex", "d2dhb/internal/relaynet.(*Server).touch"}, "runtime.sched"},
		{[]string{"runtime.mallocgc", "main.main", "runtime.main"}, "other"},
		{nil, "other"},
	} {
		if got := stackLayer(tc.frames); got != tc.want {
			t.Errorf("stackLayer(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestLayerSharesListEveryLayer(t *testing.T) {
	shares := layerShares(map[string]int64{"sched": 3, "other": 1})
	if len(shares) != len(layerNames) {
		t.Fatalf("%d shares for %d layers", len(shares), len(layerNames))
	}
	if shares["sched"] != 0.75 || shares["other"] != 0.25 || shares["geo"] != 0 {
		t.Errorf("shares = %v", shares)
	}
	for l, v := range layerShares(nil) {
		if v != 0 {
			t.Errorf("empty profile: %s = %g, want 0", l, v)
		}
	}
}

var sink time.Duration

// scanLoad is one relay period's worth of pending heartbeats.
func scanLoad() []hbmsg.Heartbeat {
	hbs := make([]hbmsg.Heartbeat, 4000)
	for i := range hbs {
		hbs[i] = hbmsg.Heartbeat{Src: "ue", Seq: uint64(i + 1), Expiry: 2 * time.Hour}
	}
	return hbs
}

// TestProfileLayers profiles a loop that spends its time in the Algorithm 1
// deadline scan and checks the decoder charges the samples to sched.
func TestProfileLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	n, err := sched.NewNagle(1<<20, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.StartPeriod(0)
	for _, hb := range scanLoad() {
		if _, err := n.Collect(hb, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			at, _ := n.Deadline()
			sink += at
		}
	}
	pprof.StopCPUProfile()
	byLayer, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total < int64(200*time.Millisecond) {
		t.Skipf("only %v of CPU samples", time.Duration(total))
	}
	// The scan's self time is in sched and in hbmsg's Deadline method,
	// which sched calls; the loop around it and, under -race, the race
	// runtime take the rest.
	shares := layerShares(byLayer)
	for l, v := range shares {
		if l != "sched" && v >= shares["sched"] {
			t.Errorf("%s share %.2f >= sched's %.2f in a deadline-scan loop; by layer %v", l, v, shares["sched"], byLayer)
		}
	}
}

func TestProfileLayersRejectsGarbage(t *testing.T) {
	if _, err := profileLayers([]byte("not gzip")); err == nil {
		t.Error("decoded a non-gzip profile")
	}
	if err := pbFields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("accepted a truncated length-delimited field")
	}
}
