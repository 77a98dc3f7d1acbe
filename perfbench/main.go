// Command perfbench is the repository's benchmark. It runs one workload —
// city (the tile-parallel simulator), direct (users heartbeating straight
// to a live relaynet.Server) or relayed (users heartbeating through a live
// relaynet.RelayAgent running Algorithm 1) — checks its outputs, and prints
// its metrics, ending with one JSON line:
//
//	perfbench --workload relayed --seed 2017 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated with a CPU profile, the telemetry registry and MemStats
// attached, and the per-layer metrics plus the tracing overhead are
// printed. The program under test always runs in a child process, so its
// CPU and memory are measured apart from the load generator's. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"d2dhb/internal/experiments"
)

// metric is a reported name with its unit.
type metric struct{ name, unit string }

// e2eMetrics are printed by every plain run, on every workload.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_wall_s", "s"},
	{"l3_per_hb", "msgs"},
	{"uah_per_hb", "uAh"},
	{"on_time_rate", "ratio"},
	{"ack_p50_ms", "ms"},
	{"cpu_us_per_hb", "us"},
	{"delivered_ratio", "ratio"},
}

// layerMetrics are printed by every traced run, on every workload, 0 where
// the workload gives the layer no samples; overhead.<name> follows for
// each end-to-end metric. ack_p99_ms, from the plain run, is here rather
// than end to end because on direct it sits at 1.5-3 ms, where it swings
// run to run with host scheduling by more than any bound could allow.
var layerMetrics = func() []metric {
	var ms []metric
	for _, l := range layerNames {
		ms = append(ms, metric{l + ".cpu_share", "ratio"})
	}
	ms = append(ms,
		metric{"simtime.events", "count"},
		metric{"simtime.windows", "count"},
		metric{"simtime.migrations", "count"},
		metric{"simtime.cores_busy", "cores"},
		metric{"experiments.cross_tile_ops", "count"},
		metric{"hbproto.up_bytes_per_hb", "B"},
		metric{"hbproto.down_bytes_per_hb", "B"},
		metric{"relaynet.server.hb_per_ack_frame", "hb"},
		metric{"relaynet.relay.hb_per_batch", "hb"},
		metric{"relaynet.relay.hold_ms_p50", "ms"},
		metric{"relaynet.relay.hb_per_feedback_frame", "hb"},
		metric{"relaynet.relay.reject_ratio", "ratio"},
		metric{"relaynet.relay.fallback_ratio", "ratio"},
		metric{"runtime.gc_cycles", "count"},
		metric{"runtime.allocs_per_hb", "count"},
		metric{"gen.lag_p99_ms", "ms"},
		metric{"gen.cpu_us_per_hb", "us"},
		metric{"ack_p99_ms", "ms"},
	)
	for _, m := range e2eMetrics {
		ms = append(ms, metric{"overhead." + m.name, m.unit})
	}
	return ms
}()

// options are the benchmark's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is one workload run: its metrics and any failed output check.
type result struct {
	e2e       map[string]float64
	layers    map[string]float64
	n         map[string]int // samples behind a metric, when more than one
	attempted int
	failed    int
	failures  []string
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func emptyLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}
	return m
}

// addOverhead records traced-minus-plain for every end-to-end metric, and
// the plain run's ack p99.
func (r *result) addOverhead(traced map[string]float64) {
	for _, m := range e2eMetrics {
		r.layers["overhead."+m.name] = traced[m.name] - r.e2e[m.name]
	}
	r.layers["ack_p99_ms"] = r.e2e["ack_p99_ms"]
}

var workloads = map[string]func(options) (result, error){
	"city":    runCity,
	"direct":  func(o options) (result, error) { return runLive(o, directLive) },
	"relayed": func(o options) (result, error) { return runLive(o, relayedLive) },
}

func main() {
	var o options
	var traceFlag int
	var role, mode string
	var traced bool
	flag.StringVar(&o.workload, "workload", "", "city, direct or relayed")
	flag.Int64Var(&o.seed, "seed", experiments.DefaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run traced and print per-layer metrics")
	flag.StringVar(&role, "role", "", "internal: child process role")
	flag.StringVar(&mode, "mode", "", "internal: live child mode")
	flag.BoolVar(&traced, "traced", false, "internal: child runs traced")
	flag.Parse()
	o.trace = traceFlag == 1

	switch role {
	case "city", "city-check":
		cityChildMain(role, o.seed, o.seconds, traced)
		return
	case "sut":
		sutMain(mode, traced)
		return
	case "":
	default:
		fatalf("unknown role %q", role)
	}

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("usage: perfbench --workload city|direct|relayed --seed N --seconds S --trace 0|1")
	}
	// Two processes share the machine: the generator (this one) and the
	// program under test. On the live workloads each gets one P, so that
	// neither's idle Ps spin against the other's work.
	runtime.GOMAXPROCS(1)
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	emit(o, res)
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// emit prints a readable table of the metrics, then the one-line JSON
// result the benchmark contract asks for.
func emit(o options, res result) {
	ms, vals := e2eMetrics, res.e2e
	if o.trace {
		ms, vals = layerMetrics, res.layers
	}
	for _, f := range res.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			fatalf("%s: metric %s was not measured", o.workload, m.name)
		}
		n := res.n[m.name]
		if n == 0 {
			n = 1
		}
		fmt.Printf("%-42s %14.6g %-6s n=%d\n", m.name, v, m.unit, n)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
