package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"d2dhb/internal/experiments"
	"d2dhb/internal/trace"
)

// City workload parameters: the CityShort population (10k devices, 10%
// relays, M = 16) on 16 tiles with the default 10 s window, run for a fixed
// simulated interval.
const (
	cityTiles     = 16
	cityInterval  = 2 * time.Hour
	citySetupReps = 5
	cityMinReps   = 3
)

// cityPinnedDigest is the report digest of the city workload at
// experiments.DefaultSeed. A change to it is a change to the model.
const cityPinnedDigest = "3f37cd1e3ad0a885d32d475b312352da963483df5bc3d67c930134acae964d5f"

func cityConfig(seed int64, tiles int, d time.Duration) experiments.ParallelCityConfig {
	cfg := experiments.CityParallelShort(tiles)
	cfg.Seed = seed
	cfg.Duration = d
	return cfg
}

// cityRun is what the timing child reports.
type cityRun struct {
	SetupS      []float64          `json:"setup_s"`
	WallS       []float64          `json:"wall_s"`
	CPUS        []float64          `json:"cpu_s"`
	Digest      string             `json:"digest"`
	Deliveries  int                `json:"deliveries"`
	L3          int                `json:"l3"`
	EnergyUAh   float64            `json:"energy_uah"`
	OnTime      float64            `json:"on_time"`
	Events      uint64             `json:"events"`
	Windows     int                `json:"windows"`
	Migrations  int                `json:"migrations"`
	CrossOps    int                `json:"cross_ops"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Mallocs     uint64             `json:"mallocs"`
	GCCycles    uint32             `json:"gc_cycles"`
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
}

// cityCheck is what the tiles = 1 reference child reports.
type cityCheck struct {
	Digest     string  `json:"digest"`
	Generated  int     `json:"generated"`
	Delivered  int     `json:"delivered"`
	Delays     int     `json:"delays"`
	DelayP50Ms float64 `json:"delay_p50_ms"`
	DelayP99Ms float64 `json:"delay_p99_ms"`
	Err        string  `json:"error,omitempty"`
}

// cityChild times the city: set-up runs of one window, then whole runs of
// the fixed interval until the time budget is spent. With traced it
// profiles the timed runs.
func cityChild(seed int64, seconds float64, traced bool) (cityRun, error) {
	var out cityRun
	for i := 0; i < citySetupReps; i++ {
		start := time.Now()
		if _, _, err := experiments.RunCityParallel(cityConfig(seed, cityTiles, experiments.DefaultParallelWindow)); err != nil {
			return out, err
		}
		out.SetupS = append(out.SetupS, time.Since(start).Seconds())
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	budget := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.WallS) < cityMinReps || time.Now().Before(budget) {
		start, cpu0 := time.Now(), cpuTime()
		rep, st, err := experiments.RunCityParallel(cityConfig(seed, cityTiles, cityInterval))
		if err != nil {
			return out, err
		}
		out.WallS = append(out.WallS, time.Since(start).Seconds())
		out.CPUS = append(out.CPUS, (cpuTime() - cpu0).Seconds())
		d := rep.Digest()
		if out.Digest != "" && d != out.Digest {
			return out, fmt.Errorf("city digest changed between identical runs: %s then %s", out.Digest, d)
		}
		out.Digest = d
		out.Deliveries, out.L3 = rep.Deliveries, rep.TotalL3Messages
		out.EnergyUAh, out.OnTime = float64(rep.TotalEnergy()), rep.OnTimeRate()
		out.Events, out.Windows = st.Events, st.Windows
		out.Migrations, out.CrossOps = st.Migrations, st.CrossTileOps
	}
	runtime.ReadMemStats(&ms1)
	reps := uint64(len(out.WallS))
	out.Mallocs = (ms1.Mallocs - ms0.Mallocs) / reps
	out.GCCycles = (ms1.NumGC - ms0.NumGC) / uint32(reps)
	if traced {
		pprof.StopCPUProfile()
		byLayer, err := profileLayers(prof.Bytes())
		if err != nil {
			return out, err
		}
		out.LayerShares = layerShares(byLayer)
	}
	var err error
	out.PeakRSSMB, err = peakRSSMB()
	return out, err
}

// delayTracer measures, in simulated milliseconds, each relay-carried
// heartbeat's wait from generation to the feedback that reaches its UE —
// the simulator's counterpart of the live workloads' due-to-Feedback
// latency. Direct cellular sends are delivered at the instant they are
// generated, so they would only pile zeros into the distribution; they
// count as delivered but give no delay sample.
type delayTracer struct {
	born      map[hbID]int64
	delays    []float64
	gen       int
	delivered int
}

type hbID struct {
	device, app string
	seq         uint64
}

func (t *delayTracer) Emit(ev trace.Event) {
	id := hbID{ev.Device, ev.App, ev.Seq}
	switch ev.Kind {
	case trace.KindGenerated:
		t.born[id] = ev.AtMs
		t.gen++
	case trace.KindDelivery:
		if at, ok := t.born[id]; ok && at >= 0 {
			t.delivered++
			t.born[id] = -t.born[id] - 1 // delivered; keep the birth for the ack
		}
	case trace.KindAck:
		if at, ok := t.born[id]; ok {
			if at < 0 {
				at = -at - 1
			}
			t.delays = append(t.delays, float64(ev.AtMs-at))
			delete(t.born, id)
		}
	}
}

// cityCheckChild runs the same seed on one tile with a tracer attached:
// its digest must equal the 16-tile run's, and its trace gives the
// simulated heartbeat delays.
func cityCheckChild(seed int64) cityCheck {
	tr := &delayTracer{born: make(map[hbID]int64)}
	cfg := cityConfig(seed, 1, cityInterval)
	cfg.Tracer = tr
	rep, _, err := experiments.RunCityParallel(cfg)
	if err != nil {
		return cityCheck{Err: err.Error()}
	}
	out := cityCheck{Digest: rep.Digest(), Generated: tr.gen, Delivered: tr.delivered, Delays: len(tr.delays)}
	sort.Float64s(tr.delays)
	if out.DelayP50Ms, err = mustPercentile(tr.delays, 0.50, "city delay"); err == nil {
		out.DelayP99Ms, err = mustPercentile(tr.delays, 0.99, "city delay")
	}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// runCity drives the city workload from the parent process: the timing
// child first, then the reference child, never both at once.
func runCity(o options) (result, error) {
	args := []string{"--role", "city", "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds)}
	plain, err := cityTiming(args)
	if err != nil {
		return result{}, err
	}
	c, err := startChild("--role", "city-check", "--seed", fmt.Sprint(o.seed))
	if err != nil {
		return result{}, err
	}
	var chk cityCheck
	if err := c.recv(&chk); err != nil {
		c.kill()
		return result{}, err
	}
	if err := c.wait(); err != nil {
		return result{}, fmt.Errorf("city check child: %w", err)
	}
	if chk.Err != "" {
		return result{}, fmt.Errorf("city check: %s", chk.Err)
	}

	res := result{attempted: len(plain.WallS) * plain.Deliveries}
	if chk.Digest != plain.Digest {
		res.fail("city digest at 1 tile %s differs from %d tiles %s", chk.Digest, cityTiles, plain.Digest)
	}
	if o.seed == experiments.DefaultSeed && plain.Digest != cityPinnedDigest {
		res.fail("city digest %s differs from the pinned %s at the default seed", plain.Digest, cityPinnedDigest)
	}
	res.e2e = cityE2E(plain, chk)
	res.n = map[string]int{
		"setup_s": len(plain.SetupS), "sim_wall_s": len(plain.WallS), "cpu_us_per_hb": len(plain.CPUS),
		"ack_p50_ms": chk.Delays, "ack_p99_ms": chk.Delays,
	}
	if !o.trace {
		return res, nil
	}
	traced, err := cityTiming(append(args, "--traced"))
	if err != nil {
		return result{}, err
	}
	if traced.Digest != plain.Digest {
		res.fail("city digest changed under tracing: %s vs %s", traced.Digest, plain.Digest)
	}
	res.layers = emptyLayers()
	for l, v := range traced.LayerShares {
		res.layers[l+".cpu_share"] = v
	}
	wall, cpu := median(traced.WallS), median(traced.CPUS)
	res.layers["simtime.events"] = float64(traced.Events)
	res.layers["simtime.windows"] = float64(traced.Windows)
	res.layers["simtime.migrations"] = float64(traced.Migrations)
	res.layers["simtime.cores_busy"] = ratio(cpu, wall)
	res.layers["experiments.cross_tile_ops"] = float64(traced.CrossOps)
	res.layers["runtime.gc_cycles"] = float64(traced.GCCycles)
	res.layers["runtime.allocs_per_hb"] = ratio(float64(traced.Mallocs), float64(traced.Events))
	res.addOverhead(cityE2E(traced, chk))
	return res, nil
}

func cityTiming(args []string) (cityRun, error) {
	c, err := startChild(args...)
	if err != nil {
		return cityRun{}, err
	}
	var run struct {
		cityRun
		Err string `json:"error"`
	}
	if err := c.recv(&run); err != nil {
		c.kill()
		return cityRun{}, err
	}
	werr := c.wait()
	if run.Err != "" {
		return cityRun{}, fmt.Errorf("city child: %s", run.Err)
	}
	if werr != nil {
		return cityRun{}, fmt.Errorf("city child: %w", werr)
	}
	return run.cityRun, nil
}

// cityE2E derives the end-to-end metrics of one timing run; the delays
// come from the reference run, which simulates the same heartbeats.
func cityE2E(r cityRun, chk cityCheck) map[string]float64 {
	del := float64(r.Deliveries)
	cpu := make([]float64, len(r.CPUS))
	for i, s := range r.CPUS {
		cpu[i] = s * 1e6 / del
	}
	return map[string]float64{
		"setup_s":         median(r.SetupS),
		"peak_rss_mb":     r.PeakRSSMB,
		"sim_wall_s":      median(r.WallS),
		"l3_per_hb":       float64(r.L3) / del,
		"uah_per_hb":      r.EnergyUAh / del,
		"on_time_rate":    r.OnTime,
		"ack_p50_ms":      chk.DelayP50Ms,
		"ack_p99_ms":      chk.DelayP99Ms,
		"cpu_us_per_hb":   median(cpu),
		"delivered_ratio": ratio(float64(chk.Delivered), float64(chk.Generated)),
	}
}

// cityChildMain is the entry point of the city child roles.
func cityChildMain(role string, seed int64, seconds float64, traced bool) {
	if role == "city-check" {
		reply(cityCheckChild(seed))
		return
	}
	run, err := cityChild(seed, seconds, traced)
	if err != nil {
		reply(map[string]string{"error": err.Error()})
		os.Exit(1)
	}
	reply(run)
}
