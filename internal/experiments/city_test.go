package experiments

import (
	"testing"
	"time"
)

// smallCity shrinks the preset so unit tests stay fast while exercising
// every mobility class and both device roles.
func smallCity() ParallelCityConfig {
	cfg := CityParallelShort(1)
	cfg.Devices = 400
	cfg.Side = 200
	cfg.Duration = stdProfile().Period + 30*time.Second
	return cfg
}

func TestCityParallelRuns(t *testing.T) {
	rep, stats, err := RunCityParallel(smallCity())
	if err != nil {
		t.Fatalf("RunCityParallel: %v", err)
	}
	if stats.Devices != 400 || stats.Relays != 40 || stats.UEs != 360 {
		t.Fatalf("population split %d/%d/%d, want 400/40/360",
			stats.Devices, stats.Relays, stats.UEs)
	}
	if len(rep.Devices) != stats.Devices {
		t.Fatalf("report covers %d devices, want %d", len(rep.Devices), stats.Devices)
	}
	if stats.Events == 0 {
		t.Fatal("no kernel events fired")
	}
	// Most UEs heartbeat at least once within a period-plus-grace horizon
	// (a few start so late their first batch is still in flight at the
	// cut-off), so the city must deliver a substantial message volume.
	if stats.Deliveries < stats.UEs/2 {
		t.Fatalf("only %d deliveries for %d UEs", stats.Deliveries, stats.UEs)
	}
	if stats.L3Messages <= 0 {
		t.Fatal("no layer-3 messages recorded")
	}
}

// TestCityD2DSavesSignaling checks the paper's core claim at city scale:
// the same crowd with D2D forwarding produces less layer-3 signaling than
// every device holding its own cellular connection.
func TestCityD2DSavesSignaling(t *testing.T) {
	cfg := smallCity()
	cfg.Seed = 1
	_, with, err := RunCityParallel(cfg)
	if err != nil {
		t.Fatalf("RunCityParallel: %v", err)
	}
	cfg.DisableD2D = true
	_, base, err := RunCityParallel(cfg)
	if err != nil {
		t.Fatalf("RunCityParallel original: %v", err)
	}
	if with.L3Messages >= base.L3Messages {
		t.Fatalf("D2D city produced %d L3 messages, original system %d — no signaling saving",
			with.L3Messages, base.L3Messages)
	}
	t.Logf("L3 signaling: %d with D2D vs %d original (%.0f%% saved)",
		with.L3Messages, base.L3Messages,
		100*(1-float64(with.L3Messages)/float64(base.L3Messages)))
}

func TestCityConfigValidation(t *testing.T) {
	bad := []func(*CityConfig){
		func(c *CityConfig) { c.Devices = 0 },
		func(c *CityConfig) { c.RelayFraction = 0 },
		func(c *CityConfig) { c.RelayFraction = 1 },
		func(c *CityConfig) { c.Side = -1 },
		func(c *CityConfig) { c.Duration = 0 },
		func(c *CityConfig) { c.Capacity = 0 },
	}
	if err := CityShort().validate(); err != nil {
		t.Fatalf("CityShort rejected: %v", err)
	}
	for i, mutate := range bad {
		cfg := CityShort()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
