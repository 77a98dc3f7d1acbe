package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
)

// sutMain hosts the program under test for a live workload: a
// relaynet.Server, and for relayed a relaynet.RelayAgent in front of it.
// It announces their addresses, then answers the generator's commands on
// stdin — begin and end bracket the measured window, mark cuts it into
// slices, final reports after the drain — until stdin closes.
func sutMain(mode string, traced bool) {
	runtime.GOMAXPROCS(1) // the generator holds the other core; see main

	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	srv := relaynet.NewServer()
	srv.SetTelemetry(reg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		reply(sutSnap{Err: err.Error()})
		os.Exit(1)
	}
	defer srv.Shutdown()
	ready := map[string]string{"server": srv.Addr()}
	var relay *relaynet.RelayAgent
	if mode == relayedLive.name {
		var err error
		relay, err = relaynet.NewRelayAgent(relaynet.RelayAgentConfig{
			ID: relayID, App: "im", Period: relayPeriod, Expiry: livePeriod,
			Pad: hbPad, Capacity: relayCapacity, Telemetry: reg,
		})
		if err == nil {
			err = relay.Start("127.0.0.1:0", srv.Addr())
		}
		if err != nil {
			reply(sutSnap{Err: err.Error()})
			srv.Shutdown()
			os.Exit(1)
		}
		defer relay.Shutdown()
		ready["relay"] = relay.Addr()
	}
	reply(sutSnap{Ready: ready})

	snap := func() sutSnap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s := sutSnap{CPUNs: int64(cpuTime()), Server: srv.Stats(), Mallocs: ms.Mallocs, NumGC: ms.NumGC}
		if relay != nil {
			s.Relay = relay.Stats()
		}
		return s
	}
	var prof bytes.Buffer
	var shares map[string]float64
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "begin":
			if traced {
				if err := pprof.StartCPUProfile(&prof); err != nil {
					reply(sutSnap{Err: err.Error()})
					continue
				}
			}
			reply(snap())
		case "mark":
			reply(snap())
		case "end":
			s := snap()
			if traced {
				pprof.StopCPUProfile()
				byLayer, err := profileLayers(prof.Bytes())
				if err != nil {
					s.Err = err.Error()
				}
				shares = layerShares(byLayer)
			}
			reply(s)
		case "final":
			if relay != nil {
				// Stop the relay's own per-period flushes, then give the
				// server up to a second to read the batches already sent,
				// so both sides' counters describe the same heartbeats.
				relay.Shutdown()
				rs := relay.Stats()
				for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
					if srv.Stats().HeartbeatsRelayed >= rs.Forwarded+rs.Flushes {
						break
					}
				}
			}
			s := snap()
			f := &sutFinal{LayerShares: shares}
			var err error
			if f.PeakRSSMB, err = peakRSSMB(); err != nil {
				s.Err = err.Error()
			}
			if reg != nil {
				f.HBPerAckFrame = reg.Histogram("relaynet_server_ack_refs_per_flush", "refs", 8).Snapshot().Mean()
				if relay != nil {
					hold := reg.Histogram("relaynet_relay_collect_to_flush_us", "us", 1, telemetry.L("relay", relayID))
					f.HoldP50Ms = float64(hold.Snapshot().Quantile(0.5)) / 1e3
				}
			}
			s.Final = f
			reply(s)
		}
	}
}
