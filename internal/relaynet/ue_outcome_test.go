package relaynet

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// silentListener accepts every connection and reads it to the end without
// ever answering: a relay that never flushes, or a server that never acks.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// oneShotUE starts a UE whose four apps each generate exactly one
// heartbeat (hour-long periods), so its outcome accounting is exact.
func oneShotUE(t *testing.T, id, relayAddr, serverAddr string) *UEClient {
	t.Helper()
	cfg := ueConfig(id, relayAddr, serverAddr, time.Hour, 300*time.Millisecond)
	cfg.FeedbackTimeout = 80 * time.Millisecond
	for _, name := range []string{"chat", "mail", "push"} {
		cfg.ExtraApps = append(cfg.ExtraApps, UEApp{Name: name, Period: time.Hour, Expiry: 300 * time.Millisecond, Pad: 54})
	}
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := u.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(u.Shutdown)
	return u
}

// A relay that never flushes: every heartbeat misses its feedback, falls
// back to the server once, and is settled by the server's ack — one
// outcome each, none lost.
func TestUEFallbackSettledByServerAck(t *testing.T) {
	s := startServer(t)
	u := oneShotUE(t, "ue-nf", silentListener(t), s.Addr())

	eventually(t, 3*time.Second, func() bool { return u.Stats().ServerAcks == 4 },
		"every fallback resend acked by the server")
	// Give a stray second outcome time to show up.
	time.Sleep(250 * time.Millisecond)
	st := u.Stats()
	want := UEClientStats{Generated: 4, ViaRelay: 4, FallbackResends: 4, ServerAcks: 4, RelayReconnects: 1}
	if st != want {
		t.Fatalf("ue stats = %+v, want %+v", st, want)
	}
}

// Neither the relay nor the server answers: each relayed heartbeat falls
// back once and is then lost; a direct-mode heartbeat has no fallback and
// is lost after one timeout.
func TestUEHeartbeatsLostWhenNothingAcks(t *testing.T) {
	server := silentListener(t)
	relayed := oneShotUE(t, "ue-lost", silentListener(t), server)
	direct := oneShotUE(t, "ue-lost-direct", "", server)

	eventually(t, 3*time.Second, func() bool {
		return relayed.Stats().Lost == 4 && direct.Stats().Lost == 4
	}, "every heartbeat lost")
	time.Sleep(250 * time.Millisecond)
	if st, want := relayed.Stats(), (UEClientStats{Generated: 4, ViaRelay: 4, FallbackResends: 4, Lost: 4, RelayReconnects: 1}); st != want {
		t.Fatalf("relayed ue stats = %+v, want %+v", st, want)
	}
	if st, want := direct.Stats(), (UEClientStats{Generated: 4, Direct: 4, Lost: 4}); st != want {
		t.Fatalf("direct ue stats = %+v, want %+v", st, want)
	}
}
