package simtime

import (
	"testing"
	"time"
)

// clockCase is one Clock implementation plus the scheduler that drives it.
type clockCase struct {
	name  string
	clock Clock
	sched *Scheduler
}

// clocks returns each Clock implementation on a fresh scheduler.
func clocks() []clockCase {
	s1, s2 := NewScheduler(1), NewScheduler(1)
	return []clockCase{
		{"Scheduler", s1, s1},
		{"Agenda", NewAgenda(s2), s2},
	}
}

// TestClockArmFiresAtInstant drives both implementations through the Clock
// interface: an armed action fires once, at its instant, and its handle
// reports that instant.
func TestClockArmFiresAtInstant(t *testing.T) {
	for _, c := range clocks() {
		t.Run(c.name, func(t *testing.T) {
			var firedAt []time.Duration
			h, err := c.clock.Arm(2*time.Second, func() { firedAt = append(firedAt, c.clock.Now()) })
			if err != nil {
				t.Fatal(err)
			}
			if h.At() != 2*time.Second {
				t.Fatalf("handle At() = %v, want 2s", h.At())
			}
			if err := c.sched.RunUntil(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if len(firedAt) != 1 || firedAt[0] != 2*time.Second {
				t.Fatalf("fired at %v, want once at 2s", firedAt)
			}
		})
	}
}

// TestClockDisarm checks that a disarmed action never fires, that a nil
// handle is ignored, and that the other armed actions still run.
func TestClockDisarm(t *testing.T) {
	for _, c := range clocks() {
		t.Run(c.name, func(t *testing.T) {
			var fired []string
			cancelled, err := c.clock.Arm(time.Second, func() { fired = append(fired, "cancelled") })
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.clock.Arm(3*time.Second, func() { fired = append(fired, "kept") }); err != nil {
				t.Fatal(err)
			}
			c.clock.Disarm(cancelled)
			c.clock.Disarm(nil)
			if err := c.sched.RunUntil(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if len(fired) != 1 || fired[0] != "kept" {
				t.Fatalf("fired %v, want only the kept action", fired)
			}
		})
	}
}

// TestClockArmInPast checks that arming before Now is an error and that no
// handle comes back.
func TestClockArmInPast(t *testing.T) {
	for _, c := range clocks() {
		t.Run(c.name, func(t *testing.T) {
			if err := c.sched.RunUntil(time.Second); err != nil {
				t.Fatal(err)
			}
			if c.clock.Now() != time.Second {
				t.Fatalf("Now() = %v after RunUntil(1s)", c.clock.Now())
			}
			h, err := c.clock.Arm(500*time.Millisecond, func() { t.Error("past action fired") })
			if err == nil {
				t.Fatal("arming in the past accepted")
			}
			if h != nil {
				t.Fatalf("arming in the past returned handle %v", h)
			}
			if err := c.sched.RunUntil(2 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
