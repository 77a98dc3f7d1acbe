package simtime

import "time"

// Clock is the virtual clock and one-shot timer service a simulated device
// runs on. *Scheduler implements it for entities that live on one
// scheduler; *Agenda implements it for entities that migrate between tile
// schedulers. Code written against Clock — the device protocol, the RRC
// state machine — runs unchanged under either kernel.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Arm schedules fn at the absolute virtual instant at, which must not
	// lie in the past.
	Arm(at time.Duration, fn func()) (Handle, error)
	// Disarm cancels a pending action. Nil handles are ignored. The
	// handle-lifetime rule of Timer applies: holders drop a handle once
	// its action has fired or been disarmed.
	Disarm(h Handle)
}

// Handle is a pending action armed on a Clock: a *Timer on a Scheduler, a
// *Task on an Agenda.
type Handle interface {
	At() time.Duration
}

// Arm implements Clock.
func (s *Scheduler) Arm(at time.Duration, fn func()) (Handle, error) {
	t, err := s.At(at, fn)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Disarm implements Clock.
func (s *Scheduler) Disarm(h Handle) {
	if t, ok := h.(*Timer); ok {
		s.Stop(t)
	}
}

// Now implements Clock: the virtual time of the scheduler the agenda is
// homed on.
func (a *Agenda) Now() time.Duration { return a.sched.Now() }

// Arm implements Clock.
func (a *Agenda) Arm(at time.Duration, fn func()) (Handle, error) {
	t, err := a.At(at, fn)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Disarm implements Clock.
func (a *Agenda) Disarm(h Handle) {
	if t, ok := h.(*Task); ok {
		a.Cancel(t)
	}
}
