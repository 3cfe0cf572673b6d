package eem

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Comma is the paper-faithful rendering of the comma_* client
// interface (thesis Tables 6.3–6.7), with the notification mode of
// every registration explicit through functional options:
//
//	Register(id, attr)                  silent periodic updates into the
//	                                    protected data area (the thesis
//	                                    default — no callback fires)
//	Register(id, attr, WithCallback(f)) interrupt-style: f fires when the
//	                                    variable enters the region
//	Register(id, attr, WithPDA(p))      silent registration plus a
//	                                    client-driven poll every p that
//	                                    refreshes the PDA even while the
//	                                    variable is out of range
//	Register(id, attr, WithPoll())      client-local only: no server
//	                                    message; values arrive solely
//	                                    through GetValueOnce
//
// WithCallback and WithPDA compose; WithPoll is exclusive. All methods
// must be called from the event-loop goroutine driving the transports.
type Comma struct {
	dial    Dialer
	conns   map[string]Conn
	pda     map[ID]*pdaEntry
	nextSeq int64
	polls   map[int64]func(Value, error)
	pollSrv map[int64]string // seq → server, to fail polls on disconnect
	listReq map[int64]func([]string)
	closed  bool

	// interests mirrors every live server-side registration so the
	// supervisor can replay them on a fresh connection after the
	// server comes back.
	interests map[ID]Attr

	sched *sim.Scheduler
	sup   *supervisor
	obs   *obs.Bus

	modes    map[ID]regMode
	cbs      map[ID]func(ID, Value)
	pdaStops map[ID]func()
}

// regMode records which notification modes a registration uses.
type regMode struct {
	callback bool
	pda      bool
	poll     bool
}

// RegisterOption configures one Comma registration.
type RegisterOption func(*regConfig)

// regConfig accumulates Register options before validation.
type regConfig struct {
	cb        func(ID, Value)
	pdaPeriod time.Duration
	poll      bool
}

// WithCallback requests interrupt-style notification: fn fires (with
// the registration's ID and the new value) when the variable enters
// its region of interest. The callback is scoped to this registration.
func WithCallback(fn func(ID, Value)) RegisterOption {
	return func(rc *regConfig) { rc.cb = fn }
}

// WithPDA requests a client-driven protected-data-area refresh: every
// period the client polls the server once and stores the result, so
// GetValue tracks the variable even while it is outside the region of
// interest (where the server's periodic updates go silent). Requires a
// scheduler (UseScheduler).
func WithPDA(period time.Duration) RegisterOption {
	return func(rc *regConfig) { rc.pdaPeriod = period }
}

// WithPoll requests a client-local registration: the server is never
// contacted and values arrive only through explicit GetValueOnce
// calls. Exclusive with WithCallback and WithPDA.
func WithPoll() RegisterOption {
	return func(rc *regConfig) { rc.poll = true }
}

// NewComma initializes the client library (comma_init).
func NewComma(dial Dialer) *Comma {
	return &Comma{
		dial:      dial,
		conns:     make(map[string]Conn),
		pda:       make(map[ID]*pdaEntry),
		polls:     make(map[int64]func(Value, error)),
		pollSrv:   make(map[int64]string),
		listReq:   make(map[int64]func([]string)),
		interests: make(map[ID]Attr),
		modes:     make(map[ID]regMode),
		cbs:       make(map[ID]func(ID, Value)),
		pdaStops:  make(map[ID]func()),
	}
}

// UseScheduler attaches the scheduler that drives WithPDA refresh
// timers (and, transitively, Supervise's redial timers).
func (cm *Comma) UseScheduler(sched *sim.Scheduler) { cm.sched = sched }

// SetObs attaches the observability bus; connection-lifecycle events
// are emitted under the "eem-client" subsystem, keyed by server name.
func (cm *Comma) SetObs(b *obs.Bus) { cm.obs = b }

// Term disconnects from all servers and drops state (comma_term).
func (cm *Comma) Term() {
	if cm.closed {
		return
	}
	cm.closed = true
	for _, stop := range cm.pdaStops {
		stop()
	}
	cm.pdaStops = make(map[ID]func())
	for _, conn := range cm.conns {
		conn.Close()
	}
	cm.conns = nil
}

// validAttr rejects attributes that can never match: an operator
// outside the defined set, or a string bound with a numeric-only
// operator (thesis §6.3.2: strings support only EQ/NEQ).
func validAttr(a Attr) bool {
	if a.Op < GT || a.Op > OUT {
		return false
	}
	if a.Lower.Kind == String && a.Op != EQ && a.Op != NEQ {
		return false
	}
	return true
}

// Register subscribes to a variable under attr (comma_var_register).
// With no options the registration is PDA-silent: the server pushes
// periodic updates into the protected data area and no callback ever
// fires. Options select the other thesis notification modes; see the
// type comment.
func (cm *Comma) Register(id ID, attr Attr, opts ...RegisterOption) error {
	var rc regConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.poll && (rc.cb != nil || rc.pdaPeriod > 0) {
		return ErrBadMode
	}
	if rc.pdaPeriod > 0 && cm.sched == nil {
		return ErrNoScheduler
	}
	if !validAttr(attr) {
		return ErrBadAttr
	}

	mode := regMode{callback: rc.cb != nil, pda: rc.pdaPeriod > 0, poll: rc.poll}
	if rc.poll {
		cm.localRegister(id)
		cm.modes[id] = mode
		return nil
	}

	// The registration's mode, not the caller's Attr, decides whether
	// the server sends interrupt notifies.
	attr.Interrupt = rc.cb != nil
	if rc.cb != nil {
		cm.cbs[id] = rc.cb
	} else {
		delete(cm.cbs, id)
	}
	if err := cm.register(id, attr); err != nil {
		// The interest is remembered (a supervised client replays it on
		// reconnect), so the mode bookkeeping must survive the error too.
		cm.modes[id] = mode
		cm.armPDA(id, attr, rc.pdaPeriod)
		return err
	}
	cm.modes[id] = mode
	cm.armPDA(id, attr, rc.pdaPeriod)
	return nil
}

// armPDA starts (or replaces) the WithPDA refresh pump for id: every
// period, poll the server once and store the reply in the protected
// data area, computing in-range locally so out-of-range values are
// still visible to GetValue/IsInRange.
func (cm *Comma) armPDA(id ID, attr Attr, period time.Duration) {
	if stop, ok := cm.pdaStops[id]; ok {
		stop()
		delete(cm.pdaStops, id)
	}
	if period <= 0 {
		return
	}
	stopped := false
	cm.pdaStops[id] = func() { stopped = true }
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		cm.pollOnce(id, func(v Value, err error) {
			if stopped || err != nil {
				return
			}
			in, merr := attr.Matches(v)
			if merr != nil {
				in = false
			}
			cm.storePDA(id, v, in)
		})
		cm.sched.After(period, tick)
	}
	cm.sched.After(period, tick)
}

// Deregister removes one registration (comma_var_deregister).
func (cm *Comma) Deregister(id ID) error {
	mode, known := cm.modes[id]
	if stop, ok := cm.pdaStops[id]; ok {
		stop()
		delete(cm.pdaStops, id)
	}
	delete(cm.cbs, id)
	delete(cm.modes, id)
	if known && mode.poll {
		cm.localDeregister(id)
		return nil
	}
	return cm.deregister(id)
}

// DeregisterAll removes every registration on every server
// (comma_var_deregisterall).
func (cm *Comma) DeregisterAll() {
	for _, stop := range cm.pdaStops {
		stop()
	}
	cm.pdaStops = make(map[ID]func())
	cm.cbs = make(map[ID]func(ID, Value))
	cm.modes = make(map[ID]regMode)
	cm.deregisterAll()
}

// GetValue returns the most recent value from the protected data area
// (comma_query_getvalue) and whether one has arrived. It clears the
// changed mark.
func (cm *Comma) GetValue(id ID) (Value, bool) {
	e, ok := cm.pda[id]
	if !ok || !e.haveValue {
		return Value{}, false
	}
	e.changed = false
	return e.val, true
}

// IsInRange reports whether the most recent update had the variable
// inside its region of interest (comma_query_isinrange).
func (cm *Comma) IsInRange(id ID) bool {
	e, ok := cm.pda[id]
	return ok && e.inRange
}

// HasChanged reports whether the variable changed since last read
// (comma_query_haschanged).
func (cm *Comma) HasChanged(id ID) bool {
	e, ok := cm.pda[id]
	return ok && e.changed
}

// Stale reports whether id's protected-data-area value predates a
// disconnect from its server — still readable, but possibly outdated.
// It clears when fresh data arrives after the reconnect.
func (cm *Comma) Stale(id ID) bool {
	e, ok := cm.pda[id]
	return ok && e.stale
}

// GetValueOnce retrieves a single value directly from the server
// (comma_query_getvalue_once); the reply is delivered asynchronously
// to fn. If the registration was made WithPoll, the result is also
// stored in the protected data area for later GetValue reads.
func (cm *Comma) GetValueOnce(id ID, fn func(Value, error)) error {
	mode := cm.modes[id]
	return cm.pollOnce(id, func(v Value, err error) {
		if err == nil && mode.poll {
			cm.storePDA(id, v, true)
		}
		if fn != nil {
			fn(v, err)
		}
	})
}
