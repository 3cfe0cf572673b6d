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
//
// WithCallback and WithPDA compose. The thesis's synchronous poll is
// GetValueOnce. All methods must be called from the event-loop
// goroutine driving the transports.
type Comma struct {
	dial  Dialer
	sched *sim.Scheduler
	obs   *obs.Bus

	// servers holds one record per server ever dialled or redialled.
	servers map[string]*server
	// regs holds every server-side registration: the supervisor
	// replays them on a fresh connection after the server comes back.
	regs map[ID]*registration
	// reqs holds the polls and catalogue queries awaiting a reply,
	// keyed by the seq that correlates them.
	reqs    map[int64]request
	nextSeq int64

	supervised bool
}

// RegisterOption configures one Comma registration.
type RegisterOption func(*regConfig)

// regConfig accumulates Register options before validation.
type regConfig struct {
	cb        func(ID, Value)
	pdaPeriod time.Duration
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

// NewComma initializes the client library (comma_init).
func NewComma(dial Dialer) *Comma {
	return &Comma{
		dial:    dial,
		servers: make(map[string]*server),
		regs:    make(map[ID]*registration),
		reqs:    make(map[int64]request),
	}
}

// UseScheduler attaches the scheduler that drives WithPDA refresh
// timers (and, transitively, Supervise's redial timers).
func (cm *Comma) UseScheduler(sched *sim.Scheduler) { cm.sched = sched }

// SetObs attaches the observability bus; connection-lifecycle events
// are emitted under the "eem-client" subsystem, keyed by server name.
func (cm *Comma) SetObs(b *obs.Bus) { cm.obs = b }

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
// type comment. Registering an id again replaces its attribute and
// mode, keeps its protected-data-area value and sends the server a
// fresh register message. The registration is remembered even if the
// server is unreachable: a supervising client replays it once the
// connection comes back.
func (cm *Comma) Register(id ID, attr Attr, opts ...RegisterOption) error {
	var rc regConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.pdaPeriod > 0 && cm.sched == nil {
		return ErrNoScheduler
	}
	if !validAttr(attr) {
		return ErrBadAttr
	}
	// The registration's mode, not the caller's Attr, decides whether
	// the server sends interrupt notifies.
	attr.Interrupt = rc.cb != nil
	r, ok := cm.regs[id]
	if !ok {
		r = &registration{}
		cm.regs[id] = r
	}
	r.attr, r.cb = attr, rc.cb
	err := cm.send(id.Server, wireMsg{Kind: msgRegister, ID: id, A: attr}, request{})
	cm.armPump(id, r, rc.pdaPeriod)
	return err
}

// armPump starts (or replaces) r's WithPDA refresh pump: every period,
// poll the server once and store the reply in the protected data area,
// computing in-range locally so out-of-range values are still visible
// to GetValue/IsInRange. A reply that arrives after the pump was
// replaced or stopped is dropped.
func (cm *Comma) armPump(id ID, r *registration, period time.Duration) {
	r.stopPump()
	if period <= 0 {
		return
	}
	pump := new(sim.Timer)
	r.pump = pump
	var tick func()
	tick = func() {
		// A poll that cannot be sent is retried at the next tick.
		_ = cm.GetValueOnce(id, func(v Value, err error) {
			if err != nil || r.pump != pump {
				return
			}
			in, merr := r.attr.Matches(v)
			r.store(v, in && merr == nil)
		})
		*pump = cm.sched.After(period, tick)
	}
	*pump = cm.sched.After(period, tick)
}

// Deregister removes one registration (comma_var_deregister).
func (cm *Comma) Deregister(id ID) error {
	if r, ok := cm.regs[id]; ok {
		r.stopPump()
		delete(cm.regs, id)
	}
	return cm.send(id.Server, wireMsg{Kind: msgDeregister, ID: id}, request{})
}

// GetValue returns the most recent value from the protected data area
// (comma_query_getvalue) and whether one has arrived. It clears the
// changed mark.
func (cm *Comma) GetValue(id ID) (Value, bool) {
	r, ok := cm.regs[id]
	if !ok || !r.haveValue {
		return Value{}, false
	}
	r.changed = false
	return r.val, true
}

// IsInRange reports whether the most recent update had the variable
// inside its region of interest (comma_query_isinrange).
func (cm *Comma) IsInRange(id ID) bool {
	r, ok := cm.regs[id]
	return ok && r.inRange
}

// HasChanged reports whether the variable changed since last read
// (comma_query_haschanged).
func (cm *Comma) HasChanged(id ID) bool {
	r, ok := cm.regs[id]
	return ok && r.changed
}

// Stale reports whether id's protected-data-area value predates a
// disconnect from its server — still readable, but possibly outdated.
// It clears when fresh data arrives after the reconnect.
func (cm *Comma) Stale(id ID) bool {
	r, ok := cm.regs[id]
	return ok && r.stale
}

// GetValueOnce retrieves a single value directly from the server
// (comma_query_getvalue_once). The reply is delivered asynchronously
// to fn — the event-driven rendering of the thesis's synchronous call.
// If the connection dies before the reply, fn receives an error.
func (cm *Comma) GetValueOnce(id ID, fn func(Value, error)) error {
	return cm.send(id.Server, wireMsg{Kind: msgPoll, ID: id}, request{reply: msgPollReply,
		done: func(m wireMsg, err error) {
			if fn != nil {
				fn(m.V, err)
			}
		}})
}

// ListVariables asks a server for its variable catalogue (Kati's
// browsing support). Like a poll, the reply reaches fn asynchronously,
// and fn receives an error if the connection dies first.
func (cm *Comma) ListVariables(server string, fn func([]string, error)) error {
	return cm.send(server, wireMsg{Kind: msgListVars}, request{reply: msgVarList,
		done: func(m wireMsg, err error) {
			if fn != nil {
				fn(m.Names, err)
			}
		}})
}
