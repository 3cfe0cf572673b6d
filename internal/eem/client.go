package eem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Dialer opens a protocol stream to a named EEM server. The client
// calls it lazily, once per distinct server referenced by a
// registration (thesis §6.2: "whenever a client registers for a
// variable on an EEM server not already connected to the client, the
// connection thread opens a connection to the new host").
//
// The returned onData function must be invoked with inbound stream
// bytes (wire it to the transport's receive callback).
type Dialer func(server string) (conn Conn, wire func(onData func([]byte)), err error)

// CloseNotifier is an optional extension of Conn: transports that can
// detect their stream dying (reset, teardown) implement it so the
// client evicts the connection the moment it goes down instead of
// discovering the corpse on the next write.
type CloseNotifier interface {
	// OnDown arms fn to run once when the stream goes down.
	OnDown(fn func())
}

// The transport half of Comma: its three tables, the wire, and the
// reconnection supervisor. The comma_* surface and its notification
// modes are in comma.go.

// server is one EEM server as the client sees it.
type server struct {
	conn    Conn      // the open stream; nil while down
	redial  sim.Timer // the pending redial, under Supervise
	attempt int       // redials since the server last answered
}

// registration is one server-side registration and its slot of the
// protected data area (thesis §6.2).
type registration struct {
	attr Attr // as sent: Interrupt is set iff cb is
	cb   func(ID, Value)
	pump *sim.Timer // the WithPDA refresh pump, if any

	val       Value
	inRange   bool
	changed   bool // set on update, cleared by GetValue
	haveValue bool
	stale     bool // server lost since the value arrived
}

// store writes v into the protected data area: server updates,
// notifies and the WithPDA pump all land here.
func (r *registration) store(v Value, inRange bool) {
	if !r.haveValue || !r.val.Equal(v) {
		r.changed = true
	}
	r.val, r.haveValue, r.inRange, r.stale = v, true, inRange, false
}

func (r *registration) stopPump() {
	if r.pump != nil {
		r.pump.Stop()
		r.pump = nil
	}
}

// request is one poll or catalogue query awaiting its reply: the
// server it went to, the message kind that answers it (an error with
// its seq fails it), and what to do with the answer (or with the error
// if the connection dies first).
type request struct {
	server string
	reply  string
	done   func(wireMsg, error)
}

// connTo returns (dialing if needed) the stream to name.
func (cm *Comma) connTo(name string) (Conn, error) {
	if cm.servers == nil {
		return nil, ErrTerminated
	}
	s := cm.servers[name]
	if s != nil && s.conn != nil {
		return s.conn, nil
	}
	conn, wire, err := cm.dial(name)
	if err != nil {
		return nil, fmt.Errorf("eem: dial %s: %w", name, err)
	}
	wire(readLines(conn, nil, func(line []byte) { cm.handleLine(name, line) }))
	if n, ok := conn.(CloseNotifier); ok {
		n.OnDown(func() { cm.noteDisconnect(name) })
	}
	cm.server(name).conn = conn
	return conn, nil
}

// server returns name's record, creating it on first use.
func (cm *Comma) server(name string) *server {
	s, ok := cm.servers[name]
	if !ok {
		s = &server{}
		cm.servers[name] = s
	}
	return s
}

// send writes m on the (freshly dialed if needed) stream to name. A
// request with a done callback takes the next seq and waits in reqs
// for its reply. A dial failure arms a redial under Supervise; a write
// failure evicts the connection so the next call redials instead of
// reusing a dead conn.
func (cm *Comma) send(name string, m wireMsg, req request) error {
	conn, err := cm.connTo(name)
	if err != nil {
		cm.scheduleRedial(name)
		return err
	}
	if req.done != nil {
		cm.nextSeq++
		m.Seq = cm.nextSeq
		req.server = name
		cm.reqs[m.Seq] = req
	}
	if err := conn.Write(encodeMsg(m)); err != nil {
		delete(cm.reqs, m.Seq)
		cm.noteDisconnect(name)
		return fmt.Errorf("eem: write to %s: %w", name, err)
	}
	return nil
}

// noteDisconnect evicts the cached connection to name, marks the
// server's protected-data-area entries stale, and fails its pending
// requests. Safe to call repeatedly; the supervisor (if any) owns the
// redial schedule.
func (cm *Comma) noteDisconnect(name string) {
	if cm.servers == nil {
		return
	}
	if s := cm.servers[name]; s != nil && s.conn != nil {
		conn := s.conn
		s.conn = nil
		conn.Close()
		for id, r := range cm.regs {
			if id.Server == name {
				r.stale = true
			}
		}
		// Outstanding requests on this stream will never be answered;
		// fail them now, in seq order for reproducible callback order.
		var seqs []int64
		for seq, req := range cm.reqs {
			if req.server == name {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			if req, ok := cm.reqs[seq]; ok {
				delete(cm.reqs, seq)
				req.done(wireMsg{}, wrapKind(ErrConnLost,
					fmt.Sprintf("eem: connection to %s lost", name)))
			}
		}
		cm.obs.Emit("eem-client", "conn-down", name)
	}
	cm.scheduleRedial(name)
}

// handleLine processes one inbound protocol message from server.
func (cm *Comma) handleLine(server string, line []byte) {
	m, err := decodeMsg(line)
	if err != nil {
		return
	}
	// Any parseable message proves the server alive: reset the
	// supervisor's backoff so the next outage starts from redialBase.
	if s := cm.servers[server]; s != nil {
		s.attempt = 0
	}
	// The lines name no server: it is the connection's.
	switch m.Kind {
	case msgUpdate:
		for _, u := range m.Batch {
			u.ID.Server = server
			if r := cm.regs[u.ID]; r != nil {
				r.store(u.V, true)
			}
		}
	case msgNotify:
		m.ID.Server = server
		if r := cm.regs[m.ID]; r != nil {
			r.store(m.V, true)
			if r.cb != nil {
				r.cb(m.ID, m.V)
			}
		}
	case msgPollReply, msgVarList, msgError:
		// An error with seq 0 rejected a message that expects no
		// reply: no request waits for it, and it is dropped.
		req, ok := cm.reqs[m.Seq]
		if !ok || m.Kind != req.reply && m.Kind != msgError {
			return
		}
		delete(cm.reqs, m.Seq)
		switch kind := kindForCode(m.Code); {
		case m.Kind != msgError:
			req.done(m, nil)
		case kind != nil:
			req.done(wireMsg{}, wrapKind(kind, "eem: "+m.Err))
		default:
			req.done(wireMsg{}, fmt.Errorf("eem: %s", m.Err))
		}
	}
}

// The supervisor's redial backoff: the first redial after a disconnect
// waits redialBase, each consecutive failure doubles the wait, and
// redialMax caps it.
const (
	redialBase = 250 * time.Millisecond
	redialMax  = 4 * time.Second
)

// Supervise attaches a reconnection supervisor driven by the
// UseScheduler scheduler: when a connection dies the client redials
// with exponential backoff and jitter drawn from the scheduler's
// seeded RNG (deterministic per seed, yet de-synchronized across
// clients), and replays every server-side registration once a redial
// sticks. PDA entries stay readable but report Stale until fresh data
// arrives.
func (cm *Comma) Supervise() error {
	if cm.sched == nil {
		return ErrNoScheduler
	}
	cm.supervised = true
	return nil
}

// scheduleRedial arms (at most one) pending redial timer for name:
// exponential in the consecutive-failure count, capped at redialMax,
// with ±25% jitter so a fleet of clients doesn't stampede a restarting
// server.
func (cm *Comma) scheduleRedial(name string) {
	if !cm.supervised || cm.servers == nil {
		return
	}
	s := cm.server(name)
	if s.redial.Active() {
		return
	}
	d := redialBase
	for i := 0; i < s.attempt && d < redialMax; i++ {
		d *= 2
	}
	d = time.Duration(float64(min(d, redialMax)) * (0.75 + cm.sched.Rand().Float64()/2))
	s.attempt++
	cm.obs.Emit("eem-client", "redial-scheduled", name,
		obs.F("attempt", s.attempt), obs.F("delay_ms", d.Milliseconds()))
	s.redial = cm.sched.After(d, func() {
		if s.conn != nil {
			return // something else already reconnected
		}
		if err := cm.reconnect(name); err != nil {
			cm.obs.Emit("eem-client", "redial-failed", name)
			cm.scheduleRedial(name)
		}
	})
}

// reconnect redials name and replays its registrations in a
// deterministic (var, index) order.
func (cm *Comma) reconnect(name string) error {
	if _, err := cm.connTo(name); err != nil {
		return err
	}
	cm.obs.Emit("eem-client", "reconnected", name)
	var ids []ID
	for id := range cm.regs {
		if id.Server == name {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Var != ids[j].Var {
			return ids[i].Var < ids[j].Var
		}
		return ids[i].Index < ids[j].Index
	})
	for _, id := range ids {
		if err := cm.send(name, wireMsg{Kind: msgRegister, ID: id, A: cm.regs[id].attr}, request{}); err != nil {
			return err
		}
	}
	if len(ids) > 0 {
		cm.obs.Emit("eem-client", "re-register", name, obs.F("count", len(ids)))
	}
	return nil
}
