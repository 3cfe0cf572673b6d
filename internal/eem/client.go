package eem

import (
	"encoding/json"
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

// pdaEntry is one slot of the protected data area (thesis §6.2).
type pdaEntry struct {
	val       Value
	inRange   bool
	changed   bool // set on update, cleared by Value()
	haveValue bool
	stale     bool // server lost since the value arrived
}

// The transport half of Comma: connections, the protected data area,
// polls, and the reconnection supervisor. The comma_* surface and its
// notification modes are in comma.go.

// connTo returns (dialing if needed) the stream to server.
func (cm *Comma) connTo(server string) (Conn, error) {
	if conn, ok := cm.conns[server]; ok {
		return conn, nil
	}
	conn, wire, err := cm.dial(server)
	if err != nil {
		return nil, fmt.Errorf("eem: dial %s: %w", server, err)
	}
	wire(readLines(conn, nil, func(line []byte) { cm.handleLine(server, line) }))
	if n, ok := conn.(CloseNotifier); ok {
		n.OnDown(func() { cm.noteDisconnect(server) })
	}
	cm.conns[server] = conn
	return conn, nil
}

// writeTo sends msg on the (freshly dialed if needed) stream to
// server. Any failure evicts the cached connection so the next call
// redials instead of reusing a dead conn.
func (cm *Comma) writeTo(server string, msg []byte) error {
	conn, err := cm.connTo(server)
	if err != nil {
		if cm.sup != nil {
			cm.sup.scheduleRedial(cm, server)
		}
		return err
	}
	if err := conn.Write(msg); err != nil {
		cm.noteDisconnect(server)
		return fmt.Errorf("eem: write to %s: %w", server, err)
	}
	return nil
}

// noteDisconnect evicts the cached connection to server, marks the
// server's protected-data-area entries stale, and fails its pending
// polls. Safe to call repeatedly; the supervisor (if any) owns the
// redial schedule.
func (cm *Comma) noteDisconnect(server string) {
	if cm.closed {
		return
	}
	if conn, ok := cm.conns[server]; ok {
		delete(cm.conns, server)
		conn.Close()
		for id, e := range cm.pda {
			if id.Server == server {
				e.stale = true
			}
		}
		// Outstanding polls on this stream will never be answered;
		// fail them now, in seq order for reproducible callback order.
		var seqs []int64
		for seq, srv := range cm.pollSrv {
			if srv == server {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			fn := cm.polls[seq]
			delete(cm.polls, seq)
			delete(cm.pollSrv, seq)
			if fn != nil {
				fn(Value{}, wrapKind(ErrConnLost,
					fmt.Sprintf("eem: connection to %s lost", server)))
			}
		}
		cm.obs.Emit("eem-client", "conn-down", server)
	}
	if cm.sup != nil {
		cm.sup.scheduleRedial(cm, server)
	}
}

// register asks id's server to watch the variable under attr
// (comma_var_register). Updates land silently in the protected data
// area; if attr.Interrupt is set the callback also fires on entry to
// the region. The interest is remembered even if the server is
// currently unreachable: a supervising client re-registers it once
// the connection comes back.
func (cm *Comma) register(id ID, attr Attr) error {
	cm.interests[id] = attr
	if _, ok := cm.pda[id]; !ok {
		cm.pda[id] = &pdaEntry{}
	}
	return cm.writeTo(id.Server, encodeMsg(wireMsg{Kind: msgRegister, ID: id, A: attr}))
}

// localRegister records a client-only registration (Comma's WithPoll
// mode): a PDA slot exists for GetValueOnce results but the server is
// never contacted and the supervisor never replays it.
func (cm *Comma) localRegister(id ID) {
	if _, ok := cm.pda[id]; !ok {
		cm.pda[id] = &pdaEntry{}
	}
}

// deregister removes one registration (comma_var_deregister).
func (cm *Comma) deregister(id ID) error {
	delete(cm.interests, id)
	delete(cm.pda, id)
	return cm.writeTo(id.Server, encodeMsg(wireMsg{Kind: msgDeregister, ID: id}))
}

// localDeregister drops a client-only registration without touching
// the server.
func (cm *Comma) localDeregister(id ID) {
	delete(cm.interests, id)
	delete(cm.pda, id)
}

// deregisterAll removes every registration on every server
// (comma_var_deregisterall).
func (cm *Comma) deregisterAll() {
	servers := make([]string, 0, len(cm.conns))
	for s := range cm.conns {
		servers = append(servers, s)
	}
	sort.Strings(servers)
	for _, s := range servers {
		cm.writeTo(s, encodeMsg(wireMsg{Kind: msgDeregisterAll}))
	}
	cm.pda = make(map[ID]*pdaEntry)
	cm.interests = make(map[ID]Attr)
}

// storePDA writes a value into the protected data area directly —
// Comma's WithPDA refresh pump stores poll results through it, keeping
// the changed/stale bookkeeping identical to a server-pushed update.
func (cm *Comma) storePDA(id ID, v Value, inRange bool) {
	e, ok := cm.pda[id]
	if !ok {
		return
	}
	if !e.haveValue || !e.val.Equal(v) {
		e.changed = true
	}
	e.val = v
	e.haveValue = true
	e.inRange = inRange
	e.stale = false
}

// pollOnce retrieves a single value directly from the server
// (comma_query_getvalue_once). The reply is delivered asynchronously
// to fn — the event-driven rendering of the thesis's synchronous call.
// If the connection dies before the reply, fn receives an error.
func (cm *Comma) pollOnce(id ID, fn func(Value, error)) error {
	conn, err := cm.connTo(id.Server)
	if err != nil {
		if cm.sup != nil {
			cm.sup.scheduleRedial(cm, id.Server)
		}
		return err
	}
	cm.nextSeq++
	seq := cm.nextSeq
	cm.polls[seq] = fn
	cm.pollSrv[seq] = id.Server
	if err := conn.Write(encodeMsg(wireMsg{Kind: msgPoll, Seq: seq, ID: id})); err != nil {
		delete(cm.polls, seq)
		delete(cm.pollSrv, seq)
		cm.noteDisconnect(id.Server)
		return fmt.Errorf("eem: write to %s: %w", id.Server, err)
	}
	return nil
}

// ListVariables asks a server for its variable catalogue (Kati's
// browsing support).
func (cm *Comma) ListVariables(server string, fn func([]string)) error {
	conn, err := cm.connTo(server)
	if err != nil {
		if cm.sup != nil {
			cm.sup.scheduleRedial(cm, server)
		}
		return err
	}
	cm.nextSeq++
	seq := cm.nextSeq
	cm.listReq[seq] = fn
	if err := conn.Write(encodeMsg(wireMsg{Kind: msgListVars, Seq: seq})); err != nil {
		delete(cm.listReq, seq)
		cm.noteDisconnect(server)
		return fmt.Errorf("eem: write to %s: %w", server, err)
	}
	return nil
}

// handleLine processes one inbound protocol message from server.
func (cm *Comma) handleLine(server string, line []byte) {
	var m wireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return
	}
	// Any parseable message proves the server alive: reset the
	// supervisor's backoff so the next outage starts from redialBase.
	if cm.sup != nil {
		cm.sup.attempt[server] = 0
	}
	switch m.Kind {
	case msgUpdate:
		for _, u := range m.Batch {
			e, ok := cm.pda[u.ID]
			if !ok {
				// Tolerate servers that strip the server name.
				id := u.ID
				id.Server = server
				e, ok = cm.pda[id]
				if !ok {
					continue
				}
			}
			if !e.haveValue || !e.val.Equal(u.V) {
				e.changed = true
			}
			e.val = u.V
			e.haveValue = true
			e.inRange = true
			e.stale = false
		}
	case msgNotify:
		id := m.ID
		if e, ok := cm.pda[id]; ok {
			if !e.haveValue || !e.val.Equal(m.V) {
				e.changed = true
			}
			e.val = m.V
			e.haveValue = true
			e.inRange = true
			e.stale = false
		}
		if fn, ok := cm.cbs[id]; ok {
			fn(id, m.V)
		}
	case msgPollReply:
		fn, ok := cm.polls[m.Seq]
		if !ok {
			return
		}
		delete(cm.polls, m.Seq)
		delete(cm.pollSrv, m.Seq)
		if m.Err != "" {
			if kind := kindForCode(m.Code); kind != nil {
				fn(Value{}, wrapKind(kind, "eem: "+m.Err))
			} else {
				fn(Value{}, fmt.Errorf("eem: %s", m.Err))
			}
		} else {
			fn(m.V, nil)
		}
	case msgVarList:
		if fn, ok := cm.listReq[m.Seq]; ok {
			delete(cm.listReq, m.Seq)
			fn(m.Names)
		}
	case msgError:
		// Server rejected something; surfaced via logs in callers.
	}
}

// The supervisor's redial backoff: the first redial after a disconnect
// waits redialBase, each consecutive failure doubles the wait, and
// redialMax caps it.
const (
	redialBase = 250 * time.Millisecond
	redialMax  = 4 * time.Second
)

type supervisor struct {
	sched   *sim.Scheduler
	pending map[string]bool
	attempt map[string]int
}

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
	cm.sup = &supervisor{
		sched:   cm.sched,
		pending: make(map[string]bool),
		attempt: make(map[string]int),
	}
	return nil
}

// backoff computes the next redial delay for server: exponential in
// the consecutive-failure count, capped at redialMax, with ±25% jitter
// so a fleet of clients doesn't stampede a restarting server.
func (s *supervisor) backoff(server string) time.Duration {
	d := redialBase
	for i := 0; i < s.attempt[server] && d < redialMax; i++ {
		d *= 2
	}
	if d > redialMax {
		d = redialMax
	}
	jitter := 0.75 + s.sched.Rand().Float64()/2
	return time.Duration(float64(d) * jitter)
}

// scheduleRedial arms (at most one) pending redial timer for server.
func (s *supervisor) scheduleRedial(cm *Comma, server string) {
	if s.pending[server] {
		return
	}
	s.pending[server] = true
	d := s.backoff(server)
	s.attempt[server]++
	cm.obs.Emit("eem-client", "redial-scheduled", server,
		obs.F("attempt", s.attempt[server]), obs.F("delay_ms", d.Milliseconds()))
	s.sched.After(d, func() {
		s.pending[server] = false
		if cm.closed {
			return
		}
		if _, ok := cm.conns[server]; ok {
			return // something else already reconnected
		}
		if err := cm.reconnect(server); err != nil {
			cm.obs.Emit("eem-client", "redial-failed", server)
			s.scheduleRedial(cm, server)
		}
	})
}

// reconnect redials server and replays its registrations in a
// deterministic (var, index) order.
func (cm *Comma) reconnect(server string) error {
	conn, err := cm.connTo(server)
	if err != nil {
		return err
	}
	cm.obs.Emit("eem-client", "reconnected", server)
	ids := make([]ID, 0, len(cm.interests))
	for id := range cm.interests {
		if id.Server == server {
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
		if err := conn.Write(encodeMsg(wireMsg{Kind: msgRegister, ID: id, A: cm.interests[id]})); err != nil {
			cm.noteDisconnect(server)
			return err
		}
	}
	if len(ids) > 0 {
		cm.obs.Emit("eem-client", "re-register", server, obs.F("count", len(ids)))
	}
	return nil
}
