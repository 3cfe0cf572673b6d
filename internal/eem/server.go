package eem

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// DefaultUpdateInterval is the periodic check/update interval; the
// thesis used "a currently hard-coded interval of roughly ten
// seconds" (§6.3.2).
const DefaultUpdateInterval = 10 * time.Second

// registrationState tracks one client registration.
type registrationState struct {
	id   ID
	attr Attr
	// wasInRange implements edge-triggered interrupt notification: the
	// callback fires when the variable *changes into* the region. An
	// evaluation that errors (unknown source state, type mismatch)
	// counts as out-of-range, so a variable that errors transiently,
	// leaves the region, and re-enters still re-fires its interrupt.
	wasInRange bool
}

// session is one connected client.
type session struct {
	id   int64 // stable per-server session number, for observability
	conn Conn
	regs []*registrationState
}

// key renders the session's observability key ("s1", "s2", ...).
func (s *session) key() string { return "s" + strconv.FormatInt(s.id, 10) }

// Server is an EEM server: it owns a set of variable sources and
// serves registrations from any number of clients (thesis §6.2).
type Server struct {
	name     string
	varIndex map[string]Source
	// sessions is kept in insertion (accept) order. Tick iterates it
	// directly: the wire-message order across clients under one seed
	// must be reproducible, which a map range would randomize.
	sessions []*session
	nextSess int64

	// obs, when non-nil, receives structured events for session
	// lifecycle and every notify/update/poll served.
	obs *obs.Bus

	// Interval is the periodic check period (default 10s).
	Interval time.Duration

	// down marks a crashed server: it refuses connections and skips
	// periodic passes until Restart.
	down bool

	// Stats.
	Registrations int64
	UpdatesSent   int64
	NotifiesSent  int64
	PollsServed   int64
}

// NewServer creates a server named name (reported to clients in IDs).
func NewServer(name string) *Server {
	return &Server{
		name:     name,
		varIndex: make(map[string]Source),
		Interval: DefaultUpdateInterval,
	}
}

// SetObs attaches the observability bus. Events are emitted under the
// "eem" subsystem, keyed by session ("s1", "s2", ... in accept order).
func (s *Server) SetObs(b *obs.Bus) { s.obs = b }

// RegisterMetrics exposes the server's counters in a metrics registry
// under prefix (e.g. "eem" -> "eem.notifies_sent").
func (s *Server) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+".registrations", func() int64 { return s.Registrations })
	r.Counter(prefix+".updates_sent", func() int64 { return s.UpdatesSent })
	r.Counter(prefix+".notifies_sent", func() int64 { return s.NotifiesSent })
	r.Counter(prefix+".polls_served", func() int64 { return s.PollsServed })
	r.Gauge(prefix+".sessions", func() float64 { return float64(len(s.sessions)) })
}

// AddSource registers a variable source. Later sources win name
// conflicts (application-specific sources can shadow defaults,
// thesis §6.2).
func (s *Server) AddSource(src Source) {
	for _, v := range src.Variables() {
		s.varIndex[v] = src
	}
}

// Variables lists every variable the server can answer for, sorted.
func (s *Server) Variables() []string {
	out := make([]string, 0, len(s.varIndex))
	for v := range s.varIndex {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Get resolves a variable through the source index — the host's one
// variable table, which EEM clients, the policy engine and the proxy's
// filters all read. It answers while the server is down: the sources
// belong to the host, not to the server process.
func (s *Server) Get(name string, index int) (Value, error) {
	src, ok := s.varIndex[name]
	if !ok {
		return Value{}, wrapKind(ErrUnknownVar,
			fmt.Sprintf("eem: server %s has no variable %q", s.name, name))
	}
	return src.Get(name, index)
}

// Crash simulates abrupt server death: every session is severed with a
// reset (not a graceful FIN — the peer must see the crash, not a
// shutdown), all registration state is lost, and the server refuses
// connections and skips periodic passes until Restart.
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.obs.Emit("eem", "crash", s.name)
	sessions := s.sessions
	s.sessions = nil
	for _, sess := range sessions {
		sess.conn.Abort()
	}
}

// Restart brings a crashed server back up, empty: it accepts
// connections again with no memory of prior sessions or
// registrations — clients must re-register, exactly as after a real
// process restart.
func (s *Server) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.obs.Emit("eem", "restart", s.name)
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// Accept attaches a client connection. Feed inbound bytes through the
// returned function (wire it to the stream's data callback).
func (s *Server) Accept(conn Conn) (onData func([]byte), onClose func()) {
	if s.down {
		// A crashed host answers SYNs with RST; the sim listener has
		// already completed the handshake, so sever immediately.
		conn.Abort()
		return func([]byte) {}, func() {}
	}
	s.nextSess++
	sess := &session{id: s.nextSess, conn: conn}
	s.sessions = append(s.sessions, sess)
	s.obs.Emit("eem", "session-open", sess.key())
	return readLines(conn, errTooLong, func(line []byte) { s.handleLine(sess, line) }), func() {
		for i, other := range s.sessions {
			if other == sess {
				s.sessions = append(s.sessions[:i], s.sessions[i+1:]...)
				s.obs.Emit("eem", "session-close", sess.key())
				return
			}
		}
	}
}

func (s *Server) handleLine(sess *session, line []byte) {
	m, err := decodeMsg(line)
	if err != nil {
		sess.conn.Write(encodeMsg(wireMsg{Kind: msgError, Err: "bad message: " + err.Error()}))
		return
	}
	switch m.Kind {
	case msgRegister:
		if _, ok := s.varIndex[m.ID.Var]; !ok {
			sess.conn.Write(encodeMsg(wireMsg{Kind: msgError,
				Err: "unknown variable " + m.ID.Var, Code: codeUnknownVar}))
			return
		}
		s.Registrations++
		sess.regs = append(sess.regs, &registrationState{id: m.ID, attr: m.A})
		s.obs.Emit("eem", "register", sess.key(),
			obs.F("var", m.ID.Var), obs.F("index", m.ID.Index), obs.F("op", m.A.Op))
	case msgDeregister:
		kept := sess.regs[:0]
		for _, r := range sess.regs {
			if r.id != m.ID {
				kept = append(kept, r)
			}
		}
		sess.regs = kept
		s.obs.Emit("eem", "deregister", sess.key(), obs.F("var", m.ID.Var))
	case msgDeregisterAll:
		sess.regs = nil
		s.obs.Emit("eem", "deregister-all", sess.key())
	case msgPoll:
		s.PollsServed++
		v, err := s.Get(m.ID.Var, m.ID.Index)
		reply := wireMsg{Kind: msgPollReply, Seq: m.Seq, V: v}
		if err != nil {
			reply = wireMsg{Kind: msgError, Seq: m.Seq, Err: err.Error(), Code: codeFor(err)}
		}
		s.obs.Emit("eem", "poll", sess.key(), obs.F("var", m.ID.Var))
		sess.conn.Write(encodeMsg(reply))
	case msgListVars:
		sess.conn.Write(encodeMsg(wireMsg{Kind: msgVarList, Seq: m.Seq, Names: s.Variables()}))
	default:
		sess.conn.Write(encodeMsg(wireMsg{Kind: msgError, Err: "unexpected message kind " + m.Kind}))
	}
}

// Tick performs one periodic pass: evaluate every registration, fire
// interrupt notifications for variables that entered their region, and
// send each client a batch update of all its in-range variables
// (thesis §6.2: "an update containing all variables that fall within
// their requested range is sent... once all variables have been
// checked"). The owner drives Tick from a simulator timer or a real
// ticker.
//
// Sessions are visited in accept order so the wire-message order
// across clients is identical run-to-run under one seed — part of the
// sim package's reproducibility promise.
func (s *Server) Tick() {
	if s.down {
		return
	}
	for _, sess := range s.sessions {
		var batch []varUpdate
		for _, r := range sess.regs {
			in := false
			v, err := s.Get(r.id.Var, r.id.Index)
			if err == nil {
				in, err = r.attr.Matches(v)
			}
			if err != nil {
				// An evaluation that errors is out-of-range: leaving
				// wasInRange stale here would swallow the next
				// entering edge after the error clears.
				r.wasInRange = false
				continue
			}
			if in && r.attr.Interrupt && !r.wasInRange {
				s.NotifiesSent++
				s.obs.Emit("eem", "notify", sess.key(),
					obs.F("var", r.id.Var), obs.F("value", v))
				sess.conn.Write(encodeMsg(wireMsg{Kind: msgNotify, ID: r.id, V: v}))
			}
			r.wasInRange = in
			if in {
				batch = append(batch, varUpdate{ID: r.id, V: v})
			}
		}
		if len(batch) > 0 {
			s.UpdatesSent++
			s.obs.Emit("eem", "update", sess.key(), obs.F("vars", len(batch)))
			sess.conn.Write(encodeMsg(wireMsg{Kind: msgUpdate, Batch: batch}))
		}
	}
}
