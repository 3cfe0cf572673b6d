package migrate

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Port is the proxy-to-proxy migration control port, next to the SP
// command port (12000) and the EEM event port (12001).
const Port = 12002

// Message types of the transfer protocol. Each migration attempt is a
// two-phase exchange between the source manager (which froze the
// stream) and the destination manager:
//
//	source                         destination
//	  | -- OFFER(snapshot) ----------> |  validate, hold pending
//	  | <-------------- PREPARED/NAK - |
//	  |  journal: committed            |  (the ack boundary)
//	  | -- COMMIT -------------------> |  install pending stream
//	  | <------------------ DONE/GONE- |
//	  |  completed / resumed           |
//
// The destination installs nothing before COMMIT and the source stops
// being able to resume only after its journal says committed, so at
// every instant exactly one side can end up owning the stream:
// completed-on-destination XOR resumed-on-source.
const (
	msgOffer byte = iota + 1
	msgPrepared
	msgNak
	msgCommit
	msgDone
	msgAbort
	msgGone
)

const frameHeader = 1 + 8 + 4 // type | txid | payload length

// maxFrame bounds a frame's payload: a snapshot plus slack for a NAK
// reason. A header claiming more resets the connection.
const maxFrame = MaxSnapshotSize + 256

// Config wires a Manager into one service proxy.
type Config struct {
	Name  string         // manager name in events ("migrate", "migrateB")
	ID    uint8          // manager ID, high byte of every txid it issues
	Sched *sim.Scheduler // simulation clock
	Proxy *proxy.Proxy   // the proxy whose streams migrate
	Stack *tcp.Stack     // control stack the protocol runs over
	Bus   *obs.Bus       // event bus (nil-safe)
}

// Protocol timings. retryTimeout paces source-side re-sends in both
// phases: after offerRetries unanswered OFFERs the source resumes the
// stream, so a dead or partitioned peer never wedges it; once the
// journal says committed it re-sends COMMIT commitRetries times.
// pendingTimeout bounds how long the destination holds a
// validated-but-uncommitted offer.
const (
	retryTimeout   = 250 * time.Millisecond
	offerRetries   = 3
	commitRetries  = 25
	pendingTimeout = 2 * time.Second
)

// outgoing is one source-side transfer. The journal half survives
// Crash/Restart — it models the durable write-ahead log a real SP
// would keep; the live half is cleared by Crash and rebuilt by drive.
type outgoing struct {
	tx        uint64
	peer      ip.Addr
	ex        *proxy.StreamExport
	snap      []byte
	committed bool // past the ack boundary: the peer may own the stream

	conn    *tcp.Conn
	retries int
	timer   sim.Timer
}

// Destination-side states of a transfer. Pending is volatile (lost on
// Crash, so an uncommitted offer dies with the process); done and
// discarded are durable like the journal — they record which transfers
// this SP owns or has renounced, which a restarted peer re-asks via
// COMMIT.
const (
	inPending = iota
	inDone
	inDiscarded
)

// incoming is one destination-side transfer.
type incoming struct {
	state int
	ex    *proxy.StreamExport // the validated offer while pending
	timer sim.Timer           // pending expiry
}

// Manager runs both halves of the migration protocol for one SP: it is
// the source for streams this SP pushes out and the destination for
// streams peers push in. All methods run on the simulation goroutine.
type Manager struct {
	cfg    Config
	nextTx uint64
	out    map[uint64]*outgoing
	in     map[uint64]*incoming

	conns []*tcp.Conn // live protocol connections, aborted on Crash
	down  bool

	faults map[string]bool // one-shot fault points armed by the injector

	nAttempts  atomic.Int64
	nCompleted atomic.Int64
	nResumed   atomic.Int64
	nAborted   atomic.Int64
	nBytes     atomic.Int64
}

// NewManager builds a Manager; call Serve to start accepting peers.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:    cfg,
		out:    make(map[uint64]*outgoing),
		in:     make(map[uint64]*incoming),
		faults: make(map[string]bool),
	}
}

// Serve starts the destination half: accept peer connections on Port.
func (m *Manager) Serve() error {
	_, err := m.cfg.Stack.Listen(Port, func(c *tcp.Conn) {
		if m.down {
			c.Abort()
			return
		}
		m.track(c, m.onDestFrame)
	})
	return err
}

// RegisterMetrics exposes the migration counters, e.g. as
// "migrate.attempts". attempts counts successful freezes; completed,
// resumed and aborted are disjoint final outcomes; bytes sums encoded
// snapshot sizes at freeze time.
func (m *Manager) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+".attempts", m.nAttempts.Load)
	r.Counter(prefix+".completed", m.nCompleted.Load)
	r.Counter(prefix+".resumed", m.nResumed.Load)
	r.Counter(prefix+".aborted", m.nAborted.Load)
	r.Counter(prefix+".bytes", m.nBytes.Load)
}

// Counters returns (attempts, completed, resumed, aborted) for
// assertions in experiments.
func (m *Manager) Counters() (attempts, completed, resumed, aborted int64) {
	return m.nAttempts.Load(), m.nCompleted.Load(), m.nResumed.Load(), m.nAborted.Load()
}

// ArmFault arms a one-shot fault point: "drop-offer", "corrupt-offer",
// "crash-pre-commit", "crash-post-commit". The next time the protocol
// passes the point, the fault fires once and disarms.
func (m *Manager) ArmFault(point string) { m.faults[point] = true }

func (m *Manager) takeFault(point string) bool {
	if !m.faults[point] {
		return false
	}
	delete(m.faults, point)
	return true
}

// Command implements the "migrate <srcIP> <srcPort> <dstIP> <dstPort>
// <peerIP>" control command: freeze the keyed stream now and hand it
// to the peer SP. The transfer itself proceeds asynchronously; watch
// the migrate.* counters or the event log for the outcome.
func (m *Manager) Command(args []string) string {
	if len(args) != 5 {
		return "error: usage: migrate <srcIP> <srcPort> <dstIP> <dstPort> <peerIP>\n"
	}
	k, err := filter.ParseKey(args[:4])
	if err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	if k.IsWild() {
		return "error: migrate needs an exact stream key\n"
	}
	peer, err := ip.ParseAddr(args[4])
	if err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	if err := m.Migrate(k, peer); err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	return fmt.Sprintf("migrating %v -> %v\n", k, peer)
}

// Migrate freezes stream k between two packets, journals the snapshot,
// and starts the transfer to peer. An error means nothing was frozen
// (the stream stays where it is); after a nil return the stream ends
// either completed on the peer or resumed here.
func (m *Manager) Migrate(k filter.Key, peer ip.Addr) error {
	if m.down {
		return fmt.Errorf("migrate: %s is down", m.cfg.Name)
	}
	ex, err := m.cfg.Proxy.ExtractStream(k)
	if err != nil {
		return err
	}
	snap, err := EncodeSnapshot(ex)
	if err != nil {
		m.restore(ex, "encode")
		return err
	}
	m.nextTx++
	o := &outgoing{tx: uint64(m.cfg.ID)<<56 | m.nextTx, peer: peer, ex: ex, snap: snap}
	m.out[o.tx] = o
	m.nAttempts.Add(1)
	m.nBytes.Add(int64(len(snap)))
	m.emitStream("start", k, obs.F("tx", txString(o.tx)),
		obs.F("peer", peer.String()), obs.F("bytes", len(snap)))
	m.drive(o, offerRetries)
	return nil
}

// txString renders a transfer ID: the issuing manager's ID (the high
// byte, which keeps IDs unique across managers) and its local counter.
func txString(tx uint64) string { return fmt.Sprintf("%02x:%d", tx>>56, tx&^(uint64(0xff)<<56)) }

// --- source side --------------------------------------------------------

// drive (re)starts the live half of o: a fresh budget of retries, one
// send of the current phase, and the pacing timer.
func (m *Manager) drive(o *outgoing, retries int) {
	o.timer.Stop()
	o.retries = retries
	m.send(o)
	m.arm(o)
}

// send writes o's current phase — OFFER until the journal says
// committed, COMMIT after — dialling the peer first when there is no
// connection or the peer reset it. A failed dial or write is an
// unanswered send: the pacing timer retries it under the same budget.
func (m *Manager) send(o *outgoing) {
	if o.conn == nil || o.conn.State() == tcp.StateClosed {
		c, err := m.cfg.Stack.Connect(o.peer, Port)
		if err != nil {
			return
		}
		o.conn = c
		m.track(c, m.onSourceFrame)
	}
	k, tx := o.ex.Key, txString(o.tx)
	if o.committed {
		if o.conn.Write(encodeFrame(msgCommit, o.tx, nil)) == nil {
			m.emitStream("commit", k, obs.F("tx", tx))
		}
		return
	}
	payload := o.snap
	if m.takeFault("corrupt-offer") {
		payload = append([]byte(nil), o.snap...)
		payload[len(payload)/2] ^= 0x40
		m.emitStream("fault", k, obs.F("point", "corrupt-offer"))
	}
	if m.takeFault("drop-offer") {
		m.emitStream("fault", k, obs.F("point", "drop-offer"))
		return
	}
	if o.conn.Write(encodeFrame(msgOffer, o.tx, payload)) == nil {
		m.emitStream("offer", k, obs.F("tx", tx), obs.F("bytes", len(payload)))
	}
}

// arm schedules o's pacing timer: re-send while budget remains, then
// resume an offered transfer or park a committed one as stuck.
func (m *Manager) arm(o *outgoing) {
	o.timer = m.cfg.Sched.After(retryTimeout, func() {
		if o.retries > 0 {
			o.retries--
			m.send(o)
			m.arm(o)
		} else if !o.committed {
			m.resume(o, "resume", "no answer from peer")
		} else {
			// Committed but the peer never confirmed: the stream may
			// already run over there, so resuming could double-own it.
			// The journal row stays, so an answer still in flight can
			// end it.
			m.emitStream("stuck", o.ex.Key, obs.F("tx", txString(o.tx)))
		}
	})
}

func (m *Manager) onSourceFrame(c *tcp.Conn, typ byte, tx uint64, payload []byte) {
	o := m.out[tx]
	if m.down || o == nil {
		return
	}
	switch typ {
	case msgPrepared:
		if o.committed {
			m.send(o) // duplicate PREPARED; COMMIT again
			return
		}
		if m.takeFault("crash-pre-commit") {
			m.emitStream("fault", o.ex.Key, obs.F("point", "crash-pre-commit"))
			m.Crash()
			return
		}
		// The ack boundary: from this journal write on, the destination
		// may own the stream, so the source may no longer resume it.
		o.committed = true
		if m.takeFault("crash-post-commit") {
			m.emitStream("fault", o.ex.Key, obs.F("point", "crash-post-commit"))
			m.Crash()
			return
		}
		m.drive(o, commitRetries)
	case msgNak:
		if o.committed {
			return
		}
		m.finish(o, "NAK")
		m.nAborted.Add(1)
		m.emitStream("aborted", o.ex.Key, obs.F("tx", txString(tx)), obs.F("reason", string(payload)))
	case msgDone:
		m.finish(o, "")
		m.nCompleted.Add(1)
		m.emitStream("completed", o.ex.Key, obs.F("tx", txString(tx)))
	case msgGone:
		// The destination renounced the transfer (pending expired,
		// install failed, or it never saw the offer): the stream
		// provably does not run over there, so resuming here is safe
		// in either phase.
		m.resume(o, "GONE", "peer renounced")
	}
}

// resume reinstalls o's stream here. An uncommitted transfer first
// tells the peer (best effort) to forget it.
func (m *Manager) resume(o *outgoing, after, reason string) {
	if !o.committed && o.conn != nil {
		o.conn.Write(encodeFrame(msgAbort, o.tx, nil))
	}
	m.finish(o, after)
	m.nResumed.Add(1)
	m.emitStream("resumed", o.ex.Key, obs.F("tx", txString(o.tx)), obs.F("reason", reason))
}

// finish retires o: journal row out, timer stopped, connection closed.
// A non-empty after names the answer on which the stream comes back
// here, and reinstalls it.
func (m *Manager) finish(o *outgoing, after string) {
	delete(m.out, o.tx)
	o.timer.Stop()
	if o.conn != nil {
		o.conn.Close()
	}
	if after != "" {
		m.restore(o.ex, after)
	}
}

// restore reinstalls ex on the local proxy; a failure is reported on
// the bus, naming the answer it came after.
func (m *Manager) restore(ex *proxy.StreamExport, after string) {
	if err := m.cfg.Proxy.ImportStream(ex); err != nil {
		m.emitStream("reinstall-failed", ex.Key, obs.F("after", after), obs.F("err", err.Error()))
	}
}

// --- destination side ---------------------------------------------------

func (m *Manager) onDestFrame(c *tcp.Conn, typ byte, tx uint64, payload []byte) {
	if m.down {
		return
	}
	t := m.in[tx]
	switch typ {
	case msgOffer:
		if t != nil && t.state != inDiscarded {
			// Duplicate offer: our earlier answer was lost. Re-answer;
			// nothing is re-validated and nothing is installed here.
			c.Write(encodeFrame(msgPrepared, tx, nil))
			return
		}
		ex, err := DecodeSnapshot(payload)
		if err == nil {
			err = m.cfg.Proxy.ValidateImport(ex)
		}
		if err != nil {
			m.emit("nak", txString(tx), obs.F("reason", err.Error()))
			c.Write(encodeFrame(msgNak, tx, []byte(err.Error())))
			return
		}
		// A fresh full offer supersedes an old discard.
		t = &incoming{state: inPending, ex: ex}
		m.in[tx] = t
		t.timer = m.cfg.Sched.After(pendingTimeout, func() {
			m.discard(tx, t, "pending-expired")
		})
		m.emitStream("prepared", ex.Key, obs.F("tx", txString(tx)),
			obs.F("bindings", len(ex.Bindings)), obs.F("states", len(ex.States)))
		c.Write(encodeFrame(msgPrepared, tx, nil))
	case msgCommit:
		switch {
		case t != nil && t.state == inDone:
			c.Write(encodeFrame(msgDone, tx, nil)) // idempotent
		case t == nil || t.state == inDiscarded:
			// Unknown or discarded: we provably never installed it.
			m.emit("gone", txString(tx))
			c.Write(encodeFrame(msgGone, tx, nil))
		default:
			t.timer.Stop()
			ex := t.ex
			t.ex = nil
			if err := m.cfg.Proxy.ImportStream(ex); err != nil {
				t.state = inDiscarded
				m.emitStream("install-failed", ex.Key, obs.F("tx", txString(tx)), obs.F("err", err.Error()))
				c.Write(encodeFrame(msgGone, tx, nil))
				return
			}
			t.state = inDone
			m.emitStream("installed", ex.Key, obs.F("tx", txString(tx)),
				obs.F("bindings", len(ex.Bindings)), obs.F("states", len(ex.States)))
			c.Write(encodeFrame(msgDone, tx, nil))
		}
	case msgAbort:
		if t != nil && t.state == inPending {
			t.timer.Stop()
			m.discard(tx, t, "abort-rcvd")
		}
	}
}

// discard renounces the pending transfer t and says why on the bus.
func (m *Manager) discard(tx uint64, t *incoming, kind string) {
	m.emitStream(kind, t.ex.Key, obs.F("tx", txString(tx)))
	t.state, t.ex = inDiscarded, nil
}

// --- crash / restart ----------------------------------------------------

// Crash models the SP's migration subsystem dying: every connection is
// reset, and the volatile state — each transfer's live half and every
// pending offer — is lost with its timers. The journal rows and the
// done/discarded ledger survive: they model the durable log a real SP
// keeps precisely so migration is crash-safe.
func (m *Manager) Crash() {
	if m.down {
		return
	}
	m.down = true
	cs := m.conns
	m.conns = nil // detach first: Abort fires OnClose, which edits conns
	for _, c := range cs {
		c.Abort()
	}
	for _, o := range m.out {
		o.timer.Stop()
		o.conn = nil
	}
	for tx, t := range m.in {
		if t.state == inPending {
			t.timer.Stop()
			delete(m.in, tx)
		}
	}
	m.emit("crash", m.cfg.Name)
}

// Restart recovers from Crash by replaying the journal in txid order:
// offered-phase transfers resume locally (the peer cannot have
// installed them — no COMMIT was ever sent), committed-phase transfers
// re-send COMMIT until the peer answers DONE or GONE.
func (m *Manager) Restart() {
	if !m.down {
		return
	}
	m.down = false
	m.emit("restart", m.cfg.Name)
	txs := make([]uint64, 0, len(m.out))
	for tx := range m.out {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	for _, tx := range txs {
		o := m.out[tx]
		if !o.committed {
			m.emitStream("recover-offered", o.ex.Key, obs.F("tx", txString(tx)))
			m.resume(o, "resume", "restart with uncommitted journal entry")
		} else {
			m.emitStream("recover-committed", o.ex.Key, obs.F("tx", txString(tx)))
			m.drive(o, commitRetries)
		}
	}
}

// --- framing ------------------------------------------------------------

func encodeFrame(typ byte, tx uint64, payload []byte) []byte {
	b := make([]byte, 0, frameHeader+len(payload))
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, tx)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// frame is one decoded protocol message.
type frame struct {
	typ     byte
	tx      uint64
	payload []byte
}

// splitFrames cuts the complete frames off the front of b and returns
// them with the unconsumed rest. A header claiming more than maxFrame
// is an error as soon as the header is whole, before any of its
// payload is waited for. Payloads are copies: b may be reused.
func splitFrames(b []byte) (frames []frame, rest []byte, err error) {
	for len(b) >= frameHeader {
		n := binary.BigEndian.Uint32(b[9:frameHeader])
		if n > maxFrame {
			return frames, nil, fmt.Errorf("frame of %d bytes exceeds %d", n, maxFrame)
		}
		if len(b) < frameHeader+int(n) {
			break
		}
		frames = append(frames, frame{b[0], binary.BigEndian.Uint64(b[1:9]),
			append([]byte(nil), b[frameHeader:frameHeader+int(n)]...)})
		b = b[frameHeader+int(n):]
	}
	return frames, b, nil
}

// track registers c for Crash and feeds its reassembled frames to
// handle. An oversized frame resets the connection.
func (m *Manager) track(c *tcp.Conn, handle func(c *tcp.Conn, typ byte, tx uint64, payload []byte)) {
	m.conns = append(m.conns, c)
	c.OnClose = func(error) {
		for i, cc := range m.conns {
			if cc == c {
				m.conns = append(m.conns[:i], m.conns[i+1:]...)
				break
			}
		}
	}
	var buf []byte
	c.OnData = func(data []byte) {
		frames, rest, err := splitFrames(append(buf, data...))
		buf = rest
		for _, f := range frames {
			handle(c, f.typ, f.tx, f.payload)
		}
		if err != nil {
			m.emit("oversized-frame", c.RemoteAddr().String(), obs.F("err", err.Error()))
			c.Abort()
		}
	}
}

// emit records an event keyed by a string (a transfer ID, the
// manager's name, a peer address), emitStream one keyed by the stream
// it concerns; the manager's name leads the fields of both.
func (m *Manager) emit(kind, key string, fields ...obs.Field) {
	if m.cfg.Bus != nil {
		m.cfg.Bus.Emit("migrate", kind, key, m.named(fields)...)
	}
}

func (m *Manager) emitStream(kind string, k filter.Key, fields ...obs.Field) {
	if m.cfg.Bus != nil {
		m.cfg.Bus.EmitStream("migrate", kind, obs.Stream(k), m.named(fields)...)
	}
}

func (m *Manager) named(fields []obs.Field) []obs.Field {
	return append([]obs.Field{obs.F("mgr", m.cfg.Name)}, fields...)
}
