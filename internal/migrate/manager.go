package migrate

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
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
//	  |  journal phase := committed    |  (the ack boundary)
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

// Source-side journal phases. The journal survives Crash/Restart — it
// models the durable write-ahead log a real SP would keep.
const (
	phaseOffered = iota
	phaseCommitted
)

const frameHeader = 1 + 8 + 4 // type | txid | payload length

// Config wires a Manager into one service proxy.
type Config struct {
	Name  string           // manager name in events/log lines ("migrate", "migrateB")
	ID    uint8            // manager ID, high byte of every txid it issues
	Sched *sim.Scheduler   // simulation clock
	Plane *dataplane.Plane // the data plane whose streams migrate
	Stack *tcp.Stack       // control stack the protocol runs over
	Bus   *obs.Bus         // event bus (nil-safe)
	Log   func(string, ...any)
}

// Protocol timings. offerTimeout paces source-side OFFER retries; after
// offerRetries expiries without a PREPARED the source resumes the
// stream, so a dead or partitioned peer never wedges it. commitTimeout
// paces COMMIT re-sends (commitRetries of them) once the journal says
// committed. pendingTimeout bounds how long the destination holds a
// validated-but-uncommitted offer.
const (
	offerTimeout   = 250 * time.Millisecond
	offerRetries   = 3
	commitTimeout  = 250 * time.Millisecond
	commitRetries  = 25
	pendingTimeout = 2 * time.Second
)

type journalEntry struct {
	tx    uint64
	peer  ip.Addr
	ex    *proxy.StreamExport
	snap  []byte
	phase int
}

// attempt is the volatile half of a source-side migration: the live
// connection and retry budget. Lost on Crash; rebuilt by Restart from
// the journal.
type attempt struct {
	conn    *tcp.Conn
	retries int
	timer   sim.Timer
}

type pendingOffer struct {
	ex    *proxy.StreamExport
	timer sim.Timer
}

// Manager runs both halves of the migration protocol for one SP: it is
// the source for streams this SP pushes out and the destination for
// streams peers push in. All methods run on the simulation goroutine.
type Manager struct {
	cfg      Config
	listener *tcp.Listener
	nextTx   uint64

	// Source side.
	journal  map[uint64]*journalEntry
	attempts map[uint64]*attempt

	// Destination side. pending is volatile (lost on Crash, so an
	// uncommitted offer dies with the process); done and discarded are
	// durable like the journal — they record which transfers this SP
	// owns or has renounced, which a restarted peer re-asks via COMMIT.
	pending   map[uint64]*pendingOffer
	done      map[uint64]bool
	discarded map[uint64]bool

	conns []*tcp.Conn // live protocol connections, aborted on Crash
	down  bool
	gen   uint64 // bumped by Crash/Restart; invalidates armed timers

	faults map[string]bool // one-shot fault points armed by the injector

	nAttempts  atomic.Int64
	nCompleted atomic.Int64
	nResumed   atomic.Int64
	nAborted   atomic.Int64
	nBytes     atomic.Int64
}

// NewManager builds a Manager; call Serve to start accepting peers.
func NewManager(cfg Config) *Manager {
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	return &Manager{
		cfg:       cfg,
		journal:   make(map[uint64]*journalEntry),
		attempts:  make(map[uint64]*attempt),
		pending:   make(map[uint64]*pendingOffer),
		done:      make(map[uint64]bool),
		discarded: make(map[uint64]bool),
		faults:    make(map[string]bool),
	}
}

// Serve starts the destination half: accept peer connections on Port.
func (m *Manager) Serve() error {
	l, err := m.cfg.Stack.Listen(Port, m.accept)
	if err != nil {
		return err
	}
	m.listener = l
	return nil
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

// Down reports whether the manager is crashed.
func (m *Manager) Down() bool { return m.down }

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

// Migrate freezes stream k at a batch boundary, journals the snapshot,
// and starts the transfer to peer. An error means nothing was frozen
// (the stream stays where it is); after a nil return the stream ends
// either completed on the peer or resumed here.
func (m *Manager) Migrate(k filter.Key, peer ip.Addr) error {
	if m.down {
		return fmt.Errorf("migrate: %s is down", m.cfg.Name)
	}
	ex, err := m.cfg.Plane.ExtractStream(k)
	if err != nil {
		return err
	}
	snap, err := EncodeSnapshot(ex)
	if err != nil {
		if rerr := m.cfg.Plane.RestoreStream(ex); rerr != nil {
			m.cfg.Log("migrate: %s: reinstall after encode failure: %v", m.cfg.Name, rerr)
		}
		return err
	}
	tx := m.newTx()
	m.journal[tx] = &journalEntry{tx: tx, peer: peer, ex: ex, snap: snap, phase: phaseOffered}
	m.nAttempts.Add(1)
	m.nBytes.Add(int64(len(snap)))
	m.emit("start", k.String(), obs.F("tx", txString(tx)),
		obs.F("peer", peer.String()), obs.F("bytes", len(snap)))
	m.startAttempt(tx)
	return nil
}

// newTx issues a transfer ID unique across managers: the manager's ID
// in the high byte, a local counter below. Deterministic by
// construction.
func (m *Manager) newTx() uint64 {
	m.nextTx++
	return uint64(m.cfg.ID)<<56 | m.nextTx
}

func txString(tx uint64) string { return fmt.Sprintf("%02x:%d", tx>>56, tx&^(uint64(0xff)<<56)) }

// --- source side --------------------------------------------------------

func (m *Manager) startAttempt(tx uint64) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	at := &attempt{retries: offerRetries}
	m.attempts[tx] = at
	c, err := m.cfg.Stack.Connect(e.peer, Port)
	if err != nil {
		m.resumeSource(tx, "connect: "+err.Error())
		return
	}
	at.conn = c
	m.track(c)
	m.wireSourceConn(c)
	m.sendOffer(tx)
	m.armRetry(tx)
}

func (m *Manager) wireSourceConn(c *tcp.Conn) {
	fb := &frameBuf{}
	c.OnData = func(b []byte) { m.onData(c, fb, b, m.onSourceFrame) }
}

func (m *Manager) sendOffer(tx uint64) {
	e, at := m.journal[tx], m.attempts[tx]
	if e == nil || at == nil || at.conn == nil {
		return
	}
	payload := e.snap
	if m.takeFault("corrupt-offer") {
		payload = append([]byte(nil), e.snap...)
		payload[len(payload)/2] ^= 0x40
		m.emit("fault", e.ex.Key.String(), obs.F("point", "corrupt-offer"))
	}
	if m.takeFault("drop-offer") {
		m.emit("fault", e.ex.Key.String(), obs.F("point", "drop-offer"))
		return
	}
	if err := at.conn.Write(encodeFrame(msgOffer, tx, payload)); err != nil {
		return // retry timer will try again or resume
	}
	m.emit("offer", e.ex.Key.String(), obs.F("tx", txString(tx)), obs.F("bytes", len(payload)))
}

func (m *Manager) sendCommit(tx uint64) {
	e, at := m.journal[tx], m.attempts[tx]
	if e == nil || at == nil || at.conn == nil {
		return
	}
	if err := at.conn.Write(encodeFrame(msgCommit, tx, nil)); err != nil {
		return
	}
	m.emit("commit", e.ex.Key.String(), obs.F("tx", txString(tx)))
}

// armRetry schedules the source-side pacing timer for tx. One timer
// serves both phases: re-send OFFER while offered (resume when the
// budget runs out), re-send COMMIT while committed.
func (m *Manager) armRetry(tx uint64) {
	at := m.attempts[tx]
	if at == nil {
		return
	}
	e := m.journal[tx]
	if e == nil {
		return
	}
	d := offerTimeout
	if e.phase == phaseCommitted {
		d = commitTimeout
	}
	gen := m.gen
	at.timer = m.cfg.Sched.After(d, func() {
		if m.gen != gen {
			return
		}
		m.onRetryTimer(tx)
	})
}

func (m *Manager) onRetryTimer(tx uint64) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	at := m.attempts[tx]
	if at == nil {
		return
	}
	if at.retries <= 0 {
		if e.phase == phaseOffered {
			m.resumeSource(tx, "no answer from peer")
		} else {
			// Committed but the peer never confirmed: the stream may
			// already run over there, so resuming could double-own it.
			// Park the journal entry; Restart (or the operator) retries.
			m.emit("stuck", e.ex.Key.String(), obs.F("tx", txString(tx)))
			m.cfg.Log("migrate: %s: tx %s stuck in committed phase", m.cfg.Name, txString(tx))
		}
		return
	}
	at.retries--
	if e.phase == phaseOffered {
		m.sendOffer(tx)
	} else {
		m.sendCommit(tx)
	}
	m.armRetry(tx)
}

func (m *Manager) onSourceFrame(c *tcp.Conn, typ byte, tx uint64, payload []byte) {
	if m.down {
		return
	}
	switch typ {
	case msgPrepared:
		m.onPrepared(tx)
	case msgNak:
		m.onNak(tx, string(payload))
	case msgDone:
		m.onDone(tx)
	case msgGone:
		m.onGone(tx)
	}
}

func (m *Manager) onPrepared(tx uint64) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	if e.phase == phaseCommitted {
		m.sendCommit(tx) // duplicate PREPARED; COMMIT again
		return
	}
	if m.takeFault("crash-pre-commit") {
		m.emit("fault", e.ex.Key.String(), obs.F("point", "crash-pre-commit"))
		m.Crash()
		return
	}
	// The ack boundary: from this journal write on, the destination may
	// own the stream, so the source may no longer resume it.
	e.phase = phaseCommitted
	if at := m.attempts[tx]; at != nil {
		at.retries = commitRetries
		at.timer.Stop()
	}
	if m.takeFault("crash-post-commit") {
		m.emit("fault", e.ex.Key.String(), obs.F("point", "crash-post-commit"))
		m.Crash()
		return
	}
	m.sendCommit(tx)
	m.armRetry(tx)
}

func (m *Manager) onNak(tx uint64, reason string) {
	e := m.journal[tx]
	if e == nil || e.phase != phaseOffered {
		return
	}
	m.finishAttempt(tx)
	if err := m.cfg.Plane.RestoreStream(e.ex); err != nil {
		m.cfg.Log("migrate: %s: reinstall after NAK: %v", m.cfg.Name, err)
	}
	m.nAborted.Add(1)
	m.emit("aborted", e.ex.Key.String(), obs.F("tx", txString(tx)), obs.F("reason", reason))
}

func (m *Manager) onDone(tx uint64) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	m.finishAttempt(tx)
	m.nCompleted.Add(1)
	m.emit("completed", e.ex.Key.String(), obs.F("tx", txString(tx)))
}

func (m *Manager) onGone(tx uint64) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	// The destination renounced the transfer (pending expired, install
	// failed, or it never saw the offer): the stream provably does not
	// run over there, so resuming here is safe in either phase.
	m.finishAttempt(tx)
	if err := m.cfg.Plane.RestoreStream(e.ex); err != nil {
		m.cfg.Log("migrate: %s: reinstall after GONE: %v", m.cfg.Name, err)
	}
	m.nResumed.Add(1)
	m.emit("resumed", e.ex.Key.String(), obs.F("tx", txString(tx)), obs.F("reason", "peer renounced"))
}

// resumeSource reinstalls an offered-phase stream locally and tells the
// peer (best effort) to forget the transfer.
func (m *Manager) resumeSource(tx uint64, reason string) {
	e := m.journal[tx]
	if e == nil {
		return
	}
	if at := m.attempts[tx]; at != nil && at.conn != nil {
		at.conn.Write(encodeFrame(msgAbort, tx, nil)) // best effort
	}
	m.finishAttempt(tx)
	if err := m.cfg.Plane.RestoreStream(e.ex); err != nil {
		m.cfg.Log("migrate: %s: reinstall on resume: %v", m.cfg.Name, err)
	}
	m.nResumed.Add(1)
	m.emit("resumed", e.ex.Key.String(), obs.F("tx", txString(tx)), obs.F("reason", reason))
}

// finishAttempt retires tx on the source: journal entry out, timer
// stopped, connection closed.
func (m *Manager) finishAttempt(tx uint64) {
	delete(m.journal, tx)
	at := m.attempts[tx]
	if at == nil {
		return
	}
	delete(m.attempts, tx)
	at.timer.Stop()
	if at.conn != nil {
		at.conn.Close()
	}
}

// --- destination side ---------------------------------------------------

func (m *Manager) accept(c *tcp.Conn) {
	if m.down {
		c.Abort()
		return
	}
	m.track(c)
	fb := &frameBuf{}
	c.OnData = func(b []byte) { m.onData(c, fb, b, m.onDestFrame) }
}

func (m *Manager) onDestFrame(c *tcp.Conn, typ byte, tx uint64, payload []byte) {
	if m.down {
		return
	}
	switch typ {
	case msgOffer:
		m.onOffer(c, tx, payload)
	case msgCommit:
		m.onCommit(c, tx)
	case msgAbort:
		m.onAbort(tx)
	}
}

func (m *Manager) onOffer(c *tcp.Conn, tx uint64, payload []byte) {
	if m.done[tx] || m.pending[tx] != nil {
		// Duplicate offer: our earlier answer was lost. Re-answer;
		// nothing is re-validated and nothing is installed here.
		c.Write(encodeFrame(msgPrepared, tx, nil))
		return
	}
	ex, err := DecodeSnapshot(payload)
	if err == nil {
		err = m.cfg.Plane.ValidateImport(ex)
	}
	if err != nil {
		m.emit("nak", txString(tx), obs.F("reason", err.Error()))
		c.Write(encodeFrame(msgNak, tx, []byte(err.Error())))
		return
	}
	delete(m.discarded, tx) // a fresh full offer supersedes an old discard
	po := &pendingOffer{ex: ex}
	m.pending[tx] = po
	gen := m.gen
	po.timer = m.cfg.Sched.After(pendingTimeout, func() {
		if m.gen != gen {
			return
		}
		if m.pending[tx] != po {
			return
		}
		delete(m.pending, tx)
		m.discarded[tx] = true
		m.emit("pending-expired", ex.Key.String(), obs.F("tx", txString(tx)))
	})
	m.emit("prepared", ex.Key.String(), obs.F("tx", txString(tx)),
		obs.F("bindings", len(ex.Bindings)), obs.F("states", len(ex.States)))
	c.Write(encodeFrame(msgPrepared, tx, nil))
}

func (m *Manager) onCommit(c *tcp.Conn, tx uint64) {
	if m.done[tx] {
		c.Write(encodeFrame(msgDone, tx, nil)) // idempotent
		return
	}
	po := m.pending[tx]
	if po == nil {
		// Unknown or discarded: we provably never installed it.
		m.emit("gone", txString(tx))
		c.Write(encodeFrame(msgGone, tx, nil))
		return
	}
	delete(m.pending, tx)
	po.timer.Stop()
	if err := m.cfg.Plane.RestoreStream(po.ex); err != nil {
		m.discarded[tx] = true
		m.emit("install-failed", po.ex.Key.String(), obs.F("tx", txString(tx)), obs.F("err", err.Error()))
		c.Write(encodeFrame(msgGone, tx, nil))
		return
	}
	m.done[tx] = true
	m.emit("installed", po.ex.Key.String(), obs.F("tx", txString(tx)),
		obs.F("bindings", len(po.ex.Bindings)), obs.F("states", len(po.ex.States)))
	c.Write(encodeFrame(msgDone, tx, nil))
}

func (m *Manager) onAbort(tx uint64) {
	po := m.pending[tx]
	if po == nil {
		return
	}
	delete(m.pending, tx)
	po.timer.Stop()
	m.discarded[tx] = true
	m.emit("abort-rcvd", po.ex.Key.String(), obs.F("tx", txString(tx)))
}

// --- crash / restart ----------------------------------------------------

// Crash models the SP's migration subsystem dying: every connection is
// reset, volatile state (attempts, pending offers) is lost, armed
// timers die. The journal and the done/discarded ledgers survive —
// they model the durable log a real SP keeps precisely so migration is
// crash-safe.
func (m *Manager) Crash() {
	if m.down {
		return
	}
	m.down = true
	m.gen++
	cs := m.conns
	m.conns = nil // detach first: Abort fires OnClose, which edits conns
	for _, c := range cs {
		c.Abort()
	}
	m.attempts = make(map[uint64]*attempt)
	m.pending = make(map[uint64]*pendingOffer)
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
	m.gen++
	m.emit("restart", m.cfg.Name)
	txs := make([]uint64, 0, len(m.journal))
	for tx := range m.journal {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	for _, tx := range txs {
		e := m.journal[tx]
		switch e.phase {
		case phaseOffered:
			m.emit("recover-offered", e.ex.Key.String(), obs.F("tx", txString(tx)))
			m.resumeSource(tx, "restart with uncommitted journal entry")
		case phaseCommitted:
			m.emit("recover-committed", e.ex.Key.String(), obs.F("tx", txString(tx)))
			at := &attempt{retries: commitRetries}
			m.attempts[tx] = at
			c, err := m.cfg.Stack.Connect(e.peer, Port)
			if err != nil {
				m.emit("stuck", e.ex.Key.String(), obs.F("tx", txString(tx)))
				continue
			}
			at.conn = c
			m.track(c)
			m.wireSourceConn(c)
			m.sendCommit(tx)
			m.armRetry(tx)
		}
	}
}

// --- framing ------------------------------------------------------------

type frameBuf struct{ b []byte }

func encodeFrame(typ byte, tx uint64, payload []byte) []byte {
	b := make([]byte, 0, frameHeader+len(payload))
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, tx)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// onData reassembles frames from the TCP byte stream and dispatches
// complete ones. A frame claiming more than the snapshot bound aborts
// the connection before anything is buffered for it.
func (m *Manager) onData(c *tcp.Conn, fb *frameBuf, data []byte,
	handler func(c *tcp.Conn, typ byte, tx uint64, payload []byte)) {
	fb.b = append(fb.b, data...)
	for {
		if len(fb.b) < frameHeader {
			return
		}
		typ := fb.b[0]
		tx := binary.BigEndian.Uint64(fb.b[1:9])
		n := int(binary.BigEndian.Uint32(fb.b[9:frameHeader]))
		if n > MaxSnapshotSize+256 {
			m.cfg.Log("migrate: %s: oversized frame (%d bytes), resetting peer", m.cfg.Name, n)
			c.Abort()
			return
		}
		if len(fb.b) < frameHeader+n {
			return
		}
		payload := append([]byte(nil), fb.b[frameHeader:frameHeader+n]...)
		fb.b = fb.b[frameHeader+n:]
		handler(c, typ, tx, payload)
	}
}

func (m *Manager) track(c *tcp.Conn) {
	m.conns = append(m.conns, c)
	c.OnClose = func(error) {
		for i, cc := range m.conns {
			if cc == c {
				m.conns = append(m.conns[:i], m.conns[i+1:]...)
				break
			}
		}
	}
}

func (m *Manager) emit(kind, key string, fields ...obs.Field) {
	if m.cfg.Bus == nil {
		return
	}
	fields = append([]obs.Field{obs.F("mgr", m.cfg.Name)}, fields...)
	m.cfg.Bus.Emit("migrate", kind, key, fields...)
}
