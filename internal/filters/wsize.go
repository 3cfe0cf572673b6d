package filters

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// wsize implements the BSSP-style services of thesis §8.2.2 by
// rewriting the TCP receive-window field of packets intercepted at the
// base station:
//
//   - prioritization — "wsize <key> cap <bytes>": clamps the window
//     advertised to the sender of the keyed stream, slowing
//     low-priority streams so priority streams get more bandwidth and
//     smaller delay;
//   - disconnection management — "wsize <key> zwsm [timeout-ms]":
//     when the mobile falls silent, sends zero-window-size messages
//     (ZWSMs) to the wired sender so the connection stalls in persist
//     mode instead of backing off exponentially, and lets the window
//     reopen when the mobile returns.
//
// The key identifies the *data* direction (wired sender → mobile); the
// filter rewrites the reverse-direction ACKs, which is where the
// sender reads its peer's window.
//
// ZWSM ACKs never acknowledge data the mobile has not acknowledged
// itself, preserving end-to-end semantics (§8.2.3).
type wsize struct{}

// NewWSize returns the wsize filter factory.
func NewWSize() filter.Factory { return &wsize{} }

func (*wsize) Name() string              { return "wsize" }
func (*wsize) Priority() filter.Priority { return filter.Lowest }
func (*wsize) Description() string {
	return "TCP window rewriting: 'cap <bytes>' prioritization or 'zwsm [ms]' disconnection management"
}

func (f *wsize) New(env filter.Env, k filter.Key, args []string) error {
	mode := "cap"
	if len(args) > 0 {
		mode = args[0]
	}
	switch mode {
	case "cap":
		capBytes := 4096
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 || v > 65535 {
				return fmt.Errorf("wsize: bad window cap %q", args[1])
			}
			capBytes = v
		}
		return f.newCap(env, k, uint16(capBytes))
	case "zwsm":
		timeout := 300 * time.Millisecond
		if len(args) > 1 {
			ms, err := strconv.Atoi(args[1])
			if err != nil || ms <= 0 {
				return fmt.Errorf("wsize: bad zwsm timeout %q", args[1])
			}
			timeout = time.Duration(ms) * time.Millisecond
		}
		return f.newZWSM(env, k, timeout)
	default:
		return fmt.Errorf("wsize: unknown mode %q (want cap or zwsm)", mode)
	}
}

// wsizeCapInst is one prioritization instance: the configured clamp is
// its whole per-stream state, snapshottable for live migration.
type wsizeCapInst struct {
	capBytes uint16
}

func (w *wsizeCapInst) out(p *filter.Packet) {
	if p.TCP == nil || p.TCP.Flags&tcp.FlagACK == 0 {
		return
	}
	if p.TCP.Window > w.capBytes {
		p.TCP.Window = w.capBytes
		p.MarkDirty()
	}
}

// SnapshotState implements filter.StateSnapshotter: the clamp as two
// big-endian bytes.
func (w *wsizeCapInst) SnapshotState() ([]byte, error) {
	var sw filter.StateWriter
	sw.U16(w.capBytes)
	return sw.B, nil
}

// RestoreState implements filter.StateSnapshotter.
func (w *wsizeCapInst) RestoreState(b []byte) error {
	r := filter.StateReader{B: b}
	capBytes := r.U16()
	if err := r.Done(); err != nil {
		return fmt.Errorf("wsize: restore: %w", err)
	}
	w.capBytes = capBytes
	return nil
}

var _ filter.StateSnapshotter = (*wsizeCapInst)(nil)

// newCap attaches the prioritization service: clamp the window in
// ACKs flowing back to the keyed stream's sender.
func (f *wsize) newCap(env filter.Env, k filter.Key, capBytes uint16) error {
	inst := &wsizeCapInst{capBytes: capBytes}
	_, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "wsize", Priority: filter.Lowest,
		Out:   inst.out,
		State: inst,
	})
	return err
}

// zwsmInst is one disconnection-management instance.
type zwsmInst struct {
	env     filter.Env
	fwd     filter.Key // wired sender → mobile
	timeout time.Duration

	lastFromMobile sim.Time
	stalled        bool
	// Template for crafting ZWSMs: the last ACK seen from the mobile.
	haveTemplate bool
	tmplSeq      uint32 // mobile's snd.nxt
	tmplAck      uint32 // mobile's cumulative ack — never advanced by us
	tmplWindow   uint16
	srcIP, dstIP ip.Addr
	timer        sim.Timer
	closed       bool
}

func (f *wsize) newZWSM(env filter.Env, k filter.Key, timeout time.Duration) error {
	inst := &zwsmInst{env: env, fwd: k, timeout: timeout, lastFromMobile: env.Clock().Now()}
	// The template observer runs as an out method above the TTSF so
	// the captured seq/ack values are in the wired sender's sequence
	// space even when a TTSF is remapping the stream.
	detachRev, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "wsize", Priority: PriorityTTSF + 5,
		Out: inst.fromMobile,
	})
	if err != nil {
		return err
	}
	// The forward attachment has no hooks: it lists wsize on the stream
	// and stops the timer when the stream closes.
	_, err = env.Attach(k, filter.Hooks{
		Filter: "wsize", Priority: filter.Lowest,
		OnClose: func() { inst.closed = true; inst.timer.Stop(); detachRev() },
	})
	if err != nil {
		detachRev()
		return err
	}
	inst.armTimer()
	return nil
}

func (inst *zwsmInst) armTimer() {
	if inst.closed {
		return
	}
	inst.timer = inst.env.Clock().After(inst.timeout/2, inst.check)
}

// fromMobile notes mobile liveness and keeps the ZWSM template fresh.
func (inst *zwsmInst) fromMobile(p *filter.Packet) {
	inst.lastFromMobile = inst.env.Clock().Now()
	if p.TCP != nil && p.TCP.Flags&tcp.FlagACK != 0 {
		inst.haveTemplate = true
		inst.tmplSeq = p.TCP.Seq
		inst.tmplAck = p.TCP.Ack
		inst.tmplWindow = p.TCP.Window
		inst.srcIP = p.IP.Src
		inst.dstIP = p.IP.Dst
	}
	if inst.stalled {
		// The mobile is back; its own ACK (passing through right now)
		// re-opens the window at the sender.
		inst.stalled = false
		inst.env.Emit("wsize", "zwsm-release", inst.fwd)
	}
}

// check fires periodically: if the mobile has been silent past the
// timeout while we hold a template, stall the sender with a ZWSM.
func (inst *zwsmInst) check() {
	if inst.closed {
		return
	}
	defer inst.armTimer()
	silent := inst.env.Clock().Now().Sub(inst.lastFromMobile)
	if silent < inst.timeout || !inst.haveTemplate {
		return
	}
	if !inst.stalled {
		inst.env.Emit("wsize", "zwsm-stall", inst.fwd, obs.F("silent", silent))
	}
	inst.stalled = true
	inst.sendZWSM()
}

// sendZWSM injects a zero-window ACK toward the wired sender, built
// from the mobile's last genuine ACK so no unseen data is
// acknowledged.
func (inst *zwsmInst) sendZWSM() {
	seg := tcp.Segment{
		SrcPort: inst.fwd.DstPort, DstPort: inst.fwd.SrcPort,
		Seq: inst.tmplSeq, Ack: inst.tmplAck,
		Flags: tcp.FlagACK, Window: 0,
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: inst.srcIP, Dst: inst.dstIP}
	raw, err := h.Marshal(seg.Marshal(inst.srcIP, inst.dstIP))
	if err != nil {
		inst.env.Emit("wsize", "zwsm-marshal-failed", inst.fwd, obs.F("err", err.Error()))
		return
	}
	inst.env.Inject(raw)
}
