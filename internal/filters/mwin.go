package filters

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// mwin is the milliProxy-style delay-aware window filter (PAPERS.md):
// it decouples wired-side from wireless-side flow control by rewriting
// the receive window the mobile advertises to the wired sender, sized
// to the *measured* wireless-side bandwidth-delay product instead of
// whatever the mobile's socket buffer happens to be.
//
// Where wsize's cap mode is a static clamp ("never let this stream
// have more than N bytes in flight"), mwin resizes continuously:
//
//	window = gain × delivery_rate × srtt
//
// with delivery_rate measured from the mobile's cumulative-ACK advance
// over a roll interval and the RTT read from the proxy flow log
// through filter.Env.FlowSRTT. The flow log's srtt is taken at the
// proxy, so it measures the *wireless-side* round trip — but it also
// inflates with the queueing delay the stream itself causes, and
// sizing a window from an inflated RTT ratchets the window (and the
// queue) open. mwin therefore sizes against the minimum srtt observed
// over a sliding window of recent rolls — BBR's RTprop idea — which
// resists the self-inflation feedback while still adapting when a
// trace segment genuinely changes the propagation delay.
//
// The min-filter has one failure mode: after an outage the stream may
// resume on a different leg with a much longer RTT (the 5G pack's
// mmWave→LTE shed), and the ring's stale short-RTT samples would then
// strangle the window far below the new leg's BDP. So when delivery
// resumes after zero-delivery rolls, mwin discards the ring and sizes
// from the live srtt for a few relearn rolls before rebuilding the
// min — BBR's PROBE_RTT restart in miniature, triggered by the outage
// itself instead of a timer.
//
// On an mmWave link this tracks capacity swings on
// blockage timescales — LoS multi-Mb/s rates open the window, an NLoS
// collapse shrinks it within a roll or two, so the wired sender stops
// stuffing the proxy's queue with packets the wireless leg cannot
// drain (lower proxy buffer occupancy), and after the blockage clears
// the gain factor ramps the window back up exponentially (measured
// rate is bounded by window/rtt, so each roll multiplies the window by
// at most the gain — self-limiting at the true BDP).
//
// The key identifies the data direction (wired sender → mobile); the
// filter rewrites the reverse-direction ACKs, like wsize. It only ever
// *lowers* the advertised window, never raises it, and never touches
// sequence or ack numbers — end-to-end semantics are preserved
// (thesis §8.2.3). Before the first RTT sample (or with no flow log
// behind the Env) it stays passive (fail open).
type mwin struct{}

// NewMWin returns the mwin filter factory.
func NewMWin() filter.Factory { return &mwin{} }

func (*mwin) Name() string { return "mwin" }
func (*mwin) Description() string {
	return "delay-aware receive-window sizing from measured wireless BDP: 'mwin [gain] [interval-ms]'"
}

// mwinFloor is the lowest window the controller ever sets: four
// segments, not one. A single-MSS window degenerates into one segment
// per round trip with the receiver's delayed-ACK penalty on every
// round — recovery from an outage would crawl for seconds. Four
// segments keep the ACK clock dense enough to re-measure a delivery
// rate within a roll or two while still draining a blocked queue.
const mwinFloor = 4 * tcp.MSS

// mwinMaxWindow is the largest expressible unscaled TCP window.
const mwinMaxWindow = 65535

// mwinRTTRing is how many roll-interval srtt samples the RTT-floor
// window spans: 64 rolls at the default 50ms interval ≈ 3.2s, long
// enough to remember the uninflated RTT across a queue-building burst,
// short enough to adopt a genuinely changed propagation delay within a
// few seconds.
const mwinRTTRing = 64

// mwinRelearnRolls is how many rolls after an outage mwin sizes from
// the live srtt instead of the ring minimum, giving the flow log's
// estimator time to converge on the (possibly new) path before the
// min-filter re-engages.
const mwinRelearnRolls = 8

func (f *mwin) New(env filter.Env, k filter.Key, args []string) error {
	gain := 2.0
	interval := 50 * time.Millisecond
	if len(args) > 0 {
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(v >= 1 && v <= 16) { // NaN fails every comparison
			return fmt.Errorf("mwin: bad gain %q (want 1..16)", args[0])
		}
		gain = v
	}
	if len(args) > 1 {
		ms, err := strconv.Atoi(args[1])
		if err != nil || ms <= 0 {
			return fmt.Errorf("mwin: bad roll interval %q", args[1])
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	inst := &mwinInst{
		env: env, fwd: k, gain: gain, interval: interval,
		window: mwinMaxWindow,
	}
	_, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "mwin", Priority: filter.Lowest,
		Out:     inst.out,
		OnClose: func() { inst.closed = true; inst.timer.Stop() },
		State:   inst,
	})
	if err != nil {
		return err
	}
	inst.armTimer()
	return nil
}

// mwinInst is one stream's window controller.
type mwinInst struct {
	env      filter.Env
	fwd      filter.Key // wired sender → mobile (the data direction)
	gain     float64
	interval time.Duration

	// Delivery-rate measurement: cumulative-ACK frontier of the
	// mobile's ACK stream and the bytes it advanced this interval.
	lastAck    uint32
	haveAck    bool
	ackedBytes int64

	// Sliding-minimum RTT: the last mwinRTTRing srtt readings, one per
	// roll. rttN counts valid entries (< mwinRTTRing until warm).
	rttRing [mwinRTTRing]time.Duration
	rttNext int
	rttN    int

	// Outage/path-change tracking: hadOutage marks a zero-delivery roll;
	// the first delivering roll after one clears the ring and starts a
	// relearn countdown during which the live srtt sizes the window.
	hadOutage bool
	relearn   int

	// The current clamp. active gates rewriting: false until the first
	// roll with both a rate and an srtt sample.
	window uint16
	active bool

	timer  sim.Timer
	closed bool

	// Counters for reports and experiments.
	Rolls   int64
	Clamped int64
}

// out runs on every packet the mobile sends toward the wired sender:
// advance the delivery frontier, then clamp the advertised window.
func (m *mwinInst) out(p *filter.Packet) {
	if p.TCP == nil || p.TCP.Flags&tcp.FlagACK == 0 {
		return
	}
	ack := p.TCP.Ack
	if !m.haveAck {
		m.haveAck, m.lastAck = true, ack
	} else if adv := int32(ack - m.lastAck); adv > 0 {
		m.ackedBytes += int64(adv)
		m.lastAck = ack
	}
	if m.active && p.TCP.Window > m.window {
		p.TCP.Window = m.window
		m.Clamped++
		p.MarkDirty()
	}
}

func (m *mwinInst) armTimer() {
	if m.closed {
		return
	}
	m.timer = m.env.Clock().After(m.interval, m.roll)
}

// roll closes one measurement interval: delivery rate from the ACK
// advance, BDP against the flow log's srtt, new window.
func (m *mwinInst) roll() {
	if m.closed {
		return
	}
	defer m.armTimer()
	m.Rolls++
	acked := m.ackedBytes
	m.ackedBytes = 0
	if acked == 0 {
		// Nothing delivered this interval — blockage or idle. Halve
		// toward the floor so a dead wireless leg stops admitting
		// wired-side data within a few rolls, while a mere idle tick
		// costs at most one gain-doubling to recover. (Needs no RTT
		// sample, so it works even after the flow log evicted the flow
		// during the outage.)
		if m.active {
			m.hadOutage = true
			m.setWindow(int64(m.window) / 2)
		}
		return
	}
	srtt, ok := m.env.FlowSRTT(m.fwd)
	if !ok {
		// No RTT estimate: before the first sample, stay passive (fail
		// open). Once active, keep the current clamp — the flow log may
		// have evicted the flow across an idle outage, and snapping the
		// window open on a recovering link would dump a full
		// advertisement into a queue we just spent rolls draining.
		return
	}
	var target int64
	switch {
	case m.hadOutage || m.relearn > 0:
		// First delivery after an outage, or still relearning: the path
		// may have changed under us (leg shed), so the ring's old minima
		// are suspect. Size from the live srtt — inflated at worst, never
		// stale — and rebuild the min from scratch afterwards. Never
		// shrink while relearning: the outage halvings already pulled the
		// window low, and the srtt estimator converges on the new path
		// over these same rolls; the re-armed min-filter takes over
		// clamping when the relearn window ends.
		if m.hadOutage {
			m.hadOutage, m.relearn = false, mwinRelearnRolls
		}
		m.relearn--
		m.rttNext, m.rttN = 0, 0
		target = int64(m.gain * float64(acked) * float64(srtt) / float64(m.interval))
		if cur := int64(m.window); m.active && target < cur {
			target = cur
		}
	default:
		m.rttRing[m.rttNext] = srtt
		m.rttNext = (m.rttNext + 1) % mwinRTTRing
		if m.rttN < mwinRTTRing {
			m.rttN++
		}
		minRTT := m.rttRing[0]
		for _, v := range m.rttRing[1:m.rttN] {
			if v < minRTT {
				minRTT = v
			}
		}
		// bdp = rate × rtt-floor = acked/interval × minRTT.
		target = int64(m.gain * float64(acked) * float64(minRTT) / float64(m.interval))
	}
	if !m.active {
		m.env.Emit("mwin", "active", m.fwd, obs.F("window", target), obs.F("srtt", srtt))
		m.active = true
	}
	m.setWindow(target)
}

// setWindow clamps target into [mwinFloor, mwinMaxWindow] and makes it
// the current advertisement.
func (m *mwinInst) setWindow(target int64) {
	if target < mwinFloor {
		target = mwinFloor
	}
	if target > mwinMaxWindow {
		target = mwinMaxWindow
	}
	m.window = uint16(target)
}

// Window reports the current clamp (65535 while passive).
func (m *mwinInst) Window() uint16 { return m.window }

// --- migration state ---------------------------------------------------------

const (
	mwinFlagHaveAck = 1 << iota
	mwinFlagActive
)

// SnapshotState implements filter.StateSnapshotter: flags, the current
// window, and the ACK frontier (7 bytes). The partial interval's
// ackedBytes is deliberately dropped — the first roll on the
// destination re-measures; the clamp itself carries over so the wired
// sender never sees the window snap open across a migration.
func (m *mwinInst) SnapshotState() ([]byte, error) {
	var flags byte
	if m.haveAck {
		flags |= mwinFlagHaveAck
	}
	if m.active {
		flags |= mwinFlagActive
	}
	var w filter.StateWriter
	w.U8(flags)
	w.U16(m.window)
	w.U32(m.lastAck)
	return w.B, nil
}

// RestoreState implements filter.StateSnapshotter.
func (m *mwinInst) RestoreState(b []byte) error {
	r := filter.StateReader{B: b}
	flags, window, lastAck := r.U8(), r.U16(), r.U32()
	if err := r.Done(); err != nil {
		return fmt.Errorf("mwin: restore: %w", err)
	}
	m.haveAck = flags&mwinFlagHaveAck != 0
	m.active = flags&mwinFlagActive != 0
	m.window = window
	m.lastAck = lastAck
	m.ackedBytes = 0
	return nil
}

var _ filter.StateSnapshotter = (*mwinInst)(nil)
