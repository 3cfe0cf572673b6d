package filters

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/sim"
)

// adiscard is the adaptive version of hierarchical discard — the
// filter the thesis's EEM chapter exists to enable (§6: "if
// communication streams could be shaped to the available QoS... in
// times of low QoS, minimal operation can continue and regular
// operation resume in periods of high QoS").
//
// It periodically samples the wireless interface's utilization through
// the proxy's execution-environment metrics (ifOutOctets rate against
// ifSpeed) and moves the layer threshold down when the link saturates
// and back up when headroom returns.
//
// Arguments: <ifIndex> [maxLayer] — the egress interface to watch and
// the highest layer ever passed (default 7).
type adiscard struct{}

// NewADiscard returns the adaptive-discard filter factory.
func NewADiscard() filter.Factory { return &adiscard{} }

func (*adiscard) Name() string { return "adiscard" }
func (*adiscard) Description() string {
	return "EEM-driven hierarchical discard: layer threshold follows link utilization"
}

// Utilization thresholds for moving the layer threshold.
const (
	adiscardHigh = 0.90 // above this, shed a layer
	adiscardLow  = 0.50 // below this, restore a layer
)

type adiscardInst struct {
	env      filter.Env
	key      filter.Key
	ifIndex  int
	ceil     int // highest layer ever allowed
	maxLayer int

	lastOctets float64
	lastSample sim.Time
	haveSample bool
	timer      sim.Timer
	closed     bool
}

func (f *adiscard) New(env filter.Env, k filter.Key, args []string) error {
	inst := &adiscardInst{env: env, key: k, ceil: 7}
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 {
			return fmt.Errorf("adiscard: bad interface index %q", args[0])
		}
		inst.ifIndex = v
	}
	if len(args) > 1 {
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 0 || v > 255 {
			return fmt.Errorf("adiscard: bad max layer %q", args[1])
		}
		inst.ceil = v
	}
	inst.maxLayer = inst.ceil
	_, err := env.Attach(k, filter.Hooks{
		Filter: "adiscard", Priority: filter.Low,
		Out: inst.filterFrame,
		OnClose: func() {
			inst.closed = true
			inst.timer.Stop()
		},
	})
	if err != nil {
		return err
	}
	inst.arm()
	return nil
}

func (inst *adiscardInst) arm() {
	if inst.closed {
		return
	}
	inst.timer = inst.env.Clock().After(500*time.Millisecond, inst.sample)
}

// sample measures link utilization from the metric source and adapts
// the layer threshold (one step per sample, as adaptive codecs do).
func (inst *adiscardInst) sample() {
	defer inst.arm()
	speed, ok1 := inst.env.Metric("ifSpeed", inst.ifIndex)
	octets, ok2 := inst.env.Metric("ifOutOctets", inst.ifIndex)
	if !ok1 || !ok2 || speed <= 0 {
		return
	}
	now := inst.env.Clock().Now()
	if !inst.haveSample {
		inst.lastOctets, inst.lastSample, inst.haveSample = octets, now, true
		return
	}
	dt := now.Sub(inst.lastSample).Seconds()
	if dt <= 0 {
		return
	}
	util := (octets - inst.lastOctets) * 8 / dt / speed
	inst.lastOctets, inst.lastSample = octets, now
	switch {
	case util > adiscardHigh && inst.maxLayer > 0:
		inst.maxLayer--
		inst.env.Emit("adiscard", "shed", inst.key, obs.F("util", util), obs.F("max-layer", inst.maxLayer))
	case util < adiscardLow && inst.maxLayer < inst.ceil:
		inst.maxLayer++
		inst.env.Emit("adiscard", "restore", inst.key, obs.F("util", util), obs.F("max-layer", inst.maxLayer))
	}
}

// filterFrame applies the current threshold to media frames.
func (inst *adiscardInst) filterFrame(p *filter.Packet) {
	if p.Dropped() || p.UDP == nil {
		return
	}
	frame, err := media.UnmarshalFrame(p.UDP.Payload)
	if err != nil {
		return
	}
	if int(frame.Layer) > inst.maxLayer {
		p.Drop()
	}
}
