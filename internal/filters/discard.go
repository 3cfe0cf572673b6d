package filters

import (
	"fmt"
	"strconv"

	"repro/internal/filter"
	"repro/internal/media"
)

// discard implements hierarchical discard (thesis §8.3.2): layered
// real-time media streams carry a base layer plus enhancement layers;
// under low wireless QoS the proxy drops the enhancement layers above
// a threshold so the base layer keeps arriving on time.
//
// It services UDP streams carrying media.Frame payloads.
// Argument: highest layer to keep (default 0 = base layer only).
type discard struct{}

// NewDiscard returns the discard filter factory.
func NewDiscard() filter.Factory { return &discard{} }

func (*discard) Name() string              { return "discard" }
func (*discard) Priority() filter.Priority { return filter.Low }
func (*discard) Description() string {
	return "hierarchical discard of layered media above a layer threshold"
}

// DiscardStats counts the filter's decisions for the harness.
type DiscardStats struct {
	Passed, Discarded           int64
	BytesPassed, BytesDiscarded int64
}

// discardInstances exposes per-stream stats, keyed by forward key.
var discardInstances instanceTable[discardInst]

// DiscardStatsFor returns the stats of the discard instance on k.
func DiscardStatsFor(k filter.Key) (DiscardStats, bool) {
	if inst, ok := discardInstances.get(k); ok {
		return inst.stats, true
	}
	return DiscardStats{}, false
}

type discardInst struct {
	maxLayer uint8
	stats    DiscardStats
}

func (f *discard) New(env filter.Env, k filter.Key, args []string) error {
	maxLayer := 0
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 || v > 255 {
			return fmt.Errorf("discard: bad layer threshold %q", args[0])
		}
		maxLayer = v
	}
	inst := &discardInst{maxLayer: uint8(maxLayer)}
	_, err := env.Attach(k, filter.Hooks{
		Filter: "discard", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.Dropped() || p.UDP == nil {
				return
			}
			frame, err := media.UnmarshalFrame(p.UDP.Payload)
			if err != nil {
				return // not a media frame; leave it alone
			}
			if frame.Layer > inst.maxLayer {
				inst.stats.Discarded++
				inst.stats.BytesDiscarded += int64(len(p.Raw))
				p.Drop()
				return
			}
			inst.stats.Passed++
			inst.stats.BytesPassed += int64(len(p.Raw))
		},
		OnClose: func() { discardInstances.del(k) },
	})
	if err != nil {
		return err
	}
	discardInstances.put(k, inst)
	return nil
}
