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

func (*discard) Name() string { return "discard" }
func (*discard) Description() string {
	return "hierarchical discard of layered media above a layer threshold"
}

func (f *discard) New(env filter.Env, k filter.Key, args []string) error {
	maxLayer := uint8(0)
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 || v > 255 {
			return fmt.Errorf("discard: bad layer threshold %q", args[0])
		}
		maxLayer = uint8(v)
	}
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
			if frame.Layer > maxLayer {
				p.Drop()
			}
		},
	})
	return err
}
