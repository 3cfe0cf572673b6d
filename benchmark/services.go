package main

import (
	"strings"

	"repro/internal/filter"
)

// shrinkFactory is the benchmark's deterministic payload-editing
// service: it halves the payload of every data segment for which
// shrunk() holds. It runs below the TTSF on the out queue, like rdrop
// or comp, so the TTSF records one edit per shrunk segment and the tcp
// filter re-marshals it.
type shrinkFactory struct{}

func (shrinkFactory) Name() string              { return "shrink" }
func (shrinkFactory) Priority() filter.Priority { return filter.Low }
func (shrinkFactory) Description() string       { return "halves every other data segment (benchmark)" }
func (shrinkFactory) New(env filter.Env, k filter.Key, _ []string) error {
	_, err := env.Attach(k, filter.Hooks{
		Filter: "shrink", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.TCP == nil || len(p.TCP.Payload) < 2 || !shrunk(p.TCP.Seq, len(p.TCP.Payload)) {
				return
			}
			p.TCP.Payload = p.TCP.Payload[:len(p.TCP.Payload)/2]
			p.MarkDirty()
		},
	})
	return err
}

// nopFactory attaches hooks that do nothing, in the shape its argument
// names: "i"/"o" for an in/out hook on the key, "r" for an out hook on
// the reverse key as well, and a priority digit 0-9 (x10). The
// per-layer replay swaps every real filter for a nop of the same shape,
// so the difference to the real chain is the filters' own work and
// what remains is the proxy's queue lookup and hook dispatch.
type nopFactory struct{}

func (nopFactory) Name() string              { return "nop" }
func (nopFactory) Priority() filter.Priority { return filter.Normal }
func (nopFactory) Description() string       { return "empty hooks of a given shape (benchmark)" }
func (nopFactory) New(env filter.Env, k filter.Key, args []string) error {
	shape := strings.Join(args, "")
	prio := filter.Normal
	for _, c := range shape {
		if c >= '0' && c <= '9' {
			prio = filter.Priority(c-'0') * 10
		}
	}
	h := filter.Hooks{Filter: "nop", Priority: prio}
	if strings.Contains(shape, "i") {
		h.In = func(*filter.Packet) {}
	}
	if strings.Contains(shape, "o") {
		h.Out = func(*filter.Packet) {}
	}
	if _, err := env.Attach(k, h); err != nil {
		return err
	}
	if strings.Contains(shape, "r") {
		_, err := env.Attach(k.Reverse(), h)
		return err
	}
	return nil
}

func registerServices(c *filter.Catalog) {
	c.Register("shrink", func() filter.Factory { return shrinkFactory{} })
	c.Register("nop", func() filter.Factory { return nopFactory{} })
}
