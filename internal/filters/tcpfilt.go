package filters

import (
	"time"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// tcpFilt is the thesis's "tcp" bookkeeping filter: it "watches TCP
// streams, recalculating IP checksums as necessary and deleting all
// filters associated with TCP streams when the stream closes"
// (§5.3.2). It runs at HIGH priority so its out method executes last,
// after every other filter's modifications.
type tcpFilt struct {
	// free holds instances whose streams have closed. A factory is
	// loaded per proxy and runs on that proxy's goroutine, like the
	// instances themselves, so the list needs no lock.
	free filter.FreeList[tcpFiltInst]
}

// NewTCPFilt returns the tcp bookkeeping filter factory.
func NewTCPFilt() filter.Factory { return &tcpFilt{} }

func (*tcpFilt) Name() string              { return "tcp" }
func (*tcpFilt) Priority() filter.Priority { return filter.High }
func (*tcpFilt) Description() string {
	return "TCP bookkeeping: checksum repair and stream teardown"
}

// closeGrace is how long after observing the stream close the filter
// waits before tearing down the queues, letting retransmitted FINs and
// final ACKs pass through filtered.
const closeGrace = 5 * time.Second

func (f *tcpFilt) New(env filter.Env, k filter.Key, args []string) error {
	inst := f.instance()
	inst.env, inst.fwd, inst.rev = env, k, k.Reverse()
	detachFwd, err := env.Attach(k, filter.Hooks{
		Filter: "tcp", Priority: filter.High,
		In: inst.inFwd, Out: inst.out, OnClose: inst.onClose,
	})
	if err != nil {
		f.free.Put(inst)
		return err
	}
	inst.refs = 1
	if _, err = env.Attach(inst.rev, filter.Hooks{
		Filter: "tcp", Priority: filter.High,
		In: inst.inRev, Out: inst.out, OnClose: inst.onClose,
	}); err != nil {
		detachFwd()
		return err
	}
	inst.refs = 2
	return nil
}

// instance returns a reset instance: a recycled one, or a new one with
// its hook and timer funcs bound — once, for every stream it will serve.
func (f *tcpFilt) instance() *tcpFiltInst {
	inst := f.free.Get()
	if inst != nil {
		return inst
	}
	inst = &tcpFiltInst{f: f}
	inst.inFwd = func(p *filter.Packet) { inst.observe(p, true) }
	inst.inRev = func(p *filter.Packet) { inst.observe(p, false) }
	inst.out = inst.repair
	inst.onClose = inst.unref
	inst.teardown = func() {
		inst.env.RemoveStream(inst.fwd)
		inst.env.RemoveStream(inst.rev)
		inst.unref()
	}
	return inst
}

type tcpFiltInst struct {
	f              *tcpFilt
	env            filter.Env
	fwd, rev       filter.Key
	finFwd, finRev bool
	closing        bool

	// refs counts what can still call into the instance: its two
	// attachments and a scheduled teardown. At zero it is recycled.
	refs int

	inFwd, inRev, out func(*filter.Packet)
	onClose, teardown func()
}

// unref drops one reference; the last one resets the instance and
// returns it to the factory.
func (inst *tcpFiltInst) unref() {
	if inst.refs--; inst.refs > 0 {
		return
	}
	inst.env, inst.finFwd, inst.finRev, inst.closing = nil, false, false, false
	inst.f.free.Put(inst)
}

// repair re-marshals packets some lower-priority filter modified,
// recomputing IP and TCP checksums.
func (inst *tcpFiltInst) repair(p *filter.Packet) {
	if p.Dirty() && !p.Dropped() {
		if err := p.Remarshal(); err != nil {
			inst.env.Emit("tcp", "remarshal-failed", p.Key, obs.F("err", err.Error()))
			p.Drop()
		}
	}
}

// observe tracks connection teardown: once FINs have been seen in both
// directions, or a RST in either, the stream's filter queues are
// removed after a grace period.
func (inst *tcpFiltInst) observe(p *filter.Packet, forward bool) {
	if p.TCP == nil || inst.closing {
		return
	}
	if p.TCP.Flags&tcp.FlagRST != 0 {
		inst.scheduleTeardown()
		return
	}
	if p.TCP.Flags&tcp.FlagFIN != 0 {
		if forward {
			inst.finFwd = true
		} else {
			inst.finRev = true
		}
		if inst.finFwd && inst.finRev {
			inst.scheduleTeardown()
		}
	}
}

func (inst *tcpFiltInst) scheduleTeardown() {
	inst.closing = true
	inst.refs++
	inst.env.Clock().After(closeGrace, inst.teardown)
}
