package proxy

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/flowlog"
)

// hookPassPackets is how many packets FuzzHookPass drives through its
// queue: enough for a hook to take QuarantineStrikes strikes and for
// the quarantine to be seen afterwards.
const hookPassPackets = 5

// hookSpec is one attachment of a FuzzHookPass queue, four input bytes:
//
//	b0  bits 0-1: hooks (1 In, 2 Out, 0 or 3 both); bits 2-3: priority
//	    (Low, Normal, High; 3 is Low)
//	b1  packets (bit j: packet j) on which the In hook panics
//	b2  packets on which the Out hook panics
//	b3  bits 0-2: 1+packet on which the attachment detaches itself
//	    (0, 6, 7: never); bit 3: from its Out hook (else its In hook);
//	    bits 4-6: 1+packet its Out hook drops
type hookSpec [4]byte

func (s hookSpec) in() bool  { return s[0]&3 != 2 }
func (s hookSpec) out() bool { return s[0]&3 != 1 }
func (s hookSpec) priority() filter.Priority {
	return [4]filter.Priority{filter.Low, filter.Normal, filter.High, filter.Low}[s[0]>>2&3]
}
func (s hookSpec) panics(out bool, pkt int) bool {
	m := s[1]
	if out {
		m = s[2]
	}
	return m>>pkt&1 != 0
}
func (s hookSpec) detaches(out bool, pkt int) bool {
	return int(s[3]&7) == pkt+1 && (s[3]&8 != 0) == out
}
func (s hookSpec) drops(pkt int) bool { return int(s[3]>>4&7) == pkt+1 }

// decodeHookSpecs reads 1–8 attachments from data: a count byte, then
// four bytes each (missing bytes read as 0).
func decodeHookSpecs(data []byte) []hookSpec {
	if len(data) == 0 {
		return nil
	}
	specs := make([]hookSpec, 1+int(data[0])%8)
	data = data[1:]
	for i := range specs {
		n := copy(specs[i][:], data)
		data = data[n:]
	}
	return specs
}

// hookCall is one hook run, as FuzzHookPass traces it.
type hookCall struct {
	pkt, att int
	out      bool
}

// hookPassRun is what one proxy made of a FuzzHookPass input.
type hookPassRun struct {
	trace   []hookCall
	outputs [][]byte
	stats   Stats
	streams string
}

// runHookPass attaches specs to one key of a fresh proxy and feeds it
// hookPassPackets packets through intercept.
func runHookPass(t *testing.T, specs []hookSpec, intercept func(p *Proxy, raw []byte) [][]byte) hookPassRun {
	p, _, _ := lifecycleProxy(t)
	var r hookPassRun
	cur := 0 // the packet in flight
	for i, s := range specs {
		var detach func()
		hook := func(out bool) func(*filter.Packet) {
			return func(pkt *filter.Packet) {
				r.trace = append(r.trace, hookCall{cur, i, out})
				if s.detaches(out, cur) {
					detach()
				}
				if out && s.drops(cur) {
					pkt.Drop()
				}
				if s.panics(out, cur) {
					panic(fmt.Sprintf("f%d: rigged", i))
				}
			}
		}
		h := filter.Hooks{Filter: fmt.Sprintf("f%d", i), Priority: s.priority()}
		if s.in() {
			h.In = hook(false)
		}
		if s.out() {
			h.Out = hook(true)
		}
		var err error
		if detach, err = p.Attach(lifecycleKey, h); err != nil {
			t.Fatal(err)
		}
	}
	for cur = 0; cur < hookPassPackets; cur++ {
		for _, d := range intercept(p, lifecyclePacket(t, lifecycleKey, byte(cur))) {
			r.outputs = append(r.outputs, slices.Clone(d))
		}
	}
	r.stats = p.Stats
	r.streams = fmt.Sprint(p.Streams())
	return r
}

// refIntercept is the interception path as it ran each hook under a
// recover of its own (runHookRef): the model FuzzHookPass holds
// runHooks, one recover for both passes, to. The fuzzed hooks neither edit nor inject, so
// it leaves out what only those reach. Its out pass re-reads the queue
// at every step where the new one walks the queue as the pass found
// it; the two agree as long as a hook detaches only itself, which is
// all a fuzzed hook does.
func refIntercept(p *Proxy, raw []byte) [][]byte {
	p.Stats.Intercepted++
	pkt := &p.pkt
	if err := pkt.Decode(raw); err != nil {
		return [][]byte{raw}
	}
	var tag *flowlog.Tag
	if pkt.TCP != nil {
		tag = p.flows.Record(pkt.Key, pkt.TCP, len(raw))
	}
	q := p.lookup(pkt.Key, tag)
	if q == nil || len(q.attached) == 0 {
		return [][]byte{raw}
	}
	p.Stats.Filtered++
	q.pkts++
	q.bytes += int64(len(raw))
	p.running = q
	for _, a := range q.attached {
		if a.hooks.In != nil && !a.quarantined {
			runHookRef(p, q, a, a.hooks.In, pkt)
		}
	}
	for i := len(q.attached) - 1; i >= 0; i-- {
		if a := q.attached[i]; a.hooks.Out != nil && !a.quarantined {
			runHookRef(p, q, a, a.hooks.Out, pkt)
		}
	}
	p.running = nil
	if q.pendingQuarantine {
		p.sweepQuarantined(q)
	}
	if pkt.Dropped() {
		p.Stats.DroppedByFilter++
		return nil
	}
	p.Stats.Reinjected++
	return [][]byte{pkt.Raw}
}

func runHookRef(p *Proxy, q *queue, a *attachment, hook func(*filter.Packet), pkt *filter.Packet) {
	defer func() {
		if r := recover(); r != nil {
			p.noteHookPanic(q, a, r)
		}
	}()
	hook(pkt)
}

// encodeHookSpecs is decodeHookSpecs' inverse, for the seeds.
func encodeHookSpecs(specs ...hookSpec) []byte {
	b := []byte{byte(len(specs) - 1)}
	for _, s := range specs {
		b = append(b, s[:]...)
	}
	return b
}

// FuzzHookPass checks the in and out passes under one recover
// (runHooks) against the per-hook-recover model: the same hooks run in the same order, with
// the same strikes, quarantines and surviving packets.
func FuzzHookPass(f *testing.F) {
	const (
		both   = 0
		high   = 2 << 2
		normal = 1 << 2
		low    = 0
		every  = 1<<hookPassPackets - 1
	)
	three := [3]hookSpec{{high | both}, {normal | both}, {low | both}}
	// A hook that panics on every packet, at each position of each
	// pass: the in pass runs high → low, the out pass low → high.
	for pos := range three {
		for _, out := range []bool{false, true} {
			specs := three
			if out {
				specs[pos][2] = every
			} else {
				specs[pos][1] = every
			}
			f.Add(encodeHookSpecs(specs[:]...))
		}
	}
	// A hook that detaches itself mid-pass, from either pass, and one
	// that detaches itself on the packet that quarantines it.
	f.Add(encodeHookSpecs(three[0], hookSpec{normal | both, 0, 0, 2}, three[2]))
	f.Add(encodeHookSpecs(three[0], hookSpec{normal | both, 0, 0, 2 | 8}, three[2]))
	f.Add(encodeHookSpecs(three[0], hookSpec{normal | both, every, 0, 3}, three[2]))
	// An In-only hook quarantined before an Out-only one, a drop, and
	// priority ties.
	f.Add(encodeHookSpecs(hookSpec{high | 1, every, 0, 0}, hookSpec{low | 2, 0, 0b10101, 4 << 4}))
	f.Add(encodeHookSpecs(hookSpec{normal, 1, 2, 0}, hookSpec{normal, 2, 4, 8 | 5}, hookSpec{normal, 4, 1, 1 << 4}))
	f.Add([]byte{7})

	f.Fuzz(func(t *testing.T, data []byte) {
		specs := decodeHookSpecs(data)
		if specs == nil {
			return
		}
		got := runHookPass(t, specs, func(p *Proxy, raw []byte) [][]byte {
			return p.InterceptAppend(raw, nil, nil)
		})
		want := runHookPass(t, specs, refIntercept)
		if !slices.Equal(got.trace, want.trace) {
			t.Fatalf("hook calls differ:\n got %v\nwant %v", got.trace, want.trace)
		}
		if got.stats != want.stats {
			t.Fatalf("stats differ:\n got %+v\nwant %+v", got.stats, want.stats)
		}
		if !slices.EqualFunc(got.outputs, want.outputs, bytes.Equal) {
			t.Fatalf("%d datagrams out, want %d (or their bytes differ)", len(got.outputs), len(want.outputs))
		}
		if got.streams != want.streams {
			t.Fatalf("queues differ:\n got %s\nwant %s", got.streams, want.streams)
		}
	})
}
