package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Churn sizing (README, "churn").
const (
	churnPool      = 8192 // pre-built flows; a key returns after 4 clock advances
	churnWidth     = 64   // flows interleaved round-robin
	churnAdvance   = 2048 // flows between clock advances (one segment)
	churnGrace     = 6 * time.Second
	churnWarmFlows = 10_000 / 7 / churnWidth * churnWidth
)

// churnRig is the inline plane of the churn workload: a core.System
// whose proxy host applies `launcher -> tcp` to every new stream.
type churnRig struct {
	sys  *core.System
	hook netsim.Hook
	in   *netsim.Iface
	pool []churnFlow
	next int // next pool flow

	flows, failed int64
	verify        bool
	// segment marks: one per clock advance
	marksT, marksN, marksCal []int64
	lat                      windowMedians // first packet handed in -> last packet out, per round
	advanceNs                []float64     // wall time of each clock advance
	tr                       *tracer
}

// buildChurn is the set-up of the churn workload: system, filter load,
// wild-card launcher, flow pool, and a warm-up of about 10k packets.
func buildChurn(seed int64) *churnRig {
	r := &churnRig{sys: core.NewSystem(core.Config{Seed: seed})}
	r.sys.MustCommand("load tcp")
	r.sys.MustCommand("load launcher")
	r.sys.MustCommand("add launcher 0.0.0.0 0 0.0.0.0 0 tcp")
	r.hook = r.sys.ProxyHost.PacketHook()
	r.in = r.sys.ProxyHost.Ifaces()[0]
	r.pool = buildChurnPool(seed, churnPool)
	r.marksT = make([]int64, 0, 1<<14)
	r.marksN = make([]int64, 0, 1<<14)
	r.marksCal = make([]int64, 0, 1<<14)
	r.rounds(churnWarmFlows / churnWidth)
	r.advance()
	return r
}

// rounds drives n rounds of churnWidth interleaved flows: packet p of
// every flow of the round before packet p+1 of any.
func (r *churnRig) rounds(n int) {
	for ; n > 0; n-- {
		flows := r.pool[r.next : r.next+churnWidth]
		r.next = (r.next + churnWidth) % len(r.pool)
		t0 := nowNs()
		for p := 0; p < len(flows[0]); p++ {
			for f := range flows {
				raw := flows[f][p]
				out := r.hook(raw, r.in)
				if len(out) != 1 {
					r.failed++
				} else if r.verify {
					r.check(raw, out[0])
				}
			}
		}
		t1 := nowNs()
		// Every flow of the round spans the same share of it, first
		// packet in sweep 0 and last in sweep 6, so one clock pair per
		// round times them all.
		r.lat.add((t1 - t0) * int64(len(flows[0])-1) / int64(len(flows[0])))
		if r.tr != nil && r.flows%(8*churnWidth) == 0 {
			r.tr.add("churn.round", 0, r.flows, t0, t1)
		}
		r.flows += churnWidth
	}
}

// check is the verification pass of the inline workload: the tcp filter
// leaves every packet clean, so the proxy must hand back the very
// datagram it was given, with valid checksums.
func (r *churnRig) check(raw, out []byte) {
	h, seg, err := ip.Unmarshal(out)
	if err != nil || !bytes.Equal(raw, out) || !ip.VerifyChecksum(out) || !tcp.VerifyChecksum(h.Src, h.Dst, seg) {
		r.failed++
	}
}

// advance moves the virtual clock past the tcp filter's close grace so
// the teardown timers of every finished flow fire.
func (r *churnRig) advance() {
	t0 := nowNs()
	r.sys.Sched.RunFor(churnGrace)
	t1 := nowNs()
	r.advanceNs = append(r.advanceNs, float64(t1-t0))
	if r.tr != nil {
		r.tr.add("churn.advance", 0, r.flows, t0, t1)
	}
}

// segment drives churnAdvance complete lifecycles, including the clock
// advance that tears them down, and marks the sink side.
func (r *churnRig) segment() {
	r.rounds(churnAdvance / churnWidth)
	r.advance()
	r.mark()
}

// mark closes a segment: the calibration kernel, then the timestamp,
// so that every segment contains one kernel run.
func (r *churnRig) mark() {
	cal := calKernel()
	r.lat.scale = calScale(cal)
	r.marksCal = append(r.marksCal, cal)
	r.marksT = append(r.marksT, nowNs())
	r.marksN = append(r.marksN, r.flows)
}

// run drives segments for d.
func (r *churnRig) run(d time.Duration) {
	r.lat.reset()
	r.marksT, r.marksN, r.marksCal = r.marksT[:0], r.marksN[:0], r.marksCal[:0]
	r.mark()
	r.advanceNs = r.advanceNs[:0]
	for deadline := nowNs() + int64(d); nowNs() < deadline; {
		r.segment()
	}
}

// finish checks the flow log and the queue map against the flows driven.
func (r *churnRig) finish() (attempted, failed int64, notes []string) {
	fs := r.sys.Proxy.FlowStats()
	failed = r.failed
	if open := r.flows - fs.Closed; open != 0 || fs.Active != 0 {
		failed += max(open, -open) + fs.Active
		notes = append(notes, fmt.Sprintf("flow log: %d of %d flows not closed, %d still active", open, r.flows, fs.Active))
	}
	if q := r.sys.Proxy.QueueCount(); q != 0 {
		failed += q
		notes = append(notes, fmt.Sprintf("%d filter queues left after the last clock advance", q))
	}
	return r.flows, failed, notes
}
