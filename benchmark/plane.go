package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// Plane sizing shared by every concurrent-plane workload (README,
// "Sizing"). Batch size and flush interval stay at the plane's
// defaults.
const (
	ringSize     = 128
	inFlightCap  = (ringSize + 2) * dataplane.DefaultBatchSize // per shard: ring + open arena + batch being drained
	warmupPkts   = 10_000
	verifyPkts   = 1 << 16
	sampleMask   = 1<<16 - 1 // sample ids in flight are far fewer
	traceEvery   = 16        // every 16th sample is traced
	ctrlInterval = 100 * time.Millisecond
)

// variant selects the filter chain a workload's rules install.
type variant int

const (
	chainFull   variant = iota // the workload as specified
	chainNoTTSF                // same without the TTSF (edit-bulk only)
	chainShaped                // every filter replaced by a nop of its shape
)

// planeWorkload is one packet workload on the concurrent plane.
type planeWorkload struct {
	name    string
	spec    trafficSpec
	segPkts int64 // packets per sink-side segment
	ttsf    bool
}

var fwdSmall = planeWorkload{
	name:    "fwd-small",
	spec:    trafficSpec{flows: 64, payload: 64, ackEvery: 2, unserviced: 32},
	segPkts: 1 << 16,
}

var editBulk = planeWorkload{
	name:    "edit-bulk",
	spec:    trafficSpec{flows: 16, payload: 1460, ackEvery: 2, ackLag: 256, edits: true},
	segPkts: 1 << 14,
	ttsf:    true,
}

// commands lists the SP commands that configure the workload's chain.
func (w *planeWorkload) commands(v variant) []string {
	name := func(real, shape string) (string, string) {
		if v == chainShaped {
			return "nop", shape
		}
		return real, ""
	}
	var cmds []string
	add := func(real, shape, key, args string) {
		n, s := name(real, shape)
		cmds = append(cmds, strings.TrimSpace(fmt.Sprintf("add %s %s %s %s", n, key, args, s)))
	}
	if v == chainShaped {
		cmds = append(cmds, "load nop")
	}
	if !w.ttsf {
		if v != chainShaped {
			cmds = append(cmds, "load tcp", "load rdrop")
		}
		wild := fmt.Sprintf("0.0.0.0 0 %v 0", mobileAddr)
		add("tcp", "ior7", wild, "")
		for i := 0; i < 4; i++ {
			add("rdrop", "o2", wild, "0")
		}
		// 1000 registrations no packet matches: half wild-card (source
		// ports no flow uses), half exact keys of 20 clients on an
		// unused network, 25 streams each.
		for i := 0; i < 500; i++ {
			add("rdrop", "o2", fmt.Sprintf("%v %d %v 0", wiredAddr, 20000+i, mobileAddr), "0")
			add("rdrop", "o2", fmt.Sprintf("10.1.0.%d %d %v %d", 1+i%20, 7000+i/20, mobileAddr, serverPort), "0")
		}
		return cmds
	}
	if v != chainShaped {
		cmds = append(cmds, "load tcp", "load shrink")
		if v == chainFull {
			cmds = append(cmds, "load ttsf")
		}
	}
	for f := 0; f < w.spec.flows; f++ {
		key := keyString(w.spec.key(f))
		add("tcp", "ior7", key, "")
		if v != chainNoTTSF {
			add("ttsf", "ior6", key, "")
		}
		add("shrink", "o2", key, "")
	}
	return cmds
}

// newCatalog is the stock filter catalog plus the benchmark's services.
func newCatalog() *filter.Catalog {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	registerServices(cat)
	return cat
}

// flowCheck is the sink's per-flow state; only the shard that owns the
// flow touches it.
type flowCheck struct {
	expSeq  uint32   // next forward data byte, modified space
	nData   uint32   // forward data segments delivered
	lastAck uint32   // last ACK forwarded to the sender
	_       [52]byte // a cache line each: neighbours may belong to other shards
}

// shardSink is one shard's side of the sink, padded apart from its
// neighbours.
type shardSink struct {
	emitted  int64
	nextMark int64
	marksT   []int64      // time of each segment mark
	marksN   []int64      // packets emitted at each mark
	marksCal []int64      // calibration kernel time at each mark (closed loops)
	hist     [2]histogram // every sampled latency of the phase
	win      [2]windowMedians
	// failures by kind; only seqBreak is looked for outside the
	// verification pass.
	seqBreak, badSum, badPayload, badAck, badShape int64
	_                                              [64]byte
}

// traceSlot holds the three times of one traced packet: handed in (or
// due), Dispatch returned, delivered to the sink.
type traceSlot struct {
	start, dispEnd int64
	delivered      atomic.Int64
}

// sink checks and counts what the plane emits. deliver runs on the
// shard goroutines; everything else only while the plane is drained.
type sink struct {
	spec    trafficSpec
	isn     []uint32
	pattern []byte
	flows   []flowCheck
	shards  []shardSink
	segPkts int64
	verify  atomic.Bool
	phase   atomic.Int32
	// calibrate makes every shard time the calibration kernel at each
	// segment mark and report in calibrated time (closed loops only:
	// the kernel would stall an open loop's packets).
	calibrate bool
	due       []int64     // due[id&sampleMask]: when sample id was handed in or due
	slots     []traceSlot // traced samples, nil unless tracing
}

func newSink(w *planeWorkload, g *generator, shards int) *sink {
	s := &sink{spec: w.spec, pattern: pattern(w.spec.payload), segPkts: w.segPkts,
		flows: make([]flowCheck, w.spec.flows), shards: make([]shardSink, shards),
		due: make([]int64, sampleMask+1)}
	for f := range s.flows {
		s.isn = append(s.isn, g.flows[f].isn)
		s.flows[f].expSeq, s.flows[f].lastAck = g.flows[f].isn, g.flows[f].isn
	}
	for i := range s.shards {
		s.shards[i].marksT = make([]int64, 0, 1<<14)
		s.shards[i].marksN = make([]int64, 0, 1<<14)
		s.shards[i].marksCal = make([]int64, 0, 1<<14)
	}
	return s
}

// deliver is the dataplane.Sink: one call per drained batch.
func (s *sink) deliver(shard int, out [][]byte) {
	sh := &s.shards[shard]
	now := nowNs()
	verify := s.verify.Load()
	phase := s.phase.Load()
	hist, win := &sh.hist[phase], &sh.win[phase]
	for _, b := range out {
		if verify {
			s.check(sh, b)
		}
		if len(b) <= hdrLen || binary.BigEndian.Uint16(b[offDstPort:]) != serverPort {
			continue
		}
		f := int(binary.BigEndian.Uint16(b[offSrcPort:])) - portBase
		if uint(f) >= uint(len(s.flows)) {
			sh.badShape++
			continue
		}
		fc := &s.flows[f]
		seq := binary.BigEndian.Uint32(b[offSeq:])
		if seq != fc.expSeq {
			sh.seqBreak++
		}
		fc.expSeq = seq + uint32(len(b)-hdrLen)
		fc.nData++
		if m := binary.BigEndian.Uint32(b[offMarker:]); m != 0 {
			lat := now - s.due[m&sampleMask]
			hist.add(lat)
			win.add(lat)
			if s.slots != nil && m%traceEvery == 0 && int(m/traceEvery) < len(s.slots) {
				s.slots[m/traceEvery].delivered.Store(now)
			}
		}
	}
	sh.emitted += int64(len(out))
	if sh.emitted >= sh.nextMark && len(sh.marksT) < cap(sh.marksT) {
		if s.calibrate {
			cal := calKernel()
			sh.marksCal = append(sh.marksCal, cal)
			sh.win[phase].scale = calScale(cal)
		}
		sh.marksT = append(sh.marksT, nowNs())
		sh.marksN = append(sh.marksN, sh.emitted)
		sh.nextMark = sh.emitted + s.segPkts
	}
}

// check is the verification pass: both checksums, the payload against
// the (prefix of the) pattern, the expected length, and — for an ACK
// on its way to the sender — that it acknowledges exactly the original
// bytes the lagged segment stands for: never backwards, never beyond
// what the sender has sent. deliver calls it before its own
// bookkeeping, so nData counts the data segments delivered before b.
func (s *sink) check(sh *shardSink, b []byte) {
	h, seg, err := ip.Unmarshal(b)
	if err != nil || len(b) < hdrLen || !ip.VerifyChecksum(b) || !tcp.VerifyChecksum(h.Src, h.Dst, seg) {
		sh.badSum++
		return
	}
	n := uint32(s.spec.payload)
	if len(b) > hdrLen {
		f := int(binary.BigEndian.Uint16(b[offSrcPort:])) - portBase
		if uint(f) >= uint(len(s.flows)) {
			return // deliver counts it
		}
		want := s.spec.payload
		if s.spec.edits && shrunk(s.isn[f]+s.flows[f].nData*n, s.spec.payload) {
			want /= 2
		}
		if pay := b[hdrLen:]; len(pay) != want || !bytes.Equal(pay[4:], s.pattern[4:want]) {
			sh.badPayload++
		}
		return
	}
	f := int(binary.BigEndian.Uint16(b[offDstPort:])) - portBase
	if binary.BigEndian.Uint16(b[offSrcPort:]) != serverPort || uint(f) >= uint(len(s.flows)) {
		sh.badShape++
		return
	}
	fc := &s.flows[f]
	want := s.isn[f]
	if lag := uint32(s.spec.ackLag); fc.nData > lag {
		want += (fc.nData - lag) * n
	}
	ack := binary.BigEndian.Uint32(b[offAck:])
	if ack != want || int32(ack-fc.lastAck) < 0 || int32(s.isn[f]+fc.nData*n-ack) < 0 {
		sh.badAck++
	}
	fc.lastAck = ack
}

// resetWindow starts a new timed window, in calibrated time or not;
// the plane must be drained.
func (s *sink) resetWindow(phase int32, calibrate bool) {
	s.phase.Store(phase)
	s.calibrate = calibrate
	for i := range s.shards {
		sh := &s.shards[i]
		sh.marksT, sh.marksN, sh.marksCal = sh.marksT[:0], sh.marksN[:0], sh.marksCal[:0]
		sh.nextMark = sh.emitted // the next delivery opens the first segment
		sh.hist[phase] = histogram{}
		sh.win[phase].reset()
		sh.win[phase].scale = 0
	}
}

func (s *sink) emitted() (n int64) {
	for i := range s.shards {
		n += s.shards[i].emitted
	}
	return n
}

func (s *sink) failures() (n int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		n += sh.seqBreak + sh.badSum + sh.badPayload + sh.badAck + sh.badShape
	}
	return n
}

// rate is the plane's delivery rate over the current window: the sum
// over shards of each shard's median (and fast-decile) segment rate,
// per calibrated second when the window is calibrated. wall is the
// same median per wall-clock second, cal the median kernel time.
func (s *sink) rate() (med, fast, wall float64, cal int64, segs int) {
	segs = -1
	var cals []int64
	for i := range s.shards {
		sh := &s.shards[i]
		var c []int64
		if s.calibrate {
			c = sh.marksCal
			cals = append(cals, c...)
		}
		r := segRates(sh.marksT, sh.marksN, c)
		med += median(r)
		fast += quantile(r, 0.9)
		wall += median(segRates(sh.marksT, sh.marksN, nil))
		if segs < 0 || len(r) < segs {
			segs = len(r)
		}
	}
	return med, fast, wall, medianInt64(cals), segs
}

func (s *sink) latency(phase int) *histogram {
	var h histogram
	for i := range s.shards {
		h.merge(&s.shards[i].hist[phase])
	}
	return &h
}

// latencyP50 is the phase's median latency in ns: the median over all
// shards' windows of each window's own median.
func (s *sink) latencyP50(phase int) (p50 float64, windows int) {
	var meds []float64
	for i := range s.shards {
		meds = append(meds, s.shards[i].win[phase].meds...)
	}
	return median(meds), len(meds)
}

// harness is a built concurrent plane with its generator and sink.
type harness struct {
	w          *planeWorkload
	pl         *dataplane.Plane
	gen        *generator
	sink       *sink
	dispatched int64
}

func planeShards() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// buildPlane is the set-up of a concurrent-plane workload: plane,
// filter load and registrations, packet pool, sink, and a warm-up of
// 10k packets.
func buildPlane(w *planeWorkload, seed int64, v variant) (*harness, error) {
	shards := planeShards()
	h := &harness{w: w}
	h.gen = newGenerator(w.spec, seed, 2*shards*inFlightCap)
	h.sink = newSink(w, h.gen, shards)
	h.pl = dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: shards, Catalog: newCatalog(), Seed: seed, RingSize: ringSize, Sink: h.sink.deliver})
	for _, c := range w.commands(v) {
		if out := h.pl.Command(c); strings.HasPrefix(out, "error") {
			h.pl.Close()
			return nil, fmt.Errorf("%s: %q: %s", w.name, c, strings.TrimSpace(out))
		}
	}
	for i := 0; i < warmupPkts; i++ {
		h.dispatch()
	}
	h.pl.Drain()
	return h, nil
}

// dispatch hands the generator's next packet to the plane, now.
func (h *harness) dispatch() {
	raw, sample := h.gen.next()
	var stamp int64
	if sample != 0 {
		stamp = nowNs()
	}
	h.send(raw, sample, stamp)
}

// verifyPass sends the next 2^16 packets through with every check on.
func (h *harness) verifyPass() {
	h.sink.verify.Store(true)
	for i := 0; i < verifyPkts; i++ {
		h.dispatch()
	}
	h.pl.Drain()
	h.sink.verify.Store(false)
}

// traceStart arms tracing of every traceEvery-th sample from now on.
func (h *harness) traceStart() {
	h.sink.slots = make([]traceSlot, maxSpans/2)
	h.gen.samples = 0 // sample ids restart so that they index the slots
}

// send hands one packet to the plane; stamp is the time a sampled
// packet counts as handed in (now for a closed loop, its due time for
// an open one).
func (h *harness) send(raw []byte, sample uint32, stamp int64) {
	if sample != 0 {
		h.sink.due[sample&sampleMask] = stamp
		if sl := h.sink.slots; sl != nil && sample%traceEvery == 0 && int(sample/traceEvery) < len(sl) {
			sl[sample/traceEvery].start = stamp
			h.pl.Dispatch(raw)
			sl[sample/traceEvery].dispEnd = nowNs()
			h.dispatched++
			return
		}
	}
	h.pl.Dispatch(raw)
	h.dispatched++
}

// closedLoop dispatches as fast as the plane takes packets for d, then
// drains. The full ring pushes back on the generator, so the shard
// workers set the pace.
func (h *harness) closedLoop(d time.Duration) {
	h.sink.resetWindow(0, true)
	deadline := nowNs() + int64(d)
	for nowNs() < deadline {
		for i := 0; i < 256; i++ {
			h.dispatch()
		}
	}
	h.pl.Drain()
}

// pacedResult is what one open-loop phase observed beside the sink.
type pacedResult struct {
	late   histogram // generator lateness: dispatch time minus due time
	ctrlUs []float64 // add+delete round trips
	ctrlKO int64
}

// pacedLoop sends on a fixed schedule of rate packets per second for
// d. A packet is due at start + i/rate whether or not the generator
// was running then; latency is counted from that time. With ctrl, a
// second goroutine adds and deletes one exact-key registration every
// 100 ms through Plane.Command.
func (h *harness) pacedLoop(rate float64, d time.Duration, phase int32, ctrl bool) *pacedResult {
	res := &pacedResult{}
	h.sink.resetWindow(phase, false)
	stop, done := make(chan struct{}), make(chan struct{})
	if ctrl {
		go func() {
			defer close(done)
			key := fmt.Sprintf("%v 9 %v 9", wiredAddr, mobileAddr)
			tick := time.NewTicker(ctrlInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					t0 := nowNs()
					a := h.pl.Command("add rdrop " + key + " 0")
					b := h.pl.Command("delete rdrop " + key)
					if a != "" || b != "" {
						res.ctrlKO++
					}
					res.ctrlUs = append(res.ctrlUs, float64(nowNs()-t0)/1e3)
				}
			}
		}()
	} else {
		close(done)
	}
	start := nowNs()
	n := int(rate * d.Seconds())
	gap := 1e9 / rate
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*gap)
		now := nowNs()
		for now < due {
			now = nowNs()
		}
		raw, sample := h.gen.next()
		if sample != 0 {
			res.late.add(now - due)
		}
		h.send(raw, sample, due)
	}
	close(stop)
	<-done
	h.pl.Drain()
	return res
}

// spans turns the traced samples into spans: a root per packet from
// handed-in to delivered, with the Dispatch call as its child.
func (h *harness) spans(tr *tracer) {
	for i := range h.sink.slots {
		sl := &h.sink.slots[i]
		if end := sl.delivered.Load(); end != 0 && sl.start != 0 {
			root := tr.add("plane.packet", 0, int64(i), sl.start, end)
			tr.add("dataplane.Dispatch", root, int64(i), sl.start, sl.dispEnd)
		}
	}
}

// finish closes the plane and checks its counters against what the
// schedule implies.
func (h *harness) finish() (attempted, failed int64, notes []string) {
	h.pl.Close()
	attempted = h.dispatched
	lost := attempted - h.sink.emitted()
	if lost < 0 {
		lost = -lost
	}
	failed = lost + h.sink.failures()
	st := h.pl.StatsSnapshot()
	if st.Intercepted != attempted {
		failed++
		notes = append(notes, fmt.Sprintf("plane intercepted %d of %d dispatched", st.Intercepted, attempted))
	}
	// The schedule fixes how many packets each flow has sent, so the
	// serviced share and the classifier misses are known exactly.
	rounds, rem := attempted/int64(h.w.spec.flows), attempted%int64(h.w.spec.flows)
	serviced := int64(h.w.spec.flows - h.w.spec.unserviced)
	wantFiltered := rounds*serviced + min(rem, serviced)
	wantMisses := attempted - wantFiltered
	if st.Filtered != wantFiltered || st.RegistryMisses != wantMisses {
		failed++
		notes = append(notes, fmt.Sprintf("filtered %d (want %d), registry misses %d (want %d)",
			st.Filtered, wantFiltered, st.RegistryMisses, wantMisses))
	}
	if h.w.ttsf {
		var edits, want, recon int64
		for f := range h.gen.flows {
			ts, _ := filters.TTSFStatsFor(h.w.spec.key(f))
			edits += ts.Edits
			recon += ts.Reconstructed + ts.Unreconstructable + ts.SynthesizedAcks
			fl := &h.gen.flows[f]
			for i := 0; i < fl.sent; i++ {
				if shrunk(fl.isn+uint32(i)*uint32(h.w.spec.payload), h.w.spec.payload) {
					want++
				}
			}
		}
		if edits != want || recon != 0 {
			failed++
			notes = append(notes, fmt.Sprintf("ttsf recorded %d edits (want %d), %d repairs (want 0)", edits, want, recon))
		}
	}
	return attempted, failed, notes
}
