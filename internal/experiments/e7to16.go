package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/media"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runE7(seed int64, w io.Writer) error {
	s := trace.NewSeries("E7: goodput vs wireless loss (300 KB transfer, 2 Mb/s, 25 ms, 16 KB window)",
		"loss %", "goodput KB/s")
	losses := []float64{0, 2, 5, 10, 15, 20}
	got := map[string][]float64{} // mode -> goodput at each of losses
	add := func(mode string, lossPct, kbps float64) {
		s.Add(mode, lossPct, kbps)
		got[mode] = append(got[mode], kbps)
	}
	for _, lossPct := range losses {
		for _, mode := range []string{"plain", "snoop", "split"} {
			if mode == "split" {
				add(mode, lossPct, splitGoodput(seed, lossPct))
				continue
			}
			// Average over seeds: a single run's goodput at high loss
			// is dominated by a handful of timeout coincidences.
			total := 0.0
			const seeds = 3
			for sd := seed; sd < seed+seeds; sd++ {
				sys := core.NewSystem(core.Config{
					Seed: sd,
					// A 16 KB receive window matches the era's BSD
					// socket buffers and keeps the base-station queue
					// near the bandwidth-delay product, as in the
					// Snoop testbed.
					TCP: tcp.Config{RcvWnd: 16384},
					Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 25 * time.Millisecond,
						Loss: netsim.Bernoulli{P: lossPct / 100}, QueueLen: 200},
				})
				sys.MustCommand("load tcp")
				sys.MustCommand("load launcher")
				svc := "tcp"
				if mode == "snoop" {
					sys.MustCommand("load snoop")
					svc = "tcp snoop"
				}
				sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 %s", core.WiredAddr, core.MobileAddr, svc))
				res, err := sys.Transfer(pattern(300_000), 7, 5001, 600*time.Second)
				if err == nil && res.Completed {
					total += float64(res.Sent) / res.Elapsed.Seconds() / 1000
				}
			}
			add(mode, lossPct, total/seeds)
		}
	}
	s.Fprint(w)
	fmt.Fprintln(w, "\nshape check: parity at 0% loss; snoop and the split connection both beat")
	fmt.Fprintln(w, "plain TCP as loss grows — but the split connection pays with broken")
	fmt.Fprintln(w, "end-to-end semantics (see E17).")

	// Only the points that hold at every seed of 1–20 are claimed: at
	// 10–15 % loss (and for split at 5–20 %) the three-run means sit
	// inside the seed noise. See EXPERIMENTS.md §E7.
	var c claims
	plain := got["plain"]
	for i, loss := range losses {
		for _, m := range []string{"snoop", "split"} {
			v := got[m][i]
			switch {
			case loss == 0:
				c.check(math.Abs(v-plain[i]) <= 0.02*plain[i],
					"E7: want %s within 2%% of plain at 0%% loss: %.1f vs %.1f KB/s", m, v, plain[i])
			case loss == 2 || (m == "snoop" && (loss == 5 || loss == 20)):
				c.check(v > plain[i], "E7: want %s > plain at %g%% loss: %.1f vs %.1f KB/s", m, loss, v, plain[i])
			}
		}
	}
	return c.err()
}

// splitGoodput measures the I-TCP baseline at one loss point, averaged
// over the same seeds as the other modes.
func splitGoodput(seed int64, lossPct float64) float64 {
	total := 0.0
	const seeds = 3
	for sd := seed; sd < seed+seeds; sd++ {
		wireless := netsim.LinkConfig{Bandwidth: 2e6, Delay: 25 * time.Millisecond,
			Loss: netsim.Bernoulli{P: lossPct / 100}, QueueLen: 200}
		r := newSplitRig(sd, wireless, true)
		payload := pattern(300_000)
		rcvd := 0
		first, done := sim.Time(-1), sim.Time(-1)
		r.mStack.Listen(5001, func(c *tcp.Conn) {
			c.OnData = func(b []byte) {
				if first < 0 {
					first = r.sched.Now()
				}
				rcvd += len(b)
				if rcvd == len(payload) {
					done = r.sched.Now()
				}
			}
		})
		client, _ := r.wStack.Connect(ip.MustParseAddr("11.11.10.10"), 5001)
		client.OnEstablished = func() { client.Write(payload) }
		r.sched.RunFor(600 * time.Second)
		if done >= 0 {
			total += float64(len(payload)) / done.Sub(0).Seconds() / 1000
		}
	}
	return total / seeds
}

func runE8(seed int64, w io.Writer) error {
	t := trace.NewTable("E8: window-cap prioritization (two 8 MB streams, 2 Mb/s shared link, 20 s)",
		"low-priority cap (B)", "priority stream KB", "capped stream KB", "ratio")
	var c claims
	var prevHi, prevLo, prevCap int
	for i, cap := range []int{65535, 16384, 8192, 4096, 2048} {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond},
		})
		sys.MustCommand("load tcp")
		sys.MustCommand("load wsize")
		sys.MustCommand(fmt.Sprintf("add wsize 0.0.0.0 0 %v 5002 cap %d", core.MobileAddr, cap))
		sys.MustCommand(fmt.Sprintf("add tcp 0.0.0.0 0 %v 5002", core.MobileAddr))
		sys.MustCommand(fmt.Sprintf("add tcp 0.0.0.0 0 %v 5001", core.MobileAddr))

		var hi, lo int
		sys.MobileTCP.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { hi += len(b) } })
		sys.MobileTCP.Listen(5002, func(c *tcp.Conn) { c.OnData = func(b []byte) { lo += len(b) } })
		// Big enough that neither stream finishes inside the window:
		// the table shows the steady-state bandwidth split.
		big := pattern(8_000_000)
		c1, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
		c1.OnEstablished = func() { c1.Write(big) }
		c2, _ := sys.WiredTCP.Connect(core.MobileAddr, 5002)
		c2.OnEstablished = func() { c2.Write(big) }
		sys.Sched.RunFor(20 * time.Second)
		ratio := float64(hi) / float64(lo+1)
		t.AddRow(cap, hi/1000, lo/1000, ratio)
		if i > 0 {
			c.check(lo < prevLo, "E8: want the capped stream to shrink with its cap: %d B at cap %d vs %d B at cap %d", lo, cap, prevLo, prevCap)
			c.check(hi > prevHi, "E8: want the priority stream to grow as the cap tightens: %d B at cap %d vs %d B at cap %d", hi, cap, prevHi, prevCap)
		}
		prevHi, prevLo, prevCap = hi, lo, cap
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: smaller caps starve the low-priority stream; the priority stream absorbs the difference.")
	return c.err()
}

func runE9(seed int64, w io.Writer) error {
	t := trace.NewTable("E9: 20 s disconnection during bursty transfer (2 Mb/s, 10 ms)",
		"mode", "sender RTOs", "persist probes", "zero-window seen", "restart after reconnect (ms)")
	run := func(withZWSM bool) (tcp.Stats, float64) {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
		})
		sys.MustCommand("load tcp")
		sys.MustCommand("load launcher")
		mode := "plain TCP"
		if withZWSM {
			sys.MustCommand("load wsize")
			sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp wsize:zwsm:300", core.WiredAddr, core.MobileAddr))
			mode = "with ZWSM"
		} else {
			sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr))
		}
		var rcvd int
		done := sim.Time(-1)
		sys.MobileTCP.Listen(5001, func(c *tcp.Conn) {
			c.OnData = func(b []byte) {
				rcvd += len(b)
				if rcvd == 40_000 {
					done = sys.Sched.Now()
				}
			}
		})
		client, _ := sys.WiredTCP.ConnectFrom(7, core.MobileAddr, 5001)
		client.OnEstablished = func() { client.Write(pattern(20_000)) }
		sys.Sched.RunFor(2 * time.Second)
		sys.Wireless.SetDown(true)
		sys.Sched.RunFor(time.Second)
		client.Write(pattern(20_000))
		sys.Sched.RunFor(19 * time.Second)
		sys.Wireless.SetDown(false)
		reconnect := sys.Sched.Now()
		sys.Sched.RunFor(120 * time.Second)
		restartMS := -1.0
		if done >= 0 {
			restartMS = done.Sub(reconnect).Seconds() * 1000
		}
		st := client.Stats()
		t.AddRow(mode, st.Timeouts, st.PersistProbes, st.ZeroWindowSeen, restartMS)
		return st, restartMS
	}
	plain, plainMS := run(false)
	zwsm, zwsmMS := run(true)
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: ZWSM replaces RTO backoff with persist probes and restarts sooner.")
	var c claims
	c.check(zwsm.Timeouts == 0 && plain.Timeouts > 0, "E9: want 0 RTOs with ZWSM and some without: %d vs %d", zwsm.Timeouts, plain.Timeouts)
	c.check(zwsm.PersistProbes > 0, "E9: want persist probes with ZWSM: %d", zwsm.PersistProbes)
	c.check(zwsmMS >= 0 && zwsmMS < plainMS, "E9: want 0 ≤ ZWSM restart < plain restart: %.1f vs %.1f ms (-1: never)", zwsmMS, plainMS)
	return c.err()
}

func runE10(seed int64, w io.Writer) error {
	t := trace.NewTable("E10: rdrop under the TTSF (200 KB offered, 5 Mb/s wireless)",
		"drop rate %", "delivered KB", "delivered %", "wireless KB", "sender completed")
	var c claims
	for _, rate := range []int{0, 25, 50, 75} {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond},
		})
		for _, c := range []string{"load tcp", "load ttsf", "load rdrop", "load launcher",
			fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf rdrop:%d", core.WiredAddr, core.MobileAddr, rate)} {
			sys.MustCommand(c)
		}
		res, err := sys.Transfer(pattern(200_000), 7, 5001, 600*time.Second)
		if err != nil {
			return fmt.Errorf("E10: rate %d: %w", rate, err)
		}
		pct := float64(len(res.Received)) * 100 / float64(res.Sent)
		t.AddRow(rate, len(res.Received)/1000, pct, sys.Wireless.StatsAB().Bytes/1000, senderClosed(res))
		c.check(math.Abs(pct-float64(100-rate)) <= e10Slack,
			"E10: want delivered within %g points of %d%% at drop rate %d%%: %.1f%%", e10Slack, 100-rate, rate, pct)
		c.check(senderClosed(res), "E10: want the sender closed at drop rate %d%%: %v", rate, res.Client.State())
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: delivered fraction tracks (100 - drop rate); the sender finishes at every rate.")
	return c.err()
}

// e10Slack is how far, in percentage points, E10's delivered fraction
// may sit from (100 - drop rate): rdrop draws per segment, and 200 KB
// is ~140 segments.
const e10Slack = 10.0

func runE11(seed int64, w io.Writer) error {
	t := trace.NewTable("E11: transparent compression by data class (Table 8.1; 120 KB each, double proxy)",
		"data class", "payload KB", "wireless KB", "ratio", "intact")
	classes := []struct {
		name string
		data []byte
	}{
		{"text (repetitive)", repeatText(120_000)},
		{"image (random pixels)", randomBytes(7, 120_000)},
		{"binary (structured)", structured(120_000)},
	}
	var ratios []float64
	var c claims
	for _, cl := range classes {
		sys := core.NewSystem(core.Config{
			Seed: seed, Topology: core.TopoDouble,
			Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond},
		})
		for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
			fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf comp:6", core.WiredAddr, core.MobileAddr)} {
			sys.MustCommand(c)
		}
		for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
			fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf decomp", core.WiredAddr, core.MobileAddr)} {
			sys.Peer.MustCommand(c)
		}
		res, err := sys.Transfer(cl.data, 7, 5001, 600*time.Second)
		if err != nil {
			return fmt.Errorf("E11: %s: %w", cl.name, err)
		}
		carried := sys.Wireless.StatsAB().Bytes
		ratio := float64(carried) / float64(res.Sent)
		ratios = append(ratios, ratio)
		intact := bytes.Equal(res.Received, cl.data)
		t.AddRow(cl.name, res.Sent/1000, carried/1000, ratio, intact)
		c.check(intact, "E11: want %s delivered intact", cl.name)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: text compresses hard, structured binary some, random data not at all (stored frames).")
	text, image, binary := ratios[0], ratios[1], ratios[2]
	c.check(text < binary && binary < 1 && image >= 1,
		"E11: want wireless/payload ratios text < binary < 1 ≤ image: %.3g, %.3g, %.3g", text, binary, image)
	return c.err()
}

// structured builds binary data with redundancy (repeating records).
func structured(n int) []byte {
	rec := make([]byte, 64)
	for i := range rec {
		rec[i] = byte(i * 7)
	}
	b := make([]byte, 0, n+64)
	for len(b) < n {
		rec[0]++
		b = append(b, rec...)
	}
	return b[:n]
}

func runE12(seed int64, w io.Writer) error {
	t := trace.NewTable("E12: hierarchical discard (4-layer media, 25 fps, 300 B base; 800 kb/s wireless)",
		"mode", "base frames on time", "all frames delivered", "wireless KB", "mean base lateness (ms)")
	var c claims
	for _, mode := range []string{"no discard", "discard >1", "discard >0"} {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 800e3, Delay: 10 * time.Millisecond, QueueLen: 30},
		})
		switch mode {
		case "discard >1":
			sys.MustCommand("load discard")
			sys.MustCommand(fmt.Sprintf("add discard %v 4000 %v 4001 1", core.WiredAddr, core.MobileAddr))
		case "discard >0":
			sys.MustCommand("load discard")
			sys.MustCommand(fmt.Sprintf("add discard %v 4000 %v 4001 0", core.WiredAddr, core.MobileAddr))
		}
		const frames = 250
		const interval = 40 * time.Millisecond // 25 fps
		start := sys.Sched.Now()
		baseOnTime, delivered := 0, 0
		var lateness time.Duration
		sys.MobileUDP.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
			f, err := media.UnmarshalFrame(payload)
			if err != nil {
				return
			}
			delivered++
			if f.Layer == 0 {
				late := sys.Sched.Now().Sub(start.Add(time.Duration(f.Seq) * interval))
				lateness += late
				if late < 100*time.Millisecond {
					baseOnTime++
				}
			}
		})
		workload.StartCBRMedia(sys.Sched, sys.WiredUDP, core.MobileAddr, 4000, 4001, 4, 300, frames, interval, seed)
		sys.Sched.RunFor(time.Duration(frames)*interval + 5*time.Second)
		meanLate := 0.0
		if baseOnTime > 0 {
			meanLate = lateness.Seconds() * 1000 / frames
		}
		t.AddRow(mode, fmt.Sprintf("%d/%d", baseOnTime, frames), delivered,
			sys.Wireless.StatsAB().Bytes/1000, meanLate)
		if mode == "no discard" {
			c.check(2*baseOnTime < frames, "E12: want under half the base frames on time without discard: %d/%d", baseOnTime, frames)
		} else {
			c.check(baseOnTime == frames, "E12: want every base frame on time with %s: %d/%d", mode, baseOnTime, frames)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: without discard the queue swamps the base layer; discarding enhancement layers restores real-time delivery.")
	return c.err()
}

func runE13(seed int64, w io.Writer) error {
	// Reuses the Mobile IP topology of the package tests, scripted.
	s := sim.NewScheduler(seed)
	n := netsim.New(s)
	corr := n.AddNode("correspondent")
	inet := n.AddNode("internet")
	haN := n.AddNode("ha")
	faN := n.AddNode("fa")
	mobN := n.AddNode("mobile")
	for _, nd := range []*netsim.Node{inet, haN, faN} {
		nd.Forwarding = true
	}
	corrA := ip.MustParseAddr("1.1.1.1")
	haA := ip.MustParseAddr("10.0.0.254")
	mobHome := ip.MustParseAddr("10.0.0.99")
	faCareOf := ip.MustParseAddr("20.0.0.254")
	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 15 * time.Millisecond}
	lc := n.Connect(corr, corrA, inet, ip.MustParseAddr("1.1.1.254"), wire)
	lh := n.Connect(inet, ip.MustParseAddr("10.0.1.1"), haN, haA, netsim.LinkConfig{Bandwidth: 100e6, Delay: 40 * time.Millisecond})
	lf := n.Connect(inet, ip.MustParseAddr("20.0.1.1"), faN, faCareOf, wire)
	corr.AddDefaultRoute(lc.IfaceA())
	inet.AddRoute(ip.MustParseAddr("10.0.0.0"), 16, lh.IfaceA())
	inet.AddRoute(ip.MustParseAddr("20.0.0.0"), 16, lf.IfaceA())
	inet.AddRoute(ip.MustParseAddr("1.1.1.0"), 24, lc.IfaceB())
	haN.AddDefaultRoute(lh.IfaceB())
	faN.AddDefaultRoute(lf.IfaceB())
	ha := mobileip.NewHomeAgent(haN)
	fa := mobileip.NewForeignAgent(faN, faCareOf)
	mob := mobileip.NewMobile(mobN, haA, mobHome)
	n.Connect(faN, ip.MustParseAddr("20.0.0.1"), mobN, mobHome,
		netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond})
	mobN.AddDefaultRoute(mobN.Ifaces()[0])
	fa.StartAdvertising(500 * time.Millisecond)
	s.RunFor(2 * time.Second)
	fa.StopAdvertising()
	_ = mob

	var arrive sim.Time
	mobN.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) { arrive = s.Now() })
	start := s.Now()
	corr.SendIP(mobHome, ip.ProtoUDP, []byte("x"))
	s.RunFor(time.Second)
	triangular := arrive.Sub(start)

	bc := mobileip.NewBindingCache(corr)
	bc.Learn(mobHome, faCareOf, time.Minute)
	send := bc.WrapSend()
	start = s.Now()
	send(mobHome, ip.ProtoUDP, []byte("y"))
	s.RunFor(time.Second)
	direct := arrive.Sub(start)

	t := trace.NewTable("E13a: triangular routing vs binding-cache route optimization",
		"path", "one-way delivery (ms)")
	t.AddRow("via home agent (triangular)", triangular.Seconds()*1000)
	t.AddRow("direct tunnel (binding cache)", direct.Seconds()*1000)
	t.Fprint(w)
	fmt.Fprintf(w, "home agent tunneled %d packets\n\n", ha.Tunneled)

	// Handoff gap: packets sent during the gap are lost.
	t2 := trace.NewTable("E13b: packet loss across the handoff gap (20 pkts at 25 ms spacing)",
		"scenario", "delivered", "lost")
	delivered := 0
	mobN.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) { delivered++ })
	for i := 0; i < 20; i++ {
		s.After(time.Duration(i)*25*time.Millisecond, func() {
			corr.SendIP(mobHome, ip.ProtoUDP, []byte("stream"))
		})
	}
	// Gap: detach at 100 ms, reattach + re-register at 350 ms.
	s.After(100*time.Millisecond, func() { mobN.Ifaces()[0].Link().SetDown(true) })
	s.After(350*time.Millisecond, func() {
		mobN.Ifaces()[0].Link().SetDown(false)
		mob.Solicit()
	})
	s.RunFor(3 * time.Second)
	t2.AddRow("250 ms outage during 500 ms stream", delivered, 20-delivered)
	t2.Fprint(w)
	var c claims
	c.check(direct > 0 && 2*direct < triangular,
		"E13: want 0 < 2 × direct < triangular one-way delivery: %v, %v", direct, triangular)
	c.check(delivered > 0 && delivered < 20, "E13: want some but not all of 20 packets lost across the handoff gap: %d delivered", delivered)
	return c.err()
}

func runE14(seed int64, w io.Writer) error {
	t := trace.NewTable("E14: data-type translation (§8.3.3)",
		"translation", "bytes in", "bytes out", "ratio", "semantics")
	// Colour → monochrome image tiles.
	sys := core.NewSystem(core.Config{Seed: seed})
	sys.MustCommand("load translate")
	sys.MustCommand(fmt.Sprintf("add translate %v 4000 %v 4001 mono", core.WiredAddr, core.MobileAddr))
	var outBytes int
	monoOK := true
	sys.MobileUDP.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
		outBytes += len(payload)
		tile, err := media.UnmarshalTile(payload)
		if err != nil || tile.Mode != media.ModeMono {
			monoOK = false
		}
	})
	inBytes := 0
	for _, tile := range media.TestImageTiles(128, 128, 8, seed) {
		b, _ := media.MarshalTile(tile)
		inBytes += len(b)
		sys.WiredUDP.Send(4000, core.MobileAddr, 4001, b)
		sys.Sched.RunFor(10 * time.Millisecond)
	}
	sys.Sched.RunFor(time.Second)
	t.AddRow("RGB image -> mono", inBytes, outBytes, float64(outBytes)/float64(inBytes),
		fmt.Sprintf("all tiles mono: %v", monoOK))

	// Rich text → ASCII.
	sys2 := core.NewSystem(core.Config{Seed: seed + 1})
	sys2.MustCommand("load translate")
	sys2.MustCommand(fmt.Sprintf("add translate %v 4000 %v 4001 ascii", core.WiredAddr, core.MobileAddr))
	var asciiOut []byte
	sys2.MobileUDP.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
		asciiOut = append(asciiOut, payload...)
	})
	text := "Transparent communication management in wireless networks."
	rich := media.EncodeRich(text, 0x17)
	sys2.WiredUDP.Send(4000, core.MobileAddr, 4001, rich)
	sys2.Sched.RunFor(time.Second)
	textOK := string(asciiOut) == text
	t.AddRow("rich text -> ASCII", len(rich), len(asciiOut), float64(len(asciiOut))/float64(len(rich)),
		fmt.Sprintf("text preserved: %v", textOK))
	t.Fprint(w)
	if !monoOK || !textOK {
		return fmt.Errorf("E14: want every tile mono and the text preserved, got mono=%v text=%v", monoOK, textOK)
	}
	return nil
}

func runE15(seed int64, w io.Writer) error {
	t := trace.NewTable("E15: proxy forwarding cost vs filter-queue depth (2 MB transfer, best of 3)",
		"filters in queue", "packets through proxy", "wall µs/packet", "relative")
	if _, _, err := filterQueueCost(seed, 2); err != nil { // warm up the process before measuring
		return err
	}
	base := 0.0
	for _, depth := range []int{0, 1, 2, 4, 8} {
		pkts, usPerPkt, err := filterQueueCost(seed, depth)
		if err != nil {
			return err
		}
		if depth == 0 {
			base = usPerPkt
		}
		rel := 0.0
		if base > 0 {
			rel = usPerPkt / base
		}
		t.AddRow(depth, pkts, usPerPkt, rel)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nend-to-end cost is dominated by the simulator; isolated filter-queue cost:")
	t2 := trace.NewTable("", "filters in queue", "ns/packet (hook only)", "relative")
	base = 0.0
	for _, depth := range []int{0, 1, 2, 4, 8} {
		ns := hookCost(seed+1, depth)
		if depth == 0 {
			base = ns
		}
		t2.AddRow(depth, ns, ns/base)
	}
	t2.Fprint(w)
	return nil
}

// hookCost drives the proxy's interception hook directly with a
// prepared TCP data packet, isolating the filter-queue mechanism from
// the rest of the simulation.
func hookCost(seed int64, depth int) float64 {
	sys := core.NewSystem(core.Config{Seed: seed})
	sys.MustCommand("load tcp")
	key := fmt.Sprintf("%v 7 %v 5001", core.WiredAddr, core.MobileAddr)
	sys.MustCommand("add tcp " + key)
	if depth > 0 {
		sys.MustCommand("load rdrop")
		for i := 0; i < depth; i++ {
			sys.MustCommand(fmt.Sprintf("add rdrop %s 0", key))
		}
	}
	seg := tcp.Segment{SrcPort: 7, DstPort: 5001, Seq: 1, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: pattern(1000)}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
	raw, _ := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
	hook := sys.ProxyHost.PacketHook()
	in := sys.ProxyHost.Ifaces()[0]
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		hook(raw, in)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// filterQueueCost measures per-packet wall-clock cost through a queue
// of depth no-op service filters (rdrop at 0%), plus the tcp filter.
// The best of several repetitions is reported; single runs at this
// scale are dominated by scheduler noise.
func filterQueueCost(seed int64, depth int) (pkts int64, usPerPkt float64, err error) {
	best := -1.0
	for rep := 0; rep < 3; rep++ {
		sys := core.NewSystem(core.Config{Seed: seed,
			Wireless: netsim.LinkConfig{Bandwidth: 100e6, Delay: time.Millisecond}})
		sys.MustCommand("load tcp")
		sys.MustCommand("load launcher")
		svc := "tcp"
		if depth > 0 {
			sys.MustCommand("load rdrop")
			for i := 0; i < depth; i++ {
				svc += " rdrop:0"
			}
		}
		sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 %s", core.WiredAddr, core.MobileAddr, svc))
		start := time.Now()
		res, err := sys.Transfer(pattern(2_000_000), 7, 5001, 120*time.Second)
		if err != nil || !res.Completed {
			return 0, 0, fmt.Errorf("E15: the 2 MB transfer through %d filters did not complete (err %v)", depth, err)
		}
		pkts = sys.Proxy.Stats.Intercepted.Load()
		us := float64(time.Since(start).Microseconds()) / float64(pkts)
		if best < 0 || us < best {
			best = us
		}
	}
	return pkts, best, nil
}

func runE16(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed:     seed,
		Wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond, Loss: netsim.Bernoulli{P: 0.03}, QueueLen: 500},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load rdrop", "load launcher",
		fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf rdrop:40", core.WiredAddr, core.MobileAddr)} {
		sys.MustCommand(c)
	}
	payload := pattern(100_000)
	res, err := sys.Transfer(payload, 7, 5001, 600*time.Second)
	if err != nil {
		return fmt.Errorf("E16: transfer: %w", err)
	}
	completed := senderClosed(res)
	subseq := isSubsequence(res.Received, payload)
	fmt.Fprintf(w, "seeded instance (3%% wireless loss + 40%% permanent rdrop under TTSF):\n")
	fmt.Fprintf(w, "  sender completed cleanly:        %v\n", completed)
	fmt.Fprintf(w, "  receiver stream ⊆ original:      %v (%d of %d bytes)\n", subseq, len(res.Received), res.Sent)
	fmt.Fprintln(w, "full randomized property: go test ./internal/filters -run TestTTSFPropertyRandomTransformations")
	if !completed || !subseq {
		return fmt.Errorf("E16: want sender closed and received ⊆ sent, got closed=%v subsequence=%v", completed, subseq)
	}
	return nil
}

func isSubsequence(got, want []byte) bool {
	gi := 0
	for wi := 0; wi < len(want) && gi < len(got); wi++ {
		if want[wi] == got[gi] {
			gi++
		}
	}
	return gi == len(got)
}
