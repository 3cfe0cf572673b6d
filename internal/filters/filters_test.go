package filters_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func fwdKey(clientPort uint16) filter.Key {
	return filter.Key{SrcIP: wiredAddr, SrcPort: clientPort, DstIP: mobileAddr, DstPort: 5001}
}

func TestTCPFiltRepairsWsizeModification(t *testing.T) {
	// wsize cap rewrites the window field; without the tcp filter the
	// checksum would be stale and the stream would die. With it, the
	// transfer completes.
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load wsize")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp wsize:cap:4096")

	payload := pattern(100_000)
	got, client := r.transfer(t, payload, 120*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: %d of %d bytes", len(got), len(payload))
	}
	if client.Stats().Retransmits > 5 {
		t.Errorf("unexpected retransmits: %+v", client.Stats())
	}
}

func TestWsizeCapObservedAtSender(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load wsize")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp wsize:cap:2048")

	maxWin := -1
	r.wStack.OnSegment = func(send bool, src, dst ip.Addr, seg *tcp.Segment) {
		if !send && seg.Flags&tcp.FlagSYN == 0 {
			if int(seg.Window) > maxWin {
				maxWin = int(seg.Window)
			}
		}
	}
	payload := pattern(50_000)
	got, _ := r.transfer(t, payload, 300*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted under window cap: %d bytes", len(got))
	}
	if maxWin > 2048 {
		t.Fatalf("sender observed window %d > cap 2048", maxWin)
	}
	if maxWin < 0 {
		t.Fatal("sender observed no ACKs")
	}
}

func TestWsizeCapPrioritizesOtherStream(t *testing.T) {
	// Two concurrent streams share the wireless link; capping one's
	// window gives the other stream the larger share (§8.2.2).
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load wsize")
	// Low-priority stream goes to port 5002: cap its window hard.
	r.cmd(t, r.proxyA, "add wsize 0.0.0.0 0 11.11.10.10 5002 cap 2048")
	r.cmd(t, r.proxyA, "add tcp 0.0.0.0 0 11.11.10.10 5002")

	var hi, lo bytes.Buffer
	r.mStack.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { hi.Write(b) } })
	r.mStack.Listen(5002, func(c *tcp.Conn) { c.OnData = func(b []byte) { lo.Write(b) } })
	big := pattern(2_000_000)
	cHi, _ := r.wStack.Connect(mobileAddr, 5001)
	cHi.OnEstablished = func() { cHi.Write(big) }
	cLo, _ := r.wStack.Connect(mobileAddr, 5002)
	cLo.OnEstablished = func() { cLo.Write(big) }
	r.sched.RunFor(20 * time.Second)
	if lo.Len() == 0 || hi.Len() == 0 {
		t.Fatalf("streams stalled: hi=%d lo=%d", hi.Len(), lo.Len())
	}
	if hi.Len() < 2*lo.Len() {
		t.Errorf("window cap did not prioritize: hi=%d lo=%d", hi.Len(), lo.Len())
	}
	t.Logf("priority stream %d bytes, capped stream %d bytes", hi.Len(), lo.Len())
}

func TestLauncherReportMatchesFig53Shape(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load wsize")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "load rdrop")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp wsize:cap:8192")

	var rcvd bytes.Buffer
	r.mStack.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	client, _ := r.wStack.ConnectFrom(7, mobileAddr, 5001)
	payload := pattern(5_000)
	client.OnEstablished = func() { client.Write(payload) }
	r.sched.RunFor(5 * time.Second) // stream still open: filters live

	if !bytes.Equal(rcvd.Bytes(), payload) {
		t.Fatalf("transfer corrupted: %d bytes", rcvd.Len())
	}
	rep := r.cmd(t, r.proxyA, "report")
	want := fwdKey(client.LocalPort()).String()
	if !strings.Contains(rep, want) {
		t.Fatalf("report missing live stream %s:\n%s", want, rep)
	}
	if !strings.Contains(rep, "launcher\n\t11.11.10.99 0 -> 11.11.10.10 0") {
		t.Fatalf("report missing launcher wild-card:\n%s", rep)
	}
	if !strings.Contains(rep, "rdrop\n") {
		t.Fatalf("report missing idle rdrop:\n%s", rep)
	}
}

func TestTCPFiltTearsDownQueuesAfterClose(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp")
	payload := pattern(1000)
	got, _ := r.transfer(t, payload, 3*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted")
	}
	if len(r.proxyA.Streams()) == 0 {
		t.Fatal("queues gone before the close grace elapsed")
	}
	r.sched.RunFor(10 * time.Second) // past closeGrace
	if n := len(r.proxyA.Streams()); n != 0 {
		t.Fatalf("%d stream queues leaked after close: %v", n, r.proxyA.Streams())
	}
}

func TestRdropWithoutTTSFIsOrdinaryLoss(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load rdrop")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp rdrop:20")

	payload := pattern(60_000)
	got, client := r.transfer(t, payload, 300*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("without TTSF the stream must still be reliable: %d of %d bytes",
			len(got), len(payload))
	}
	if client.Stats().Retransmits == 0 {
		t.Error("20% rdrop caused no retransmits?")
	}
}

func TestRdropWithTTSFPermanentlyRemovesData(t *testing.T) {
	// The §8.1.5 packet-dropping example: with the TTSF, dropped
	// payloads are excised. The sender completes (everything acked),
	// the mobile receives a strict subsequence, and the wireless link
	// carries fewer bytes.
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load tcp")
	r.cmd(t, r.proxyA, "load ttsf")
	r.cmd(t, r.proxyA, "load rdrop")
	r.cmd(t, r.proxyA, "load launcher")
	r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf rdrop:50")

	payload := pattern(200_000)
	got, client := r.transfer(t, payload, 600*time.Second)

	if client.State() != tcp.StateClosed && client.State() != tcp.StateTimeWait {
		t.Fatalf("sender did not complete: state %v, stats %+v", client.State(), client.Stats())
	}
	if len(got) == len(payload) {
		t.Fatal("50% rdrop under TTSF delivered everything — drops were not permanent")
	}
	if len(got) < len(payload)/5 || len(got) > len(payload)*4/5 {
		t.Fatalf("delivered %d of %d bytes; expected roughly half", len(got), len(payload))
	}
	if !isChunkSubsequence(got, payload) {
		t.Fatal("delivered bytes are not an ordered subsequence of the original")
	}
}

// isChunkSubsequence reports whether got can be formed by deleting
// bytes from want while preserving order.
func isChunkSubsequence(got, want []byte) bool {
	gi := 0
	for wi := 0; wi < len(want) && gi < len(got); wi++ {
		if want[wi] == got[gi] {
			gi++
		}
	}
	return gi == len(got)
}

func TestCompressionDoubleProxyEndToEnd(t *testing.T) {
	// The §8.1.6 packet-compression example, deployed double-proxy
	// (§10.2.4): comp+ttsf at the base station, decomp+ttsf on the far
	// side. The mobile application receives the exact original bytes;
	// the wireless link carries fewer.
	r := newRig(t, rigOpts{
		doubleProxy: true,
		wireless:    netsim.LinkConfig{Bandwidth: 1e6, Delay: 20 * time.Millisecond},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf comp:6"} {
		r.cmd(t, r.proxyA, c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf decomp"} {
		r.cmd(t, r.proxyB, c)
	}

	payload := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 3000)
	got, client := r.transfer(t, payload, 600*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("double-proxy compression corrupted data: got %d want %d bytes",
			len(got), len(payload))
	}
	carried := r.wless.StatsAB().Bytes
	if carried > int64(len(payload))*2/3 {
		t.Errorf("wireless carried %d bytes for a %d-byte payload; compression ineffective",
			carried, len(payload))
	}
	if client.State() != tcp.StateClosed && client.State() != tcp.StateTimeWait {
		t.Fatalf("sender did not complete: %v", client.State())
	}
}

func TestCompressionLossyWireless(t *testing.T) {
	// Same pipeline over a lossy wireless link: retransmissions must be
	// reconstructed identically from the TTSF edit log (§8.1.4).
	r := newRig(t, rigOpts{
		doubleProxy: true,
		wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond,
			Loss: netsim.Bernoulli{P: 0.05}, QueueLen: 200},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf comp:6"} {
		r.cmd(t, r.proxyA, c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf decomp"} {
		r.cmd(t, r.proxyB, c)
	}
	payload := bytes.Repeat([]byte("wireless links lose packets but semantics survive! "), 1500)
	got, _ := r.transfer(t, payload, 900*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("lossy double-proxy compression corrupted data: got %d want %d bytes",
			len(got), len(payload))
	}
}

func TestSnoopImprovesLossyTransfer(t *testing.T) {
	// §8.2.1: with snoop, wireless losses are repaired locally and the
	// sender sees far fewer retransmissions.
	run := func(withSnoop bool) (time.Duration, tcp.Stats) {
		r := newRig(t, rigOpts{
			seed: 42,
			wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 25 * time.Millisecond,
				Loss: netsim.Bernoulli{P: 0.12}, QueueLen: 200},
		})
		r.cmd(t, r.proxyA, "load tcp")
		r.cmd(t, r.proxyA, "load launcher")
		if withSnoop {
			r.cmd(t, r.proxyA, "load snoop")
			r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp snoop")
		} else {
			r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp")
		}
		payload := pattern(300_000)
		var first, done time.Duration = -1, -1
		var rcvd bytes.Buffer
		r.mStack.Listen(5001, func(c *tcp.Conn) {
			c.OnData = func(b []byte) {
				if first < 0 {
					first = time.Duration(r.sched.Now())
				}
				rcvd.Write(b)
				if rcvd.Len() == len(payload) {
					done = time.Duration(r.sched.Now())
				}
			}
		})
		client, _ := r.wStack.ConnectFrom(7, mobileAddr, 5001)
		client.OnEstablished = func() { client.Write(payload) }
		r.sched.RunFor(900 * time.Second)
		if !bytes.Equal(rcvd.Bytes(), payload) {
			t.Fatalf("transfer corrupted (snoop=%v): %d bytes", withSnoop, rcvd.Len())
		}
		if done < 0 {
			t.Fatalf("transfer never finished (snoop=%v)", withSnoop)
		}
		// Measure from the first delivered byte: handshake losses are
		// luck (snoop cannot cache SYNs) and would swamp the comparison.
		return done - first, client.Stats()
	}
	tPlain, stPlain := run(false)
	tSnoop, stSnoop := run(true)
	t.Logf("plain: %v (%d sender rexmits), snoop: %v (%d sender rexmits)",
		tPlain, stPlain.Retransmits, tSnoop, stSnoop.Retransmits)
	if stSnoop.Retransmits >= stPlain.Retransmits {
		t.Errorf("snoop did not reduce sender retransmits: %d vs %d",
			stSnoop.Retransmits, stPlain.Retransmits)
	}
	if tSnoop >= tPlain {
		t.Errorf("snoop did not speed up the transfer: %v vs %v", tSnoop, tPlain)
	}
}

func TestZWSMReducesTimeoutsAcrossDisconnection(t *testing.T) {
	// §8.2.2 disconnection management: a burst sent during an outage
	// stalls on a zero window (persist mode) instead of hammering RTO
	// backoff, and restarts promptly at reconnection.
	run := func(withZWSM bool) (restart time.Duration, st tcp.Stats) {
		r := newRig(t, rigOpts{
			seed:     7,
			wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
		})
		r.cmd(t, r.proxyA, "load tcp")
		r.cmd(t, r.proxyA, "load launcher")
		if withZWSM {
			r.cmd(t, r.proxyA, "load wsize")
			r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp wsize:zwsm:300")
		} else {
			r.cmd(t, r.proxyA, "add launcher 11.11.10.99 0 11.11.10.10 0 tcp")
		}
		var rcvd bytes.Buffer
		doneAt := sim.Time(-1)
		r.mStack.Listen(5001, func(c *tcp.Conn) {
			c.OnData = func(b []byte) {
				rcvd.Write(b)
				if rcvd.Len() == 40_000 {
					doneAt = r.sched.Now()
				}
			}
		})
		client, _ := r.wStack.ConnectFrom(7, mobileAddr, 5001)
		client.OnEstablished = func() { client.Write(pattern(20_000)) }
		r.sched.RunFor(2 * time.Second) // burst 1 delivered, link idle

		r.wless.SetDown(true)
		r.sched.RunFor(time.Second)
		client.Write(pattern(20_000)) // burst 2 during the outage
		r.sched.RunFor(19 * time.Second)
		r.wless.SetDown(false)
		reconnect := r.sched.Now()
		r.sched.RunFor(120 * time.Second)
		if rcvd.Len() != 40_000 {
			t.Fatalf("burst 2 never fully arrived (zwsm=%v): %d bytes, stats %+v",
				withZWSM, rcvd.Len(), client.Stats())
		}
		return doneAt.Sub(reconnect), client.Stats()
	}
	rZ, stZ := run(true)
	rP, stP := run(false)
	t.Logf("zwsm: restart %v, timeouts=%d probes=%d zerowin=%d; plain: restart %v, timeouts=%d",
		rZ, stZ.Timeouts, stZ.PersistProbes, stZ.ZeroWindowSeen, rP, stP.Timeouts)
	if stZ.ZeroWindowSeen == 0 {
		t.Errorf("zwsm: sender never saw the zero window (stats %+v)", stZ)
	}
	if stZ.Timeouts >= stP.Timeouts {
		t.Errorf("zwsm did not reduce sender timeouts: %d vs %d", stZ.Timeouts, stP.Timeouts)
	}
	if rZ >= rP {
		t.Errorf("zwsm restart (%v) not faster than plain (%v)", rZ, rP)
	}
}

func TestDiscardDropsEnhancementLayers(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 5 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load discard")
	r.cmd(t, r.proxyA, "add discard 11.11.10.99 4000 11.11.10.10 4001 1")

	layerCount := map[uint8]int{}
	r.mUDP.Bind(4001, func(src ip.Addr, sp uint16, payload []byte) {
		f, err := media.UnmarshalFrame(payload)
		if err != nil {
			t.Errorf("bad frame: %v", err)
			return
		}
		layerCount[f.Layer]++
	})
	src := media.NewLayeredSource(4, 200, 3)
	var tick func()
	sent := 0
	tick = func() {
		for _, f := range src.Next() {
			r.wUDP.Send(4000, mobileAddr, 4001, media.MarshalFrame(f))
		}
		sent++
		if sent < 50 {
			r.sched.After(40*time.Millisecond, tick)
		}
	}
	r.sched.After(0, tick)
	r.sched.RunFor(10 * time.Second)
	if layerCount[0] != 50 || layerCount[1] != 50 {
		t.Fatalf("base/first layers incomplete: %v", layerCount)
	}
	if layerCount[2] != 0 || layerCount[3] != 0 {
		t.Fatalf("enhancement layers leaked through: %v", layerCount)
	}
}

func TestTranslateMonoTiles(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 5 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load translate")
	r.cmd(t, r.proxyA, "add translate 11.11.10.99 4000 11.11.10.10 4001 mono")

	var rcvdTiles []media.ImageTile
	var rcvdBytes int
	r.mUDP.Bind(4001, func(src ip.Addr, sp uint16, payload []byte) {
		tile, err := media.UnmarshalTile(payload)
		if err != nil {
			t.Errorf("bad tile: %v", err)
			return
		}
		pix := make([]byte, len(tile.Pixels))
		copy(pix, tile.Pixels)
		tile.Pixels = pix
		rcvdTiles = append(rcvdTiles, tile)
		rcvdBytes += len(payload)
	})
	tiles := media.TestImageTiles(64, 64, 8, 5)
	sentBytes := 0
	for _, tile := range tiles {
		b, err := media.MarshalTile(tile)
		if err != nil {
			t.Fatal(err)
		}
		sentBytes += len(b)
		r.wUDP.Send(4000, mobileAddr, 4001, b)
	}
	r.sched.RunFor(10 * time.Second)
	if len(rcvdTiles) != len(tiles) {
		t.Fatalf("received %d of %d tiles", len(rcvdTiles), len(tiles))
	}
	for i, tile := range rcvdTiles {
		if tile.Mode != media.ModeMono {
			t.Fatalf("tile %d still RGB", i)
		}
		want := media.ToMono(tiles[i])
		if !bytes.Equal(tile.Pixels, want.Pixels) {
			t.Fatalf("tile %d luma mismatch", i)
		}
	}
	if rcvdBytes*2 > sentBytes {
		t.Fatalf("translation saved too little: %d -> %d bytes", sentBytes, rcvdBytes)
	}
}

func TestTranslateASCII(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{}})
	r.cmd(t, r.proxyA, "load translate")
	r.cmd(t, r.proxyA, "add translate 11.11.10.99 4000 11.11.10.10 4001 ascii")

	var got []byte
	r.mUDP.Bind(4001, func(src ip.Addr, sp uint16, payload []byte) {
		got = append(got, payload...)
	})
	rich := media.EncodeRich("Hello, mobile world!", 0x42)
	r.wUDP.Send(4000, mobileAddr, 4001, rich)
	r.sched.RunFor(time.Second)
	if string(got) != "Hello, mobile world!" {
		t.Fatalf("ascii translation got %q", got)
	}
}

func TestCacheFilterAnswersRepeats(t *testing.T) {
	// The mobile fetches documents from the wired server; the cache
	// filter on the proxy answers repeats locally (§5.2's partitioned
	// application class).
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond}})
	r.cmd(t, r.proxyA, "load cache")
	// Request direction: mobile -> wired server port 6000.
	r.cmd(t, r.proxyA, "add cache 11.11.10.10 6001 11.11.10.99 6000 64")

	// Wired fetch server.
	served := 0
	r.wUDP.Bind(6000, func(src ip.Addr, sp uint16, payload []byte) {
		key, _, isReq, ok := filters.DecodeFetch(payload)
		if !ok || !isReq {
			return
		}
		served++
		body := bytes.Repeat([]byte(key), 100)
		r.wUDP.Send(6000, src, sp, filters.EncodeFetchResponse(key, body))
	})
	// Mobile client.
	type rcv struct {
		key  string
		body []byte
		at   sim.Time
	}
	var got []rcv
	r.mUDP.Bind(6001, func(_ ip.Addr, _ uint16, payload []byte) {
		key, body, _, ok := filters.DecodeFetch(payload)
		if ok {
			got = append(got, rcv{key, append([]byte(nil), body...), r.sched.Now()})
		}
	})
	send := func(key string) { r.mUDPSend(6001, wiredAddr, 6000, filters.EncodeFetchRequest(key)) }

	send("doc-a")
	r.sched.RunFor(time.Second)
	send("doc-a") // repeat: answered by the proxy
	r.sched.RunFor(time.Second)
	send("doc-b")
	r.sched.RunFor(time.Second)

	if len(got) != 3 {
		t.Fatalf("mobile received %d responses", len(got))
	}
	if served != 2 {
		t.Fatalf("server served %d requests, want 2 (one absorbed by the cache)", served)
	}
	if !bytes.Equal(got[0].body, got[1].body) || got[0].key != "doc-a" {
		t.Fatal("cached response differs from the original")
	}
}

// TestAdaptiveDiscardFollowsBandwidth drives the adaptive-discard
// filter through changing link conditions, with the rig's proxy
// answering filter.Env.Metric from the wireless link's counters. The
// threshold is read from the filter's own shed/restore events, what it
// delivers from the mobile's per-phase layer counts.
func TestAdaptiveDiscardFollowsBandwidth(t *testing.T) {
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 4e6, Delay: 5 * time.Millisecond, QueueLen: 30}})
	bus := obs.NewBus(r.sched, 0)
	r.proxyA.SetObs(bus, nil)
	// Interface 1 is the wireless egress (interface 0 is the wired side).
	r.proxyA.SetMetricSource(func(name string, index int) (float64, bool) {
		switch name {
		case "ifSpeed":
			return float64(r.wless.ConfigAB().Bandwidth), true
		case "ifOutOctets":
			return float64(r.wless.StatsAB().Bytes), true
		}
		return 0, false
	})
	r.cmd(t, r.proxyA, "load adiscard")
	r.cmd(t, r.proxyA, "add adiscard 11.11.10.99 4000 11.11.10.10 4001 0 3")

	// threshold returns the layer threshold the filter last announced
	// (the add's ceiling until it first sheds) and how often it moved.
	threshold := func() (layer, adaptations int) {
		layer = 3
		for _, e := range bus.Events() {
			if e.Subsys != "adiscard" || (e.Kind != "shed" && e.Kind != "restore") {
				continue
			}
			adaptations++
			for _, f := range e.Fields() {
				if f.K == "max-layer" {
					layer, _ = strconv.Atoi(f.Value())
				}
			}
		}
		return layer, adaptations
	}
	phase := 0
	var layerCount [3][4]int // per phase, per layer: frames the mobile got
	r.mUDP.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
		f, err := media.UnmarshalFrame(payload)
		if err == nil {
			layerCount[phase][f.Layer]++
		}
	})
	// 4 layers of 300B base at 25fps: full stream ≈ 0.3+0.6+1.2+2.4KB
	// per 40ms ≈ 900 kb/s — fits in 4 Mb/s, saturates 600 kb/s.
	src := media.NewLayeredSource(4, 300, 9)
	sent := 0
	var tick func()
	tick = func() {
		for _, f := range src.Next() {
			r.mUDPRigSendWired(4000, 4001, media.MarshalFrame(f))
		}
		sent++
		if sent < 500 {
			r.sched.After(40*time.Millisecond, tick)
		}
	}
	r.sched.After(0, tick)

	// Phase 1 (4 Mb/s): everything fits, threshold stays at the ceiling.
	r.sched.RunFor(5 * time.Second)
	if layer, n := threshold(); layer != 3 || n != 0 {
		t.Fatalf("phase 1 threshold %d after %d adaptations, want 3 after 0 (link uncongested)", layer, n)
	}
	if layerCount[0] != [4]int{125, 125, 125, 125} {
		t.Fatalf("phase 1 layer counts %v, want every frame of 125", layerCount[0])
	}

	// Phase 2: the mobile moves to a 600 kb/s cell.
	phase = 1
	r.wless.Shape(netsim.DirBoth, netsim.Shaping{Fields: netsim.ShapeBandwidth, Bandwidth: 600e3})
	r.sched.RunFor(6 * time.Second)
	low, n := threshold()
	if low >= 3 || n == 0 {
		t.Fatalf("phase 2 threshold %d after %d adaptations, want < 3 (link saturated)", low, n)
	}
	// Shedding keeps every base frame of 150 and passes the top layer
	// only until the first shed; without it the queue drops some of each.
	if c := layerCount[1]; c[0] != 150 || 4*c[3] >= 150 {
		t.Fatalf("phase 2 layer counts %v, want 150 base and under a quarter of the top layer", c)
	}

	// Phase 3: back to a fast cell — layers are restored.
	phase = 2
	r.wless.Shape(netsim.DirBoth, netsim.Shaping{Fields: netsim.ShapeBandwidth, Bandwidth: 4e6})
	r.sched.RunFor(6 * time.Second)
	if layer, _ := threshold(); layer <= low {
		t.Fatalf("phase 3 threshold %d did not recover from %d", layer, low)
	}
	if c := layerCount[2]; c[0] != 150 || c[3] <= layerCount[1][3] {
		t.Fatalf("phase 3 layer counts %v, want 150 base and the top layer back above phase 2's %d", c, layerCount[1][3])
	}
	if bus.Total() != uint64(len(bus.Events())) {
		t.Fatalf("bus evicted events: %d retained of %d", len(bus.Events()), bus.Total())
	}
}

func TestCompAndRdropComposeUnderTTSF(t *testing.T) {
	// Two payload-modifying services on the same stream: rdrop excises
	// segments, comp shrinks the survivors; the TTSF must keep both
	// endpoints consistent, and the mobile-side proxy decompresses
	// whatever survives.
	r := newRig(t, rigOpts{
		doubleProxy: true,
		wireless:    netsim.LinkConfig{Bandwidth: 2e6, Delay: 15 * time.Millisecond},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load rdrop", "load comp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf rdrop:30 comp:6"} {
		r.cmd(t, r.proxyA, c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf decomp"} {
		r.cmd(t, r.proxyB, c)
	}
	payload := pattern(150_000)
	got, client := r.transfer(t, payload, 600*time.Second)
	if client.State() != tcp.StateClosed && client.State() != tcp.StateTimeWait {
		t.Fatalf("sender did not complete: %v (stats %+v)", client.State(), client.Stats())
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("delivered %d of %d (expected a proper subset)", len(got), len(payload))
	}
	if !isChunkSubsequence(got, payload) {
		t.Fatal("delivered bytes are not a subsequence of the original")
	}
	t.Logf("rdrop:30 + comp over double proxy: delivered %d of %d bytes, sender clean",
		len(got), len(payload))
}

func TestServiceCompositionViaServiceCommand(t *testing.T) {
	// §10.2.1 composition used end to end: define a 'shrink' service
	// and apply it like a filter.
	r := newRig(t, rigOpts{wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond}})
	for _, c := range []string{"load tcp", "load ttsf", "load rdrop",
		"service shrink tcp ttsf rdrop:50",
		"add shrink 11.11.10.99 0 11.11.10.10 0"} {
		r.cmd(t, r.proxyA, c)
	}
	payload := pattern(100_000)
	got, client := r.transfer(t, payload, 600*time.Second)
	if client.State() != tcp.StateClosed && client.State() != tcp.StateTimeWait {
		t.Fatalf("sender did not complete: %v", client.State())
	}
	if len(got) >= len(payload) || len(got) == 0 {
		t.Fatalf("service composition ineffective: %d of %d", len(got), len(payload))
	}
}
