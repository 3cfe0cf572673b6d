package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runE20(seed int64, w io.Writer) error {
	t := trace.NewTable("E20: 30 fetches of 10 documents (10 KB each) from the mobile",
		"scenario", "mean latency (ms)", "wired-link KB", "server requests")
	run := func(withCache bool) (meanMS float64, wiredKB int64, served int) {
		sys := core.NewSystem(core.Config{
			Seed: seed,
			// Slow, distant wired path: the thesis's motivation for
			// placing application agents at the proxy.
			Wire:     netsim.LinkConfig{Bandwidth: 1e6, Delay: 50 * time.Millisecond},
			Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
		})
		if withCache {
			sys.MustCommand("load cache")
			sys.MustCommand(fmt.Sprintf("add cache %v 6001 %v 6000 64", core.MobileAddr, core.WiredAddr))
		}
		sys.WiredUDP.Bind(6000, func(src ip.Addr, sp uint16, payload []byte) {
			key, _, isReq, ok := filters.DecodeFetch(payload)
			if !ok || !isReq {
				return
			}
			served++
			body := bytes.Repeat([]byte(key+"|"), 10_000/(len(key)+1))
			sys.WiredUDP.Send(6000, src, sp, filters.EncodeFetchResponse(key, body))
		})

		var latencies []time.Duration
		pending := sim.Time(-1)
		sys.MobileUDP.Bind(6001, func(_ ip.Addr, _ uint16, payload []byte) {
			if _, _, isReq, ok := filters.DecodeFetch(payload); ok && !isReq && pending >= 0 {
				latencies = append(latencies, sys.Sched.Now().Sub(pending))
				pending = -1
			}
		})

		// 30 fetches over 10 distinct documents (Zipf-ish repetition).
		docs := []string{"a", "b", "a", "c", "a", "b", "d", "a", "e", "b",
			"a", "f", "a", "b", "c", "g", "a", "b", "h", "a",
			"i", "a", "b", "c", "a", "j", "b", "a", "d", "a"}
		for _, d := range docs {
			pending = sys.Sched.Now()
			sys.MobileUDP.Send(6001, core.WiredAddr, 6000, filters.EncodeFetchRequest("doc-"+d))
			sys.Sched.RunFor(2 * time.Second)
		}

		for _, l := range latencies {
			meanMS += l.Seconds() * 1000
		}
		if len(latencies) > 0 {
			meanMS /= float64(len(latencies))
		}
		wiredKB = (sys.Wired.Ifaces()[0].Link().StatsAB().Bytes +
			sys.Wired.Ifaces()[0].Link().StatsBA().Bytes) / 1000
		scenario := "no service"
		if withCache {
			scenario = "cache filter at proxy"
		}
		t.AddRow(scenario, meanMS, wiredKB, served)
		return meanMS, wiredKB, served
	}
	noMS, noKB, noServed := run(false)
	cacheMS, cacheKB, cacheServed := run(true)
	t.Fprint(w)
	fmt.Fprintln(w, `
shape check: two thirds of the fetches repeat a document; the proxy-side
cache absorbs them, cutting the slow wired path out of the loop — lower
latency for the mobile and a fraction of the wired traffic, with the server
untouched (§5.2's "single administrative point" acting as the application's
agent).`)
	var c claims
	c.check(cacheMS < noMS, "E20: want lower mean latency with the cache: %.1f vs %.1f ms", cacheMS, noMS)
	c.check(2*cacheKB < noKB, "E20: want under half the wired traffic with the cache: %d vs %d KB", cacheKB, noKB)
	c.check(noServed == 30 && cacheServed == 10,
		"E20: want the server to see 30 requests without the cache and the 10 distinct documents with it: %d, %d", noServed, cacheServed)
	return c.err()
}
