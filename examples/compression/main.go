// Compression: transparent stream compression over a slow wireless
// link, the thesis §8.1.6 service deployed double-proxy (§10.2.4).
// Neither endpoint knows anything happened: the comp filter shrinks
// segment payloads at the base station, the TTSF keeps both sequence
// spaces consistent, and the decomp filter restores the bytes on the
// far side.
//
// The example transfers the same document with and without the
// service and compares wireless bytes and transfer time.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

func run(withCompression bool) (wirelessBytes int64, elapsed time.Duration, intact bool) {
	sys := core.NewSystem(core.Config{
		Topology: core.TopoDouble,
		Wireless: netsim.LinkConfig{Bandwidth: 500e3, Delay: 30 * time.Millisecond},
	})
	sys.MustCommand("load tcp")
	sys.Peer.MustCommand("load tcp")
	if withCompression {
		for _, c := range []string{"load ttsf", "load comp", "load launcher",
			fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf comp:6", core.WiredAddr, core.MobileAddr)} {
			sys.MustCommand(c)
		}
		for _, c := range []string{"load ttsf", "load decomp", "load launcher",
			fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf decomp", core.WiredAddr, core.MobileAddr)} {
			sys.Peer.MustCommand(c)
		}
	} else {
		sys.MustCommand("load launcher")
		sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr))
	}

	doc := bytes.Repeat([]byte("Proxy architectures provide a solution to both protocol- and application-level problems. "), 2000)
	res, err := sys.Transfer(doc, 7, 5001, 30*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	return sys.Wireless.StatsAB().Bytes, res.Elapsed, bytes.Equal(res.Received, doc)
}

func main() {
	plainBytes, plainTime, ok1 := run(false)
	compBytes, compTime, ok2 := run(true)
	fmt.Println("180 KB document over a 500 kb/s wireless link:")
	fmt.Printf("  without service: %7d B on the air, %8v, intact=%v\n", plainBytes, plainTime, ok1)
	fmt.Printf("  with comp+ttsf:  %7d B on the air, %8v, intact=%v\n", compBytes, compTime, ok2)
	fmt.Printf("  wireless bytes saved: %.0f%%, speedup: %.1fx\n",
		100*(1-float64(compBytes)/float64(plainBytes)),
		plainTime.Seconds()/compTime.Seconds())
	fmt.Println("\nneither endpoint was modified or even informed — the filters are controlled")
	fmt.Println("entirely at the proxy (add/delete via the SP interface or the Kati shell).")
}
