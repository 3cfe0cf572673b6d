package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runE18(seed int64, w io.Writer) error {
	t := trace.NewTable("E18: interactive latency under bulk cross-traffic (500 kb/s wireless, 64 B exchanges)",
		"scenario", "mean latency (ms)", "worst latency (ms)", "exchanges", "bulk KB moved")
	run := func(scenario string, withBulk, withCap bool) (mean time.Duration, bulkBytes int) {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 500e3, Delay: 20 * time.Millisecond, QueueLen: 30},
		})
		sys.MustCommand("load tcp")
		sys.MustCommand(fmt.Sprintf("add tcp 0.0.0.0 0 %v 0", core.MobileAddr))
		if withCap {
			sys.MustCommand("load wsize")
			// The bulk stream goes to port 5002; cap it hard.
			sys.MustCommand(fmt.Sprintf("add wsize 0.0.0.0 0 %v 5002 cap 1460", core.MobileAddr))
		}
		if err := workload.ServeEcho(sys.MobileTCP, 5001); err != nil {
			panic(err)
		}
		bulkCount := 0
		if err := workload.ServeSink(sys.MobileTCP, 5002, &bulkCount); err != nil {
			panic(err)
		}
		iw, err := workload.StartInteractive(sys.Sched, sys.WiredTCP, core.MobileAddr, 5001,
			250*time.Millisecond, 64)
		if err != nil {
			panic(err)
		}
		if withBulk {
			if _, err := workload.StartBulk(sys.WiredTCP, core.MobileAddr, 5002, 4_000_000); err != nil {
				panic(err)
			}
		}
		sys.Sched.RunFor(30 * time.Second)
		iw.Stop()
		t.AddRow(scenario,
			iw.Mean().Seconds()*1000, iw.Max().Seconds()*1000,
			len(iw.Latencies), bulkCount/1000)
		return iw.Mean(), bulkCount
	}
	alone, _ := run("interactive alone", false, false)
	loaded, _ := run("with bulk, no service", true, false)
	capped, bulk := run("with bulk, wsize cap on bulk", true, true)
	t.Fprint(w)
	fmt.Fprintln(w, `
shape check: the uncontrolled bulk stream fills the base-station queue and
multiplies interactive latency; capping its window restores latency to near
the unloaded value while the bulk stream continues in the background —
exactly BSSP's "more bandwidth and smaller delay" for priority streams.`)
	var c claims
	c.check(loaded > 2*alone, "E18: want bulk traffic to more than double interactive latency: %v vs %v alone", loaded, alone)
	c.check(4*capped <= 5*alone, "E18: want the capped latency within 25%% of the unloaded value: %v vs %v", capped, alone)
	c.check(bulk > 0, "E18: want the capped bulk stream to keep moving: %d B", bulk)
	return c.err()
}
