package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runE22(seed int64, w io.Writer) error {
	// Per-phase accounting at the mobile.
	type phase struct {
		name       string
		base, enh  int
		baseOnTime int
		baseSent   int
	}
	var c claims
	run := func(adaptive bool) (*trace.Table, string, []*phase) {
		sys := core.NewSystem(core.Config{
			Seed:     seed,
			Wireless: netsim.LinkConfig{Bandwidth: 4e6, Delay: 10 * time.Millisecond, QueueLen: 30},
		})
		if adaptive {
			sys.MustCommand("load adiscard")
			sys.MustCommand(fmt.Sprintf("add adiscard %v 4000 %v 4001 1 3", core.WiredAddr, core.MobileAddr))
		}

		phases := []*phase{
			{name: "fast cell (4 Mb/s), 0–8 s"},
			{name: "slow cell (600 kb/s), 8–16 s"},
			{name: "fast cell again, 16–24 s"},
		}
		phaseAt := func(t sim.Time) *phase {
			switch {
			case t < sim.Time(8*time.Second):
				return phases[0]
			case t < sim.Time(16*time.Second):
				return phases[1]
			default:
				return phases[2]
			}
		}
		// 25 fps, 4 layers, 300 B base ≈ 900 kb/s full rate; frame n
		// leaves at start + n×interval.
		const frames, interval = 600, 40 * time.Millisecond
		start := sys.Sched.Now()
		sentAt := func(seq uint32) sim.Time { return start.Add(time.Duration(seq) * interval) }
		for n := uint32(0); n < frames; n++ {
			phaseAt(sentAt(n)).baseSent++
		}
		sys.MobileUDP.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
			f, err := media.UnmarshalFrame(payload)
			if err != nil {
				return
			}
			ph := phaseAt(sys.Sched.Now())
			if f.Layer == 0 {
				ph.base++
				if sys.Sched.Now().Sub(sentAt(f.Seq)) < 100*time.Millisecond {
					ph.baseOnTime++
				}
			} else {
				ph.enh++
			}
		})
		workload.StartCBRMedia(sys.Sched, sys.WiredUDP, core.MobileAddr, 4000, 4001, 4, 300, frames, interval, seed)

		sys.Sched.RunFor(8 * time.Second)
		sys.Wireless.Shape(netsim.DirBoth, netsim.Shaping{Fields: netsim.ShapeBandwidth, Bandwidth: 600e3})
		sys.Sched.RunFor(8 * time.Second)
		sys.Wireless.Shape(netsim.DirBoth, netsim.Shaping{Fields: netsim.ShapeBandwidth, Bandwidth: 4e6})
		sys.Sched.RunFor(9 * time.Second)

		mode := "no service"
		if adaptive {
			mode = "adiscard (EEM-driven)"
		}
		t := trace.NewTable(fmt.Sprintf("E22/%s", mode),
			"phase", "base on time", "enh. frames delivered")
		for _, ph := range phases {
			t.AddRow(ph.name, fmt.Sprintf("%d/%d", ph.baseOnTime, ph.baseSent), ph.enh)
		}
		extra := ""
		if adaptive {
			// adiscard emits one shed or restore event per threshold
			// change, carrying the new threshold; the count is only
			// whole if the bus evicted nothing.
			evs := sys.Obs.Events()
			c.check(sys.Obs.Total() == uint64(len(evs)), "E22: want every event retained: %d of %d", len(evs), sys.Obs.Total())
			adaptations, final := 0, "3" // the ceiling the add command set
			for _, e := range evs {
				if e.Subsys != "adiscard" || (e.Kind != "shed" && e.Kind != "restore") {
					continue
				}
				adaptations++
				for _, f := range e.Fields() {
					if f.K == "max-layer" {
						final = f.Value()
					}
				}
			}
			extra = fmt.Sprintf("adaptations: %d, final layer threshold: %s", adaptations, final)
		}
		return t, extra, phases
	}

	t1, _, plain := run(false)
	t1.Fprint(w)
	fmt.Fprintln(w)
	t2, extra, adaptive := run(true)
	t2.Fprint(w)
	if extra != "" {
		fmt.Fprintln(w, extra)
	}
	fmt.Fprintln(w, `
shape check: without the service, the slow cell destroys base-layer timing
(the full stream needs 900 kb/s). The EEM-driven adiscard sheds enhancement
layers on the slow cell, keeps base frames on time through all three phases,
and restores the enhancement layers when the mobile returns to a fast cell —
"minimal operation can continue and regular operation resume" (thesis ch. 6).`)
	slow := plain[1]
	c.check(2*slow.baseOnTime < slow.baseSent,
		"E22: want under half the base frames on time on the slow cell without the service: %d/%d", slow.baseOnTime, slow.baseSent)
	for _, ph := range adaptive {
		c.check(5*ph.baseOnTime >= 4*ph.baseSent,
			"E22: want ≥ 80%% of base frames on time with adiscard in %s: %d/%d", ph.name, ph.baseOnTime, ph.baseSent)
	}
	c.check(adaptive[1].enh < adaptive[0].enh && adaptive[1].enh < adaptive[2].enh,
		"E22: want adiscard to deliver fewer enhancement frames on the slow cell than on either fast one: %d vs %d, %d",
		adaptive[1].enh, adaptive[0].enh, adaptive[2].enh)
	return c.err()
}
