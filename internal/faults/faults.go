// Package faults is the deterministic fault-injection plane: scripted
// link flaps, asymmetric partitions, quality degradation, and EEM
// server crashes, all driven off the simulation scheduler so a fault
// script is part of the reproducible experiment — two runs with
// the same seed inject the same faults at the same virtual instants and
// must produce byte-identical event logs.
//
// The package has two halves: the Injector (this file) schedules faults
// against live components, and the "chaos" filter (chaosfilter.go)
// injects faults *inside* the Service Proxy's filter queues — panics,
// insertion failures, deterministic drop and delay — to exercise the
// proxy's isolation and quarantine machinery. Chaos (chaos.go) composes
// both into the soak scenario behind `wsim -exp chaos`.
package faults

import (
	"time"

	"repro/internal/eem"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Injector schedules scripted faults on the simulation clock. Every
// injection and recovery is emitted on the event bus under the "faults"
// subsystem, so the fault script is visible in the same ordered log as
// the system's reaction to it.
type Injector struct {
	sched *sim.Scheduler
	bus   *obs.Bus
}

// NewInjector returns an injector driving faults off sched and logging
// them to bus (nil bus = silent injection).
func NewInjector(sched *sim.Scheduler, bus *obs.Bus) *Injector {
	return &Injector{sched: sched, bus: bus}
}

func (in *Injector) emit(kind, key string, fields ...obs.Field) {
	in.bus.Emit("faults", kind, key, fields...)
}

// FlapLink takes the whole link down at now+at and restores it after
// outage — the thesis's disconnection/handoff gap. Packets in flight
// when the link drops are lost.
func (in *Injector) FlapLink(name string, l *netsim.Link, at, outage time.Duration) {
	in.sched.After(at, func() {
		l.SetDown(true)
		in.emit("link-down", name, obs.F("outage_ms", int(outage/time.Millisecond)))
	})
	in.sched.After(at+outage, func() {
		l.SetDown(false)
		in.emit("link-up", name)
	})
}

// PartitionAB blackholes only the a→b direction for outage — an
// asymmetric failure where one side keeps hearing the other (the
// classic "mobile can receive but not send" radio pathology).
func (in *Injector) PartitionAB(name string, l *netsim.Link, at, outage time.Duration) {
	in.sched.After(at, func() {
		l.SetDownAB(true)
		in.emit("partition-ab", name, obs.F("outage_ms", int(outage/time.Millisecond)))
	})
	in.sched.After(at+outage, func() {
		l.SetDownAB(false)
		in.emit("heal-ab", name)
	})
}

// DegradeLink drops both directions of the link to bps bandwidth
// under the given loss model at now+at, restoring each direction's
// previous bandwidth and loss model after dur. The previous values are
// captured per direction when the degradation fires, so a degrade
// scheduled over an already-degraded (or asymmetrically shaped) link
// restores exactly what it found.
func (in *Injector) DegradeLink(name string, l *netsim.Link, at, dur time.Duration, bps int64, loss netsim.LossModel) {
	in.sched.After(at, func() {
		prevAB, prevBA := l.ShapingAB(), l.ShapingBA()
		degraded := netsim.Shaping{
			Fields: netsim.ShapeBandwidth | netsim.ShapeLoss, Bandwidth: bps, Loss: loss,
		}
		l.Shape(netsim.DirBoth, degraded)
		in.emit("link-degrade", name,
			obs.F("bps", bps), obs.F("dur_ms", int(dur/time.Millisecond)))
		in.sched.After(dur, func() {
			restore := netsim.ShapeBandwidth | netsim.ShapeLoss
			l.Shape(netsim.DirAB, netsim.Shaping{Fields: restore, Bandwidth: prevAB.Bandwidth, Loss: prevAB.Loss})
			l.Shape(netsim.DirBA, netsim.Shaping{Fields: restore, Bandwidth: prevBA.Bandwidth, Loss: prevBA.Loss})
			in.emit("link-restore", name, obs.F("bps", prevAB.Bandwidth))
		})
	})
}

// CrashEEM hard-crashes the EEM server at now+at (all client
// connections are severed with a reset) and restarts it after outage.
// Supervised clients are expected to back off, redial, and re-register
// their interests — the soak scenario asserts they do.
func (in *Injector) CrashEEM(name string, srv *eem.Server, at, outage time.Duration) {
	in.sched.After(at, func() {
		srv.Crash()
		in.emit("eem-crash", name, obs.F("outage_ms", int(outage/time.Millisecond)))
	})
	in.sched.After(at+outage, func() {
		srv.Restart()
		in.emit("eem-restart", name)
	})
}

// ArmMigrationFault arms a one-shot fault point inside a migration
// manager at now+at: "drop-offer" and "corrupt-offer" attack the
// snapshot in flight, "crash-pre-commit" and "crash-post-commit" kill
// the source manager on either side of its ack boundary. The migration
// protocol's ownership invariant — each attempt ends completed on the
// destination or resumed on the source, never both, never neither —
// must hold through any of them.
func (in *Injector) ArmMigrationFault(name string, m *migrate.Manager, at time.Duration, point string) {
	in.sched.After(at, func() {
		m.ArmFault(point)
		in.emit("migrate-arm", name, obs.F("point", point))
	})
}

// RestartMigration restarts a crashed migration manager at now+at; the
// manager replays its journal (resume uncommitted transfers, re-drive
// committed ones).
func (in *Injector) RestartMigration(name string, m *migrate.Manager, at time.Duration) {
	in.sched.After(at, func() {
		m.Restart()
		in.emit("migrate-restart", name)
	})
}
