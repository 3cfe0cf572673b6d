package dataplane

import (
	"repro/internal/filter"
	"repro/internal/proxy"
)

// Stream migration support: keyed extract/restore operations that ride
// the quiesce/epoch barrier, so a stream is frozen and released (or
// installed) exactly at a batch boundary of the shard that owns it. No
// packet of the stream is ever mid-filter while its state is being
// serialized.

// ExtractStream freezes stream k on its owning shard, serializes its
// bindings and filter state, and releases the shard's ownership of it.
// See proxy.ExtractStream.
func (pl *Plane) ExtractStream(k filter.Key) (*proxy.StreamExport, error) {
	var (
		ex  *proxy.StreamExport
		err error
	)
	pl.exec.on(ShardOf(k, pl.n), func(p *proxy.Proxy) { ex, err = p.ExtractStream(k) })
	pl.epoch.Add(1)
	return ex, err
}

// ValidateImport runs the destination-side admission check for an
// offered stream on the shard that would own it, without installing
// anything.
func (pl *Plane) ValidateImport(ex *proxy.StreamExport) error {
	var err error
	pl.exec.on(ShardOf(ex.Key, pl.n), func(p *proxy.Proxy) { err = p.ValidateImport(ex) })
	return err
}

// RestoreStream installs an extracted stream on the shard that owns its
// key. On failure the partial install is torn down before returning, so
// a failed restore leaves the plane unchanged.
func (pl *Plane) RestoreStream(ex *proxy.StreamExport) error {
	var err error
	pl.exec.on(ShardOf(ex.Key, pl.n), func(p *proxy.Proxy) {
		err = p.ImportStream(ex)
		if err != nil {
			p.DropStream(ex.Key)
		}
	})
	pl.epoch.Add(1)
	return err
}

// StreamBindings counts the exact-key registrations bound to k or its
// reverse on the owning shard — the migration ownership measure.
func (pl *Plane) StreamBindings(k filter.Key) int {
	var n int
	pl.exec.on(ShardOf(k, pl.n), func(p *proxy.Proxy) { n = p.StreamBindings(k) })
	return n
}
