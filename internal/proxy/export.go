// Stream export/import: the proxy half of live proxy-to-proxy stream
// migration. ExportStream serializes what one exact stream key owns on
// this proxy — its exact-key registry entries (both directions), the
// per-filter state of every attachment implementing
// filter.StateSnapshotter, and the queue accounting — into a plain
// value the migration codec frames for the wire. ExtractStream is the
// destructive variant (export, then release ownership); ImportStream
// rebinds an export on the destination proxy.
//
// Only exact-key registrations travel: wild-card registrations service
// many streams and stay where they are. Attachments spawned without an
// exact registration (the launcher's per-stream spawns, wild-card
// instantiations) therefore migrate as fresh instances if the
// destination's own registry matches them, or not at all — the fail-open
// choice, matching the filter-quarantine philosophy: a stream must never
// be wedged by its services.
package proxy

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/obs"
)

// BindingExport is one exact-key registry entry of a migrating stream.
type BindingExport struct {
	Filter string
	Key    filter.Key
	Args   []string
}

// FilterState is the serialized per-stream state of one snapshottable
// attachment. Ordinal disambiguates multiple attachments of the same
// filter on the same key (queue order, counting only snapshotters).
type FilterState struct {
	Filter  string
	Key     filter.Key
	Ordinal uint16
	State   []byte
}

// StreamExport is everything one stream key owns on a proxy, in a form
// a peer can rebind. Key is the forward (serviced) direction; bindings
// and states may reference Key or Key.Reverse().
type StreamExport struct {
	Key      filter.Key
	Bindings []BindingExport
	States   []FilterState
	// Queue accounting for both directions, restored so per-stream
	// byte/packet counters survive the migration.
	Pkts, Bytes       int64
	RevPkts, RevBytes int64
}

// ExportStream serializes stream k without mutating the proxy. The
// stream must have a live filter queue in the forward direction.
// Owning-goroutine only.
func (p *Proxy) ExportStream(k filter.Key) (*StreamExport, error) {
	if k.IsWild() {
		return nil, fmt.Errorf("proxy: cannot export wild-card key %v", k)
	}
	q, _ := p.queues.Get(k)
	if q == nil {
		return nil, fmt.Errorf("proxy: %w %v", ErrNoSuchStream, k)
	}
	ex := &StreamExport{Key: k, Pkts: q.pkts, Bytes: q.bytes}
	if rq, _ := p.queues.Get(k.Reverse()); rq != nil {
		ex.RevPkts, ex.RevBytes = rq.pkts, rq.bytes
	}
	for _, r := range p.registry {
		if r.key == k || r.key == k.Reverse() {
			args := append([]string(nil), r.args...)
			ex.Bindings = append(ex.Bindings, BindingExport{
				Filter: r.factory.Name(), Key: r.key, Args: args,
			})
		}
	}
	for _, qk := range []filter.Key{k, k.Reverse()} {
		sq, _ := p.queues.Get(qk)
		if sq == nil {
			continue
		}
		ordinals := make(map[string]uint16)
		for _, a := range sq.attached {
			if a.hooks.State == nil || a.quarantined {
				continue
			}
			ord := ordinals[a.hooks.Filter]
			ordinals[a.hooks.Filter] = ord + 1
			b, err := a.hooks.State.SnapshotState()
			if err != nil {
				// Fail open: the filter migrates fresh rather than
				// wedging the whole stream's migration.
				p.Emit("proxy", "snapshot-failed", qk, obs.F("filter", a.hooks.Filter), obs.F("err", err.Error()))
				continue
			}
			ex.States = append(ex.States, FilterState{
				Filter: a.hooks.Filter, Key: qk, Ordinal: ord, State: b,
			})
		}
	}
	return ex, nil
}

// ExtractStream exports stream k and then releases this proxy's
// ownership of it: the exact-key registrations are removed and both
// directions' filter queues are torn down (OnClose fires, so filters
// release their process-global state). The stream's packets pass
// through unserviced from the next interception on. Owning-goroutine
// only.
func (p *Proxy) ExtractStream(k filter.Key) (*StreamExport, error) {
	ex, err := p.ExportStream(k)
	if err != nil {
		return nil, err
	}
	p.DropStream(k)
	p.Emit("proxy", "stream-extract", k,
		obs.F("bindings", len(ex.Bindings)), obs.F("states", len(ex.States)))
	return ex, nil
}

// ValidateImport checks that every binding of ex could instantiate
// here: the filter is loaded or loadable from the catalog. It is the
// destination-side OFFER check, run before the source commits.
func (p *Proxy) ValidateImport(ex *StreamExport) error {
	if ex.Key.IsWild() {
		return fmt.Errorf("proxy: cannot import wild-card key %v", ex.Key)
	}
	for _, b := range ex.Bindings {
		if b.Key != ex.Key && b.Key != ex.Key.Reverse() {
			return fmt.Errorf("proxy: import binding %s keyed %v outside stream %v",
				b.Filter, b.Key, ex.Key)
		}
		if _, loaded := p.pool[b.Filter]; loaded {
			continue
		}
		if _, isSvc := p.services[b.Filter]; isSvc {
			continue
		}
		if _, err := p.catalog.Load(b.Filter); err != nil {
			return fmt.Errorf("proxy: import: %w", err)
		}
	}
	return nil
}

// ImportStream rebinds an exported stream on this proxy: filters not
// yet in the pool are loaded from the catalog, every exported binding
// is registered and instantiated (exact keys instantiate immediately),
// snapshotted per-filter state is restored onto the matching
// attachments, and the queue accounting carries over. Owning-goroutine
// only. On error the partial import is dropped (DropStream) before
// returning, so a failed import leaves the stream unbound here.
func (p *Proxy) ImportStream(ex *StreamExport) (err error) {
	defer func() {
		if err != nil {
			p.DropStream(ex.Key)
		}
	}()
	if err := p.ValidateImport(ex); err != nil {
		return err
	}
	for _, b := range ex.Bindings {
		if _, loaded := p.pool[b.Filter]; !loaded {
			if _, isSvc := p.services[b.Filter]; !isSvc {
				if _, err := p.LoadFilter(b.Filter); err != nil {
					return fmt.Errorf("proxy: import load %s: %w", b.Filter, err)
				}
			}
		}
		if err := p.AddFilter(b.Filter, b.Key, b.Args); err != nil {
			return fmt.Errorf("proxy: import add %s on %v: %w", b.Filter, b.Key, err)
		}
	}
	for _, fs := range ex.States {
		a := p.findSnapshotter(fs.Filter, fs.Key, fs.Ordinal)
		if a == nil {
			// The binding that owned this state did not reattach here
			// (launcher spawn, differing args): fresh instance, fail open.
			p.Emit("proxy", "state-orphaned", fs.Key, obs.F("filter", fs.Filter), obs.F("ordinal", fs.Ordinal))
			continue
		}
		if err := a.hooks.State.RestoreState(fs.State); err != nil {
			return fmt.Errorf("proxy: restore %s on %v: %w", fs.Filter, fs.Key, err)
		}
	}
	if q, _ := p.queues.Get(ex.Key); q != nil {
		q.pkts, q.bytes = ex.Pkts, ex.Bytes
	}
	if rq, _ := p.queues.Get(ex.Key.Reverse()); rq != nil {
		rq.pkts, rq.bytes = ex.RevPkts, ex.RevBytes
	}
	p.Emit("proxy", "stream-import", ex.Key,
		obs.F("bindings", len(ex.Bindings)), obs.F("states", len(ex.States)))
	return nil
}

// DropStream releases stream k unconditionally: exact-key
// registrations in both directions are stripped and any live filter
// queues torn down. ExtractStream uses it after a successful export,
// ImportStream to clean up after a failed one. Owning-goroutine only.
func (p *Proxy) DropStream(k filter.Key) {
	keep := p.registry[:0]
	for _, r := range p.registry {
		if r.key == k || r.key == k.Reverse() {
			continue
		}
		keep = append(keep, r)
	}
	p.registry = keep
	p.registryChanged()
	p.RemoveStream(k)
	p.RemoveStream(k.Reverse())
}

// findSnapshotter locates the ordinal'th snapshottable attachment of
// the named filter on key k, in queue order.
func (p *Proxy) findSnapshotter(name string, k filter.Key, ordinal uint16) *attachment {
	q, _ := p.queues.Get(k)
	if q == nil {
		return nil
	}
	var ord uint16
	for _, a := range q.attached {
		if a.hooks.Filter != name || a.hooks.State == nil {
			continue
		}
		if ord == ordinal {
			return a
		}
		ord++
	}
	return nil
}

// StreamBindings counts the exact-key registrations bound to k or its
// reverse — the ownership measure the migration invariant checks (live
// queues come and go with TCP connections; registrations persist).
// Owning-goroutine only.
func (p *Proxy) StreamBindings(k filter.Key) int {
	n := 0
	for _, r := range p.registry {
		if r.key == k || r.key == k.Reverse() {
			n++
		}
	}
	return n
}
