// Package filters implements the Comma stream-service filters of
// thesis chapters 5 and 8:
//
//   - tcp: bookkeeping — checksum repair for modified packets and
//     filter-queue teardown at stream close (§5.3.2).
//   - launcher: applies a configured set of services to each new
//     stream matching its wild-card key (§5.3.2).
//   - ttsf: the TCP-Transparency-Support Filter — sequence-space
//     remapping that lets other filters drop, shrink, or grow segment
//     payloads without breaking end-to-end TCP semantics (§8.1).
//   - rdrop: random permanent payload drop, a TTSF demonstration
//     service (§8.1.5).
//   - comp / decomp: transparent payload compression and its inverse,
//     the §8.1.6 example (pair them across a double-proxy deployment).
//   - snoop: TCP-aware link-layer caching with local retransmission
//     and duplicate-ACK suppression (§8.2.1).
//   - wsize: BSSP-style receive-window rewriting — stream
//     prioritization and zero-window-size-message (ZWSM)
//     disconnection management (§8.2.2).
//   - mwin: milliProxy-style delay-aware window sizing — the wsize
//     idea generalized from a static clamp to a controller tracking
//     the measured wireless-side bandwidth-delay product (PAPERS.md).
//   - discard: hierarchical discard of layered real-time media
//     (§8.3.2).
//   - cache: proxy-side response cache for the toy fetch protocol —
//     the application-partitioning service class of §5.2.
//   - adiscard: EEM-driven adaptive hierarchical discard — the
//     adaptive service the monitor chapter exists to enable.
//   - translate: data-type translation of media streams, e.g. colour
//     to monochrome (§8.3.3).
package filters

import "repro/internal/filter"

// PriorityTTSF sits between the service filters (Low/Normal) and the
// tcp bookkeeping filter (High): on the out queue the TTSF rewrites
// sequence numbers after the services have modified the payload, and
// the tcp filter repairs checksums after that.
const PriorityTTSF filter.Priority = 60

// RegisterAll registers every filter in this package with the catalog,
// the moral equivalent of a directory of loadable filter libraries.
func RegisterAll(c *filter.Catalog) {
	c.Register("tcp", func() filter.Factory { return NewTCPFilt() })
	c.Register("launcher", func() filter.Factory { return NewLauncher() })
	c.Register("rdrop", func() filter.Factory { return NewRDrop() })
	c.Register("wsize", func() filter.Factory { return NewWSize() })
	c.Register("mwin", func() filter.Factory { return NewMWin() })
	c.Register("snoop", func() filter.Factory { return NewSnoop() })
	c.Register("ttsf", func() filter.Factory { return NewTTSF() })
	c.Register("comp", func() filter.Factory { return NewCompress() })
	c.Register("decomp", func() filter.Factory { return NewDecompress() })
	c.Register("discard", func() filter.Factory { return NewDiscard() })
	c.Register("cache", func() filter.Factory { return NewCache() })
	c.Register("adiscard", func() filter.Factory { return NewADiscard() })
	c.Register("translate", func() filter.Factory { return NewTranslate() })
}
