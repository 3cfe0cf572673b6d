package dataplane_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// TestRingReuseSparesCallerBuffers: a shard gives the datagrams its
// proxy re-marshals back to its node's free list once the sink has
// returned, and must never give back a caller's buffer. The caller's
// buffers here have a recycled buffer's capacity (1536 bytes), so the
// free list would take one if it were released; half the flows pass
// through (tcp alone leaves them clean, so the output is the caller's
// buffer) and half are edited (tcp+det re-marshals them into recycled
// buffers), interleaved in small batches on two shards. Every output
// of a pass-through flow must be its caller's buffer, untouched; no
// output of an edited flow may be a caller's buffer; and once the
// plane has drained, every caller's buffer still holds what was
// dispatched in it. Under the race detector netsim poisons released
// buffers, so a release of a caller's buffer also shows at once.
func TestRingReuseSparesCallerBuffers(t *testing.T) {
	const (
		flows   = 8
		perFlow = 150
		payload = 200
		srcBase = 2000
	)
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	cat.Register("det", func() filter.Factory { return &detFilter{} })
	// Flows alternate in pairs between passing through and being
	// edited: the plane steers these keys by source-port parity, so
	// each shard carries both kinds (checked below).
	edited := func(f int) bool { return f&2 != 0 }

	var sent, orig [][]byte
	callers := make(map[*byte]int)
	for i := 0; i < perFlow; i++ {
		for f := 0; f < flows; f++ {
			raw := mkSeg(t, uint16(srcBase+f), uint32(1+i*payload), bytes.Repeat([]byte{byte(f + i)}, payload))
			b := make([]byte, len(raw), 1536)
			copy(b, raw)
			callers[&b[0]] = len(sent)
			sent = append(sent, b)
			orig = append(orig, raw)
		}
	}

	var bad atomic.Int64
	var passed, rewritten [2]atomic.Int64 // per shard
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 2, Catalog: cat, Seed: 11, RingSize: 16, BatchSize: 8,
		Sink: func(shard int, out [][]byte) {
			for _, d := range out {
				f := int(binary.BigEndian.Uint16(d[20:])) - srcBase // mkSeg's TCP source port
				i, caller := callers[&d[0]]
				switch {
				case !edited(f) && caller && bytes.Equal(d, orig[i]):
					passed[shard].Add(1)
				case !edited(f):
					t.Errorf("flow %d passes through, but its output is not its caller's intact buffer (caller %v)", f, caller)
					bad.Add(1)
				case caller:
					t.Errorf("flow %d is edited, but its output is caller buffer %d", f, i)
					bad.Add(1)
				default:
					h, seg, err := ip.Unmarshal(d)
					if err != nil || !tcp.VerifyChecksum(h.Src, h.Dst, seg) || len(seg) != tcp.HeaderLen+payload-1 {
						t.Errorf("flow %d: edited output is not a valid segment one byte short: % x", f, d)
						bad.Add(1)
						continue
					}
					rewritten[shard].Add(1)
				}
			}
		},
	})
	defer pl.Close()
	cmds := []string{"load tcp", "load det"}
	for f := 0; f < flows; f++ {
		k := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", srcBase+f)
		cmds = append(cmds, "add tcp "+k)
		if edited(f) {
			cmds = append(cmds, "add det "+k)
		}
	}
	for _, c := range cmds {
		if out := pl.Command(c); strings.HasPrefix(out, "error") {
			t.Fatalf("%s: %s", c, out)
		}
	}
	for _, b := range sent {
		pl.Dispatch(b)
		if bad.Load() > 10 {
			t.FailNow()
		}
	}
	pl.Drain()

	for i, b := range sent {
		if !bytes.Equal(b, orig[i]) {
			t.Fatalf("caller buffer %d was overwritten after dispatch", i)
		}
	}
	// det drops every third packet of its stream and shortens the rest.
	wantPassed, wantEdited := int64(flows/4*perFlow), int64(flows/4*(perFlow-perFlow/3))
	for sh := range passed {
		if p, e := passed[sh].Load(), rewritten[sh].Load(); p != wantPassed || e != wantEdited {
			t.Fatalf("shard %d: %d pass-through and %d edited outputs, want %d and %d", sh, p, e, wantPassed, wantEdited)
		}
	}
}
