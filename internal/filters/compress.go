package filters

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// comp transparently compresses TCP payloads crossing toward the
// wireless link (thesis §8.1.6). Each segment payload is framed
// independently so the complementary decomp filter — deployed on a
// second proxy at the far side of the wireless link (the double-proxy
// arrangement of §10.2.4) — can invert it packet by packet. A TTSF on
// the same stream remaps sequence numbers around the size changes.
//
// Frame format (1-byte tag):
//
//	0x00 <raw bytes>        stored (compression would not help)
//	0x01 <deflate stream>   compressed
//
// Argument: flate level 1..9 (default 6).
type comp struct{}

// NewCompress returns the comp filter factory.
func NewCompress() filter.Factory { return &comp{} }

func (*comp) Name() string { return "comp" }
func (*comp) Description() string {
	return "transparent per-segment payload compression (pair with decomp + ttsf)"
}

// Frame tags.
const (
	tagStored     = 0x00
	tagCompressed = 0x01
)

// writers pools deflate writers by level (flate.HuffmanOnly..
// BestCompression, offset by two). Building one costs several hundred
// kilobytes of tables; Reset is documented to leave it in the state
// NewWriter would, so a recycled writer frames byte-identical output.
var writers [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// readers pools inflaters, reset onto each frame through flate.Resetter.
var readers sync.Pool

// CompressPayload frames one payload, compressing when it helps.
// Exported for the experiment harness and the decomp tests.
func CompressPayload(payload []byte, level int) []byte {
	var buf bytes.Buffer
	buf.WriteByte(tagCompressed)
	err := deflate(&buf, payload, level)
	if err != nil || buf.Len() >= len(payload)+1 {
		out := make([]byte, len(payload)+1)
		out[0] = tagStored
		copy(out[1:], payload)
		return out
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

// deflate compresses payload onto buf at level with a pooled writer.
func deflate(buf *bytes.Buffer, payload []byte, level int) error {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return fmt.Errorf("comp: bad level %d", level)
	}
	pool := &writers[level-flate.HuffmanOnly]
	w, _ := pool.Get().(*flate.Writer)
	if w == nil {
		w, _ = flate.NewWriter(buf, level) // level is valid
	} else {
		w.Reset(buf)
	}
	_, err := w.Write(payload)
	if err == nil {
		err = w.Close()
	}
	pool.Put(w)
	return err
}

// inflate decompresses a deflate stream with a pooled reader.
func inflate(stream []byte) ([]byte, error) {
	src := bytes.NewReader(stream)
	r, _ := readers.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(src)
	} else if err := r.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, err
	}
	out, err := io.ReadAll(r)
	r.Close()
	readers.Put(r)
	return out, err
}

// DecompressPayload inverts CompressPayload.
func DecompressPayload(framed []byte) ([]byte, error) {
	if len(framed) == 0 {
		return nil, fmt.Errorf("comp: empty frame")
	}
	switch framed[0] {
	case tagStored:
		out := make([]byte, len(framed)-1)
		copy(out, framed[1:])
		return out, nil
	case tagCompressed:
		out, err := inflate(framed[1:])
		if err != nil {
			return nil, fmt.Errorf("comp: inflate: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("comp: unknown frame tag %#x", framed[0])
	}
}

func (f *comp) New(env filter.Env, k filter.Key, args []string) error {
	level := 6
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 || v > 9 {
			return fmt.Errorf("comp: bad level %q (want 1..9)", args[0])
		}
		level = v
	}
	_, err := env.Attach(k, filter.Hooks{
		Filter: "comp", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.Dropped() || p.TCP == nil || len(p.TCP.Payload) == 0 {
				return
			}
			if p.TCP.Flags&(tcp.FlagSYN|tcp.FlagFIN|tcp.FlagRST) != 0 {
				return
			}
			framed := CompressPayload(p.TCP.Payload, level)
			p.TCP.Payload = framed
			p.MarkDirty()
		},
	})
	return err
}

// decomp inverts comp on the far side of the wireless link.
type decomp struct{}

// NewDecompress returns the decomp filter factory.
func NewDecompress() filter.Factory { return &decomp{} }

func (*decomp) Name() string { return "decomp" }
func (*decomp) Description() string {
	return "inverts the comp filter's per-segment framing"
}

func (f *decomp) New(env filter.Env, k filter.Key, args []string) error {
	_, err := env.Attach(k, filter.Hooks{
		Filter: "decomp", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.Dropped() || p.TCP == nil || len(p.TCP.Payload) == 0 {
				return
			}
			if p.TCP.Flags&(tcp.FlagSYN|tcp.FlagFIN|tcp.FlagRST) != 0 {
				return
			}
			out, err := DecompressPayload(p.TCP.Payload)
			if err != nil {
				env.Emit("decomp", "passthrough", k, obs.F("err", err.Error()))
				return
			}
			p.TCP.Payload = out
			p.MarkDirty()
		},
	})
	return err
}
