package filters

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/obs"
)

// translate implements data-type translation (thesis §8.3.3):
// converting data to a more compact representation whose semantic
// content survives — "images can be converted from colour to
// monochrome, or text from PostScript to ASCII".
//
// It services UDP streams. Modes:
//
//	mono  — media.ImageTile payloads: RGB → monochrome (3× smaller)
//	ascii — rich-text payloads: strip style bytes (2× smaller)
type translate struct{}

// NewTranslate returns the translate filter factory.
func NewTranslate() filter.Factory { return &translate{} }

func (*translate) Name() string              { return "translate" }
func (*translate) Priority() filter.Priority { return filter.Low }
func (*translate) Description() string {
	return "data-type translation: 'mono' (RGB→mono tiles) or 'ascii' (rich text→ASCII)"
}

func (f *translate) New(env filter.Env, k filter.Key, args []string) error {
	mode := "mono"
	if len(args) > 0 {
		mode = args[0]
	}
	if mode != "mono" && mode != "ascii" {
		return fmt.Errorf("translate: unknown mode %q (want mono or ascii)", mode)
	}
	_, err := env.Attach(k, filter.Hooks{
		Filter: "translate", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.Dropped() || p.UDP == nil || len(p.UDP.Payload) == 0 {
				return
			}
			in := p.UDP.Payload
			var out []byte
			switch mode {
			case "mono":
				tile, err := media.UnmarshalTile(in)
				if err != nil || tile.Mode != media.ModeRGB {
					return
				}
				conv, err := media.MarshalTile(media.ToMono(tile))
				if err != nil {
					return
				}
				out = conv
			case "ascii":
				out = media.RichToASCII(in)
			}
			p.UDP.Payload = out
			p.MarkDirty()
			// UDP streams have no tcp bookkeeping filter to repair
			// checksums; this filter re-marshals its own work.
			if err := p.Remarshal(); err != nil {
				env.Emit("translate", "remarshal-failed", k, obs.F("err", err.Error()))
				p.Drop()
			}
		},
	})
	return err
}
