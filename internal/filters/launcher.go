package filters

import (
	"fmt"

	"repro/internal/filter"
)

// launcher is the thesis's launcher filter: registered on a wild-card
// key, it "adds filters to new streams which match its wild-card key"
// (§5.3.2). Its arguments name the services to apply; each may carry
// its own arguments separated by colons, e.g.
//
//	add launcher 0.0.0.0 0 11.11.10.10 0 tcp wsize:cap:4096
type launcher struct {
	// specs holds each service spec parsed once, not once per stream:
	// New sees the same few argument strings for every flow that
	// matches its registrations.
	specs map[string]filter.Spec
}

// NewLauncher returns the launcher filter factory.
func NewLauncher() filter.Factory { return &launcher{specs: make(map[string]filter.Spec)} }

func (*launcher) Name() string { return "launcher" }
func (*launcher) Description() string {
	return "applies configured services to each new matching stream"
}

func (f *launcher) New(env filter.Env, k filter.Key, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("launcher: no services configured")
	}
	for _, spec := range args {
		svc, ok := f.specs[spec]
		if !ok {
			svc = filter.ParseSpec(spec)
			f.specs[spec] = svc
		}
		if err := env.Spawn(svc.Name, k, svc.Args); err != nil {
			return fmt.Errorf("launcher: spawn %s on %v: %w", svc.Name, k, err)
		}
	}
	return nil
}
