package proxy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/filter"
)

// This file implements the layered service abstraction of thesis
// §10.2.1 ("a high-level service abstraction... users would deal with
// services rather than individual filters"): a named composition of
// filters that can be defined once and applied to stream keys like a
// single filter. A service spec is a list of `filter[:arg[:arg...]]`
// entries, the same syntax the launcher takes.

// serviceDef is a named filter composition.
type serviceDef struct {
	name   string
	specs  []string
	parsed []filter.Spec // specs, split once at definition
}

// DefineService registers (or replaces) a named composition. Every
// referenced filter must already be loaded.
func (p *Proxy) DefineService(name string, specs []string) error {
	if len(specs) == 0 {
		return fmt.Errorf("proxy: service %q has no filters", name)
	}
	if _, clash := p.pool[name]; clash {
		return fmt.Errorf("proxy: %q is a loaded filter, not a service name", name)
	}
	parsed := make([]filter.Spec, len(specs))
	for i, spec := range specs {
		parsed[i] = filter.ParseSpec(spec)
		if _, ok := p.pool[parsed[i].Name]; !ok {
			return fmt.Errorf("proxy: service %q references unloaded filter %q", name, parsed[i].Name)
		}
	}
	if p.services == nil {
		p.services = make(map[string]*serviceDef)
	}
	p.services[name] = &serviceDef{name: name, specs: specs, parsed: parsed}
	return nil
}

// UndefineService removes a service definition. Existing attachments
// made through it are left in place (they belong to the filters).
func (p *Proxy) UndefineService(name string) error {
	if _, ok := p.services[name]; !ok {
		return fmt.Errorf("proxy: no service %q", name)
	}
	delete(p.services, name)
	return nil
}

// ServiceListing renders the defined services, sorted by name, one
// "name = composition" line each.
func (p *Proxy) ServiceListing() string {
	names := make([]string, 0, len(p.services))
	for n := range p.services {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s = %s\n", n, strings.Join(p.services[n].specs, " "))
	}
	return b.String()
}

// applyService instantiates every filter of a service on the given
// exact key, in spec order.
func (p *Proxy) applyService(d *serviceDef, k filter.Key) error {
	for _, spec := range d.parsed {
		if err := p.Spawn(spec.Name, k, spec.Args); err != nil {
			return fmt.Errorf("proxy: service %s: %w", d.name, err)
		}
	}
	return nil
}

// serviceFactory adapts a service definition to the filter.Factory
// interface so AddFilter/registry machinery (wild-card keys, report)
// works unchanged for services.
type serviceFactory struct {
	p *Proxy
	d *serviceDef
}

func (f *serviceFactory) Name() string { return f.d.name }
func (f *serviceFactory) Description() string {
	return "service: " + strings.Join(f.d.specs, " ")
}
func (f *serviceFactory) New(env filter.Env, k filter.Key, args []string) error {
	return f.p.applyService(f.d, k)
}
