package filters

import (
	"bytes"
	"strconv"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/udp"
)

// cache implements the application-partitioning service class of
// thesis §5.2 ("a service filter can include part of the code of an
// application... The software running on the proxy can also be used as
// an agent"): the proxy caches fetch responses and answers repeated
// requests itself, cutting both wired-link traffic and response
// latency for the mobile.
//
// It services the repository's toy fetch protocol over UDP:
//
//	request : 'R' <key bytes>
//	response: 'D' <key bytes> 0x00 <body bytes>
//
// The key names the request direction (mobile → wired server).
// Argument: maximum number of cached entries (default 128).
type cacheFilter struct{}

// NewCache returns the cache filter factory.
func NewCache() filter.Factory { return &cacheFilter{} }

func (*cacheFilter) Name() string              { return "cache" }
func (*cacheFilter) Priority() filter.Priority { return filter.Normal }
func (*cacheFilter) Description() string {
	return "answers repeated fetch-protocol requests from a proxy-side cache"
}

// Fetch protocol tags.
const (
	fetchRequest  = 'R'
	fetchResponse = 'D'
)

// EncodeFetchRequest builds a request datagram payload.
func EncodeFetchRequest(key string) []byte {
	return append([]byte{fetchRequest}, key...)
}

// EncodeFetchResponse builds a response datagram payload.
func EncodeFetchResponse(key string, body []byte) []byte {
	out := append([]byte{fetchResponse}, key...)
	out = append(out, 0)
	return append(out, body...)
}

// DecodeFetch splits a fetch datagram into its parts. body is nil for
// requests; ok is false for non-fetch payloads.
func DecodeFetch(p []byte) (key string, body []byte, isRequest, ok bool) {
	if len(p) < 2 {
		return "", nil, false, false
	}
	switch p[0] {
	case fetchRequest:
		return string(p[1:]), nil, true, true
	case fetchResponse:
		i := bytes.IndexByte(p[1:], 0)
		if i < 0 {
			return "", nil, false, false
		}
		return string(p[1 : 1+i]), p[2+i:], false, true
	}
	return "", nil, false, false
}

type cacheInst struct {
	env      filter.Env
	maxEntry int
	entries  map[string][]byte
	order    []string // FIFO eviction
}

func (f *cacheFilter) New(env filter.Env, k filter.Key, args []string) error {
	maxEntry := 128
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			return errBadCacheSize(args[0])
		}
		maxEntry = v
	}
	inst := &cacheInst{env: env, maxEntry: maxEntry, entries: make(map[string][]byte)}
	detachRev, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "cache", Priority: filter.Normal,
		In: inst.storeResponse,
	})
	if err != nil {
		return err
	}
	_, err = env.Attach(k, filter.Hooks{
		Filter: "cache", Priority: filter.Normal,
		Out:     inst.answerRequest,
		OnClose: detachRev,
	})
	if err != nil {
		detachRev()
	}
	return err
}

type badCacheSize string

func errBadCacheSize(s string) error { return badCacheSize(s) }
func (b badCacheSize) Error() string { return "cache: bad size " + strconv.Quote(string(b)) }

// answerRequest intercepts requests heading to the wired server; hits
// are answered from the cache (the request never crosses the wired
// path), misses pass through.
func (inst *cacheInst) answerRequest(p *filter.Packet) {
	if p.Dropped() || p.UDP == nil {
		return
	}
	key, _, isReq, ok := DecodeFetch(p.UDP.Payload)
	if !ok || !isReq {
		return
	}
	body, hit := inst.entries[key]
	if !hit {
		return
	}
	p.Drop()
	// Answer on the server's behalf: swap the datagram's direction.
	resp := udp.Datagram{
		SrcPort: p.UDP.DstPort, DstPort: p.UDP.SrcPort,
		Payload: EncodeFetchResponse(key, body),
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoUDP, Src: p.IP.Dst, Dst: p.IP.Src}
	raw, err := h.Marshal(resp.Marshal(p.IP.Dst, p.IP.Src))
	if err != nil {
		inst.env.Emit("cache", "marshal-failed", p.Key, obs.F("err", err.Error()))
		return
	}
	p.Inject(raw)
}

// storeResponse learns bodies from responses flowing back to the
// mobile.
func (inst *cacheInst) storeResponse(p *filter.Packet) {
	if p.UDP == nil {
		return
	}
	key, body, isReq, ok := DecodeFetch(p.UDP.Payload)
	if !ok || isReq {
		return
	}
	if _, exists := inst.entries[key]; !exists {
		if len(inst.order) >= inst.maxEntry {
			oldest := inst.order[0]
			inst.order = inst.order[1:]
			delete(inst.entries, oldest)
		}
		inst.order = append(inst.order, key)
	}
	inst.entries[key] = append([]byte(nil), body...)
}
