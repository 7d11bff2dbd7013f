package core

// Resettable is the between-run reset capability of a protocol instance: it
// restores the zero-run state (memory stack, metrics, analysis hooks) and
// reports whether every layer beneath it supported the operation. A false
// return means the instance must be rebuilt from scratch. Instruments are not
// part of that state: ExecuteProto installs each run's own.
type Resettable interface {
	Reset() bool
}

// Arena is a worker-owned cache of protocol instances for batch execution:
// one slot per protocol kind, reused via Reset when the next instance asks for
// the same configuration. Building a protocol allocates the full register
// fabric (O(n²) arrow registers for the Arrow memory), so a worker running
// many same-shaped instances pays that cost once.
//
// An Arena is NOT safe for concurrent use — each batch worker owns its own.
// A reused instance still holds the previous run's instruments until
// ExecuteProto installs the next run's on every layer, absent ones included,
// so a run without a sink, monitor, profiler or meter reports into none.
type Arena struct {
	slots map[Kind]*arenaSlot
}

type arenaSlot struct {
	cfg   Config // the caller's config, pre-defaulting, used as the reuse key
	proto Protocol
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{slots: make(map[Kind]*arenaSlot)}
}

// Protocol returns an instance of the given kind ready to run once: the
// cached one, reset, when the configuration matches exactly and the instance
// supports resetting; a freshly built one (replacing the slot) otherwise.
// cfg.N must be set by the caller.
func (a *Arena) Protocol(kind Kind, cfg Config) (Protocol, error) {
	if s, ok := a.slots[kind]; ok && s.cfg == cfg {
		if r, ok := s.proto.(Resettable); ok && r.Reset() {
			return s.proto, nil
		}
	}
	proto, err := New(kind, cfg)
	if err != nil {
		return nil, err
	}
	a.slots[kind] = &arenaSlot{cfg: cfg, proto: proto}
	return proto, nil
}
