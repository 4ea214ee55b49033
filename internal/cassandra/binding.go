package cassandra

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// BindingConfig tunes the Correctables binding for a cassandra cluster.
type BindingConfig struct {
	// StrongQuorum is the read quorum used for LevelStrong reads (the
	// paper's CC2 uses 2, CC3 uses 3). Default 2.
	StrongQuorum int
	// WriteQuorum is the write quorum (paper: 1). Default 1.
	WriteQuorum int
}

func (b BindingConfig) withDefaults() BindingConfig {
	if b.StrongQuorum == 0 {
		b.StrongQuorum = 2
	}
	if b.WriteQuorum == 0 {
		b.WriteQuorum = 1
	}
	return b
}

// Binding adapts a cassandra Client to the Correctables binding API. It
// offers two consistency levels: weak (R=1, the coordinator's local state)
// and strong (R=StrongQuorum, LWW-reconciled); views carry LWW version
// tokens. When both levels are requested on a Correctable cluster, a single
// storage request yields both views (server-side ICG, §5.2). A vanilla
// cluster has no preliminary flush, so it answers a two-level request with
// its strong read alone: one request, one final view, the same contract as
// a Correctable read whose preliminary was lost.
type Binding struct {
	client *Client
	cfg    BindingConfig

	// free recycles the records of finished operations (see opRecord).
	free netsim.FreeList[opRecord]
}

func (b *Binding) getRecord() *opRecord {
	r := b.free.Take()
	if r == nil {
		r = newRecord(b.client)
		r.b = b
	}
	return r
}

// putRecord recycles r, cleared of the operation's references.
func (b *Binding) putRecord(r *opRecord) {
	r.clear()
	b.free.Put(r)
}

var _ binding.Binding = (*Binding)(nil)

// NewBinding wraps client.
func NewBinding(client *Client, cfg BindingConfig) *Binding {
	return &Binding{client: client, cfg: cfg.withDefaults()}
}

// Client returns the underlying storage client.
func (b *Binding) Client() *Client { return b.client }

// ConsistencyLevels implements binding.Binding.
func (b *Binding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}

// SubmitOperation implements binding.Binding. The operation is a record
// whose first step takes the ready slot a spawned actor would (Clock.Run).
// The client library bounds each invocation with the binding's
// DefaultOpTimeout (model time); the protocol below has no deadline of its
// own, and a late completion's views are refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	r := b.getRecord()
	r.op, r.levels, r.cb = op, levels, cb
	r.state = opBegin
	b.clock().Run(r.step)
}

// clock returns the cluster's simulation clock.
func (b *Binding) clock() netsim.Clock { return b.client.cluster.tr.Clock() }

// decode makes the record the read or write its request asks for, or answers
// the request with the error that it cannot be served and reports false.
func (r *opRecord) decode() bool {
	b := r.b
	var err error
	switch o := r.op.(type) {
	case binding.Get:
		wantWeak := r.levels.Contains(core.LevelWeak)
		wantStrong := r.levels.Contains(core.LevelStrong)
		switch {
		case wantWeak && wantStrong && b.client.cluster.cfg.Correctable:
			// One request, two responses (preliminary + final), each at the
			// level it carries.
			r.setRead(o.Key, b.cfg.StrongQuorum, true)
		case wantStrong:
			// A vanilla store serves a two-level request here too: its final
			// view alone closes the Correctable.
			r.setRead(o.Key, b.cfg.StrongQuorum, false)
		case wantWeak:
			r.setRead(o.Key, 1, false)
		default:
			err = fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, r.levels)
		}
		if err == nil {
			err = b.client.checkQuorum("read", r.quorum)
		}
	case binding.Put:
		// Writes use W=WriteQuorum regardless of the requested read levels.
		r.setWrite(o.Key, o.Value, b.cfg.WriteQuorum)
		err = b.client.checkQuorum("write", r.quorum)
	default:
		err = fmt.Errorf("%w: cassandra has no %q", binding.ErrUnsupportedOperation, r.op.OpName())
	}
	if err != nil {
		r.cb(binding.Result{Err: err})
		return false
	}
	return true
}

// emit is the record's view sink: one read view to the binding callback. The
// last view of a request goes out at the strongest level it asked for,
// whatever quorum served it — a strong level configured as R=1 still closes
// the Correctable, a weak-only request is answered weak. The value goes out
// in the box the store made when its bytes came in, shared (see
// binding.Result), so a view costs no allocation. An absent value still
// goes out as a []byte: []byte(nil), whose box costs nothing either.
func (r *opRecord) emit(v ReadView) {
	level := v.Level
	if v.Final {
		level = r.levels.Strongest()
	}
	value := v.Version.wire
	if value == nil {
		value = []byte(nil)
	}
	r.cb(binding.Result{Value: value, Level: level, Version: v.Version.Token()})
}

// acknowledge answers a write: the single acknowledgment closes the
// Correctable at the strongest requested level, carrying the committed
// version's token.
func (r *opRecord) acknowledge() {
	r.cb(binding.Result{Value: nil, Level: r.levels.Strongest(), Version: r.local.Token()})
}

// Scheduler implements binding.Binding: Correctables over this binding run
// on the cluster's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.client.cluster.tr.Clock())
}

// DefaultOpTimeout implements binding.TimeoutProvider: under fault
// injection each invocation is bounded by the cluster's OpTimeout of model
// time (the fault-free path stays unbounded and unchanged).
func (b *Binding) DefaultOpTimeout() time.Duration {
	if b.client.cluster.tr.Interceptor() == nil {
		return 0
	}
	return b.client.cluster.cfg.OpTimeout
}
