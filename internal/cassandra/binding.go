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

	// free recycles the records of finished operations.
	free netsim.FreeList[opRecord]
}

// opRecord is the state of one SubmitOperation for the life of its protocol
// actor, in place of a closure per hop: the actor body and the read's view
// sink are methods bound once, when the record is built, and every later
// operation that takes the record off the free list reuses them. The actor
// returns the record as its last act, and nothing else ever does — an
// invocation the client library timed out is abandoned, not recycled: its
// actor runs on until the fault heals, its late views are refused by the
// closed Correctable, and only then does the record go back.
type opRecord struct {
	b      *Binding
	op     binding.Operation
	levels core.Levels
	cb     binding.Callback

	run  func()         // r.exec: the actor body
	view func(ReadView) // r.emit: the read's view sink
}

func (b *Binding) getRecord() *opRecord {
	r := b.free.Take()
	if r == nil {
		r = &opRecord{b: b}
		r.run, r.view = r.exec, r.emit
	}
	return r
}

// putRecord recycles r, cleared of the operation's references.
func (b *Binding) putRecord(r *opRecord) {
	r.op, r.levels, r.cb = nil, nil, nil
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

// SubmitOperation implements binding.Binding. The client library bounds
// each invocation with the binding's DefaultOpTimeout (model time); the
// protocol below has no deadline of its own, and a late completion's views
// are refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	r := b.getRecord()
	r.op, r.levels, r.cb = op, levels, cb
	b.clock().Go(r.run)
}

// exec is the operation's protocol actor.
func (r *opRecord) exec() {
	switch o := r.op.(type) {
	case binding.Get:
		r.get(o.Key)
	case binding.Put:
		r.put(o)
	default:
		r.cb(binding.Result{Err: fmt.Errorf("%w: cassandra has no %q", binding.ErrUnsupportedOperation, r.op.OpName())})
	}
	r.b.putRecord(r)
}

// clock returns the cluster's simulation clock.
func (b *Binding) clock() netsim.Clock { return b.client.cluster.tr.Clock() }

func (r *opRecord) get(key string) {
	b := r.b
	wantWeak := r.levels.Contains(core.LevelWeak)
	wantStrong := r.levels.Contains(core.LevelStrong)
	var err error
	switch {
	case wantWeak && wantStrong && b.client.cluster.cfg.Correctable:
		// One request, two responses (preliminary + final), each at the
		// level it carries.
		err = b.client.Read(key, b.cfg.StrongQuorum, true, r.view)
	case wantStrong:
		// A vanilla store serves a two-level request here too: its final
		// view alone closes the Correctable.
		err = b.client.Read(key, b.cfg.StrongQuorum, false, r.view)
	case wantWeak:
		err = b.client.Read(key, 1, false, r.view)
	default:
		err = fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, r.levels)
	}
	if err != nil {
		r.cb(binding.Result{Err: err})
	}
}

// emit is the record's view sink: one read view to the binding callback. The
// last view of a request goes out at the strongest level it asked for,
// whatever quorum served it — a strong level configured as R=1 still closes
// the Correctable, a weak-only request is answered weak. ReadView.Value is
// the replica's immutable buffer and goes out as is, shared (see
// binding.Result).
func (r *opRecord) emit(v ReadView) {
	level := v.Level
	if v.Final {
		level = r.levels.Strongest()
	}
	r.cb(binding.Result{Value: v.Value, Level: level, Version: v.Version.Token()})
}

func (r *opRecord) put(op binding.Put) {
	// Writes use W=WriteQuorum regardless of the requested read levels; the
	// single acknowledgment closes the Correctable at the strongest
	// requested level, carrying the committed version's token.
	v, err := r.b.client.write(op.Key, op.Value, r.b.cfg.WriteQuorum)
	if err != nil {
		r.cb(binding.Result{Err: err})
		return
	}
	r.cb(binding.Result{Value: nil, Level: r.levels.Strongest(), Version: v.Token()})
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
