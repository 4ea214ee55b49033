// Package history records client-side operation histories through the
// binding.Observer hook and checks them: session guarantees
// (read-your-writes, monotonic reads, writes-follow-reads) by comparing
// the version tokens bindings stamp on every view, and linearizability
// (Wing & Gong) against sequential object models for registers and queues.
//
// Linearizability is checked per object (it is local: per-object verdicts
// compose), and each object's history in segments: at a quiescent instant,
// where every earlier op returned strictly before the next one is called,
// every linearization orders all earlier ops first, so the search cuts the
// history there and carries the object's state across the cut. An op that
// returns at the very instant the next is called is no cut (the later op
// may still be linearized first), and neither is anything after an
// ambiguous op, which never returns; CheckLinearizable has the details.
//
// The recorder attaches to clients with binding.WithObserver; everything it
// sees — operation identity, per-view consistency levels and version
// tokens, model-time timestamps — is deterministic under a VirtualClock,
// so the same seed produces a byte-identical serialized history, and any
// violation is a complete reproduction recipe: the seed plus the minimal
// witness subsequence the checkers report ("On the Limits of Causal
// Observation": consistency checked purely from recorded client-side
// observations, which a deterministic simulator captures completely).
package history

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// View is one recorded view of an operation.
type View struct {
	// Level is the consistency level the view satisfied.
	Level core.Level
	// Final marks the closing view.
	Final bool
	// Version is the view's per-object version token (binding.Result).
	Version uint64
	// At is the model-time delivery instant.
	At time.Duration
	// Note is a compact rendering of the view value: the element identity
	// of queue items (the queue checkers' input), a short printable prefix
	// of byte values, "" otherwise.
	Note string
}

// noteOf compacts a view value into its recorded note. A byte value longer
// than noteRunes is cut to its first noteRunes runes, as fmt's "%.16s"
// cuts a []byte (an invalid byte counts as one rune and is kept as it is),
// and followed by "…(<len>B)": one allocation, the note itself.
func noteOf(v any) string {
	switch val := v.(type) {
	case binding.Item:
		if !val.Exists {
			return ""
		}
		return val.ID
	case []byte:
		if len(val) <= noteRunes {
			return string(val)
		}
		var buf [maxLongNote]byte
		return string(appendLongNote(buf[:0], val))
	default:
		return ""
	}
}

// noteAfter is noteOf(v) for a view whose operation's previous view has the
// note prev. A byte value that renders as prev again (for a long value: the
// same length and the same head) gets prev itself, so the op's views share
// one string; the comparison renders on the stack and allocates nothing.
func noteAfter(v any, prev string) string {
	if b, ok := v.([]byte); ok && prev != "" {
		if len(b) <= noteRunes {
			if string(b) == prev {
				return prev
			}
		} else if len(prev) > noteRunes {
			var buf [maxLongNote]byte
			if string(appendLongNote(buf[:0], b)) == prev {
				return prev
			}
		}
	}
	return noteOf(v)
}

// maxLongNote bounds a long note's bytes: noteRunes runes of up to four
// bytes, "…(", at most 20 digits and "B)".
const maxLongNote = noteRunes*utf8.UTFMax + len("…(") + 20 + len("B)")

// appendLongNote appends the note of a byte value longer than noteRunes to
// dst: its first noteRunes runes, then "…(<len>B)".
func appendLongNote(dst, b []byte) []byte {
	dst = append(dst, b[:runePrefix(b, noteRunes)]...)
	dst = append(dst, "…("...)
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	return append(dst, "B)"...)
}

// noteRunes is how many runes of a byte value a note keeps.
const noteRunes = 16

// runePrefix returns the length in bytes of b's first n runes, decoded as
// utf8.DecodeRune does: an invalid byte is a rune of width one.
func runePrefix(b []byte, n int) int {
	i := 0
	for ; n > 0 && i < len(b); n-- {
		if b[i] < utf8.RuneSelf {
			i++
			continue
		}
		_, w := utf8.DecodeRune(b[i:])
		i += w
	}
	return i
}

// Op is one recorded operation: identity, interval, outcome, views.
type Op struct {
	// ID is the per-client invocation sequence number.
	ID uint64
	// Client is the issuing client's label (binding.WithLabel).
	Client string
	// Name is the operation name ("get", "put", "enqueue", ...).
	Name string
	// Key is the replicated-object identity ("" for unkeyed operations).
	Key string
	// Mutating classifies the operation as state-changing.
	Mutating bool
	// Start is the model-time invocation instant.
	Start time.Duration
	// End is the model-time terminal instant (0 if the run ended with the
	// operation still in flight — see Done).
	End time.Duration
	// Err is the terminal error text ("" for success). A non-empty Err on
	// a mutating operation means the mutation is ambiguous: it may or may
	// not have taken effect (checkers treat it accordingly).
	Err string
	// Done reports that a terminal transition was observed.
	Done bool
	// Views are the delivered views in delivery order.
	Views []View
}

// Completed reports a successfully finished operation.
func (o *Op) Completed() bool { return o.Done && o.Err == "" }

// FinalView returns the closing view, if any.
func (o *Op) FinalView() (View, bool) {
	for _, v := range o.Views {
		if v.Final {
			return v, true
		}
	}
	return View{}, false
}

// String renders the operation as one line of the serialized history.
func (o *Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d %s(%s) [%v,", o.Client, o.ID, o.Name, o.Key, o.Start)
	if o.Done {
		fmt.Fprintf(&b, "%v]", o.End)
	} else {
		b.WriteString("...]")
	}
	for _, v := range o.Views {
		fmt.Fprintf(&b, " %v:v%d@%v", v.Level, v.Version, v.At)
		if v.Note != "" {
			fmt.Fprintf(&b, "=%s", v.Note)
		}
		if v.Final {
			b.WriteString("!")
		}
	}
	if o.Err != "" {
		fmt.Fprintf(&b, " err=%q", o.Err)
	}
	return b.String()
}

// opRef identifies an in-flight operation within the recorder.
type opRef struct {
	client string
	id     binding.OpID
}

// Recorder is a binding.Observer that records complete per-operation
// histories. One recorder may serve any number of clients — but each MUST
// carry a distinct binding.WithLabel: in-flight operations are routed by
// (label, per-client OpID), so two unlabeled clients would merge each
// other's events. The recorder detects that collision instead of silently
// corrupting the history: the evicted record is closed with a label-
// collision error and Collisions() reports the count (checkers would
// otherwise verify interleaved garbage). Under a VirtualClock all
// callbacks are totally ordered, so the recorded op order (and hence
// SerializeOps output) is deterministic per seed.
//
// Operations are stored by value in arenas: chunks of ops, and chunks of
// views in which every op has two slots of its own (the two views of an
// incremental invocation), handed out with a full slice expression so that
// a third view moves the op's views out through append. Both grow
// geometrically, from arenaFirst ops to arenaMax, so a recorder that sees
// few operations stays small and one that sees millions allocates once per
// arenaMax of them.
type Recorder struct {
	mu sync.Mutex
	// ops is the op arena's current chunk and full the chunks before it,
	// in recording order. A chunk is never re-allocated, so the pointers
	// in open stay valid; views is the view arena's current chunk. Each
	// chunk's free room is s[len(s):cap(s)].
	full       [][]Op
	ops        []Op
	views      []View
	n          int
	open       map[opRef]*Op
	collisions int
}

// arenaFirst and arenaMax bound an arena chunk, in ops: the first holds
// arenaFirst, each later one twice the one before, up to arenaMax.
const (
	arenaFirst = 16
	arenaMax   = 1024
)

// viewSlots is the number of views an op records in the view arena.
const viewSlots = 2

// errLabelCollision marks a record evicted by a same-ref OpStart.
const errLabelCollision = "history: evicted by a second client with the same label (give each client a distinct binding.WithLabel)"

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{open: map[opRef]*Op{}}
}

var _ binding.Observer = (*Recorder)(nil)

// Collisions reports how many in-flight records were evicted because two
// clients shared a label. Any nonzero count means the history is not
// trustworthy; fix the labels.
func (r *Recorder) Collisions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.collisions
}

// nextChunk is the capacity, in ops, of the arena chunk after one of
// capacity last (0: none yet).
func nextChunk(last int) int {
	return min(max(2*last, arenaFirst), arenaMax)
}

// alloc appends a zero op to the arena and returns it, with its view slots.
// Callers hold r.mu.
func (r *Recorder) alloc() *Op {
	if len(r.ops) == cap(r.ops) {
		if r.ops != nil {
			r.full = append(r.full, r.ops)
		}
		r.ops = make([]Op, 0, nextChunk(cap(r.ops)))
	}
	if cap(r.views)-len(r.views) < viewSlots {
		r.views = make([]View, 0, viewSlots*nextChunk(cap(r.views)/viewSlots))
	}
	r.ops = r.ops[:len(r.ops)+1]
	k := len(r.views)
	r.views = r.views[:k+viewSlots]
	rec := &r.ops[len(r.ops)-1]
	rec.Views = r.views[k : k : k+viewSlots]
	r.n++
	return rec
}

// OpStart implements binding.Observer.
func (r *Recorder) OpStart(op binding.OpInfo) {
	ref := opRef{op.Client, op.ID}
	r.mu.Lock()
	if old := r.open[ref]; old != nil {
		// Two clients share a label: fail loudly instead of merging their
		// event streams into one record.
		old.Done = true
		old.Err = errLabelCollision
		r.collisions++
	}
	rec := r.alloc()
	rec.ID = uint64(op.ID)
	rec.Client = op.Client
	rec.Name = op.Name
	rec.Key = op.Key
	rec.Mutating = op.Mutating
	rec.Start = op.Start
	r.open[ref] = rec
	r.mu.Unlock()
}

// OpView implements binding.Observer.
func (r *Recorder) OpView(op binding.OpInfo, v binding.OpView) {
	r.mu.Lock()
	if rec := r.open[opRef{op.Client, op.ID}]; rec != nil {
		prev := ""
		if n := len(rec.Views); n > 0 {
			prev = rec.Views[n-1].Note
		}
		rec.Views = append(rec.Views, View{
			Level: v.Level, Final: v.Final, Version: v.Version, At: v.At, Note: noteAfter(v.Value, prev),
		})
	}
	r.mu.Unlock()
}

// OpEnd implements binding.Observer.
func (r *Recorder) OpEnd(op binding.OpInfo, at time.Duration, err error) {
	r.mu.Lock()
	ref := opRef{op.Client, op.ID}
	if rec := r.open[ref]; rec != nil {
		rec.Done = true
		rec.End = at
		if err != nil {
			rec.Err = err.Error()
		}
		delete(r.open, ref)
	}
	r.mu.Unlock()
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Ops returns a snapshot of the recorded operations in a deterministic
// order: by start time, then client, then per-client sequence number.
// (The raw append order is already deterministic under a VirtualClock;
// the explicit sort makes the contract independent of recording order.)
//
// The snapshot copies the ops, in one allocation, and shares their views
// with the recorder: each op's Views is capped at its length, so a view
// the recorder takes later for an op that is still open is not seen by
// the snapshot and cannot write into it. The snapshot is read-only: its
// views are the recorder's, so neither a caller nor a checker writes them.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	out := make([]Op, 0, r.n)
	for _, c := range r.full {
		out = append(out, c...)
	}
	out = append(out, r.ops...)
	r.mu.Unlock()
	for i := range out {
		v := out[i].Views
		out[i].Views = v[:len(v):len(v)]
	}
	slices.SortStableFunc(out, func(a, b Op) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Client, b.Client); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// SerializeOps renders a history snapshot (as returned by Ops) as
// deterministic text, one operation per line.
func SerializeOps(ops []Op) []byte {
	var b strings.Builder
	for i := range ops {
		b.WriteString(ops[i].String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
