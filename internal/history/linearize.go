package history

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// LinOp is one operation of a linearizability history: an invocation
// interval plus the model-specific input/output.
type LinOp struct {
	// Kind is the operation kind the model interprets ("put", "get",
	// "enqueue", "dequeue").
	Kind string
	// Version is the register token written/read (register model).
	Version uint64
	// Elem is the queue element identity (queue model; "" for an
	// empty-queue dequeue observation).
	Elem string
	// Call and Return bound the operation's real-time interval. Incomplete
	// operations have Return = forever.
	Call   time.Duration
	Return time.Duration
	// Optional marks an ambiguous operation (a mutation that timed out and
	// may or may not have taken effect): the search may apply it anywhere
	// after Call or omit it entirely.
	Optional bool
	// Source is the recorded op behind this entry (witness rendering; nil
	// for hand-built histories).
	Source *Op
}

// forever is the Return of incomplete operations.
const forever = time.Duration(math.MaxInt64)

// Model is a sequential object specification over canonically encoded
// states. Encodings must be canonical: equal states encode equally (the
// search memoizes on them).
type Model interface {
	// Init returns the initial state encoding.
	Init() string
	// Step applies op to state, reporting the successor state and whether
	// the op is legal there.
	Step(state string, op *LinOp) (string, bool)
}

// LinResult is the outcome of a linearizability check.
type LinResult struct {
	// Ok reports that a linearization exists.
	Ok bool
	// Inconclusive reports that the search could not decide: it exhausted
	// its configuration budget, or the history holds a segment of more than
	// 512 operations (callers should report it, but it is not a violation).
	Inconclusive bool
	// Witness is, for violations, a minimal frontier: the operations that
	// could not be linearized past the deepest consistent prefix. They all
	// lie in one segment.
	Witness []Op
	// configs counts the configurations the search visited (what the
	// budget bounds).
	configs int
}

// defaultBudget bounds the search in visited configurations over one
// object; histories from the fault studies are far below it, pathological
// ones degrade to Inconclusive instead of hanging.
const defaultBudget = 2_000_000

// maxSegment is the widest segment the search takes on. Segments end at
// quiescent instants, so only an ambiguous op (which never returns) or a
// long unbroken stretch of overlapping operations makes one this wide; far
// beyond it no budget decides, and the check says so instead of burning the
// budget.
const maxSegment = 512

// segBits is the linearized subset of one segment (bit j: its j-th op).
type segBits [maxSegment / 64]uint64

// linConfig is a memoized search configuration: the segment, the subset of
// it already linearized (everything before the segment is), and the
// object's state.
type linConfig struct {
	seg   int
	bits  segBits
	state string
}

// CheckLinearizable runs the Wing & Gong algorithm, with Lowe's memoization
// of configurations, over one object's history. budget <= 0 selects the
// default.
//
// The call-sorted history is first cut into segments at its quiescent
// instants: a cut falls before an op when every earlier op returned
// strictly before its call. Every linearization then orders all of a
// segment's ops before all of the next one's, so the search runs segment by
// segment, each from an end state of the one before. A segment yields
// another end state only when a later segment fails from the first. On a
// tie (one op returns at the instant the next is called) nothing is cut,
// because an op called at t may still be linearized before one returning at
// t. An ambiguous (Optional) op never returns, so no cut falls after it.
// The memo is keyed by (segment, linearized subset of it, state), a one-op
// segment is taken by a single Step with no memo entry, and the budget is
// counted over the whole object. The search visits configurations in the
// order the undivided one (a memo over the whole object's subset) does and
// never more of them, so wherever that search decides, this one returns
// the same verdict and witness.
func CheckLinearizable(m Model, ops []LinOp, budget int) LinResult {
	if budget <= 0 {
		budget = defaultBudget
	}
	if len(ops) == 0 {
		return LinResult{Ok: true}
	}
	slices.SortStableFunc(ops, func(a, b LinOp) int { return cmp.Compare(a.Call, b.Call) })

	// bounds[k] is the first op of segment k; the last entry is len(ops).
	bounds := []int{0}
	maxReturn := ops[0].Return
	for i := 1; i < len(ops); i++ {
		if maxReturn < ops[i].Call {
			bounds = append(bounds, i)
		}
		maxReturn = max(maxReturn, ops[i].Return)
	}
	bounds = append(bounds, len(ops))
	for k := 1; k < len(bounds); k++ {
		if bounds[k]-bounds[k-1] > maxSegment {
			return LinResult{Inconclusive: true}
		}
	}

	s := linSearch{m: m, ops: ops, bounds: bounds, budget: budget, best: -1}
	ok := s.enter(0, m.Init())
	res := LinResult{Ok: ok, configs: s.visited}
	switch {
	case ok:
	case s.visited > budget:
		res.Inconclusive = true
	default:
		for _, i := range s.frontier {
			if src := ops[i].Source; src != nil {
				res.Witness = append(res.Witness, *src)
			}
		}
	}
	return res
}

// linSearch is one object's segmented search.
type linSearch struct {
	m      Model
	ops    []LinOp
	bounds []int
	// bits is the linearized subset of the segment being searched.
	bits    segBits
	memo    map[linConfig]struct{}
	visited int
	budget  int
	// best is the deepest prefix reached (ops linearized or omitted) and
	// frontier the ops that could go next there: the witness.
	best     int
	frontier []int
}

// enter searches segment k and everything after it from state.
func (s *linSearch) enter(k int, state string) bool {
	if k == len(s.bounds)-1 {
		return true
	}
	if s.visited > s.budget {
		return false
	}
	lo, hi := s.bounds[k], s.bounds[k+1]
	if hi-lo > 1 {
		return s.search(k, state, 0)
	}
	if lo > s.best {
		s.best = lo
		s.frontier = append(s.frontier[:0], lo)
	}
	op := &s.ops[lo]
	if next, ok := s.m.Step(state, op); ok && s.enter(k+1, next) {
		return true
	}
	return op.Optional && s.enter(k+1, state)
}

// search extends a linearization of segment k that has done of its ops
// placed (the ones in s.bits).
func (s *linSearch) search(k int, state string, done int) bool {
	lo, hi := s.bounds[k], s.bounds[k+1]
	if done == hi-lo {
		placed := s.bits
		s.bits = segBits{}
		ok := s.enter(k+1, state)
		s.bits = placed
		return ok
	}
	if s.visited++; s.visited > s.budget {
		return false
	}
	cfg := linConfig{seg: k, bits: s.bits, state: state}
	if _, seen := s.memo[cfg]; seen {
		return false
	}
	if s.memo == nil {
		s.memo = map[linConfig]struct{}{}
	}
	s.memo[cfg] = struct{}{}

	// An op may be linearized next iff no other pending op returned before
	// its call (Wing & Gong's minimality rule).
	minReturn := forever
	for i := lo; i < hi; i++ {
		if !s.placed(i-lo) && s.ops[i].Return < minReturn {
			minReturn = s.ops[i].Return
		}
	}
	if lo+done > s.best {
		s.best = lo + done
		s.frontier = s.frontier[:0]
		for i := lo; i < hi; i++ {
			if !s.placed(i-lo) && s.ops[i].Call <= minReturn {
				s.frontier = append(s.frontier, i)
			}
		}
	}
	for i := lo; i < hi; i++ {
		j := i - lo
		if s.placed(j) || s.ops[i].Call > minReturn {
			continue
		}
		s.bits[j/64] |= 1 << (j % 64)
		if next, ok := s.m.Step(state, &s.ops[i]); ok && s.search(k, next, done+1) {
			return true
		}
		if s.ops[i].Optional && s.search(k, state, done+1) {
			// Ambiguous op omitted: it never took effect.
			return true
		}
		s.bits[j/64] &^= 1 << (j % 64)
	}
	return false
}

// placed reports whether the j-th op of the current segment is linearized.
func (s *linSearch) placed(j int) bool { return s.bits[j/64]&(1<<(j%64)) != 0 }

// --- Register model -------------------------------------------------------

// RegisterModel is a single-object last-write-wins register over version
// tokens: a put installs its version, a get is legal iff it returns the
// currently installed version (0 = initial absence).
type RegisterModel struct{}

// Init implements Model.
func (RegisterModel) Init() string { return "0" }

// Step implements Model.
func (RegisterModel) Step(state string, op *LinOp) (string, bool) {
	switch op.Kind {
	case "put":
		return strconv.FormatUint(op.Version, 10), true
	case "get":
		return state, state == strconv.FormatUint(op.Version, 10)
	default:
		return state, false
	}
}

// --- Queue model ----------------------------------------------------------

// QueueModel is a FIFO queue over element identities: enqueue appends,
// dequeue removes the head (or observes emptiness).
type QueueModel struct{}

// anyElem marks an ambiguous dequeue whose result nobody observed (the
// client timed out): if linearized, it removes whatever the head is. The
// NUL prefix keeps it disjoint from real element identities.
const anyElem = "\x00any"

// Init implements Model.
func (QueueModel) Init() string { return "" }

// Step implements Model.
func (QueueModel) Step(state string, op *LinOp) (string, bool) {
	switch op.Kind {
	case "enqueue":
		if state == "" {
			return op.Elem, true
		}
		return state + "," + op.Elem, true
	case "dequeue":
		if op.Elem == anyElem {
			// A timed-out dequeue that did take effect removed the head of
			// whatever the queue held (a no-op on an empty queue).
			_, rest, _ := strings.Cut(state, ",")
			return rest, true
		}
		if op.Elem == "" {
			// Observed empty: legal only on the empty queue.
			return state, state == ""
		}
		head, rest, _ := strings.Cut(state, ",")
		return rest, head == op.Elem
	default:
		return state, false
	}
}

// --- History conversion ---------------------------------------------------

// keyedOps selects a key's operations from a history, as pointers into it.
func keyedOps(ops []Op, key string) []*Op {
	var out []*Op
	for i := range ops { // by index: ranging by value copies every Op just to read its key
		if ops[i].Key == key {
			out = append(out, &ops[i])
		}
	}
	return out
}

// Keys lists the distinct object keys in a history, sorted.
func Keys(ops []Op) []string {
	seen := map[string]bool{}
	var keys []string
	for i := range ops {
		if k := ops[i].Key; k != "" && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// phantomViolation reports an output no recorded mutation could explain.
func phantomViolation(key, detail string, witness ...Op) Violation {
	return Violation{Guarantee: "linearizability", Key: key, Detail: detail, Witness: witness}
}

// RegisterHistory converts one key's recorded get/put operations into a
// register linearizability history over final (strong) views. Weaker views
// are deliberately excluded: preliminary staleness is the paper's selling
// point, not a linearizability bug. Reads returning versions no recorded
// write produced are attributed to ambiguous (timed-out) writes when one
// exists — a write that died on the client side may still have taken
// effect — and reported as phantom-write violations otherwise. Ambiguous
// writes whose version nobody read are omitted: since no read depends on
// them, excluding them can only under-approximate, never produce a false
// violation.
func RegisterHistory(ops []Op, key string) ([]LinOp, []Violation) {
	keyed := keyedOps(ops, key)
	lin := make([]LinOp, 0, len(keyed))
	known := map[uint64]bool{0: true}
	var ambiguous []*Op // incomplete puts, in start order
	for _, op := range keyed {
		switch op.Name {
		case "put":
			if op.Completed() {
				if fv, ok := op.FinalView(); ok {
					known[fv.Version] = true
					lin = append(lin, LinOp{
						Kind: "put", Version: fv.Version,
						Call: op.Start, Return: op.End, Source: op,
					})
				}
			} else {
				ambiguous = append(ambiguous, op)
			}
		case "get":
			if !op.Completed() {
				continue // delivered no final view; constrains nothing
			}
			if fv, ok := op.FinalView(); ok {
				lin = append(lin, LinOp{
					Kind: "get", Version: fv.Version,
					Call: op.Start, Return: op.End, Source: op,
				})
			}
		}
	}
	// Phantom writes: versions that were read but never acknowledged to a
	// recorded writer. Version tokens are issued in coordinator-apply
	// order, which tracks submission order.
	return attributePhantoms(lin, key, known, ambiguous,
		func(l *LinOp) (uint64, bool) { return l.Version, l.Kind == "get" },
		func(v uint64) LinOp { return LinOp{Kind: "put", Version: v} },
		func(v uint64) string {
			return fmt.Sprintf("read returned version %d, which no recorded write (completed or in-flight) produced", v)
		})
}

// QueueHistory converts one queue's recorded enqueue/dequeue operations
// into a FIFO linearizability history over final views. Element identities
// come from the recorded view notes (binding.Item.ID). Dequeued elements
// no completed enqueue produced are attributed to ambiguous enqueues when
// possible, phantom violations otherwise. Timed-out dequeues are ambiguous
// too — one that took effect server-side after the client gave up (a
// forward stalled by a partition and delivered at the heal, say) removed
// an element nobody observed — so they enter the history as optional
// wildcard removals the search may apply anywhere after their call or omit
// entirely.
func QueueHistory(ops []Op, queue string) ([]LinOp, []Violation) {
	keyed := keyedOps(ops, queue)
	lin := make([]LinOp, 0, len(keyed))
	known := map[string]bool{}
	var ambiguous []*Op
	for _, op := range keyed {
		fv, hasFinal := op.FinalView()
		switch op.Name {
		case "enqueue":
			if op.Completed() && hasFinal {
				known[fv.Note] = true
				lin = append(lin, LinOp{
					Kind: "enqueue", Elem: fv.Note,
					Call: op.Start, Return: op.End, Source: op,
				})
			} else if !op.Completed() {
				ambiguous = append(ambiguous, op)
			}
		case "dequeue":
			if op.Completed() && hasFinal {
				lin = append(lin, LinOp{
					Kind: "dequeue", Elem: fv.Note,
					Call: op.Start, Return: op.End, Source: op,
				})
			} else if !op.Completed() {
				lin = append(lin, LinOp{
					Kind: "dequeue", Elem: anyElem,
					Call: op.Start, Return: forever, Optional: true, Source: op,
				})
			}
		}
	}
	// Phantom enqueues: dequeued element identities nobody completed an
	// enqueue for. Elements are sequential znode names, so identity order
	// tracks commit order.
	return attributePhantoms(lin, queue, known, ambiguous,
		func(l *LinOp) (string, bool) {
			return l.Elem, l.Kind == "dequeue" && l.Elem != "" && l.Elem != anyElem
		},
		func(elem string) LinOp { return LinOp{Kind: "enqueue", Elem: elem} },
		func(elem string) string {
			return fmt.Sprintf("dequeue returned element %q, which no recorded enqueue (completed or in-flight) produced", elem)
		})
}

// attributePhantoms explains the tokens (register versions, queue
// elements) that an output of lin returned but no completed mutation
// produced: out reports an output's token, and whether the output
// constrains one; known holds the tokens completed mutations produced.
// Tokens are issued in commit order, so the unknown ones, in token order,
// are blamed greedily on the ambiguous (incomplete) mutations in start
// order, each as the optional mutation mutation(token) builds. All of them
// use the earliest ambiguous start as their call point: the pairing is a
// heuristic (a stalled mutation can commit out of submission order), and an
// under-constrained call can only admit more linearizations, never
// fabricate a violation. A token left once the ambiguous mutations run out
// is a phantom violation, described by orphan.
func attributePhantoms[K cmp.Ordered](lin []LinOp, key string, known map[K]bool, ambiguous []*Op,
	out func(*LinOp) (K, bool), mutation func(K) LinOp, orphan func(K) string) ([]LinOp, []Violation) {
	var unknown []K
	seen := map[K]bool{}
	for i := range lin {
		if t, ok := out(&lin[i]); ok && !known[t] && !seen[t] {
			seen[t] = true
			unknown = append(unknown, t)
		}
	}
	slices.Sort(unknown)
	slices.SortStableFunc(ambiguous, byStart)
	var violations []Violation
	for i, t := range unknown {
		if i < len(ambiguous) {
			l := mutation(t)
			l.Call, l.Return, l.Optional, l.Source = ambiguous[0].Start, forever, true, ambiguous[i]
			lin = append(lin, l)
			continue
		}
		violations = append(violations, phantomViolation(key, orphan(t)))
	}
	return lin, violations
}

// CheckRegisters runs the register linearizability check per key over a
// history of get/put operations, returning all violations (including
// phantom reads) and the keys whose search was inconclusive.
func CheckRegisters(ops []Op, budget int) ([]Violation, []string) {
	return checkObjects(ops, budget, RegisterModel{}, "register", RegisterHistory)
}

// CheckQueues runs the FIFO-queue linearizability check per queue over a
// history of enqueue/dequeue operations.
func CheckQueues(ops []Op, budget int) ([]Violation, []string) {
	return checkObjects(ops, budget, QueueModel{}, "queue", QueueHistory)
}

// checkObjects is the per-object driver of CheckRegisters and CheckQueues.
// Linearizability is local, so each object of ops (a key or a queue) is
// converted by toLin and searched under model on its own; noun names the
// model in a violation's detail.
func checkObjects(ops []Op, budget int, model Model, noun string,
	toLin func([]Op, string) ([]LinOp, []Violation)) ([]Violation, []string) {
	var out []Violation
	var inconclusive []string
	for _, key := range Keys(ops) {
		lin, phantoms := toLin(ops, key)
		out = append(out, phantoms...)
		res := CheckLinearizable(model, lin, budget)
		if res.Inconclusive {
			inconclusive = append(inconclusive, key)
			continue
		}
		if !res.Ok {
			out = append(out, Violation{
				Guarantee: "linearizability",
				Key:       key,
				Detail:    fmt.Sprintf("no linearization of %d %s ops exists; frontier ops follow", len(lin), noun),
				Witness:   res.Witness,
			})
		}
	}
	return out, inconclusive
}
