package zk

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// mkdirs creates each path (parents first) with empty data.
func mkdirs(t testing.TB, tr *Tree, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if _, err := tr.Create(p, nil, false); err != nil {
			t.Fatal(err)
		}
	}
}

func exists(tr *Tree, path string) bool {
	_, err := tr.Get(path)
	return err == nil
}

func TestTreeCreateGetDelete(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	data, err := tr.Get("/a")
	if err != nil || string(data) != "x" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if err := tr.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get("/a"); !errors.Is(err, ErrNoNode) {
		t.Errorf("Get after delete = %v", err)
	}
}

func TestTreeCreateRequiresParent(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a/b", nil, false); !errors.Is(err, ErrNoNode) {
		t.Errorf("create without parent = %v, want ErrNoNode", err)
	}
	mkdirs(t, tr, "/a")
	if _, err := tr.Create("/a/b", nil, false); err != nil {
		t.Errorf("create with parent = %v", err)
	}
}

func TestTreeCreateDuplicate(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a", nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/a", nil, false); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate create = %v", err)
	}
}

func TestTreeSequentialNames(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q")
	for i := 0; i < 3; i++ {
		name, err := tr.Create("/q/item-", nil, true)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("/q/item-%010d", i)
		if name != want {
			t.Errorf("sequential name = %q, want %q", name, want)
		}
	}
	// The counter does not reuse numbers after deletion.
	if err := tr.Delete("/q/item-0000000000"); err != nil {
		t.Fatal(err)
	}
	name, err := tr.Create("/q/item-", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if name != "/q/item-0000000003" {
		t.Errorf("counter reused a number: %q", name)
	}
	if seq, _ := tr.NextSeq("/q"); seq != 4 {
		t.Errorf("NextSeq = %d, want 4", seq)
	}
}

func TestTreeDeleteNonEmpty(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/a", "/a/b")
	if err := tr.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("delete of non-empty node = %v", err)
	}
}

func TestTreeChildrenSorted(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q")
	for _, n := range []string{"c", "a", "b"} {
		if _, err := tr.Create("/q/"+n, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	kids, err := tr.Children("/q")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 || kids[0] != "a" || kids[1] != "b" || kids[2] != "c" {
		t.Errorf("Children = %v", kids)
	}
}

func TestTreeFirstChild(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q")
	name, data, count, err := tr.FirstChild("/q")
	if err != nil || name != "" || count != 0 {
		t.Errorf("empty FirstChild = %q, %q, %d, %v", name, data, count, err)
	}
	_, _ = tr.Create("/q/b", []byte("bb"), false)
	_, _ = tr.Create("/q/a", []byte("aa"), false)
	name, data, count, err = tr.FirstChild("/q")
	if err != nil || name != "a" || string(data) != "aa" || count != 2 {
		t.Errorf("FirstChild = %q, %q, %d, %v", name, data, count, err)
	}
	if _, _, _, err := tr.FirstChild("/missing"); !errors.Is(err, ErrNoNode) {
		t.Errorf("FirstChild on missing dir = %v", err)
	}
}

func TestTreeInvalidPaths(t *testing.T) {
	tr := NewTree()
	for _, p := range []string{"", "a", "/a/"} {
		if _, err := tr.Create(p, nil, false); err == nil {
			t.Errorf("Create(%q) accepted", p)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	if parentOf("/a/b/c") != "/a/b" || parentOf("/a") != "/" {
		t.Error("parentOf broken")
	}
	if baseOf("/a/b/c") != "c" || baseOf("/a") != "a" {
		t.Error("baseOf broken")
	}
	if seqOf("q-0000000042") != 42 {
		t.Errorf("seqOf = %d", seqOf("q-0000000042"))
	}
	if seqOf("short") != 0 || seqOf("q-notanumber") != 0 {
		t.Error("seqOf should tolerate malformed names")
	}
}

// Property: for arbitrary interleavings of sequential creates, creates under
// arbitrary names (landing anywhere in the order, duplicates refused, some
// taking a name the sequence will reach), deletes of any child (head, middle
// or tail), in-place dequeues of the head and a snapshot restored into a
// second tree, which the ops go on with while the source diverges, the tree
// matches a model of its one directory after every op: Children is the
// sorted set of live names, FirstChild is its first element with the
// matching count and the stored data, NextSeq is the model's counter, and a
// snapshot's size is the sum over its znodes of path, data and 16 bytes.
func TestPropertyFirstChildMatchesChildren(t *testing.T) {
	f := func(ops []uint8) bool {
		if err := runTreeOps(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzTreeOps is TestPropertyFirstChildMatchesChildren over fuzzed op
// strings.
func FuzzTreeOps(f *testing.F) {
	for _, ops := range []string{
		"",
		"\x02\x03\x04\x04\x04",         // enqueue twice, dequeue three times
		"\x02\x02\x05\x00\x04\x02",     // a restore, then a delete, a dequeue and a create on the copy
		"\x13\x02\x02\x04",             // a named create takes q-0000000000 before the sequence reaches it
		"\x01\x0d\x19\x02\x03\x00\x04", // names before (a-0), after (z-0) and among (q-1) the sequential ones
	} {
		f.Add([]byte(ops))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runTreeOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// runTreeOps plays ops (one byte each) on a tree with one directory, /q, and
// checks it against a model after every op; see
// TestPropertyFirstChildMatchesChildren.
func runTreeOps(ops []byte) error {
	tr := NewTree()
	if _, err := tr.Create("/q", nil, false); err != nil {
		return err
	}
	live := map[string]bool{}
	var seq uint64 // the model's next sequence number under /q
	for i, op := range ops {
		switch op % 6 {
		case 0:
			if kids, _ := tr.Children("/q"); len(kids) > 0 {
				victim := kids[int(op/6)%len(kids)]
				if err := tr.Delete("/q/" + victim); err != nil {
					return fmt.Errorf("op %d: delete %s: %w", i, victim, err)
				}
				delete(live, victim)
			}
		case 1:
			// Sorts before, between or after the sequential names, or is
			// one of the first sequential names.
			name := fmt.Sprintf("%c-%d", "aqz"[int(op/6)%3], op/18)
			if op/6%4 == 3 {
				name = fmt.Sprintf("q-%010d", op/24)
			}
			if _, err := tr.Create("/q/"+name, []byte{op}, false); err == nil {
				live[name] = true
			} else if !errors.Is(err, ErrNodeExists) || !live[name] {
				return fmt.Errorf("op %d: create %s: %v", i, name, err)
			}
		case 2, 3:
			want := fmt.Sprintf("q-%010d", seq)
			seq++ // spent even when the name is taken
			path, err := tr.Create("/q/q-", []byte{op}, true)
			switch {
			case live[want] && !errors.Is(err, ErrNodeExists):
				return fmt.Errorf("op %d: sequential create onto %s = %q, %v, want ErrNodeExists", i, want, path, err)
			case !live[want] && (err != nil || path != "/q/"+want):
				return fmt.Errorf("op %d: sequential create = %q, %v, want /q/%s", i, path, err, want)
			}
			live[want] = true
		case 4:
			want := slices.Sorted(maps.Keys(live))
			var stored []byte
			if len(want) > 0 {
				stored, _ = tr.Get("/q/" + want[0])
			}
			res := DequeueMinTxn{Dir: "/q"}.Apply(tr)
			switch {
			case res.Err != nil:
				return fmt.Errorf("op %d: dequeue: %w", i, res.Err)
			case len(want) == 0:
				if res.Head.Name != "" || res.Head.Data != nil || res.Remaining != 0 {
					return fmt.Errorf("op %d: dequeue of an empty queue = %+v", i, res)
				}
			case res.Head.Name != want[0] || res.Head.Seq != seqOf(want[0]) ||
				&res.Head.Data[0] != &stored[0] || res.Remaining != len(want)-1:
				return fmt.Errorf("op %d: dequeue = %+v, want %s of %d and its stored data", i, res, want[0], len(want))
			default:
				delete(live, want[0])
			}
		case 5:
			nodes, size := tr.Snapshot()
			if want := len("/") + 16 + len("/q") + 16 + 17*len(live) + len("/q/")*len(live) + namesLen(live); size != want {
				return fmt.Errorf("op %d: snapshot size %d, want %d", i, size, want)
			}
			next := NewTree()
			next.Restore(nodes)
			// The source diverges: a create there must not show in the copy.
			if _, err := tr.Create("/q/q-", nil, true); err != nil && !errors.Is(err, ErrNodeExists) {
				return fmt.Errorf("op %d: create on the snapshot's source: %w", i, err)
			}
			tr = next
		}
		if err := treeMatches(tr, live, seq); err != nil {
			return fmt.Errorf("op %d (%d): %w", i, op, err)
		}
	}
	return nil
}

// namesLen is the total length of the names in live.
func namesLen(live map[string]bool) int {
	n := 0
	for name := range live {
		n += len(name)
	}
	return n
}

// treeMatches checks /q of tr against the model: its live names and its
// sequence counter.
func treeMatches(tr *Tree, live map[string]bool, seq uint64) error {
	want := slices.Sorted(maps.Keys(live))
	if kids, _ := tr.Children("/q"); !slices.Equal(kids, want) {
		return fmt.Errorf("children %v, want %v", kids, want)
	}
	if next, err := tr.NextSeq("/q"); err != nil || next != seq {
		return fmt.Errorf("NextSeq = %d, %v, want %d", next, err, seq)
	}
	name, data, count, err := tr.FirstChild("/q")
	if err != nil || count != len(want) {
		return fmt.Errorf("FirstChild = %q of %d, %v, want %d children", name, count, err, len(want))
	}
	if len(want) == 0 {
		if name != "" {
			return fmt.Errorf("FirstChild of an empty directory = %q", name)
		}
	} else if stored, _ := tr.Get("/q/" + want[0]); name != want[0] || &data[0] != &stored[0] {
		return fmt.Errorf("FirstChild = %q, want %q and its stored data", name, want[0])
	}
	return nil
}

// TestSequentialCollisionAdvancesSeq: a sequential create whose name is
// already taken fails, and still spends its number, so the next one moves
// past the taken name instead of failing on it for ever.
func TestSequentialCollisionAdvancesSeq(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q", "/q/q-0000000000")
	if path, err := tr.Create("/q/q-", nil, true); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("sequential create onto a taken name = %q, %v, want ErrNodeExists", path, err)
	}
	if seq, _ := tr.NextSeq("/q"); seq != 1 {
		t.Errorf("NextSeq after the collision = %d, want 1", seq)
	}
	if path, err := tr.Create("/q/q-", nil, true); err != nil || path != "/q/q-0000000001" {
		t.Errorf("next sequential create = %q, %v, want /q/q-0000000001", path, err)
	}
}

// TestSequentialNamesMatchSprintf pins the fmt-free name against the form it
// replaced, past the ten digits of padding too (where names stop sorting in
// creation order, which the ordered child list must cope with).
func TestSequentialNamesMatchSprintf(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q")
	for _, seq := range []uint64{0, 7, 9_999_999_999, 10_000_000_000} {
		dir := tr.nodes["/q"]
		dir.nextSeq = seq
		tr.nodes["/q"] = dir
		got, err := tr.Create("/q/item-", nil, true)
		if want := fmt.Sprintf("%s%010d", "/q/item-", seq); err != nil || got != want {
			t.Errorf("sequential create #%d = %q, %v, want %q", seq, got, err, want)
		}
	}
	kids, _ := tr.Children("/q")
	if !slices.IsSorted(kids) || len(kids) != 4 {
		t.Errorf("Children = %v, want the four names in ascending order", kids)
	}
	if name, _, _, _ := tr.FirstChild("/q"); name != "item-0000000000" {
		t.Errorf("FirstChild = %q", name)
	}
}

// TestSnapshotOwnsItsChildLists: a snapshot shares the immutable znode data
// with its source and nothing else — a create or delete on either tree must
// not show up in the other, which a shared child slice would let it.
func TestSnapshotOwnsItsChildLists(t *testing.T) {
	src := NewTree()
	mkdirs(t, src, "/q")
	for _, d := range []string{"one", "two", "three"} {
		if _, err := src.Create("/q/q-", []byte(d), true); err != nil {
			t.Fatal(err)
		}
	}
	nodes, _ := src.Snapshot()
	dst := NewTree()
	dst.Restore(nodes)

	srcData, _ := src.Get("/q/q-0000000001")
	dstData, _ := dst.Get("/q/q-0000000001")
	if string(dstData) != "two" || &srcData[0] != &dstData[0] {
		t.Errorf("snapshot data = %q, shared = %v: want the source's own immutable buffer", dstData, &srcData[0] == &dstData[0])
	}

	// Diverge: the source grows at the tail, the copy loses its head and
	// gains a name in the middle.
	if _, err := src.Create("/q/q-", []byte("four"), true); err != nil {
		t.Fatal(err)
	}
	if err := dst.Delete("/q/q-0000000000"); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Create("/q/q-00000000015", nil, false); err != nil {
		t.Fatal(err)
	}
	srcKids, _ := src.Children("/q")
	dstKids, _ := dst.Children("/q")
	if want := []string{"q-0000000000", "q-0000000001", "q-0000000002", "q-0000000003"}; !slices.Equal(srcKids, want) {
		t.Errorf("source children = %v, want %v", srcKids, want)
	}
	if want := []string{"q-0000000001", "q-00000000015", "q-0000000002"}; !slices.Equal(dstKids, want) {
		t.Errorf("snapshot children = %v, want %v", dstKids, want)
	}
	if name, _, count, _ := src.FirstChild("/q"); name != "q-0000000000" || count != 4 {
		t.Errorf("source FirstChild = %q of %d", name, count)
	}
	if seq, _ := dst.NextSeq("/q"); seq != 3 {
		t.Errorf("snapshot NextSeq = %d, want the counter as of the snapshot", seq)
	}
}

func TestQueueElementEqualValue(t *testing.T) {
	a := &QueueElement{Name: "q-1", Seq: 1, Data: []byte("x")}
	b := &QueueElement{Name: "q-1", Seq: 1, Data: []byte("different")}
	c := &QueueElement{Name: "q-2", Seq: 2}
	if !a.EqualValue(b) {
		t.Error("same-name elements should be equal")
	}
	if a.EqualValue(c) {
		t.Error("different-name elements should differ")
	}
	var nilElem *QueueElement
	if nilElem.EqualValue(a) || !nilElem.EqualValue(nilElem) {
		t.Error("nil element comparisons broken")
	}
	// The typed signature is what core.ValuesEqual dispatches on; through
	// reflect.DeepEqual the differing payloads would compare unequal.
	if !core.ValuesEqual(a, b) || core.ValuesEqual(a, c) {
		t.Error("core.ValuesEqual does not consult QueueElement.EqualValue")
	}
}

func TestItemEqualValue(t *testing.T) {
	a := binding.Item{ID: "q-1", Exists: true, Remaining: 10}
	b := binding.Item{ID: "q-1", Data: []byte("different"), Exists: true, Remaining: 99}
	if !a.EqualValue(b) {
		t.Error("Item equality must ignore Data and Remaining")
	}
	if a.EqualValue(binding.Item{ID: "q-2", Exists: true}) {
		t.Error("different elements should differ")
	}
	if a.EqualValue(binding.Item{}) {
		t.Error("existing vs absent elements should differ")
	}
	if !(binding.Item{}).EqualValue(binding.Item{Remaining: 3}) {
		t.Error("two absent elements should be equal")
	}
}
