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
// arbitrary names (landing anywhere in the order, duplicates refused) and
// deletes of any child (head, middle or tail), Children is the sorted set of
// live names and FirstChild is its first element with the matching count.
func TestPropertyFirstChildMatchesChildren(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTree()
		mkdirs(t, tr, "/q")
		live := map[string]bool{}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if kids, _ := tr.Children("/q"); len(kids) > 0 {
					victim := kids[int(op/4)%len(kids)]
					if tr.Delete("/q/"+victim) != nil {
						return false
					}
					delete(live, victim)
				}
			case 1:
				// Sorts before, between or after the sequential names.
				name := fmt.Sprintf("%c-%d", "aqz"[int(op/4)%3], op/12)
				if _, err := tr.Create("/q/"+name, []byte{op}, false); err == nil {
					live[name] = true
				} else if !errors.Is(err, ErrNodeExists) || !live[name] {
					return false
				}
			default:
				path, err := tr.Create("/q/q-", []byte{op}, true)
				if err != nil {
					return false
				}
				live[baseOf(path)] = true
			}
			want := slices.Sorted(maps.Keys(live))
			kids, _ := tr.Children("/q")
			if !slices.Equal(kids, want) {
				return false
			}
			name, data, count, err := tr.FirstChild("/q")
			if err != nil || count != len(want) {
				return false
			}
			if len(want) == 0 {
				if name != "" {
					return false
				}
			} else if stored, _ := tr.Get("/q/" + want[0]); name != want[0] || &data[0] != &stored[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSequentialNamesMatchSprintf pins the fmt-free name against the form it
// replaced, past the ten digits of padding too (where names stop sorting in
// creation order, which the ordered child list must cope with).
func TestSequentialNamesMatchSprintf(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/q")
	for _, seq := range []uint64{0, 7, 9_999_999_999, 10_000_000_000} {
		tr.nodes["/q"].nextSeq = seq
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
