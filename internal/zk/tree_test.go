package zk

import (
	"errors"
	"fmt"
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
	_, _, err := tr.Get(path)
	return err == nil
}

func TestTreeCreateGetDelete(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	data, ver, err := tr.Get("/a")
	if err != nil || string(data) != "x" || ver != 0 {
		t.Fatalf("Get = %q, %d, %v", data, ver, err)
	}
	if err := tr.Delete("/a", -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Get("/a"); !errors.Is(err, ErrNoNode) {
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
	if err := tr.Delete("/q/item-0000000000", -1); err != nil {
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

func TestTreeVersionChecks(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a", []byte("v0"), false); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/a", 1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("delete with a wrong version accepted: %v", err)
	}
	if err := tr.Delete("/a", 0); err != nil {
		t.Errorf("delete with current version rejected: %v", err)
	}
}

func TestTreeDeleteNonEmpty(t *testing.T) {
	tr := NewTree()
	mkdirs(t, tr, "/a", "/a/b")
	if err := tr.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
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

// Property: FirstChild always agrees with Children()[0], and counts match,
// for arbitrary create/delete interleavings.
func TestPropertyFirstChildMatchesChildren(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTree()
		mkdirs(t, tr, "/q")
		for _, op := range ops {
			if op%3 == 0 {
				kids, _ := tr.Children("/q")
				if len(kids) > 0 {
					_ = tr.Delete("/q/"+kids[int(op)%len(kids)], -1)
				}
			} else {
				_, _ = tr.Create("/q/q-", []byte{op}, true)
			}
			name, _, count, err := tr.FirstChild("/q")
			if err != nil {
				return false
			}
			kids, _ := tr.Children("/q")
			if count != len(kids) {
				return false
			}
			if len(kids) == 0 {
				if name != "" {
					return false
				}
			} else if name != kids[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
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
