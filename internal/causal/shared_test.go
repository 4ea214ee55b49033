package causal

import (
	"context"
	"testing"

	"correctables/internal/netsim"
)

// TestStoredValuesAreCopiedOnceAndShared pins the value contract
// (binding.Result) for the causal store: a written or preloaded buffer is
// the caller's again once the call returned, every level's view is the one
// stored copy (clipped to cap == len), and a retained view keeps its bytes
// across an overwrite of its key — replicas and caches replace entries,
// they never write into one.
func TestStoredValuesAreCopiedOnceAndShared(t *testing.T) {
	s, clock := newTestStore(t)
	kv := NewKV(NewBinding(NewClient(s, netsim.IRL)))
	ctx := context.Background()

	// read returns the bytes of every view of one three-level read.
	read := func(key string) [][]byte {
		t.Helper()
		cor := kv.Get(ctx, key)
		if _, err := cor.Final(ctx); err != nil {
			t.Fatalf("read %q: %v", key, err)
		}
		var out [][]byte
		for _, v := range cor.Views() {
			out = append(out, v.Value)
		}
		return out
	}

	buf, pre := []byte("written-1"), []byte("preload-1")
	if _, err := kv.Put(ctx, "put", buf).Final(ctx); err != nil {
		t.Fatal(err)
	}
	s.Preload("pre", pre)
	copy(buf, "XXXXXXXXX")
	copy(pre, "XXXXXXXXX")
	clock.Drain() // let the write reach the backups

	views := read("put")
	if len(views) != 3 {
		t.Fatalf("read delivered %d views, want cache, causal and strong", len(views))
	}
	for i, v := range views {
		if string(v) != "written-1" {
			t.Errorf("view %d after the caller reused its Put buffer = %q, want written-1", i, v)
		}
		if cap(v) != len(v) {
			t.Errorf("view %d has cap %d, len %d: an append would write into shared memory", i, cap(v), len(v))
		}
		if &v[0] != &views[0][0] {
			t.Errorf("view %d is a copy: all views of one version share the stored bytes", i)
		}
	}
	for i, v := range read("pre") {
		if string(v) != "preload-1" {
			t.Errorf("view %d after the caller reused its Preload buffer = %q, want preload-1", i, v)
		}
	}

	if _, err := kv.Put(ctx, "put", []byte("written-2")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Drain()
	if now := read("put"); string(now[len(now)-1]) != "written-2" {
		t.Errorf("strong read after the overwrite = %q, want written-2", now[len(now)-1])
	}
	for i, v := range views {
		if string(v) != "written-1" {
			t.Errorf("view %d retained across an overwrite now reads %q, want written-1", i, v)
		}
	}
}
