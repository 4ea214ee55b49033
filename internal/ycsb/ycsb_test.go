package ycsb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"correctables/internal/netsim"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	const n = 1000
	g := NewZipfian(n, ZipfianConstant)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	const samples = 200000
	for i := 0; i < samples; i++ {
		v := g.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the most popular: YCSB zipfian(0.99) gives it
	// several percent of all accesses.
	if counts[0] < samples/50 {
		t.Errorf("item 0 drew %d of %d samples; distribution not skewed", counts[0], samples)
	}
	if counts[0] <= counts[n-1] {
		t.Error("head item not more popular than tail item")
	}
	// Head-heavy: the top 10% of items receive well over half the accesses.
	top := 0
	for i := 0; i < n/10; i++ {
		top += counts[i]
	}
	if float64(top)/samples < 0.55 {
		t.Errorf("top-10%% share = %.2f, want > 0.55", float64(top)/samples)
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	const n = 1000
	g := NewScrambledZipfian(n)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := g.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest key should NOT be key 0 systematically — scrambling moves
	// the popular ranks around. Just check some key is hot and it is a
	// stable hash (deterministic across generators).
	hot := 0
	for i, c := range counts {
		if c > counts[hot] {
			hot = i
		}
	}
	if counts[hot] < 1000 {
		t.Errorf("no hot key after scrambling (max count %d)", counts[hot])
	}
	g2 := NewScrambledZipfian(n)
	rng2 := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if g.Next(rng2) != g2.Next(rand.New(rand.NewSource(0))) {
			// Different RNG streams will differ; just ensure determinism of
			// the hash for the same zipf value by comparing full pipelines
			// with the same seeds.
			break
		}
	}
}

func TestLatestFollowsAnchor(t *testing.T) {
	const n = 100
	g := NewLatest(n)
	rng := rand.New(rand.NewSource(3))
	// With no updates yet, reads cluster near index 0 (anchor=0).
	lowHits := 0
	for i := 0; i < 1000; i++ {
		v := g.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
		if v == 0 || v >= n-5 { // 0 or wrapped just below n
			lowHits++
		}
	}
	if lowHits < 300 {
		t.Errorf("latest distribution not clustered near anchor: %d/1000", lowHits)
	}
	// Advance the anchor to 50: reads now cluster just below 50.
	for i := 0; i < 50; i++ {
		g.Advance()
	}
	nearAnchor := 0
	for i := 0; i < 1000; i++ {
		v := g.Next(rng)
		if v > 30 && v <= 50 {
			nearAnchor++
		}
	}
	if nearAnchor < 500 {
		t.Errorf("reads did not chase the anchor: %d/1000 in (30,50]", nearAnchor)
	}
}

// Property: all generators stay in range for arbitrary n.
func TestPropertyGeneratorsInRange(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%5000 + 2
		rng := rand.New(rand.NewSource(seed))
		gens := []Generator{
			NewZipfian(n, ZipfianConstant),
			NewScrambledZipfian(n),
			NewLatest(n),
		}
		for _, g := range gens {
			for i := 0; i < 50; i++ {
				v := g.Next(rng)
				if v < 0 || v >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWorkloadPresets(t *testing.T) {
	a := WorkloadA(DistLatest, 1000, 100)
	if a.ReadProportion != 0.5 || a.UpdateProportion != 0.5 || a.Name != "A" {
		t.Errorf("A = %+v", a)
	}
	b := WorkloadB(DistZipfian, 1000, 100)
	if b.ReadProportion != 0.95 || b.UpdateProportion != 0.05 {
		t.Errorf("B = %+v", b)
	}
	c := WorkloadC(DistZipfian, 1000, 100)
	if c.ReadProportion != 1.0 || c.UpdateProportion != 0 {
		t.Errorf("C = %+v", c)
	}
	// Key is formatted without fmt; every recorded history and wire size
	// depends on it staying byte for byte the Sprintf form, wider than the
	// padding included.
	for _, i := range []int{0, 42, 99_999_999, 100_000_000, 1 << 40} {
		if want := fmt.Sprintf("user%08d", i); Key(i) != want {
			t.Errorf("Key(%d) = %q, want %q", i, Key(i), want)
		}
	}
	if len(a.Value(rand.New(rand.NewSource(1)))) != 100 {
		t.Error("Value size mismatch")
	}
}

func TestWorkloadGeneratorSelection(t *testing.T) {
	for _, d := range []DistKind{DistZipfian, DistLatest} {
		w := WorkloadA(d, 100, 10)
		if w.NewGenerator() == nil {
			t.Errorf("nil generator for %s", d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown distribution should panic")
		}
	}()
	Workload{Distribution: "bogus", RecordCount: 10}.NewGenerator()
}

// fakeDB counts operations, fabricates latencies/divergence, and charges
// each operation 1ms of model time so virtual runs make progress.
type fakeDB struct {
	clock    netsim.Clock
	mu       sync.Mutex
	reads    int
	updates  int
	divEvery int // every k-th read diverges
}

func (f *fakeDB) Read(rng *rand.Rand, key string) (ReadOutcome, error) {
	f.mu.Lock()
	f.reads++
	n := f.reads
	f.mu.Unlock()
	f.clock.Sleep(time.Millisecond)
	return ReadOutcome{
		HasPrelim:     true,
		PrelimLatency: 20 * time.Millisecond,
		FinalLatency:  40 * time.Millisecond,
		Diverged:      f.divEvery > 0 && n%f.divEvery == 0,
	}, nil
}

func (f *fakeDB) Update(rng *rand.Rand, key string, value []byte) (time.Duration, error) {
	f.mu.Lock()
	f.updates++
	f.mu.Unlock()
	f.clock.Sleep(time.Millisecond)
	return 21 * time.Millisecond, nil
}

func TestRunnerMixAndStats(t *testing.T) {
	clock := netsim.NewVirtualClock()
	db := &fakeDB{clock: clock, divEvery: 4}
	res := Run(WorkloadA(DistZipfian, 100, 10), db, clock, Options{
		Threads:  4,
		Duration: 300 * time.Millisecond,
		Seed:     7,
	})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Reads == 0 || res.Updates == 0 {
		t.Fatalf("A should mix reads and updates: %d/%d", res.Reads, res.Updates)
	}
	frac := float64(res.Reads) / float64(res.Ops)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("read fraction = %.2f, want ~0.5", frac)
	}
	if res.ReadFinal.Mean() != 40*time.Millisecond {
		t.Errorf("final mean = %v", res.ReadFinal.Mean())
	}
	if res.ReadPrelim.Mean() != 20*time.Millisecond {
		t.Errorf("prelim mean = %v", res.ReadPrelim.Mean())
	}
	div := res.DivergencePct()
	if div < 15 || div > 35 {
		t.Errorf("divergence = %.1f%%, want ~25%%", div)
	}
	if res.ThroughputOps <= 0 {
		t.Error("throughput not computed")
	}
}

func TestRunnerReadOnly(t *testing.T) {
	clock := netsim.NewVirtualClock()
	db := &fakeDB{clock: clock}
	res := Run(WorkloadC(DistZipfian, 100, 10), db, clock, Options{
		Threads:  2,
		Duration: 100 * time.Millisecond,
		Seed:     1,
	})
	if res.Updates != 0 {
		t.Errorf("C produced %d updates", res.Updates)
	}
	if res.Reads == 0 {
		t.Error("no reads")
	}
}

func TestRunnerWarmupDiscardsSamples(t *testing.T) {
	clock := netsim.NewVirtualClock()
	db := &fakeDB{clock: clock}
	res := Run(WorkloadC(DistZipfian, 100, 10), db, clock, Options{
		Threads:  1,
		Duration: 100 * time.Millisecond,
		Warmup:   90 * time.Millisecond,
		Seed:     1,
	})
	// Exactly the post-warmup 10% of the run is recorded.
	if res.Ops == 0 {
		t.Fatal("no post-warmup ops recorded")
	}
	full := Run(WorkloadC(DistZipfian, 100, 10), db, clock, Options{
		Threads:  1,
		Duration: 100 * time.Millisecond,
		Seed:     1,
	})
	if res.Ops >= full.Ops {
		t.Errorf("warmup run recorded %d ops, full run %d", res.Ops, full.Ops)
	}
}

func TestRunnerDefaultsThreads(t *testing.T) {
	clock := netsim.NewVirtualClock()
	db := &fakeDB{clock: clock}
	res := Run(WorkloadC(DistZipfian, 10, 10), db, clock, Options{
		Duration: 20 * time.Millisecond,
	})
	if res.Threads != 1 {
		t.Errorf("Threads defaulted to %d", res.Threads)
	}
}

// TestRunnerDeterministicReplay: the same seed against the same DB model
// performs the identical operation sequence under a VirtualClock.
func TestRunnerDeterministicReplay(t *testing.T) {
	run := func() *Result {
		clock := netsim.NewVirtualClock()
		db := &fakeDB{clock: clock, divEvery: 3}
		return Run(WorkloadA(DistZipfian, 100, 10), db, clock, Options{
			Threads:  4,
			Duration: 250 * time.Millisecond,
			Seed:     42,
		})
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Reads != b.Reads || a.Updates != b.Updates ||
		a.Diverged != b.Diverged || a.Elapsed != b.Elapsed ||
		a.ThroughputOps != b.ThroughputOps {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
}
