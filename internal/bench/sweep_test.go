package bench

import (
	"bytes"
	"testing"
)

// TestSweepQuorumGeography checks the fig6/fig7 trend the sweep exists to
// show: preliminary-view latency stays pinned near the closest replica
// regardless of quorum size or geography, while final-view latency pays for
// both — and the whole table replays byte-identically per seed.
func TestSweepQuorumGeography(t *testing.T) {
	run := func() (*SweepResult, []byte) {
		res := Sweep(Config{Quick: true, Seed: 5})
		js, err := marshalReport(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, js
	}
	res, js := run()
	t.Logf("\n%s", res.Format())
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 3 geographies x 3 quorums + 3 shard counts", len(res.Rows))
	}
	cell := func(geo string, quorum int) SweepRow {
		for _, r := range res.Rows {
			if r.Geography == geo && r.Quorum == quorum && r.Shards == 1 {
				return r
			}
		}
		t.Fatalf("missing cell %s/R=%d", geo, quorum)
		return SweepRow{}
	}
	shardCell := func(shards int) SweepRow {
		for _, r := range res.Rows {
			if r.Shards == shards {
				return r
			}
		}
		t.Fatalf("missing shard cell %d", shards)
		return SweepRow{}
	}
	for _, r := range res.Rows {
		if r.ThroughputOps <= 0 {
			t.Errorf("%s/R=%d: no throughput", r.Geography, r.Quorum)
		}
		if r.FinalMeanMs <= 0 {
			t.Errorf("%s/R=%d: empty final-latency histogram", r.Geography, r.Quorum)
		}
		// At R=1 the first response already closes the view: there is no
		// separate preliminary stage, so its histogram stays empty.
		if r.Quorum >= 2 && r.PrelimMeanMs <= 0 {
			t.Errorf("%s/R=%d: empty preliminary-latency histogram", r.Geography, r.Quorum)
		}
		if r.FinalMeanMs < r.PrelimMeanMs {
			t.Errorf("%s/R=%d: final view (%.1f ms) faster than preliminary (%.1f ms)",
				r.Geography, r.Quorum, r.FinalMeanMs, r.PrelimMeanMs)
		}
	}

	// Quorum axis (paper geography): R=3 must wait for the farthest replica,
	// R=1 only for the closest; preliminary views always answer from the
	// closest and should not care.
	if r1, r3 := cell("paper", 1), cell("paper", 3); r3.FinalMeanMs < 1.5*r1.FinalMeanMs {
		t.Errorf("final latency barely grows with quorum: R=1 %.1f ms vs R=3 %.1f ms",
			r1.FinalMeanMs, r3.FinalMeanMs)
	}
	if r2, r3 := cell("paper", 2), cell("paper", 3); r3.PrelimMeanMs > 1.5*r2.PrelimMeanMs {
		t.Errorf("preliminary latency should be quorum-insensitive: R=2 %.1f ms vs R=3 %.1f ms",
			r2.PrelimMeanMs, r3.PrelimMeanMs)
	}

	// Geography axis (R=2): stretching every RTT by 8x (metro -> worldwide)
	// must show up in the final view.
	if m, i := cell("metro", 2), cell("intercontinental", 2); i.FinalMeanMs < 2*m.FinalMeanMs {
		t.Errorf("final latency barely grows with distance: metro %.1f ms vs intercontinental %.1f ms",
			m.FinalMeanMs, i.FinalMeanMs)
	}

	// Shard axis (paper geography, R=2): the clients are not token-aware,
	// so keys owned by a non-zero shard pay the contact node's routing hop
	// — widening the ring must never make the preliminary view faster than
	// the unsharded cell, and every shard row still serves traffic.
	base := cell("paper", 2)
	for _, n := range []int{2, 4, 8} {
		r := shardCell(n)
		if r.Geography != "paper" || r.Quorum != 2 {
			t.Errorf("shard cell %d ran at %s/R=%d, want paper/R=2", n, r.Geography, r.Quorum)
		}
		if r.ThroughputOps <= 0 {
			t.Errorf("shards=%d: no throughput", n)
		}
		if r.PrelimMeanMs < base.PrelimMeanMs {
			t.Errorf("shards=%d preliminary (%.2f ms) beat the unsharded cell (%.2f ms) despite routing hops",
				n, r.PrelimMeanMs, base.PrelimMeanMs)
		}
	}

	_, js2 := run()
	if !bytes.Equal(js, js2) {
		t.Error("same-seed replay produced different sweep JSON bytes")
	}
}
