package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// deposedLeaderRepro is the shrunk world in which the hunt, with its zk
// queue population, found ROADMAP item 2(a) before the fix: the zk-leader
// track cuts FRK off while an FRK-contact enqueue is in flight, the deposed
// FRK acknowledged it after the heal, and the element was on no server, so
// hq-1's history had no linearization.
const deposedLeaderRepro = "testdata/hunt-zk-deposed-leader.json"

// TestHuntDeposedLeaderReproIsClean replays that world: with each zk server
// acting on its own epoch, every checker passes, and the world still has
// its cut and its zk queue clients.
func TestHuntDeposedLeaderReproIsClean(t *testing.T) {
	data, err := os.ReadFile(deposedLeaderRepro)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseHuntRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := worldOf(r)
	if err != nil {
		t.Fatal(err)
	}
	if w.Queues == 0 || len(w.Tracks) != 1 || w.Tracks[0].Name != "zk-leader" {
		t.Fatalf("repro world has %d queue clients and tracks %v, want queue clients and the zk-leader track", w.Queues, w.Tracks)
	}
	out := runHuntWorld(w)
	for _, v := range out.violations {
		t.Error(v.String())
	}
	if out.ops == 0 {
		t.Error("the repro world ran no operations")
	}
}

// recoveryRepro is the shrunk world in which the hunt, drawing a 5-server
// zk ensemble, found ROADMAP item 28 before the fix: after the zk-leader
// cut healed, VRG led epoch 8 while the other four servers held promises of
// epochs 9 to 12 from candidacies that lost, ignored its heartbeats and
// refused its proposals, and every probe failed with ErrLeaderLost.
const recoveryRepro = "testdata/hunt-zk-recovery.json"

// TestHuntRecoveryReproIsClean replays that world: every server converges
// on the live leader's epoch, so every post-heal probe commits and every
// checker passes, and the world still has its 5 servers and its cut.
func TestHuntRecoveryReproIsClean(t *testing.T) {
	data, err := os.ReadFile(recoveryRepro)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseHuntRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := worldOf(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Guarantee != "recovery" || w.ZKServers != 5 || w.Queues == 0 || len(w.Tracks) != 1 || w.Tracks[0].Name != "zk-leader" {
		t.Fatalf("repro of %q has %d zk servers, %d queue clients and tracks %v, want a recovery finding in a 5-server world with the zk-leader track",
			r.Guarantee, w.ZKServers, w.Queues, w.Tracks)
	}
	out := runHuntWorld(w)
	for _, v := range out.violations {
		t.Error(v.String())
	}
	if out.ops == 0 {
		t.Error("the repro world ran no operations")
	}
}

// openRecoveryRepros are two recovery findings of the tracks-harsh hunt that
// ROADMAP item 28 leaves open, archived as they shrink: seed 989 to a
// 5-server world with 21 fault events and 2 causal clients, in which two
// contacts fail with ErrLeaderLost 600 ms after the last heal, and seed 1869
// to a 3-server world with 6 fault events, in which every contact's probe
// times out.
var openRecoveryRepros = []struct {
	file          string
	zkServers     int // 0: the default 3
	events        int
	causalClients int
}{
	{"testdata/hunt-zk-recovery-989.json", 5, 21, 2},
	{"testdata/hunt-zk-recovery-1869.json", 0, 6, 0},
}

// TestHuntOpenRecoveryReprosReplay replays each open finding and requires
// its archived recovery violation and history digest byte for byte, in the
// world it was archived with. When item 28's fix lands they replay clean,
// and this test turns into TestHuntRecoveryReproIsClean's kind.
func TestHuntOpenRecoveryReprosReplay(t *testing.T) {
	for _, want := range openRecoveryRepros {
		data, err := os.ReadFile(want.file)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseHuntRepro(data)
		if err != nil {
			t.Fatal(err)
		}
		w, err := worldOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Guarantee != "recovery" || w.ZKServers != want.zkServers || countEvents(w.Tracks) != want.events || w.Causal != want.causalClients {
			t.Errorf("%s: a %q finding with %d zk servers, %d fault events and %d causal clients, want recovery, %d, %d and %d", want.file,
				r.Guarantee, w.ZKServers, countEvents(w.Tracks), w.Causal, want.zkServers, want.events, want.causalClients)
		}
		rep, err := HuntReplay(r)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Identical {
			t.Errorf("%s does not replay byte for byte:\narchived: %s\n  digest %s\nreplayed: %s\n  digest %s",
				want.file, r.Violation, r.HistoryDigest, rep.Violation, rep.HistoryDigest)
		}
	}
}

// FuzzParseHuntRepro: a hunt repro's wire form is a fixed point after one
// trip, like a fault track's (faults.FuzzTrackJSON), which it embeds.
// Whatever bytes parse as a repro, encoding them, parsing that and encoding
// again must give the same bytes. The checked-in repros seed the corpus;
// run it with:
// go test ./internal/bench/ -run '^$' -fuzz FuzzParseHuntRepro -fuzztime 10s
func FuzzParseHuntRepro(f *testing.F) {
	for _, repro := range []string{deposedLeaderRepro, recoveryRepro, openRecoveryRepros[0].file, openRecoveryRepros[1].file} {
		seed, err := os.ReadFile(repro)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"version":1,"tracks":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := ParseHuntRepro(data)
		if err != nil {
			return
		}
		b1, err := json.Marshal(r1)
		if err != nil {
			t.Fatalf("parsed repro does not encode: %v", err)
		}
		r2, err := ParseHuntRepro(b1)
		if err != nil {
			t.Fatalf("encoded repro %s does not parse: %v", b1, err)
		}
		b2, err := json.Marshal(r2)
		if err != nil {
			t.Fatalf("re-parsed repro does not encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("repro is no fixed point:\n%s\n%s", b1, b2)
		}
	})
}

// huntTestOpts is a bounded seed budget the planted bug must fall within:
// faults are in force for most of the tracks-harsh horizon, so the very
// first seeds should already trip the corrupted-version checkers.
func huntTestOpts(plant bool) HuntOptions {
	return HuntOptions{
		Seeds:    4,
		Profiles: []string{"tracks-harsh"},
		Workers:  4,
		Plant:    plant,
	}
}

// TestHuntFindsPlantedViolation is the hunt's end-to-end self-test: with
// the planted version-corruption bug enabled, a bounded seed budget must
// surface at least one checker violation, and replaying the archived
// shrunk repro must reproduce the identical violation byte for byte.
func TestHuntFindsPlantedViolation(t *testing.T) {
	res, err := Hunt(Config{Seed: 42, Quick: true}, huntTestOpts(true))
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("planted bug not found within %d seeds x %v", res.Seeds, res.Profiles)
	}
	f := res.Findings[0]
	if f.Repro == nil {
		t.Fatalf("finding has no repro")
	}
	if f.Violation == "" || f.Guarantee == "" {
		t.Fatalf("finding lacks violation detail: %+v", f)
	}
	rep, err := HuntReplay(f.Repro)
	if err != nil {
		t.Fatalf("HuntReplay: %v", err)
	}
	if !rep.Identical {
		t.Fatalf("replay did not reproduce byte-for-byte:\narchived:  %s\n  digest %s\nreplayed:  %s\n  digest %s",
			f.Repro.Violation, f.Repro.HistoryDigest, rep.Violation, rep.HistoryDigest)
	}
}

// TestHuntShrinkDeterministic: the same violation must shrink to a
// byte-identical repro every time — the minimizer is pure greedy over a
// deterministic world, so two independent hunts of the same seed window
// must archive identical JSON.
func TestHuntShrinkDeterministic(t *testing.T) {
	first, err := Hunt(Config{Seed: 42, Quick: true}, huntTestOpts(true))
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	second, err := Hunt(Config{Seed: 42, Quick: true}, huntTestOpts(true))
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(first.Findings) == 0 || len(second.Findings) != len(first.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(first.Findings), len(second.Findings))
	}
	a, err := marshalReport(first.Findings[0].Repro)
	if err != nil {
		t.Fatalf("marshalReport: %v", err)
	}
	b, err := marshalReport(second.Findings[0].Repro)
	if err != nil {
		t.Fatalf("marshalReport: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("shrunk repros differ across identical hunts:\n%s\n---\n%s", a, b)
	}
}

// TestHuntShrinkPreservesViolation: the shrunk world must still exhibit
// the target violation, and must be no larger than the original world on
// every shrink axis.
func TestHuntShrinkPreservesViolation(t *testing.T) {
	res, err := Hunt(Config{Seed: 42, Quick: true}, huntTestOpts(true))
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("planted bug not found")
	}
	f := res.Findings[0]
	if f.TracksAfter > f.TracksBefore || f.EventsAfter > f.EventsBefore || f.ClientsAfter > f.ClientsBefore {
		t.Fatalf("shrunk world grew: %+v", f)
	}
	w, err := worldOf(f.Repro)
	if err != nil {
		t.Fatalf("worldOf: %v", err)
	}
	out := runHuntWorld(w)
	v, ok := out.match(huntTarget{Guarantee: f.Guarantee, Client: f.Client, Key: f.Key})
	if !ok {
		t.Fatalf("shrunk world no longer exhibits %s on %s/%s; violations: %v",
			f.Guarantee, f.Client, f.Key, out.violations)
	}
	if v.String() != f.Violation {
		t.Fatalf("shrunk world violation drifted:\nwant %s\ngot  %s", f.Violation, v.String())
	}
}

// TestHuntCleanSweepSmoke: without the planted bug, a small sweep across
// both composed-track profiles must complete with zero violations. The
// full-scale (1000+ seed) clean sweep runs in the nightly hunt.
func TestHuntCleanSweepSmoke(t *testing.T) {
	res, err := Hunt(Config{Seed: 42, Quick: true}, HuntOptions{
		Seeds:    4,
		Profiles: []string{"tracks-mild", "tracks-harsh"},
		Workers:  4,
	})
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("clean sweep found %d violations; first: %s",
			len(res.Findings), res.Findings[0].Violation)
	}
	if res.Runs != 8 || res.Ops == 0 {
		t.Fatalf("sweep did not run: %+v", res)
	}
}

// TestHuntShardedProfileClean: the sharded nemesis product runs the same
// partition + WAN schedules against a 4-shard ring — cross-shard quorum
// reads, non-token-aware routing hops and shard-tagged hint replay all sit
// under the session and register checkers, and the histories must stay as
// clean as the unsharded world's.
func TestHuntShardedProfileClean(t *testing.T) {
	res, err := Hunt(Config{Seed: 42, Quick: true}, HuntOptions{
		Seeds:    4,
		Profiles: []string{"tracks-sharded"},
		Workers:  4,
	})
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("sharded sweep found %d violations; first: %s",
			len(res.Findings), res.Findings[0].Violation)
	}
	if res.Runs != 4 || res.Ops == 0 {
		t.Fatalf("sweep did not run: %+v", res)
	}
}

// TestHuntShardedPlantedViolationShardTagged: the planted-bug self-test on
// the sharded profile — the checkers must still catch the corruption when
// operations cross shard boundaries, proving the sharded plane does not
// mask real violations.
func TestHuntShardedPlantedViolationShardTagged(t *testing.T) {
	res, err := Hunt(Config{Seed: 42, Quick: true}, HuntOptions{
		Seeds:    6,
		Profiles: []string{"tracks-sharded"},
		Workers:  4,
		Plant:    true,
	})
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("planted bug not detected on the sharded profile")
	}
}
