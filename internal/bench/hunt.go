package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/causal"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// The hunt world's fixed shape. Every knob that varies lives in huntWorld
// (and is therefore shrinkable and serialized into repros); these are the
// invariants that make a (seed, profile) pair a complete world description.
const (
	huntUnit        = 50 * time.Millisecond
	huntSessionKeys = 12
	huntCausalKeys  = 6
	huntSessions    = 4
	huntCausal      = 2
	huntArrivalRate = 80 // open-loop arrivals/second across the arrival clients
	// The zk queue population: clients, two to a queue, one contacting FRK
	// (the ensemble's initial leader) and one IRL. The zk-leader track cuts
	// FRK off for huntLeaderCut election timeouts, long enough for the rest
	// to elect; an operation may take huntQueueTimeout units, longer than the
	// cut, so one in flight at FRK outlasts it.
	huntQueues       = 4
	huntLeaderCut    = 3
	huntQueueTimeout = 10
)

// HuntOptions parameterizes the seed-space violation hunt.
type HuntOptions struct {
	// Seeds is the number of consecutive seeds swept per profile, from
	// Config.Seed on (default: 1000, or 16 under Config.Quick).
	Seeds int
	// Profiles are the faults profile names to sweep (ProfilesByName;
	// default every composed nemesis product, faults.ProfileNames).
	Profiles []string
	// Workers bounds the parallel worlds (default GOMAXPROCS). Each world
	// runs on its own VirtualClock, so parallelism does not perturb replay.
	Workers int
	// Plant enables the planted bug: under any active fault, completed
	// writes ack with a corrupted (stale) version token. The hunt must find
	// it — the end-to-end self-test of checkers, minimizer and repros.
	Plant bool
}

// HuntFinding is one violating (seed, profile) world, minimized.
type HuntFinding struct {
	Profile   string `json:"profile"`
	Seed      int64  `json:"seed"`
	Guarantee string `json:"guarantee"`
	Client    string `json:"client"`
	Key       string `json:"key"`
	// Violation is the shrunk world's rendered violation — replaying the
	// repro must reproduce it byte for byte.
	Violation string `json:"violation"`
	// Shrink statistics: the minimizer's before/after and how many world
	// re-runs it spent.
	TracksBefore  int `json:"tracks_before"`
	TracksAfter   int `json:"tracks_after"`
	EventsBefore  int `json:"events_before"`
	EventsAfter   int `json:"events_after"`
	ClientsBefore int `json:"clients_before"`
	ClientsAfter  int `json:"clients_after"`
	ShrinkRuns    int `json:"shrink_runs"`
	// Repro is the archived reproduction recipe (icgbench -exp hunt -repro).
	Repro *HuntRepro `json:"repro"`
}

// HuntResult is the hunt's full output (icgbench -fault-json marshals it).
type HuntResult struct {
	Profiles     []string      `json:"profiles"`
	Seeds        int           `json:"seeds"`
	StartSeed    int64         `json:"start_seed"`
	Workers      int           `json:"workers"`
	Planted      bool          `json:"planted"`
	Runs         int           `json:"runs"`
	Ops          int64         `json:"ops"`
	Inconclusive int           `json:"inconclusive_runs"`
	Findings     []HuntFinding `json:"findings"`
	untraced
}

// Violations counts the violating worlds.
func (res *HuntResult) Violations() int { return len(res.Findings) }

// huntWorld is one self-contained simulated world: a pure function of its
// fields. The sweep generates worlds from (profile, seed); the minimizer
// mutates copies; a repro embeds one, and the field order and tags are its
// JSON form. ZKServers is the zk ensemble's size when it is 5, and 0 when it
// is 3, the default: the field is then absent, as in repros from before it.
type huntWorld struct {
	Profile     string         `json:"profile"`
	Seed        int64          `json:"seed"`
	Unit        time.Duration  `json:"unit_ns"`
	Horizon     time.Duration  `json:"horizon_ns"`
	Sessions    int            `json:"sessions"`
	Causal      int            `json:"causal_clients"`
	Queues      int            `json:"queue_clients"`
	ArrivalRate float64        `json:"arrival_rate"`
	Planted     bool           `json:"planted"`
	ZKServers   int            `json:"zk_servers,omitempty"`
	Tracks      []faults.Track `json:"tracks"`
}

// newHuntWorld builds the full-size world for a (profile, seed) pair.
func newHuntWorld(profile string, seed int64, plant bool) (huntWorld, error) {
	profs, err := faults.ProfilesByName(profile, huntUnit)
	if err != nil {
		return huntWorld{}, err
	}
	var horizon time.Duration
	for _, p := range profs {
		if p.Horizon > horizon {
			horizon = p.Horizon
		}
	}
	servers := 0
	if rand.New(rand.NewSource(seed+61)).Intn(2) == 1 {
		servers = 5
	}
	return huntWorld{
		Profile:     profile,
		Seed:        seed,
		Unit:        huntUnit,
		Horizon:     horizon,
		ZKServers:   servers,
		Tracks:      append(faults.RandomTracks(seed, profs), leaderCut(seed, horizon, servers)),
		Sessions:    huntSessions,
		Causal:      huntCausal,
		Queues:      huntQueues,
		ArrivalRate: huntArrivalRate,
		Planted:     plant,
	}, nil
}

// leaderCut is the zk-leader track: one partition that cuts FRK, where the
// zk ensemble of servers (0 = 3) starts out leading, off from the rest for
// huntLeaderCut election timeouts, starting at a seeded instant in the second
// quarter of the horizon. The majority elects a successor meanwhile, and
// operations in flight at FRK when the cut begins are still within their
// timeout when it heals.
func leaderCut(seed int64, horizon time.Duration, servers int) faults.Track {
	at := horizon/4 + time.Duration(rand.New(rand.NewSource(seed+59)).Int63n(int64(horizon/4)))
	cut := faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, zkRegions[1:max(servers, 3)]}, ID: 1}
	heal := at + huntLeaderCut*huntElectionTimeout(servers)*huntUnit
	return faults.Track{Name: "zk-leader", Schedule: faults.NewSchedule().At(at, cut).At(heal, faults.Heal{ID: 1})}
}

// huntOutcome is one world's verdict.
type huntOutcome struct {
	violations   []history.Violation
	inconclusive []string
	ops          int
	digest       string
}

// huntTarget identifies a violation across re-runs of shrinking worlds:
// the guarantee plus the (client, key) it fired on. Version numbers and
// timestamps may drift as the world shrinks; the triple does not.
type huntTarget struct {
	Guarantee, Client, Key string
}

func targetOf(v history.Violation) huntTarget {
	return huntTarget{Guarantee: v.Guarantee, Client: v.Client, Key: v.Key}
}

// match returns the first violation matching the target.
func (o *huntOutcome) match(tgt huntTarget) (history.Violation, bool) {
	for _, v := range o.violations {
		if targetOf(v) == tgt {
			return v, true
		}
	}
	return history.Violation{}, false
}

// plantedBinding wraps the cassandra binding with the hunt's seeded bug:
// while any fault is in force, a completed write acks with version token 1
// — a stale token the write's session has long since surpassed. Sessions
// deliver mutating finals unconditionally, so the corruption lands in the
// recorded history, where the session, cross-object and causal-cut
// checkers all see a write ordered before state its client had already
// observed. Embedding forwards the rest of the binding (levels, scheduler,
// default timeout), so wrapped clients run the normal pipeline.
type plantedBinding struct {
	*cassandra.Binding
	inj *faults.Injector
}

func (p *plantedBinding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	if op.OpMutates() {
		inner := cb
		cb = func(r binding.Result) {
			if r.Err == nil && r.Version > 1 && p.inj.Faulted() {
				r.Version = 1
			}
			inner(r)
		}
	}
	p.Binding.SubmitOperation(ctx, op, levels, cb)
}

func huntKey(i int) string       { return fmt.Sprintf("k-%02d", i) }
func huntCausalKey(i int) string { return fmt.Sprintf("c-%02d", i) }

// huntShards maps a profile to the world's cluster shard count: the
// sharded nemesis product runs its schedules against a 4-shard ring, so
// cross-shard quorum reads, routing hops and shard-tagged hint replay all
// execute under the checkers. The shard count rides the profile name, so
// repros (which archive the profile) rebuild the same world.
func huntShards(profile string) int {
	if profile == "tracks-sharded" {
		return 4
	}
	return 1
}

// runHuntWorld builds and runs one world on a fresh VirtualClock and
// checks every recorded history. Three populations share the composed
// fault schedule:
//
//   - paced session clients on Correctable Cassandra (strong quorum 3,
//     half contacting FRK, half IRL) — the closed-world keyspace the
//     session, cross-object-WFR, causal-cut and register-linearizability
//     checkers verify completely;
//   - open-loop arrival clients (internal/load Poisson) through an
//     admission controller backpressured by the FRK coordinator's queue
//     delay, with capped-exponential retries — the overload × fault
//     product, on the same recorded keyspace;
//   - plain (sessionless) ladder clients on the causal store, on their own
//     recorder, checked with causal-cut only: the three-level ladder must
//     hold without any session machinery in front of it;
//   - session clients on Correctable ZooKeeper queues, on a recorder of
//     their own, checked for session guarantees and per-queue
//     linearizability: half contact FRK, the initial leader, which the
//     zk-leader track cuts off, and their operations outlast the cut.
func runHuntWorld(w huntWorld) *huntOutcome {
	return w.runOn(newWorld(Config{Seed: w.Seed}, faults.Compose(w.Tracks...), w.Horizon))
}

// runOn populates h, the fabric built for w, and runs it. (The liveness test
// hands in one whose transport it has tampered with.)
func (w huntWorld) runOn(h *world) *huntOutcome {
	cfg := Config{Seed: w.Seed}
	cluster := h.newCassandra(cfg, cassandraOpts{
		correctable: true,
		opTimeout:   3 * w.Unit,
		shards:      huntShards(w.Profile),
	})
	// The checked keyspace is deliberately NOT preloaded: preloads consume
	// store-wide version timestamps outside the recorded history, which the
	// register checker would (correctly) flag as phantom writes. The causal
	// keyspace below is only causal-cut-checked, so preloads are fine there.
	val := []byte("hunt-payload-0123456789abcdef")
	constVal := func(*rand.Rand) []byte { return val }

	var st *causal.Store
	if w.Causal > 0 {
		var err error
		st, err = causal.NewStore(causal.Config{
			Primary:          netsim.FRK,
			Backups:          []netsim.Region{netsim.IRL, netsim.VRG},
			Transport:        h.tr,
			ServiceTime:      200 * time.Microsecond,
			PropagationDelay: w.Unit / 2,
			OpTimeout:        3 * w.Unit,
		})
		if err != nil {
			panic("bench: " + err.Error())
		}
		for i := 0; i < huntCausalKeys; i++ {
			st.Preload(huntCausalKey(i), val)
		}
	}

	recA := history.NewRecorder() // cassandra sessions + arrivals
	recB := history.NewRecorder() // plain causal ladder clients
	recC := history.NewRecorder() // zk queue sessions
	ctx := context.Background()

	sessionBinding := func(client, coord netsim.Region) binding.Binding {
		b := cassandra.NewBinding(cassandra.NewClient(cluster, client, coord),
			cassandra.BindingConfig{StrongQuorum: 3})
		if w.Planted {
			return &plantedBinding{Binding: b, inj: h.inj}
		}
		return b
	}

	// Paced session clients.
	h.sessions(recA, sessionMix{
		n:     w.Sessions,
		label: "sess-%02d",
		binding: func(i int) binding.Binding {
			return sessionBinding(netsim.IRL, alternate(i, netsim.FRK, netsim.IRL))
		},
		seed:  func(i int) int64 { return w.Seed + 100_003*int64(i) + 7 },
		key:   huntKey,
		keys:  huntSessionKeys,
		reads: 0.6,
		value: constVal,
		pace:  w.Unit / 12,
	})

	// Open-loop arrival clients through admission control.
	if w.ArrivalRate > 0 {
		gate := h.gate(load.Config{
			PerClientRate:  w.ArrivalRate,
			PerClientBurst: w.ArrivalRate / 4,
			Sample:         cluster.Replica(netsim.FRK).Server().QueueDelay,
			SampleEvery:    w.Unit / 2,
			Threshold:      w.Unit,
			MinRate:        20,
			MaxRate:        2000,
		})
		open := make([]*binding.Session, 2)
		for i := range open {
			// No client-side retries here, deliberately: a retried write can
			// land twice server-side while recording one completed op, which
			// makes the second version token unattributable and the register
			// checker unsound. Timed-out ops stay incomplete and enter the
			// linearizability history as ambiguous writes instead.
			open[i] = h.session(recA, fmt.Sprintf("open-%02d", i),
				sessionBinding(netsim.VRG, netsim.FRK), binding.WithAdmission(gate))
		}
		rng := rand.New(rand.NewSource(w.Seed + 31))
		h.arrive(load.NewPoisson(w.ArrivalRate, w.Seed+41), w.Horizon, func(n int) func() {
			sess := open[n%len(open)]
			key := huntKey(rng.Intn(huntSessionKeys))
			if rng.Float64() < 0.7 {
				return func() { _, _ = sess.Get(ctx, key).Final(ctx) }
			}
			return func() { _, _ = sess.Put(ctx, key, val).Final(ctx) }
		})
	}

	// Plain causal ladder clients.
	for i := 0; i < w.Causal; i++ {
		region := alternate(i, netsim.IRL, netsim.VRG)
		kv := causal.NewKV(causal.NewBinding(causal.NewClient(st, region)),
			binding.WithObserver(recB),
			binding.WithLabel(fmt.Sprintf("cau-%02d", i)))
		h.loop(w.Seed+500_009*int64(i)+13, w.Unit/10, func(rng *rand.Rand) {
			key := huntCausalKey(rng.Intn(huntCausalKeys))
			if rng.Float64() < 0.7 {
				_, _ = kv.Get(ctx, key).Final(ctx)
			} else {
				_, _ = kv.Put(ctx, key, val).Final(ctx)
			}
		})
	}

	// Correctable ZooKeeper queue sessions.
	if w.Queues > 0 {
		timeout := huntElectionTimeout(w.ZKServers) * w.Unit
		e := h.newZK(cfg, zkOpts{
			correctable:     true,
			leader:          netsim.FRK,
			servers:         w.ZKServers,
			probe:           huntQueue(0),
			opTimeout:       huntQueueTimeout * w.Unit,
			heartbeat:       timeout / 4,
			electionTimeout: timeout,
		})
		e.Bootstrap(zk.CreateTxn{Path: "/queues"})
		for q := 0; q < (w.Queues+1)/2; q++ {
			e.Bootstrap(zk.CreateTxn{Path: "/queues/" + huntQueue(q)})
		}
		for i := 0; i < w.Queues; i++ {
			contact := alternate(i, netsim.FRK, netsim.IRL)
			sess := h.session(recC, fmt.Sprintf("zkq-%02d", i), zk.NewBinding(zk.NewQueueClient(e, contact, contact)))
			queue := huntQueue(i / 2)
			h.loop(w.Seed+700_001*int64(i)+17, w.Unit/10, func(rng *rand.Rand) {
				if rng.Float64() < 0.6 {
					_, _ = sess.Enqueue(ctx, queue, val).Final(ctx)
				} else {
					_, _ = sess.Dequeue(ctx, queue).Final(ctx)
				}
			})
		}
	}

	_, stuck := h.run()

	a, b, c := checkHistory(recA, modelRegisters), checkHistory(recB, modelLadder), checkHistory(recC, modelQueues)
	out := &huntOutcome{
		ops:          len(a.ops) + len(b.ops) + len(c.ops),
		inconclusive: append(a.inconclusive, c.inconclusive...),
		digest:       historyDigest(a.ops, b.ops, c.ops), // an empty history adds nothing
	}
	if b, ok := stuck.(*breach); ok {
		// A world that does not come to rest, or whose zk contacts do not
		// commit again, goes first: its histories are missing the
		// operations that hung or could not commit, so the safety verdicts
		// below are over less than the world issued.
		out.violations = append(out.violations, history.Violation{Guarantee: b.guarantee, Detail: b.detail})
	}
	out.violations = append(out.violations, a.session...)
	out.violations = append(out.violations, a.lin...)
	out.violations = append(out.violations, b.session...)
	out.violations = append(out.violations, c.session...)
	out.violations = append(out.violations, c.lin...)
	return out
}

func huntQueue(q int) string { return fmt.Sprintf("hq-%d", q) }

// huntElectionTimeout is the election timeout, in units, of a hunt ensemble
// of servers (0 = 3): the least that covers the longest round trip a server
// needs to reach a majority, 83 ms (IRL-VRG) of three servers and 132 ms
// (IRL-ORE) of five. A shorter timeout expires before a won election's
// first heartbeat comes back to the voters, which then stand again, and
// leadership churns on after every heal (zk.Config.ElectionTimeout).
func huntElectionTimeout(servers int) time.Duration {
	if servers == 5 {
		return 3
	}
	return 2
}

// cloneTracks deep-copies the track list (schedules rebuilt, so candidate
// mutations never alias the original).
func cloneTracks(ts []faults.Track) []faults.Track {
	out := make([]faults.Track, len(ts))
	for i, t := range ts {
		s := faults.NewSchedule()
		for _, te := range t.Schedule.Events() {
			s.At(te.At, te.Event)
		}
		out[i] = faults.Track{Name: t.Name, Schedule: s}
	}
	return out
}

// clientCount is the world's total client population: paced sessions,
// plain ladder clients, zk queue clients, and the two arrival-driven clients
// when the generator is on.
func clientCount(w huntWorld) int {
	n := w.Sessions + w.Causal + w.Queues
	if w.ArrivalRate > 0 {
		n += 2
	}
	return n
}

func countEvents(ts []faults.Track) int {
	n := 0
	for _, t := range ts {
		n += len(t.Schedule.Events())
	}
	return n
}

// minimizeWorld is the deterministic delta-debugging minimizer: greedily
// drop whole fault tracks, then whole atoms (a partition with its heal, a
// crash with its restart, a spike or drop alone) within the remaining
// tracks, then shrink the client populations, switch off the arrival
// generator and move the zk ensemble to 3 servers — accepting each
// candidate iff re-running the candidate world still reproduces the target
// violation (same guarantee, client, key).
// Passes repeat until a fixpoint. Everything is sequential and ordered, so
// the same (world, target) always shrinks to the same repro, byte for
// byte. Returns the shrunk world and the number of candidate runs spent.
func minimizeWorld(w huntWorld, tgt huntTarget) (huntWorld, int) {
	runs := 0
	reproduces := func(cand huntWorld) bool {
		runs++
		_, ok := runHuntWorld(cand).match(tgt)
		return ok
	}
	for {
		changed := false

		// Whole tracks.
		for i := 0; i < len(w.Tracks); {
			cand := w
			cand.Tracks = append(cloneTracks(w.Tracks[:i]), cloneTracks(w.Tracks[i+1:])...)
			if reproduces(cand) {
				w = cand
				changed = true
			} else {
				i++
			}
		}

		// Atoms within each remaining track.
		for ti := range w.Tracks {
			atoms := w.Tracks[ti].Schedule.Atoms()
			for ai := 0; ai < len(atoms); {
				rest := append(append([][]faults.TimedEvent{}, atoms[:ai]...), atoms[ai+1:]...)
				s := faults.NewSchedule()
				for _, atom := range rest {
					for _, te := range atom {
						s.At(te.At, te.Event)
					}
				}
				cand := w
				cand.Tracks = cloneTracks(w.Tracks)
				cand.Tracks[ti] = faults.Track{Name: w.Tracks[ti].Name, Schedule: s}
				if reproduces(cand) {
					w = cand
					atoms = rest
					changed = true
				} else {
					ai++
				}
			}
		}

		// Populations: fewer session clients, no arrivals, fewer ladder
		// clients, fewer queue clients.
		for w.Sessions > 1 {
			cand := w
			cand.Sessions--
			if !reproduces(cand) {
				break
			}
			w = cand
			changed = true
		}
		if w.ArrivalRate > 0 {
			cand := w
			cand.ArrivalRate = 0
			if reproduces(cand) {
				w = cand
				changed = true
			}
		}
		for w.Causal > 0 {
			cand := w
			cand.Causal--
			if !reproduces(cand) {
				break
			}
			w = cand
			changed = true
		}
		for w.Queues > 0 {
			cand := w
			cand.Queues--
			if !reproduces(cand) {
				break
			}
			w = cand
			changed = true
		}

		// Configuration: the zk ensemble toward its default 3 servers.
		if w.ZKServers != 0 {
			cand := w
			cand.ZKServers = 0
			if reproduces(cand) {
				w = cand
				changed = true
			}
		}

		if !changed {
			return w, runs
		}
	}
}

// HuntRepro is the archived reproduction recipe for one finding: the
// shrunk world spelled out in full (explicit fault tracks, population
// sizes) plus the expected violation and history digest. Replaying it
// (HuntReplay, or icgbench -exp hunt -repro file.json) rebuilds the world
// from this description alone and must reproduce the violation byte for
// byte.
type HuntRepro struct {
	Version int `json:"version"`
	huntWorld
	Guarantee     string `json:"guarantee"`
	Client        string `json:"client"`
	Key           string `json:"key"`
	Violation     string `json:"violation"`
	HistoryDigest string `json:"history_digest"`
}

// reproOf describes a shrunk world and its violation.
func reproOf(w huntWorld, v history.Violation, digest string) *HuntRepro {
	return &HuntRepro{
		Version: 1, huntWorld: w,
		Guarantee: v.Guarantee, Client: v.Client, Key: v.Key,
		Violation: v.String(), HistoryDigest: digest,
	}
}

// worldOf rebuilds the world a repro describes.
func worldOf(r *HuntRepro) (huntWorld, error) {
	if r.Unit <= 0 || r.Horizon <= 0 {
		return huntWorld{}, fmt.Errorf("bench: repro has no unit/horizon")
	}
	return r.huntWorld, nil
}

// ParseHuntRepro parses an archived repro.
func ParseHuntRepro(data []byte) (*HuntRepro, error) {
	r := &HuntRepro{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("bench: bad hunt repro: %w", err)
	}
	return r, nil
}

// HuntReplayResult is the outcome of replaying a repro.
type HuntReplayResult struct {
	// Identical reports byte-for-byte reproduction: the replayed world hit
	// the same violation with the same rendering and history digest.
	Identical bool `json:"identical"`
	// Violation and HistoryDigest are the replayed world's actual outcome,
	// for diffing against the repro when not identical.
	Violation     string `json:"violation"`
	HistoryDigest string `json:"history_digest"`
}

// HuntReplay re-runs a repro's world and compares the outcome against the
// archived violation.
func HuntReplay(r *HuntRepro) (*HuntReplayResult, error) {
	w, err := worldOf(r)
	if err != nil {
		return nil, err
	}
	out := runHuntWorld(w)
	res := &HuntReplayResult{HistoryDigest: out.digest}
	if v, ok := out.match(huntTarget{Guarantee: r.Guarantee, Client: r.Client, Key: r.Key}); ok {
		res.Violation = v.String()
	} else if len(out.violations) > 0 {
		res.Violation = out.violations[0].String()
	}
	res.Identical = res.Violation == r.Violation && res.HistoryDigest == r.HistoryDigest
	return res, nil
}

// Hunt sweeps Seeds consecutive seeds per profile, each a self-contained
// world on its own VirtualClock (worker-pool parallel — results are
// position-indexed, so parallelism cannot perturb the outcome), checks
// every recorded history, and minimizes each violating world into an
// archived repro.
func Hunt(cfg Config, opts HuntOptions) (*HuntResult, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = cfg.pick(1000, 16)
	}
	if len(opts.Profiles) == 0 {
		opts.Profiles = faults.ProfileNames()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	for _, p := range opts.Profiles {
		if _, err := faults.ProfilesByName(p, huntUnit); err != nil {
			return nil, err
		}
	}

	// World i is profile i/Seeds at seed cfg.Seed + i%Seeds.
	worlds := make([]huntWorld, len(opts.Profiles)*opts.Seeds)
	outcomes := make([]*huntOutcome, len(worlds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < opts.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(worlds) {
					return
				}
				w, err := newHuntWorld(opts.Profiles[i/opts.Seeds], cfg.Seed+int64(i%opts.Seeds), opts.Plant)
				if err != nil {
					panic("bench: " + err.Error()) // profiles validated above
				}
				worlds[i] = w
				outcomes[i] = runHuntWorld(w)
			}
		}()
	}
	wg.Wait()

	res := &HuntResult{
		Profiles: opts.Profiles, Seeds: opts.Seeds, StartSeed: cfg.Seed,
		Workers: opts.Workers, Planted: opts.Plant, Runs: len(worlds),
	}
	for i, o := range outcomes {
		res.Ops += int64(o.ops)
		if len(o.inconclusive) > 0 {
			res.Inconclusive++
		}
		if len(o.violations) == 0 {
			continue
		}
		tgt := targetOf(o.violations[0])
		f := HuntFinding{
			Profile: worlds[i].Profile, Seed: worlds[i].Seed,
			Guarantee: tgt.Guarantee, Client: tgt.Client, Key: tgt.Key,
			TracksBefore:  len(worlds[i].Tracks),
			EventsBefore:  countEvents(worlds[i].Tracks),
			ClientsBefore: clientCount(worlds[i]),
		}
		shrunk, shrinkRuns := minimizeWorld(worlds[i], tgt)
		out := runHuntWorld(shrunk)
		v, ok := out.match(tgt)
		if !ok {
			// Defensive: the minimizer only accepts reproducing candidates,
			// so the shrunk world must reproduce; fall back to the original
			// if an invariant ever breaks rather than archiving a dud.
			shrunk, out = worlds[i], o
			v, _ = o.match(tgt)
		}
		f.TracksAfter = len(shrunk.Tracks)
		f.EventsAfter = countEvents(shrunk.Tracks)
		f.ClientsAfter = clientCount(shrunk)
		f.ShrinkRuns = shrinkRuns
		f.Violation = v.String()
		f.Repro = reproOf(shrunk, v, out.digest)
		res.Findings = append(res.Findings, f)
	}
	return res, nil
}

// Format renders a hunt result as the icgbench table.
func (res *HuntResult) Format() string {
	var b strings.Builder
	planted := ""
	if res.Planted {
		planted = ", planted bug ON"
	}
	fmt.Fprintf(&b, "nemesis hunt: %d profiles x %d seeds = %d runs (seeds %d..%d), %d checked ops, %d workers%s\n",
		len(res.Profiles), res.Seeds, res.Runs, res.StartSeed, res.StartSeed+int64(res.Seeds)-1,
		res.Ops, res.Workers, planted)
	fmt.Fprintf(&b, "  profiles: %s\n", strings.Join(res.Profiles, ", "))
	if res.Inconclusive > 0 {
		fmt.Fprintf(&b, "  %d runs had an inconclusive linearizability search (bounded; not a violation)\n", res.Inconclusive)
	}
	if len(res.Findings) == 0 {
		fmt.Fprintf(&b, "  no violations: every history passed every checker\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %d VIOLATIONS\n", len(res.Findings))
	for i, f := range res.Findings {
		fmt.Fprintf(&b, "  [%d] profile %s seed %d: %s (client %s, key %q)\n",
			i+1, f.Profile, f.Seed, f.Guarantee, f.Client, f.Key)
		fmt.Fprintf(&b, "      shrunk: tracks %d -> %d, fault events %d -> %d, clients %d -> %d (%d shrink runs)\n",
			f.TracksBefore, f.TracksAfter, f.EventsBefore, f.EventsAfter,
			f.ClientsBefore, f.ClientsAfter, f.ShrinkRuns)
		for _, line := range strings.Split(strings.TrimRight(f.Violation, "\n"), "\n") {
			fmt.Fprintf(&b, "      %s\n", line)
		}
	}
	return b.String()
}
