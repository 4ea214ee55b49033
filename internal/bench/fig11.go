package bench

import (
	"context"
	"math/rand"
	"time"

	"correctables/internal/apps/adserver"
	"correctables/internal/apps/twissandra"
	"correctables/internal/cassandra"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// Fig11Row is one datapoint of Figure 11: application-level latency vs
// throughput for the ad serving system and Twissandra, baseline (C2, no
// speculation) vs ICG (CC2 with speculation), under YCSB-shaped workloads.
type Fig11Row struct {
	App      string // "ads" or "twissandra"
	Workload string // "A", "B", "C"
	System   string // "C2" or "CC2"
	Threads  int
	// Throughput is application operations per model second.
	Throughput float64
	// Latency is the average end-to-end latency of the read operation
	// (fetchAdsByUserId / get_timeline), including the speculative or
	// sequential second-stage fetch.
	Latency time.Duration
	// MisspeculationPct is the fraction of speculative reads whose
	// preliminary diverged (the paper observes < 1%).
	MisspeculationPct float64
}

// fig11ThreadSweep returns per-app client thread counts.
func fig11ThreadSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{2, 6}
	}
	return []int{2, 4, 8, 16, 32}
}

// adsDB adapts the ad service to the YCSB runner: a "read" is
// FetchAdsByUserID, an "update" rewrites a profile's references.
type adsDB struct {
	svc         *adserver.Service
	speculative bool
	opts        adserver.LoadOptions
	profiles    int
}

func (db *adsDB) Read(rng *rand.Rand, key string) (ycsb.ReadOutcome, error) {
	out, err := db.svc.FetchAdsByUserID(context.Background(), keyIndex(key)%db.profiles, db.speculative)
	return appRead(out.Speculative, out.PrelimAt, out.Latency, out.Misspeculated, err)
}

func (db *adsDB) Update(rng *rand.Rand, key string, value []byte) (time.Duration, error) {
	uid := keyIndex(key) % db.profiles
	return db.svc.UpdateProfile(context.Background(), uid, adserver.RandomRefs(rng, db.opts))
}

// twissDB adapts the microblogging service likewise.
type twissDB struct {
	svc         *twissandra.Service
	speculative bool
	timelines   int
}

func (db *twissDB) Read(rng *rand.Rand, key string) (ycsb.ReadOutcome, error) {
	out, err := db.svc.GetTimeline(context.Background(), keyIndex(key)%db.timelines, db.speculative)
	return appRead(out.Speculative, out.PrelimAt, out.Latency, out.Misspeculated, err)
}

func (db *twissDB) Update(rng *rand.Rand, key string, value []byte) (time.Duration, error) {
	user := keyIndex(key) % db.timelines
	return db.svc.PostTweet(context.Background(), user, "bench tweet "+key, rng)
}

// appRead maps one app read onto the YCSB runner's outcome: a speculative
// read has a preliminary, and the app's misspeculation is its divergence.
func appRead(speculative bool, prelimAt, latency time.Duration, misspeculated bool, err error) (ycsb.ReadOutcome, error) {
	if err != nil {
		return ycsb.ReadOutcome{}, err
	}
	return ycsb.ReadOutcome{HasPrelim: speculative, PrelimLatency: prelimAt,
		FinalLatency: latency, Diverged: misspeculated}, nil
}

// keyIndex extracts the numeric suffix of a YCSB key.
func keyIndex(key string) int {
	n := 0
	for _, c := range key {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Fig11 reproduces Figure 11: speculation via ICG in the advertising system
// (replicas FRK/IRL/VRG) and Twissandra (replicas VRG/NCA/ORE), client in
// IRL. The CC2 variant hides the strong read's latency behind the
// speculative second-stage fetch; the paper reports up to 40% latency
// reduction (100ms -> 60ms for the ad system) at a ~6% throughput cost,
// with divergence consistently under 1%.
func Fig11(cfg Config) []Fig11Row {
	dur := cfg.pickDur(12*time.Second, 2*time.Second) // model time
	warmup := cfg.pickDur(1600*time.Millisecond, 200*time.Millisecond)

	adsLoad := adserver.LoadOptions{Profiles: 400, Ads: 2000, MaxRefs: 8, AdBodySize: 600, Seed: cfg.Seed}
	twLoad := twissandra.LoadOptions{Tweets: 2000, Timelines: 400, Seed: cfg.Seed}
	if cfg.Quick {
		adsLoad = adserver.LoadOptions{Profiles: 60, Ads: 300, MaxRefs: 4, AdBodySize: 200, Seed: cfg.Seed}
		twLoad = twissandra.LoadOptions{Tweets: 200, Timelines: 60, Seed: cfg.Seed}
	}

	type appCase struct {
		app     string
		regions []netsim.Region
		coord   netsim.Region
		makeDB  func(cluster *cassandra.Cluster, speculative bool) ycsb.DB
		records int
	}
	cases := []appCase{
		{
			app:     "ads",
			regions: []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
			coord:   netsim.FRK,
			makeDB: func(cluster *cassandra.Cluster, speculative bool) ycsb.DB {
				b := cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{})
				svc := adserver.NewService(b)
				return &adsDB{svc: svc, speculative: speculative, opts: adsLoad, profiles: adsLoad.Profiles}
			},
			records: adsLoad.Profiles,
		},
		{
			app:     "twissandra",
			regions: []netsim.Region{netsim.VRG, netsim.NCA, netsim.ORE},
			coord:   netsim.VRG,
			makeDB: func(cluster *cassandra.Cluster, speculative bool) ycsb.DB {
				b := cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.VRG), cassandra.BindingConfig{})
				svc := twissandra.NewService(b)
				return &twissDB{svc: svc, speculative: speculative, timelines: twLoad.Timelines}
			},
			records: twLoad.Timelines,
		},
	}

	var rows []Fig11Row
	for _, ac := range cases {
		for _, wname := range []string{"A", "B", "C"} {
			for _, threads := range fig11ThreadSweep(cfg) {
				for _, sys := range []struct {
					name        string
					correctable bool
					speculative bool
				}{{"C2", false, false}, {"CC2", true, true}} {
					h := newFabric(cfg)
					cluster := h.newCassandra(cfg, cassandraOpts{
						regions:     ac.regions,
						correctable: sys.correctable,
						confirmOpt:  true,
					})
					if ac.app == "ads" {
						adserver.Load(cluster, adsLoad)
					} else {
						twissandra.Load(cluster, twLoad)
					}
					w := workloadByName(wname, ycsb.DistZipfian, ac.records, 128)
					db := ac.makeDB(cluster, sys.speculative)
					res := ycsb.Run(w, db, h.clock, ycsb.Options{
						Threads:  threads,
						Duration: dur,
						Warmup:   warmup,
						Seed:     cfg.Seed,
					})
					h.mustRun()
					rows = append(rows, Fig11Row{
						App:               ac.app,
						Workload:          wname,
						System:            sys.name,
						Threads:           threads,
						Throughput:        res.ThroughputOps,
						Latency:           res.ReadFinal.Mean(),
						MisspeculationPct: 100 * metrics.Ratio(res.Diverged, res.PrelimReads),
					})
				}
			}
		}
	}
	return rows
}
