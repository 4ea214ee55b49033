package causal

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// The straight-line protocol opRecord replaced, kept as its reference: an
// actor per operation that blocks at every hop, server slot and wait, and an
// actor per remote read.

// actorSubmit is SubmitOperation as an actor.
func (b *Binding) actorSubmit(op binding.Operation, levels core.Levels, cb binding.Callback) {
	c := b.client
	st := c.store
	st.tr.Clock().Go(func() {
		switch o := op.(type) {
		case binding.Get:
			c.actorGet(o.Key, levels, cb)
		case binding.Put:
			st.tr.Travel(c.Region, st.cfg.Primary, netsim.LinkClient, 96+len(o.Key)+len(o.Value))
			st.replicas[st.cfg.Primary].proc.Process(st.cfg.ServiceTime)
			e := st.commit(o.Key, o.Value)
			st.tr.Travel(st.cfg.Primary, c.Region, netsim.LinkClient, 32)
			c.cacheMerge(o.Key, e)
			cb(binding.Result{Level: levels.Strongest(), Version: e.Ver})
		default:
			cb(binding.Result{Err: fmt.Errorf("%w: causal store has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		}
	})
}

// actorRead starts the remote read of key at region as an actor that puts
// the entry it brings back on the queue it returns; the primary's refreshes
// the cache on arrival.
func (c *Client) actorRead(key string, region netsim.Region, strong bool) *netsim.Queue {
	st := c.store
	arrived := st.tr.Clock().NewQueue()
	r := st.replicas[region]
	st.tr.Clock().Go(func() {
		st.tr.Travel(c.Region, region, netsim.LinkClient, 64+len(key))
		r.proc.Process(st.cfg.ServiceTime)
		e := r.get(key)
		st.tr.Travel(region, c.Region, netsim.LinkClient, 96+len(e.Value))
		if strong {
			c.cacheMerge(key, e)
		}
		arrived.Put(e)
	})
	return arrived
}

// actorGet is a get as straight-line code.
func (c *Client) actorGet(key string, levels core.Levels, cb binding.Callback) {
	emit := func(e Entry, level core.Level) {
		cb(binding.Result{Value: e.Value, Level: level, Version: e.Ver})
	}
	var causal, strong *netsim.Queue
	if levels.Contains(core.LevelCausal) {
		causal = c.actorRead(key, c.backup, false)
	}
	if levels.Contains(core.LevelStrong) {
		strong = c.actorRead(key, c.store.cfg.Primary, true)
	}
	if levels.Contains(core.LevelCache) {
		if e := c.CacheGet(key); e.Exists {
			emit(e, core.LevelCache)
		} else if levels.Strongest() == core.LevelCache {
			emit(Entry{}, core.LevelCache)
		}
	}
	if causal != nil {
		e := causal.Get().(Entry)
		c.cacheMerge(key, e)
		if cached := c.CacheGet(key); cached.newer(e) {
			e = cached
		}
		emit(e, core.LevelCausal)
	}
	if strong != nil {
		e := strong.Get().(Entry)
		c.cacheMerge(key, e)
		emit(e, core.LevelStrong)
	}
}

// submitter starts one operation on a binding: the record or the reference.
type submitter func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback)

var (
	asRecord submitter = func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
		b.SubmitOperation(context.Background(), op, levels, cb)
	}
	asActor submitter = func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
		b.actorSubmit(op, levels, cb)
	}
)

// causalWorld is everything the record and the reference must agree on.
type causalWorld struct {
	log              []string
	end              time.Duration
	traffic, dropped map[string]netsim.LinkStats
	replicas         []string // per replica: handled, busy model time, applied watermark, contents
	caches           []string // per client: its cache
	spans            string   // the Chrome export: every span and instant with its annotation
	nSpans, nInst    int
	parked           int
}

// playCausalWorld plays the randomized causal-store world of one seed,
// submitting every operation with submit. faulted attaches an injector with a
// random schedule (crashes and restarts, partitions, zero-latency and slow
// spikes, lossy links), traced a tracer; with neither every hop takes the
// transport's fast path.
func playCausalWorld(seed int64, faulted, traced bool, submit submitter) causalWorld {
	rng := rand.New(rand.NewSource(seed))
	regions := []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA}
	pick := func() netsim.Region { return regions[rng.Intn(len(regions))] }
	ms := time.Millisecond

	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, seed)
	var inj *faults.Injector
	if faulted {
		sched := faults.NewSchedule()
		sched.At(time.Duration(rng.Intn(100))*ms, faults.LatencySpike{Factor: 0, Duration: time.Duration(20+rng.Intn(60)) * ms})
		for n := 3 + rng.Intn(4); n > 0; n-- {
			at, dur := time.Duration(rng.Intn(250))*ms, time.Duration(5+rng.Intn(120))*ms
			a, b := pick(), pick()
			switch rng.Intn(5) {
			case 0:
				sched.At(at, faults.Crash{Region: a}).At(at+dur, faults.Restart{Region: a})
			case 1:
				var rest []netsim.Region
				for _, r := range regions {
					if r != a {
						rest = append(rest, r)
					}
				}
				id := 1 + rng.Intn(1000)
				sched.At(at, faults.Partition{Groups: [][]netsim.Region{{a}, rest}, ID: id}).At(at+dur, faults.Heal{ID: id})
			case 2:
				sched.At(at, faults.LatencySpike{From: a, To: b, Factor: []float64{0, 0.5, 3}[rng.Intn(3)], Duration: dur})
			default:
				sched.At(at, faults.Drop{From: a, To: b, Prob: 0.4, Duration: dur})
			}
		}
		inj = faults.Attach(tr, sched, seed)
	}
	// The primary and up to two backups on three of the regions; with no
	// backup the causal level reads the primary too.
	hosts := append([]netsim.Region(nil), regions[:3]...)
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	st, err := NewStore(Config{
		Primary:          hosts[0],
		Backups:          hosts[1 : 1+rng.Intn(3)],
		Transport:        tr,
		ServiceTime:      []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 2 * ms}[rng.Intn(4)],
		PropagationDelay: time.Duration(1+rng.Intn(30)) * ms,
	})
	if err != nil {
		panic(err)
	}
	var trc *trace.Tracer
	if traced {
		trc = trace.New()
		tr.SetTrace(trc)
		st.SetTrace(trc)
	}
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys[:2] {
		st.Preload(k, []byte("pre-"+k))
	}
	var clients []*Client
	var bindings []*Binding
	for n := 2 + rng.Intn(3); n > 0; n-- {
		c := NewClient(st, pick())
		clients = append(clients, c)
		bindings = append(bindings, NewBinding(c))
	}

	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", clock.Now())+fmt.Sprintf(format, args...))
	}
	// Every non-empty level set, in ladder order.
	var levelSets []core.Levels
	for mask := 1; mask < 8; mask++ {
		var ls core.Levels
		for i, l := range []core.Level{core.LevelCache, core.LevelCausal, core.LevelStrong} {
			if mask&(1<<i) != 0 {
				ls = append(ls, l)
			}
		}
		levelSets = append(levelSets, ls)
	}
	// Operations start on a 10 ms grid, each instant's submitted back to back
	// by one submitter — an actor or, at some instants, a timer callback —
	// with a background message between submissions: the operations' first
	// steps queue behind the submitter and share link RNGs and same-instant
	// timers with traffic of their own.
	type submission struct {
		b      *Binding
		op     binding.Operation
		levels core.Levels
		cb     binding.Callback
	}
	byStart := map[time.Duration][]submission{}
	for id := range 16 + rng.Intn(12) {
		b := bindings[rng.Intn(len(bindings))]
		key := keys[rng.Intn(len(keys))]
		var op binding.Operation = binding.Get{Key: key}
		levels := levelSets[rng.Intn(len(levelSets))]
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			op = binding.Put{Key: key, Value: []byte(fmt.Sprintf("v%d-%d", seed, id))}
			levels = core.Levels{core.LevelStrong}
		case 4:
			op = binding.Dequeue{Queue: key}
		}
		start := time.Duration(rng.Intn(30)) * 10 * ms
		byStart[start] = append(byStart[start], submission{
			b: b, op: op, levels: levels,
			cb: func(r binding.Result) {
				if r.Err != nil {
					logf("op %d: error %v", id, r.Err)
					return
				}
				logf("op %d: %s %q ver=%d", id, r.Level, r.Value, r.Version)
			},
		})
	}
	for step := range 30 {
		start := time.Duration(step) * 10 * ms
		subs := byStart[start]
		if len(subs) == 0 {
			continue
		}
		submitAll := func() {
			for i, sub := range subs {
				from := sub.b.client.Region
				logf("%s %s %v from %s", sub.op.OpName(), sub.op.OpKey(), sub.levels, from)
				submit(sub.b, sub.op, sub.levels, sub.cb)
				to := regions[(i+step)%len(regions)]
				tr.Send(from, to, netsim.LinkClient, 64, func() { logf("background %s→%s", from, to) })
			}
		}
		if rng.Intn(4) == 0 {
			clock.RunAt(start, submitAll)
		} else {
			clock.Go(func() {
				clock.SleepUntil(start)
				submitAll()
			})
		}
	}
	if inj != nil {
		clock.RunAt(2*time.Second, inj.Quiesce) // every operation gets home
	}
	clock.Drain()

	res := causalWorld{
		log: log, end: clock.Now(),
		traffic: meter.Snapshot(), dropped: meter.SnapshotDropped(),
		parked: clock.Parked(),
	}
	for _, region := range hosts {
		r := st.replicas[region]
		if r == nil {
			continue
		}
		state := fmt.Sprintf("%s handled=%d busy=%v applied=%d pending=%d", region, r.proc.Handled(), r.proc.BusyModelTime(), r.applied, len(r.pending))
		for _, k := range keys {
			e := r.get(k)
			state += fmt.Sprintf(" %s=%q@%d", k, e.Value, e.Ver)
		}
		res.replicas = append(res.replicas, state)
	}
	for _, c := range clients {
		state := string(c.Region)
		for _, k := range keys {
			e := c.CacheGet(k)
			state += fmt.Sprintf(" %s=%q@%d", k, e.Value, e.Ver)
		}
		res.caches = append(res.caches, state)
	}
	if traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf, nil); err != nil {
			panic(err)
		}
		res.spans = buf.String()
		res.nSpans, res.nInst = trc.Counts()
	}
	return res
}

// TestOpRecordMatchesActor is the oracle for "no event moves" in the causal
// store: the same randomized world — gets at every level set, puts, an
// unsupported operation, same-instant submissions from actors and from timer
// callbacks, and (faulted) crash, restart and partition schedules that make
// backups resync — played once with an actor per operation and once with the
// record must produce the same (instant, event) log, the same meter counters
// (dropped included), the same server occupancy, replica contents, applied
// watermarks and client caches, the same spans with the same stall/drop
// annotations, and leave nothing parked.
func TestOpRecordMatchesActor(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	for _, mode := range []struct {
		name            string
		faulted, traced bool
	}{
		{"fast path", false, false},
		{"traced", false, true},
		{"faulted", true, false},
		{"faulted and traced", true, true},
	} {
		var views, drops, stalls, resyncs int
		for seed := int64(1); seed <= seeds; seed++ {
			want := playCausalWorld(seed, mode.faulted, mode.traced, asActor)
			got := playCausalWorld(seed, mode.faulted, mode.traced, asRecord)
			for i := 0; i < max(len(got.log), len(want.log)); i++ {
				a, b := "(nothing)", "(nothing)"
				if i < len(want.log) {
					a = want.log[i]
				}
				if i < len(got.log) {
					b = got.log[i]
				}
				if a != b {
					t.Fatalf("%s, seed %d: logs part at event %d:\nactor:  %s\nrecord: %s", mode.name, seed, i, a, b)
				}
			}
			if got.spans != want.spans {
				t.Fatalf("%s, seed %d: span lists differ:\nactor:\n%s\nrecord:\n%s", mode.name, seed, want.spans, got.spans)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: same log and spans, but\nactor:  %+v\nrecord: %+v", mode.name, seed,
					[]any{want.end, want.traffic, want.dropped, want.replicas, want.caches, want.nSpans, want.nInst, want.parked},
					[]any{got.end, got.traffic, got.dropped, got.replicas, got.caches, got.nSpans, got.nInst, got.parked})
			}
			if got.parked != 0 {
				t.Fatalf("%s, seed %d: %d parked after Drain", mode.name, seed, got.parked)
			}
			for _, line := range got.log {
				if strings.Contains(line, ": cache ") || strings.Contains(line, ": causal ") {
					views++
				}
			}
			drops += int(got.dropped[netsim.LinkClient].Messages + got.dropped[netsim.LinkReplica].Messages)
			stalls += strings.Count(got.spans, `"detail":"stall"`)
			resyncs += strings.Count(got.spans, `"name":"resync"`)
		}
		t.Logf("%s: %d worlds, %d cache and causal views, %d drops, %d stalls, %d resyncs", mode.name, seeds, views, drops, stalls, resyncs)
		if views == 0 {
			t.Errorf("%s: no cache or causal view in %d worlds", mode.name, seeds)
		}
		if mode.faulted && drops == 0 {
			t.Errorf("%s: no message was dropped in %d worlds", mode.name, seeds)
		}
		if mode.faulted && mode.traced && (stalls == 0 || resyncs == 0) {
			t.Errorf("%s: %d stalls and %d resyncs in %d worlds, want some of each", mode.name, stalls, resyncs, seeds)
		}
	}
}
