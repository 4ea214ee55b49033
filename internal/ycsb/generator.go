// Package ycsb reimplements the parts of the Yahoo! Cloud Serving Benchmark
// the paper's evaluation uses (§6): workloads A (50:50 read/update),
// B (95:5) and C (read-only), with the Zipfian and Latest request
// distributions, a closed-loop multi-threaded runner, and the default
// parameters (Zipfian constant 0.99, keys "user<N>").
package ycsb

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"
)

// Generator produces key indices in [0, n).
type Generator interface {
	// Next returns the next key index using the provided per-thread RNG.
	Next(rng *rand.Rand) int
}

// ZipfianGenerator implements Gray et al.'s quick Zipfian sampling, as used
// by YCSB (constant 0.99 by default). Popular items are the low indices.
// The generator is stateless after construction and safe for concurrent use.
type ZipfianGenerator struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// YCSB's ScrambledZipfianGenerator samples Zipf over a fixed 10-billion
// item space (with a precomputed zeta value, since summing 10^10 terms is
// infeasible) and hashes the sample down into the keyspace. This flattens
// per-key concentration substantially compared to Zipf directly over N —
// which is why the paper's Latest distribution (Zipf directly over recency
// ranks) produces more divergence than its Zipfian distribution (Fig 7).
const (
	scrambledItemCount = int64(10_000_000_000)
	scrambledZetan     = 26.46902820178302
)

// NewZipfian returns a Zipfian generator over [0, n) with the given
// constant (use ZipfianConstant for YCSB's default).
func NewZipfian(n int, constant float64) *ZipfianGenerator {
	return newZipfianRaw(int64(n), constant, zetaStatic(int64(n), constant))
}

func newZipfianRaw(n int64, constant, zetan float64) *ZipfianGenerator {
	g := &ZipfianGenerator{n: n, theta: constant, zetan: zetan}
	g.zeta2 = zetaStatic(2, constant)
	g.alpha = 1.0 / (1.0 - constant)
	g.eta = (1 - math.Pow(2.0/float64(n), 1-constant)) / (1 - g.zeta2/g.zetan)
	return g
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Generator.
func (g *ZipfianGenerator) Next(rng *rand.Rand) int {
	return int(g.next64(rng))
}

func (g *ZipfianGenerator) next64(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * g.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, g.theta) {
		return 1
	}
	return int64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
}

// ScrambledZipfianGenerator is YCSB's default request distribution: a
// Zipfian sample over the fixed large item space, FNV-hashed into [0, n).
type ScrambledZipfianGenerator struct {
	n    int
	zipf *ZipfianGenerator
}

// NewScrambledZipfian returns a scrambled Zipfian generator over [0, n).
func NewScrambledZipfian(n int) *ScrambledZipfianGenerator {
	return &ScrambledZipfianGenerator{
		n:    n,
		zipf: newZipfianRaw(scrambledItemCount, ZipfianConstant, scrambledZetan),
	}
}

// Next implements Generator.
func (g *ScrambledZipfianGenerator) Next(rng *rand.Rand) int {
	v := g.zipf.next64(rng)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(v) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return int(h.Sum64() % uint64(g.n))
}

// LatestGenerator skews reads towards the most recently updated items
// (YCSB's "latest" distribution): it samples a Zipfian offset back from a
// moving recency anchor that update operations advance. This is the
// distribution under which the paper measures up to 25% divergence (Fig 7).
type LatestGenerator struct {
	n      int
	zipf   *ZipfianGenerator
	anchor atomic.Int64
}

// NewLatest returns a latest-skewed generator over [0, n).
func NewLatest(n int) *LatestGenerator {
	g := &LatestGenerator{n: n, zipf: NewZipfian(n, ZipfianConstant)}
	return g
}

// Advance moves the recency anchor; the runner calls it on every update so
// that reads chase the most recently written keys.
func (g *LatestGenerator) Advance() { g.anchor.Add(1) }

// Next implements Generator.
func (g *LatestGenerator) Next(rng *rand.Rand) int {
	off := g.zipf.Next(rng)
	idx := (int(g.anchor.Load()) - off) % g.n
	if idx < 0 {
		idx += g.n
	}
	return idx
}
