package ycsb

import (
	"fmt"
	"math/rand"

	"correctables/internal/keys"
)

// DistKind selects a request distribution.
type DistKind string

// The request distributions the paper's figures use.
const (
	DistZipfian DistKind = "zipfian"
	DistLatest  DistKind = "latest"
)

// Workload describes a YCSB core workload.
type Workload struct {
	// Name is the YCSB letter ("A", "B", "C").
	Name string
	// ReadProportion + UpdateProportion = 1.
	ReadProportion   float64
	UpdateProportion float64
	// Distribution selects the key chooser.
	Distribution DistKind
	// RecordCount is the dataset size (the divergence experiments use 1000;
	// YCSB's default is larger).
	RecordCount int
	// ValueSize is the record payload in bytes (YCSB default: 10 fields x
	// 100 B = 1 KB; the paper's microbenchmark uses 100 B objects).
	ValueSize int
}

// The paper's workloads (§6.2.1): A is 50:50 read/update, B is 95:5,
// C is read-only.
func WorkloadA(dist DistKind, records, valueSize int) Workload {
	return Workload{Name: "A", ReadProportion: 0.5, UpdateProportion: 0.5,
		Distribution: dist, RecordCount: records, ValueSize: valueSize}
}

func WorkloadB(dist DistKind, records, valueSize int) Workload {
	return Workload{Name: "B", ReadProportion: 0.95, UpdateProportion: 0.05,
		Distribution: dist, RecordCount: records, ValueSize: valueSize}
}

func WorkloadC(dist DistKind, records, valueSize int) Workload {
	return Workload{Name: "C", ReadProportion: 1.0, UpdateProportion: 0.0,
		Distribution: dist, RecordCount: records, ValueSize: valueSize}
}

// Key renders key index i in YCSB's "user<N>" format.
func Key(i int) string { return keys.Padded("user", int64(i), 8) }

// NewGenerator builds the key chooser for the workload.
func (w Workload) NewGenerator() Generator {
	switch w.Distribution {
	case DistZipfian:
		return NewScrambledZipfian(w.RecordCount)
	case DistLatest:
		return NewLatest(w.RecordCount)
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution %q", w.Distribution))
	}
}

// Value produces a deterministic pseudo-random payload for an update.
func (w Workload) Value(rng *rand.Rand) []byte {
	buf := make([]byte, w.ValueSize)
	for i := range buf {
		buf[i] = byte('a' + rng.Intn(26))
	}
	return buf
}
