package faults

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzTrackJSON: a track's wire form is a fixed point after one trip.
// Whatever bytes decode as a Track, encoding them, decoding that and
// encoding again must give the same bytes — the property hunt repros rely
// on when they archive and replay their fault tracks. The checked-in
// corpus (testdata/fuzz/FuzzTrackJSON) holds every event kind; run it
// with: go test ./internal/faults/ -run '^$' -fuzz FuzzTrackJSON -fuzztime 10s
func FuzzTrackJSON(f *testing.F) {
	f.Add([]byte(`{"name":"partitions","events":[]}`))
	for _, spec := range []string{"minority-partition", "flaky-wan", "rolling-crash", "3:tracks-harsh"} {
		scen, err := ParseSpec(spec, time.Second)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(Track{Name: spec, Schedule: scen.Schedule})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var t1 Track
		if json.Unmarshal(data, &t1) != nil {
			return
		}
		b1, err := json.Marshal(t1)
		if err != nil {
			t.Fatalf("decoded track does not encode: %v", err)
		}
		var t2 Track
		if err := json.Unmarshal(b1, &t2); err != nil {
			t.Fatalf("encoded track %s does not decode: %v", b1, err)
		}
		b2, err := json.Marshal(t2)
		if err != nil {
			t.Fatalf("re-decoded track does not encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip moved the wire form:\n%s\n%s", b1, b2)
		}
	})
}

// FuzzParseSpec: the -faults parser never panics, and a spec it accepts
// yields a schedule whose phases cover its horizon. The checked-in corpus
// (testdata/fuzz/FuzzParseSpec) holds every scenario name and profile; run
// it with: go test ./internal/faults/ -run '^$' -fuzz FuzzParseSpec -fuzztime 10s
func FuzzParseSpec(f *testing.F) {
	for _, name := range ScenarioNames() {
		f.Add(name)
	}
	for _, p := range ProfileNames() {
		f.Add("7:" + p)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		scen, err := ParseSpec(spec, 300*time.Millisecond)
		if err != nil {
			return
		}
		if scen.Schedule == nil || len(scen.Phases) == 0 {
			t.Fatalf("spec %q: scenario without a schedule or phases", spec)
		}
		if end := scen.Phases[len(scen.Phases)-1].End; end != scen.Horizon {
			t.Fatalf("spec %q: phases end at %v, horizon %v", spec, end, scen.Horizon)
		}
	})
}
