package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"correctables/internal/bench"
)

// TestCheckArtifacts: an artifact flag none of the selected experiments
// honours is an error naming the experiments that do; one supporting
// experiment in the selection is enough.
func TestCheckArtifacts(t *testing.T) {
	cases := []struct {
		selected        []string
		faultJSON, trce string
		wantErr         string // substring; "" = accepted
	}{
		{selected: []string{"fig5"}},
		{selected: []string{"fig5"}, faultJSON: "f.json",
			wantErr: "-fault-json f.json: none of the selected experiments (fig5) writes it; supported by paper, faultstudy, failover, overload, sweep, capacity, hunt"},
		{selected: []string{"fig5", "fig6"}, trce: "t.json",
			wantErr: "-trace t.json: none of the selected experiments (fig5, fig6) writes it; supported by faultstudy, failover, overload"},
		{selected: []string{"hunt"}, faultJSON: "f.json"},
		{selected: []string{"hunt"}, faultJSON: "f.json", trce: "t.json", wantErr: "-trace t.json"},
		{selected: []string{"fig5", "overload"}, faultJSON: "f.json", trce: "t.json"},
	}
	for _, tc := range cases {
		err := checkArtifacts(tc.selected, tc.faultJSON, tc.trce)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v -fault-json=%q -trace=%q: unexpected error %v", tc.selected, tc.faultJSON, tc.trce, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v -fault-json=%q -trace=%q: error %v, want one containing %q", tc.selected, tc.faultJSON, tc.trce, err, tc.wantErr)
		}
	}
}

// TestStartProfiles: -cpuprofile and -memprofile each leave a pprof file (a
// gzip stream) covering an experiment run between start and stop, either may
// be absent, and an unwritable path is an error before anything runs.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if out := bench.FormatFig5(bench.Fig5(bench.Config{Seed: 1, Quick: true})); out == "" {
		t.Fatal("the profiled experiment printed nothing")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, err %v: want a gzip-compressed pprof profile", filepath.Base(path), len(data), err)
		}
	}

	stop, err = startProfiles("", "")
	if err != nil || stop() != nil {
		t.Errorf("no profile requested: start %v, want a no-op", err)
	}
	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Error("an unwritable -cpuprofile path was accepted")
	}
	if _, err := startProfiles("", filepath.Join(dir, "missing", "mem.pprof")); err == nil {
		t.Error("an unwritable -memprofile path was accepted")
	}
}
