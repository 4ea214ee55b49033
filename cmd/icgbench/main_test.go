package main

import (
	"strings"
	"testing"
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
			wantErr: "-fault-json f.json: none of the selected experiments (fig5) writes it; supported by faultstudy, failover, overload, sweep, capacity, hunt"},
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
