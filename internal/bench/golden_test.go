package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"correctables/internal/trace"
)

// The refactor oracle. Every determinism test in this package compares two
// runs of the same tree, so none of them notices an output that moved
// between two commits. This one pins the sha256 of each scenario
// experiment's quick-mode result and of each figure driver's quick-mode rows
// (seed 42) — and the Chrome trace bytes of the traced runs — to the values
// the tree produced when the pins were taken. A refactor that is supposed to change no output must leave this
// file untouched and green; a change that is supposed to move an output
// updates exactly the pins it means to move, in the same commit.
//
// The file deliberately uses only the experiment entry points and
// encoding/json (the encoding WriteReport applies), so it can be dropped
// unmodified onto an older tree to find where an output moved.

var goldenCfg = Config{Quick: true, Seed: 42}

// goldenHunt is the clean sweep; Workers is fixed because the worker count
// is marshalled into the result and defaults to GOMAXPROCS. The planted
// hunt sweeps two worlds only: every one of them violates, and each
// finding costs a full delta-debugging pass.
func goldenHunt(plant bool) HuntOptions {
	if plant {
		return HuntOptions{Seeds: 2, Profiles: []string{"tracks-harsh"}, Workers: 2, Plant: true}
	}
	return HuntOptions{
		Seeds:    12,
		Profiles: []string{"tracks-mild", "tracks-harsh", "tracks-sharded"},
		Workers:  2,
	}
}

// chromeBytes exports a recorded tracer the way icgbench -trace does.
func chromeBytes(t *testing.T, trc *trace.Tracer, reg *trace.Registry) []byte {
	t.Helper()
	if trc == nil {
		t.Fatal("traced run returned no tracer")
	}
	var buf bytes.Buffer
	if err := trc.WriteChrome(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenOutputs(t *testing.T) {
	with := func(mod func(*Config)) Config {
		c := goldenCfg
		mod(&c)
		return c
	}
	faultStudy := func(cfg Config) func(*testing.T) (any, []byte) {
		return func(t *testing.T) (any, []byte) {
			res, err := FaultStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.Trace {
				return res, nil
			}
			return res, chromeBytes(t, res.Trace, res.TraceReg)
		}
	}
	failover := func(cfg Config) func(*testing.T) (any, []byte) {
		return func(t *testing.T) (any, []byte) {
			res, err := Failover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.Trace {
				return res, nil
			}
			return res, chromeBytes(t, res.Trace, res.TraceReg)
		}
	}
	overload := func(cfg Config) func(*testing.T) (any, []byte) {
		return func(t *testing.T) (any, []byte) {
			res, err := Overload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, nil
		}
	}
	rows := func(run func() any) func(*testing.T) (any, []byte) {
		return func(*testing.T) (any, []byte) { return run(), nil }
	}
	hunt := func(plant bool) func(*testing.T) (any, []byte) {
		return func(t *testing.T) (any, []byte) {
			res, err := Hunt(goldenCfg, goldenHunt(plant))
			if err != nil {
				t.Fatal(err)
			}
			if !plant {
				return res, nil
			}
			if len(res.Findings) == 0 {
				t.Fatal("planted bug not found")
			}
			return res.Findings[0].Repro, nil
		}
	}

	for _, g := range []struct {
		name string
		// run returns the value to marshal and, for traced runs, the Chrome
		// trace export.
		run         func(*testing.T) (any, []byte)
		json, trace string
	}{
		{name: "faultstudy", run: faultStudy(goldenCfg),
			json: "b6d0274068e974b882a552ac34d34ded72d9422dac6aa57933936b2c1324a239"},
		{name: "faultstudy-trace", run: faultStudy(with(func(c *Config) { c.Trace = true })),
			json:  "d95c2486eec89ef921f367d4ef40eef2a043a7f2db8a67f84e6c58e8fc66aeab",
			trace: "e4ba924b6a8a4fcad11c24bb19fdd80f1ea58caab85d060b6220f75653afd9a9"},
		{name: "failover", run: failover(goldenCfg),
			json: "be603034746a922f57bd8e55e0c49078c63689d5df684e231a3f1cc7b985d946"},
		{name: "failover-trace", run: failover(with(func(c *Config) { c.Trace = true })),
			json:  "181a0593c9c45b48facd7893522ed6a063c7f3abd306ecefd63141927757d75c",
			trace: "9bcda49e8925db065eb4a3c24b90d201e24d4af4149d9eb7820e7baab9879179"},
		{name: "overload", run: overload(goldenCfg),
			json: "e1262c035f3bd530e206d615b4b8b365cc74263f8c67891a08666443a5f0283d"},
		{name: "overload-trace", run: overload(with(func(c *Config) { c.Trace = true })),
			json: "553c68067d4d6aaf5262ee5ca78aeb49d2ae050e513ea6402831837ffa373a9f"},
		{name: "capacity", run: func(*testing.T) (any, []byte) { return Capacity(goldenCfg), nil },
			json: "9eb815874a376cc97e3a976d154258ce6a39b0d95283aa71417112f09a1bcbfe"},
		{name: "sweep", run: func(*testing.T) (any, []byte) { return Sweep(goldenCfg), nil },
			json: "4ab18c6a82db78f88e59eb4ce830125e9a0e9074605faa47dcd2f523da6d92b3"},
		{name: "hunt-clean", run: hunt(false),
			json: "7d4a0871cf455f48576afeaed6aee7a509512b03c1fbf3d4ce9cc6c8059dffe1"},
		{name: "hunt-planted-repro", run: hunt(true),
			json: "fbfaa92098ee5d8c29f8a22ebc8d79b6b45f42dae8b4893f5868e3b9124a8e63"},
		// The claim ledger read off the seven figure drivers.
		{name: "paper", run: rows(func() any { return Paper(goldenCfg) }),
			json: "e06dee744175bd6fe317bcd4c98060e85c8e6eb32fbf56e831f24d798fa678b9"},
		// The paper's figures: each driver's quick-mode rows.
		{name: "fig5", run: rows(func() any { return Fig5(goldenCfg) }),
			json: "7bc95ce47c76bacd1a36350c51e83416aebeb593b94603d57d8b443cbec19a32"},
		{name: "fig6", run: rows(func() any { return Fig6(goldenCfg) }),
			json: "e6bb2508d2d75005ea310e25e2c0b1806755ef9a8e74002b778f86ccef18f2e7"},
		{name: "fig7", run: rows(func() any { div, _ := Fig8(goldenCfg); return div }),
			json: "0b51783b9726472a9b9ce83e0dcbcfe491546c82b2e2d6ebf2265b5766d6cce2"},
		{name: "fig8", run: rows(func() any { _, bw := Fig8(goldenCfg); return bw }),
			json: "2cdf254f660900d8f0fd03f517f3823f3245fc243f80322e013a8e099aaf2803"},
		{name: "fig9", run: rows(func() any { return Fig9(goldenCfg) }),
			json: "884caaa396bfeab78be9c634eb24588bc84dd2b9f2e0330612700418d4f9bd93"},
		{name: "fig10", run: rows(func() any { return Fig10(goldenCfg) }),
			json: "a8503fa1e5606e145b895b12bf16d0ff21a4cc2f77011cd3f146c0c95ecc6332"},
		{name: "fig11", run: rows(func() any { return Fig11(goldenCfg) }),
			json: "91525f6e96846e13278a2205c300f3c524bd5384e59a71d3cb431d1f96d8b99b"},
		{name: "fig12-points", run: rows(func() any { p, _ := Fig12(goldenCfg); return p }),
			json: "bdece5aa3f60bf40babf19c9ec757f1f325cbca624c3d8400b8d0d899c592a7a"},
		{name: "fig12-summary", run: rows(func() any { _, s := Fig12(goldenCfg); return s }),
			json: "617e6c5c514115f68166b123ca1aa149be2db93b28f8604a3a4cba4b84c5934a"},
		{name: "ablation-lag", run: rows(func() any { return AblationReplicationLag(goldenCfg) }),
			json: "1c2af9085224d64214d6aa86539091c2d890c8a05d189f8f6dc1f0b6f3b25443"},
		{name: "ablation-flush", run: rows(func() any { return AblationFlushCost(goldenCfg) }),
			json: "6d76b5059c0bcabeaa68c260b4162caf1dbe17d269df883b09cd1e2cdd5f8d2f"},
	} {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel() // every experiment is a world of its own
			res, chrome := g.run(t)
			js, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			pin(t, g.name+".json", g.json, js)
			if g.trace != "" {
				pin(t, g.name+".trace.json", g.trace, chrome)
			}
		})
	}
}

// pin compares got's sha256 with the pinned digest. On a mismatch it keeps
// got on disk for diffing against the same file from the last good tree —
// under os.TempDir rather than t.TempDir, which is deleted before anyone
// could read it.
func pin(t *testing.T, file, want string, got []byte) {
	t.Helper()
	sum := sha256.Sum256(got)
	if digest := hex.EncodeToString(sum[:]); digest != want {
		dir, err := os.MkdirTemp("", "icg-golden-")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s moved:\n  want sha256 %s\n  got  sha256 %s\n  got bytes kept in %s", file, want, digest, path)
	}
}
