package core

import (
	"testing"
	"testing/quick"
)

func TestLevelOrdering(t *testing.T) {
	ordered := []Level{LevelNone, LevelCache, LevelWeak, LevelCausal, LevelStrong}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].AtLeast(ordered[i]) {
			t.Errorf("%v should be weaker than %v", ordered[i-1], ordered[i])
		}
		if !ordered[i].AtLeast(ordered[i-1]) || !ordered[i].AtLeast(ordered[i]) {
			t.Errorf("AtLeast violated at %v", ordered[i])
		}
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelNone:   "none",
		LevelCache:  "cache",
		LevelWeak:   "weak",
		LevelCausal: "causal",
		LevelStrong: "strong",
		Level(42):   "level(42)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestLevelsHelpers(t *testing.T) {
	ls := Levels{LevelStrong, LevelWeak}
	if !ls.Contains(LevelWeak) || ls.Contains(LevelCache) {
		t.Error("Contains misbehaves")
	}
	if ls.Strongest() != LevelStrong {
		t.Errorf("Strongest = %v", ls.Strongest())
	}
	if (Levels{}).Strongest() != LevelNone {
		t.Error("empty Levels should report LevelNone")
	}
}

func TestLevelsSorted(t *testing.T) {
	in := Levels{LevelStrong, LevelWeak, LevelStrong, LevelNone, LevelCache}
	got := in.Sorted()
	want := Levels{LevelCache, LevelWeak, LevelStrong}
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

// Property: Sorted output is strictly increasing, duplicate-free, None-free,
// and contains exactly the distinct non-None input levels.
func TestPropertyLevelsSorted(t *testing.T) {
	f := func(raw []uint8) bool {
		in := make(Levels, len(raw))
		for i, r := range raw {
			in[i] = Level(int(r) % 6) // includes None and one out-of-range
		}
		out := in.Sorted()
		seen := map[Level]bool{}
		for i, l := range out {
			if l == LevelNone {
				return false
			}
			if seen[l] {
				return false
			}
			seen[l] = true
			if i > 0 && out[i-1] >= l {
				return false
			}
			if !in.Contains(l) {
				return false
			}
		}
		for _, l := range in {
			if l != LevelNone && !seen[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
