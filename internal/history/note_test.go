package history

import (
	"fmt"
	"strings"
	"testing"

	"correctables/internal/binding"
)

// sprintfNote is the fmt form noteOf replaced, kept here as its reference:
// a byte value over 16 bytes is cut by "%.16s", which counts runes as
// utf8.DecodeRune decodes them (an invalid byte is one rune).
func sprintfNote(v any) string {
	switch val := v.(type) {
	case binding.Item:
		if !val.Exists {
			return ""
		}
		return val.ID
	case []byte:
		const max = 16
		if len(val) > max {
			return fmt.Sprintf("%.16s…(%dB)", val, len(val))
		}
		return string(val)
	default:
		return ""
	}
}

// FuzzNoteOf: noteOf renders every byte value and every queue item exactly
// as the fmt form does, so SerializeOps output is unchanged by it, and
// noteAfter, whatever the previous view's note, renders what noteOf does.
func FuzzNoteOf(f *testing.F) {
	for _, s := range []string{
		"",
		"short",
		"exactly-16-bytes",
		"seventeen bytes!!",
		strings.Repeat("x", 64),
		strings.Repeat("é", 20),  // two-byte runes: 16 of them are 32 bytes
		strings.Repeat("日本", 12), // three-byte runes
		"🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂🙂",                                                    // four-byte runes
		"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0\xef", // invalid bytes, one rune each
		"abc\xe6\x97xyz0123456789abcdef",                                       // a truncated three-byte rune
		"0123456789abcde\xf0\x9f\x99\x82tail",                                  // a four-byte rune straddles byte 16
		"\xed\xa0\x80" + strings.Repeat("s", 20),                               // an encoded surrogate
	} {
		f.Add([]byte(s), true, "")
		f.Add([]byte(s), true, sprintfNote([]byte(s)))
	}
	f.Add([]byte("q-0000000001"), false, "q-0000000001")
	// A previous note of the same length whose head differs, and one of the
	// same head whose length differs.
	f.Add([]byte(strings.Repeat("x", 64)), true, strings.Repeat("y", 16)+"…(64B)")
	f.Add([]byte(strings.Repeat("x", 64)), true, strings.Repeat("x", 16)+"…(65B)")
	f.Fuzz(func(t *testing.T, data []byte, exists bool, prev string) {
		if got, want := noteOf(data), sprintfNote(data); got != want {
			t.Fatalf("noteOf(%q) = %q, want %q", data, got, want)
		}
		item := binding.Item{ID: string(data), Data: data, Exists: exists}
		if got, want := noteOf(item), sprintfNote(item); got != want {
			t.Fatalf("noteOf(%+v) = %q, want %q", item, got, want)
		}
		if got, want := noteAfter(data, prev), noteOf(data); got != want {
			t.Fatalf("noteAfter(%q, %q) = %q, want %q", data, prev, got, want)
		}
		if got, want := noteAfter(item, prev), noteOf(item); got != want {
			t.Fatalf("noteAfter(%+v, %q) = %q, want %q", item, prev, got, want)
		}
	})
}
