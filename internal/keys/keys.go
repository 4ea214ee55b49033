// Package keys formats the zero-padded decimal object names the stores and
// workloads use ("user00000042", "profile:0000017", "q-0000000003") without
// going through fmt, which boxes the integer: two allocations per key where
// one string suffices.
package keys

// Padded returns prefix followed by n in decimal, zero-padded to at least
// width characters (sign included) — byte for byte what
// fmt.Sprintf("%s%0*d", prefix, width, n) prints, values wider than the
// padding and negative ones included. The digits are formatted into a stack
// buffer and the result costs its one string allocation (a prefix longer
// than the buffer spills to the heap, nothing else changes).
func Padded(prefix string, n int64, width int) string {
	var digits [20]byte // enough for the magnitude of any int64
	u := uint64(n)
	if n < 0 {
		u = -u
		width--
	}
	i := len(digits)
	for u >= 10 {
		i--
		digits[i] = byte('0' + u%10)
		u /= 10
	}
	i--
	digits[i] = byte('0' + u)

	var buf [64]byte
	b := append(buf[:0], prefix...)
	if n < 0 {
		b = append(b, '-')
	}
	for pad := width - (len(digits) - i); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, digits[i:]...))
}
