package mem

import (
	"math/rand"
	"testing"
)

// interestingDivisors are the divisors the simulator actually uses plus
// the scheme's edge cases: 1 (wrapped reciprocal), small primes, the
// paper's 24576-set LLC and the scaled configs' set counts, powers of
// two (exact reciprocal), and values near 2^32 and 2^64.
var interestingDivisors = []uint64{
	1, 2, 3, 5, 7, 13, 64, 160, 256, 24576, 1 << 20,
	(24 << 20) / (16 * 64),  // Table I LLC sets
	(160 << 10) / (16 * 64), // Scaled LLC sets
	(1 << 32) - 1, 1 << 32, (1 << 32) + 1,
	(1 << 63) - 25, 1 << 63, ^uint64(0),
}

func interestingValues(rng *rand.Rand) []uint64 {
	vals := []uint64{0, 1, 2, 63, 64, 65, 1 << 30, (1 << 32) - 1, 1 << 32,
		(1 << 62) + 12345, ^uint64(0), ^uint64(0) - 1}
	for i := 0; i < 4096; i++ {
		vals = append(vals, rng.Uint64())
	}
	return vals
}

func TestDividerMatchesHardwareDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := interestingValues(rng)
	divs := append([]uint64{}, interestingDivisors...)
	for i := 0; i < 64; i++ {
		divs = append(divs, rng.Uint64()|1, rng.Uint64()%(1<<34)+2)
	}
	for _, d := range divs {
		dv := NewDivider(d)
		if dv.Divisor() != d {
			t.Fatalf("Divisor() = %d, want %d", dv.Divisor(), d)
		}
		for _, x := range vals {
			if got, want := dv.Mod(x), x%d; got != want {
				t.Fatalf("Divider(%d).Mod(%d) = %d, want %d", d, x, got, want)
			}
			if got, want := dv.Div(x), x/d; got != want {
				t.Fatalf("Divider(%d).Div(%d) = %d, want %d", d, x, got, want)
			}
		}
	}
}

func TestDividerZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDivider(0) did not panic")
		}
	}()
	NewDivider(0)
}

func BenchmarkDividerMod(b *testing.B) {
	dv := NewDivider(24576)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += dv.Mod(uint64(i) * 2654435761)
	}
	benchSink = sink
}

// hardwareModDivisor is a package-level variable so the compiler cannot
// strength-reduce the benchmark's % into a compile-time reciprocal — the
// Level's set count is likewise a runtime value, so this is the DIV the
// fastmod path actually replaces.
var hardwareModDivisor = uint64(24576)

func BenchmarkHardwareMod(b *testing.B) {
	d := hardwareModDivisor
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += uint64(i) * 2654435761 % d
	}
	benchSink = sink
}

var benchSink uint64
