package trace

import (
	"fmt"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/mem"
)

// tinyConfig is a minimal hierarchy for decode/replay parity tests; the
// shape is irrelevant, only that replay runs a real LLC datapath.
func tinyConfig() cache.Config {
	return cache.Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 2 << 10, L2Ways: 2,
		LLCSize: 4 << 10, LLCWays: 4,
		LLCPolicy: func() cache.Policy { return cache.NewLRU() },
	}
}

// TestDecodeLLCTraceRoundTrip checks that a stream decoded from its
// container bytes — the untrusted path a corpus entry takes, structural
// scan included — reads back the totals it was recorded with and
// replays exactly like the trusted in-memory recording of the same
// events.
func TestDecodeLLCTraceRoundTrip(t *testing.T) {
	feed := func(enc *LLCEncoder) {
		enc.LLCAccess(mem.Access{Addr: 1 << 20, PC: 3})
		enc.LLCAccess(mem.Access{Addr: 1<<20 + 64, PC: 3, Write: true})
		enc.LLCAccess(mem.Access{Addr: 9999, PC: 200}) // escaped PC
		enc.LLCWriteback(1 << 14)
		enc.SetVertex(17)
		enc.StartIteration()
		enc.SetTile(5)
	}
	l1 := cache.Stats{Accesses: 100, Hits: 90, Misses: 10, Evictions: 4, Writebacks: 2}
	l2 := cache.Stats{Accesses: 10, Hits: 5, Misses: 5, Evictions: 1, Writebacks: 1}
	tr, err := RecordLLCTrace(0, func(cw *ContainerWriter) error {
		enc := NewChunkedLLCEncoder(cw)
		feed(enc)
		return enc.Finish(4242, l1, l2)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := LLCStats{Accesses: 3, Writes: 1, Writebacks: 1, VertexUpdates: 1, Iterations: 1, TileSwitches: 1}
	if tr.Stats() != want {
		t.Fatalf("encoder stats %+v, want %+v", tr.Stats(), want)
	}

	dec, err := OpenContainerBytes(encodeLLCContainer(t, 0, 4242, l1, l2, feed))
	if err != nil {
		t.Fatalf("OpenContainerBytes on a real stream: %v", err)
	}
	if err := dec.Verify(); err != nil {
		t.Fatalf("Verify on a real stream: %v", err)
	}
	instr, dl1, dl2, stats, ok := dec.LLCTotals()
	if !ok || instr != 4242 || dl1 != l1 || dl2 != l2 {
		t.Fatalf("totals did not round trip: instructions=%d l1=%+v l2=%+v", instr, dl1, dl2)
	}
	if stats != tr.Stats() {
		t.Fatalf("decoded stats %+v != encoder stats %+v", stats, tr.Stats())
	}

	if a, b := replayCounters(t, tr.Reader(), nil), replayCounters(t, dec, nil); a != b {
		t.Fatalf("decoded LLC trace replays differently from the recording: %+v vs %+v", b, a)
	}
}

// TestChunkScanRejectsCorruptInput drives the error paths that the
// panic-based hot replay deliberately does not have: corrupt event bytes
// inside an otherwise well-formed chunk (its CRC matches) must come back
// from Verify and from ReplayLLC as an error naming the problem.
func TestChunkScanRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown opcode", []byte{0x07}, "opcode 7"},
		{"zero opcode", []byte{0x00}, "opcode 0"},
		{"missing payload", []byte{lopWB}, "truncated varint"},
		{"unterminated varint", []byte{lopSetTile, 0x80, 0x80}, "truncated varint"},
		{"truncated access delta", []byte{lopAccessR | 2<<4}, "truncated varint"},
		{"truncated escaped pc", []byte{lopAccessW | pcEscape<<4}, "truncated varint"},
	}
	for _, tc := range cases {
		r, err := OpenContainerBytes(rawLLCContainer(t, tc.payload))
		if err != nil {
			t.Fatalf("%s: open: %v (event damage must pass the footer checks)", tc.name, err)
		}
		if err := r.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if err := r.ReplayLLC(sim); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReplayLLC: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestFormatVersionsRideTheHeaders pins the registry-to-wire link: the
// bytes the container writer puts at the version offsets are the
// FormatVersions entries, and a container holding another version of the
// LLC stream — a corpus entry recorded before the flat form was retired
// (LLC version 1) — fails to open with the named version error instead
// of misdecoding. (corpus.Store.Lookup turns that error into a miss and
// re-records; TestTornTempNeverVisible in internal/corpus pins that half.)
func TestFormatVersionsRideTheHeaders(t *testing.T) {
	c := randomLLCContainer(t, 1, 50, 0)
	if c[2] != FormatVersions["container"] || c[4] != FormatVersions["llc"] {
		t.Fatalf("container header carries versions %d/%d, FormatVersions says %d/%d",
			c[2], c[4], FormatVersions["container"], FormatVersions["llc"])
	}
	for _, v := range []byte{1, LLCFormatVersion + 1} {
		old := append([]byte{}, c...)
		old[4] = v
		_, err := OpenContainerBytes(old)
		if want := fmt.Sprintf("inner stream version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LLC version %d container: %v, want an error naming %q", v, err, want)
		}
	}
}

// TestHeaderLayoutMatchesDeclaration pins the declarative HeaderFields
// layout (what formatlock fingerprints) against the real header sizes
// the encoders reserve: a field added to one side without the other is a
// test failure here and a fingerprint drift there.
func TestHeaderLayoutMatchesDeclaration(t *testing.T) {
	width := func(fields []string) int {
		total := 0
		for _, f := range fields {
			name, kind, ok := strings.Cut(f, ":")
			if !ok {
				t.Fatalf("header field %q is not name:kind", f)
			}
			switch {
			case name == "magic" || strings.HasSuffix(name, ".magic"):
				total += len(kind)
			case kind == "u8":
				total++
			case kind == "u64":
				total += 8
			default:
				t.Fatalf("header field %q has unknown kind", f)
			}
		}
		return total
	}
	// LLC chunks are headerless: the stream's version rides in the
	// container header and its totals in the stats frame.
	if f, ok := HeaderFields["llc"]; ok {
		t.Errorf("llc stream declares header fields %v, but its chunks have no header", f)
	}
	// The container's fixed-width bytes split across the two file ends:
	// fields prefixed "trailer." are the trailer, the rest the header.
	var head, tail []string
	for _, f := range HeaderFields["container"] {
		if strings.HasPrefix(f, "trailer.") {
			tail = append(tail, f)
		} else {
			head = append(head, f)
		}
	}
	if got := width(head); got != containerHeaderLen {
		t.Errorf("declared container header is %d bytes, writer emits %d", got, containerHeaderLen)
	}
	if got := width(tail); got != containerTrailerLen {
		t.Errorf("declared container trailer is %d bytes, writer emits %d", got, containerTrailerLen)
	}
	fields := HeaderFields["container"]
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "magic:p") || fields[1] != "version:u8" {
		t.Errorf("container header must open with the magic and version fields, got %v", fields)
	}
	if len(HeaderFields) != 1 {
		t.Errorf("HeaderFields declares %d streams, want only the container", len(HeaderFields))
	}
	if _, ok := FormatVersions["container"]; !ok {
		t.Error("the container has header fields but no FormatVersions entry")
	}
}
