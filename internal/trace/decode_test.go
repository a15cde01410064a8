package trace

import (
	"bytes"
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

// TestDecodeLLCTraceRoundTrip checks the LLC decoder reads the totals
// back out of the header and that a decoded stream replays exactly like
// the original.
func TestDecodeLLCTraceRoundTrip(t *testing.T) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1 << 20, PC: 3})
	enc.LLCAccess(mem.Access{Addr: 1<<20 + 64, PC: 3, Write: true})
	enc.LLCAccess(mem.Access{Addr: 9999, PC: 200}) // escaped PC
	enc.LLCWriteback(1 << 14)
	enc.SetVertex(17)
	enc.StartIteration()
	enc.SetTile(5)
	l1 := cache.Stats{Accesses: 100, Hits: 90, Misses: 10, Evictions: 4, Writebacks: 2}
	l2 := cache.Stats{Accesses: 10, Hits: 5, Misses: 5, Evictions: 1, Writebacks: 1}
	tr := enc.Trace(4242, l1, l2)

	dec, err := DecodeLLCTrace(tr.Bytes())
	if err != nil {
		t.Fatalf("DecodeLLCTrace on a real stream: %v", err)
	}
	if dec.instructions != 4242 || dec.l1 != l1 || dec.l2 != l2 {
		t.Fatalf("header totals did not round trip: instructions=%d l1=%+v l2=%+v", dec.instructions, dec.l1, dec.l2)
	}
	if dec.Stats() != tr.Stats() {
		t.Fatalf("recomputed stats %+v != encoder stats %+v", dec.Stats(), tr.Stats())
	}

	simA := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	simB := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	tr.Replay(simA)
	dec.Replay(simB)
	if simA.Instructions != simB.Instructions ||
		simA.H.LLC.Stats != simB.H.LLC.Stats ||
		simA.H.DRAMReads != simB.H.DRAMReads || simA.H.DRAMWrites != simB.H.DRAMWrites {
		t.Fatal("decoded LLC trace replays differently from the original")
	}
}

// TestDecodeLLCTraceRejectsCorruptInput drives the error paths that the
// panic-based hot replay deliberately does not have: every corruption —
// including one inside the large fixed-width header — must come back as
// an error naming the problem.
func TestDecodeLLCTraceRejectsCorruptInput(t *testing.T) {
	valid := NewLLCEncoder().Trace(1, cache.Stats{}, cache.Stats{}).Bytes()
	header := append([]byte{}, valid...) // a bare, valid header
	badVersion := append([]byte{}, header...)
	badVersion[2]++
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"header only magic", []byte{magic0, magicLLC1, LLCFormatVersion}, "truncated"},
		{"bad magic", append([]byte{'q', 'q'}, header[2:]...), "not a llc stream"},
		{"future version", badVersion, "format version"},
		{"unknown opcode", append(append([]byte{}, header...), 0x07), "opcode 7"},
		{"zero opcode", append(append([]byte{}, header...), 0x00), "opcode 0"},
		{"missing payload", append(append([]byte{}, header...), lopWB), "truncated varint"},
		{"unterminated varint", append(append([]byte{}, header...), lopSetTile, 0x80, 0x80), "truncated varint"},
		{"truncated access delta", append(append([]byte{}, header...), lopAccessR|2<<4), "truncated varint"},
		{"truncated escaped pc", append(append([]byte{}, header...), lopAccessW|pcEscape<<4), "truncated varint"},
	}
	for _, tc := range cases {
		if _, err := DecodeLLCTrace(tc.data); err == nil {
			t.Errorf("%s: DecodeLLCTrace accepted corrupt input", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFormatVersionsRideTheHeaders pins the registry-to-wire link: the
// byte each encoder writes at the version offset is the stream's
// FormatVersions entry, and a mismatched version fails loudly — as an
// error through the validating decoder and as a panic on the hot replay
// path — rather than misdecoding.
func TestFormatVersionsRideTheHeaders(t *testing.T) {
	llc := encodeRandomLLCStream(1, 50).Bytes()
	if got := llc[2]; got != FormatVersions["llc"] {
		t.Fatalf("llc header carries version %d, FormatVersions says %d", got, FormatVersions["llc"])
	}
	var buf bytes.Buffer
	if err := WriteLLCContainer(encodeRandomLLCStream(1, 50), &buf, testMeta(), 0); err != nil {
		t.Fatal(err)
	}
	if c := buf.Bytes(); c[2] != FormatVersions["container"] || c[4] != FormatVersions["llc"] {
		t.Fatalf("container header carries versions %d/%d, FormatVersions says %d/%d",
			c[2], c[4], FormatVersions["container"], FormatVersions["llc"])
	}

	mutated := append([]byte{}, llc...)
	mutated[2]++
	if _, err := DecodeLLCTrace(mutated); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("DecodeLLCTrace on a version-bumped stream: %v, want format-version error", err)
	}

	// The hot path must refuse too: replaying under the wrong version
	// would silently misdecode every delta that follows.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Replay decoded a stream with a mismatched format version")
		}
		if !strings.Contains(r.(string), "header") {
			t.Fatalf("Replay panic %q does not mention the header", r)
		}
	}()
	bad := &LLCTrace{data: mutated}
	bad.Replay(NewSim(cache.NewHierarchy(tinyConfig()), nil))
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
	if got := width(HeaderFields["llc"]); got != llcHeaderLen {
		t.Errorf("declared llc header is %d bytes, encoder reserves %d", got, llcHeaderLen)
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
	for _, stream := range []string{"llc", "container"} {
		fields := HeaderFields[stream]
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "magic:p") || fields[1] != "version:u8" {
			t.Errorf("%s header must open with the magic and version fields, got %v", stream, fields)
		}
		if _, ok := FormatVersions[stream]; !ok {
			t.Errorf("stream %q has header fields but no FormatVersions entry", stream)
		}
	}
}
