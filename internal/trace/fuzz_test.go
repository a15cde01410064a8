package trace

import (
	"bytes"
	"testing"

	"popt/internal/cache"
	"popt/internal/mem"
)

// feedEveryLLCOpcode drives every LLC opcode into enc, with inline and
// escaped PCs.
func feedEveryLLCOpcode(enc *LLCEncoder) {
	enc.LLCAccess(mem.Access{Addr: 1 << 22, PC: 1})
	enc.LLCAccess(mem.Access{Addr: 1<<22 + 128, PC: 4000, Write: true}) // escaped PC
	enc.LLCWriteback(1 << 16)
	enc.SetVertex(9)
	enc.StartIteration()
	enc.SetTile(2)
}

// llcPayload returns the event bytes the encoder writes for feed: the
// payload of a one-chunk container.
func llcPayload(tb testing.TB, feed func(enc *LLCEncoder)) []byte {
	tb.Helper()
	r := openBytes(tb, encodeLLCContainer(tb, 0, 0, cache.Stats{}, cache.Stats{}, feed))
	if r.Chunks() != 1 {
		tb.Fatalf("payload container has %d chunks, want 1", r.Chunks())
	}
	p, err := r.chunkPayload(0, r.window())
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte{}, p...)
}

// FuzzDecodeLLCTrace holds the LLC event decoder to its contract on
// arbitrary event bytes. Each input is wrapped as the single chunk of an
// otherwise well-formed container whose CRCs, index and stats agree with
// it (rawLLCContainer), so mutation reaches the event decoder instead of
// dying at the frame checks. Bytes the structural scan accepts must
// verify clean and replay through the panic-based hot loop to
// completion, delivering every hook event; bytes it rejects must fail
// both Verify and ReplayLLC with an error. Seeds are a real encoded
// payload and hand-built damage near the decoder's boundaries.
func FuzzDecodeLLCTrace(f *testing.F) {
	valid := llcPayload(f, feedEveryLLCOpcode)
	f.Add(valid)                // every opcode, escaped PC
	f.Add([]byte{})             // no events
	f.Add(valid[:len(valid)-1]) // cut inside the last event
	f.Add([]byte{0x07})         // unknown opcode
	f.Add([]byte{lopWB, 0xff})  // dangling varint
	f.Fuzz(func(t *testing.T, data []byte) {
		s, scanErr := scanLLCFrom(data)
		r, err := OpenContainerBytes(rawLLCContainer(t, data))
		if err != nil {
			t.Fatalf("open: %v (event bytes must not reach the footer checks)", err)
		}
		verr := r.Verify()
		hook := &countingHook{}
		rerr := r.ReplayLLC(NewSim(cache.NewHierarchy(tinyConfig()), hook))
		if scanErr != nil {
			if verr == nil || rerr == nil {
				t.Fatalf("scan rejected the bytes (%v) but Verify returned %v and ReplayLLC %v", scanErr, verr, rerr)
			}
			return
		}
		if verr != nil || rerr != nil {
			t.Fatalf("scan accepted the bytes but Verify returned %v and ReplayLLC %v", verr, rerr)
		}
		if want := int(s.VertexUpdates + s.Iterations); hook.updates != want {
			t.Fatalf("replay delivered %d hook events, the scan counted %d", hook.updates, want)
		}
	})
}

// FuzzReadContainer holds the container reader to the decoder contract on
// arbitrary bytes: OpenContainer, Verify, and ReplayLLC must return errors
// on damage — truncated footers, corrupt CRCs, index/frame disagreements,
// malformed event bytes — and must never panic. Seeds are real containers
// (small chunks, so mutation hits frame machinery, not just event bytes),
// one-chunk containers around the event decoder's interesting boundaries
// (no events, unknown opcode, dangling varint), and targeted corruptions
// of the fixed trailer.
func FuzzReadContainer(f *testing.F) {
	// A random stream over many chunks, and a hand-built one covering
	// every opcode with inline and escaped PCs.
	rnd := randomLLCContainer(f, 4, 40, 16)
	l1 := cache.Stats{Accesses: 7, Hits: 5, Misses: 2, Evictions: 1, Writebacks: 1}
	hand := encodeLLCContainer(f, 16, 77, l1, cache.Stats{}, feedEveryLLCOpcode)

	f.Add(rnd)
	f.Add(hand)
	f.Add(encodeLLCContainer(f, 0, 321, l1, cache.Stats{}, feedEveryLLCOpcode)) // one chunk
	f.Add(encodeLLCContainer(f, 0, 0, cache.Stats{}, cache.Stats{}, func(*LLCEncoder) {}))
	f.Add(rawLLCContainer(f, []byte{0x07}))        // unknown opcode
	f.Add(rawLLCContainer(f, []byte{lopWB, 0xff})) // dangling varint
	f.Add([]byte{})
	f.Add([]byte{magic0, magicContainer1, ContainerFormatVersion, KindLLC, LLCFormatVersion})
	f.Add(rnd[:len(rnd)-containerTrailerLen+3]) // truncated trailer
	flip := func(src []byte, at int) []byte {
		m := append([]byte{}, src...)
		m[at] ^= 0xff
		return m
	}
	f.Add(flip(hand, len(hand)-containerTrailerLen)) // footer offset
	f.Add(flip(hand, containerHeaderLen+2))          // chunk frame header
	f.Add(flip(rnd, len(rnd)/2))                     // mid-stream

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Whatever Open accepted must verify and replay without panicking;
		// errors are fine (chunk damage is caught lazily).
		_ = r.Verify()
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		_ = r.ReplayLLC(sim)
	})
}
