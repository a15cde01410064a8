package trace

import (
	"bytes"
	"testing"

	"popt/internal/cache"
	"popt/internal/mem"
)

// The fuzz targets below hold the validating decoders to their contract:
// on arbitrary bytes they either return an error or return a trace whose
// replay — the panic-based hot loop — runs to completion. Seeds are real
// encoded streams plus hand-built corruptions near the interesting
// boundaries (bare header, unknown opcode, dangling varint), so mutation
// starts from well-formed structure instead of noise.

func FuzzDecodeLLCTrace(f *testing.F) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1 << 22, PC: 1})
	enc.LLCAccess(mem.Access{Addr: 1<<22 + 128, PC: 4000, Write: true}) // escaped PC
	enc.LLCWriteback(1 << 16)
	enc.SetVertex(9)
	enc.StartIteration()
	enc.SetTile(2)
	l1 := cache.Stats{Accesses: 7, Hits: 5, Misses: 2, Evictions: 1, Writebacks: 1}
	valid := enc.Trace(321, l1, cache.Stats{}).Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:llcHeaderLen])
	f.Add(append(append([]byte{}, valid[:llcHeaderLen]...), 0x07))
	f.Add(append(append([]byte{}, valid[:llcHeaderLen]...), lopWB, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeLLCTrace(data)
		if err != nil {
			return
		}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		tr.Replay(sim)
	})
}

// FuzzReadContainer holds the container reader to the decoder contract on
// arbitrary bytes: OpenContainer, Verify, and ReplayLLC must return errors
// on damage — truncated footers, corrupt CRCs, index/frame disagreements
// — and must never panic. Seeds are real containers (small chunks, so
// mutation hits frame machinery, not just event bytes) plus targeted
// corruptions of the fixed trailer.
func FuzzReadContainer(f *testing.F) {
	meta := Meta{Workload: "fuzz", Schedule: "pull", Scale: "tiny", Seed: 1}

	// A random stream over many chunks, and a hand-built one covering
	// every opcode with inline and escaped PCs.
	var rbuf bytes.Buffer
	if err := WriteLLCContainer(encodeRandomLLCStream(4, 40), &rbuf, meta, 16); err != nil {
		f.Fatal(err)
	}

	lenc := NewLLCEncoder()
	lenc.LLCAccess(mem.Access{Addr: 1 << 22, PC: 1})
	lenc.LLCAccess(mem.Access{Addr: 1<<22 + 128, PC: 4000, Write: true})
	lenc.LLCWriteback(1 << 16)
	lenc.SetVertex(9)
	lenc.StartIteration()
	lenc.SetTile(2)
	var lbuf bytes.Buffer
	if err := WriteLLCContainer(lenc.Trace(77, cache.Stats{Accesses: 3}, cache.Stats{}), &lbuf, meta, 16); err != nil {
		f.Fatal(err)
	}

	f.Add(rbuf.Bytes())
	f.Add(lbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{magic0, magicContainer1, ContainerFormatVersion, KindLLC, LLCFormatVersion})
	f.Add(rbuf.Bytes()[:rbuf.Len()-containerTrailerLen+3]) // truncated trailer
	flip := func(src []byte, at int) []byte {
		m := append([]byte{}, src...)
		m[at] ^= 0xff
		return m
	}
	f.Add(flip(lbuf.Bytes(), lbuf.Len()-containerTrailerLen)) // footer offset
	f.Add(flip(lbuf.Bytes(), containerHeaderLen+2))           // chunk frame header
	f.Add(flip(rbuf.Bytes(), rbuf.Len()/2))                   // mid-stream

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Whatever Open accepted must verify and replay without panicking;
		// errors are fine (chunk damage is caught lazily).
		_ = r.Verify()
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		_ = r.ReplayLLC(sim, ReplayOptions{Workers: 2, Window: 2})
	})
}
