package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"popt/internal/cache"
)

// writeTempContainer materializes a container stream to a temp file and
// returns its path.
func writeTempContainer(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.poptc")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestContainerMappedReplay pins the zero-copy mapped window mode against
// the pread path: the same file opened both ways (OpenContainerFile's
// mmap, and OpenContainer over the raw file, which forces pread copies)
// must verify clean and replay to identical counters, the bounded-window
// accounting must report the same one-chunk high-water mark whether the
// windows are mapped views or pooled heap copies, and a warm replay must
// allocate nothing in either mode, however many chunks it walks.
func TestContainerMappedReplay(t *testing.T) {
	path := writeTempContainer(t, randomLLCContainer(t, 11, 2000, 512))

	mapped, err := OpenContainerFile(path)
	if err != nil {
		t.Fatalf("OpenContainerFile: %v", err)
	}
	defer mapped.Close()

	// Forced pread: open the same bytes through the io.ReaderAt
	// constructor, which never maps.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	copied, err := OpenContainer(f, fi.Size())
	if err != nil {
		t.Fatalf("OpenContainer (pread): %v", err)
	}
	if got := copied.WindowMode(); got != "copied" {
		t.Fatalf("pread reader WindowMode = %q, want %q", got, "copied")
	}

	if mapped.Meta() != copied.Meta() || mapped.Events() != copied.Events() || mapped.Chunks() != copied.Chunks() {
		t.Fatal("mapped and pread readers disagree on footer metadata")
	}
	if err := mapped.Verify(); err != nil {
		t.Fatalf("Verify (mapped): %v", err)
	}
	if err := copied.Verify(); err != nil {
		t.Fatalf("Verify (pread): %v", err)
	}
	if replayCounters(t, mapped, nil) != replayCounters(t, copied, nil) {
		t.Fatal("mapped replay diverges from the pread replay")
	}
	if mapped.MaxResidentBytes() != copied.MaxResidentBytes() {
		t.Fatalf("window accounting differs by mode: mapped %d, pread %d",
			mapped.MaxResidentBytes(), copied.MaxResidentBytes())
	}
	if mapped.MaxResidentBytes() > mapped.MaxChunkBytes() {
		t.Fatalf("replay resident %d exceeds one chunk (%d)",
			mapped.MaxResidentBytes(), mapped.MaxChunkBytes())
	}
	if mapped.Chunks() < 8 {
		t.Fatalf("only %d chunks; the allocation check needs a multi-chunk stream", mapped.Chunks())
	}
	for _, r := range []*Reader{mapped, copied} {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := r.ReplayLLC(sim); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm %s replay of %d chunks allocates %.0f times, want 0", r.WindowMode(), r.Chunks(), allocs)
		}
	}
}

// TestContainerMappedLLCParallel exercises concurrent replays over mapped
// chunk views: goroutines replaying one Reader — as sweep cells share a
// corpus entry — each walk the whole mapping and must reproduce the
// in-memory replay counter for counter.
func TestContainerMappedLLCParallel(t *testing.T) {
	data := randomLLCContainer(t, 13, 3000, 512)
	path := writeTempContainer(t, data)
	mapped, err := OpenContainerFile(path)
	if err != nil {
		t.Fatalf("OpenContainerFile: %v", err)
	}
	defer mapped.Close()

	inMem := openBytes(t, data)
	if inMem.WindowMode() != "mapped" {
		t.Fatalf("in-memory reader WindowMode = %q, want %q", inMem.WindowMode(), "mapped")
	}
	want := replayCounters(t, inMem, nil)
	var got [4]llcCounters
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
			if err := mapped.ReplayLLC(sim); err != nil {
				t.Errorf("ReplayLLC: %v", err)
				return
			}
			got[i] = countersOf(sim)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want {
			t.Fatalf("concurrent mapped replay %d %+v != in-memory replay %+v", i, got[i], want)
		}
	}
}

// BenchmarkContainerWindowModes compares the two chunk-window paths on a
// full-container walk (Verify: CRC plus structural scan of every chunk,
// no simulation): "mapped" serves capacity-capped views of one mapping,
// "pread" copies each chunk into a pooled heap window.
func BenchmarkContainerWindowModes(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.poptc")
	if err := os.WriteFile(path, randomLLCContainer(b, 7, 200_000, 64<<10), 0o666); err != nil {
		b.Fatal(err)
	}
	b.Run("mapped", func(b *testing.B) {
		r, err := OpenContainerFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.SetBytes(int64(r.Size()))
		for i := 0; i < b.N; i++ {
			if err := r.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pread", func(b *testing.B) {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			b.Fatal(err)
		}
		r, err := OpenContainer(f, fi.Size())
		if err != nil {
			b.Fatal(err)
		}
		if r.WindowMode() != "copied" {
			b.Fatalf("WindowMode = %q, want copied", r.WindowMode())
		}
		b.SetBytes(int64(r.Size()))
		for i := 0; i < b.N; i++ {
			if err := r.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestContainerMappedClose pins Close semantics: closing a mapped reader
// releases the mapping exactly once, and a reader over a caller-owned
// ReaderAt treats Close as a no-op.
func TestContainerMappedClose(t *testing.T) {
	data := randomLLCContainer(t, 17, 200, 0)
	path := writeTempContainer(t, data)
	r, err := OpenContainerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	plain, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatalf("Close on caller-owned reader: %v", err)
	}
	if err := plain.Verify(); err != nil {
		t.Fatalf("Verify after no-op Close: %v", err)
	}
}
