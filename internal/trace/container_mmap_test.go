package trace

import (
	"bytes"
	"os"
	"path/filepath"
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
// must verify clean and replay to identical counters, and the
// bounded-window accounting must report the same high-water mark whether
// the windows are mapped views or heap copies.
func TestContainerMappedReplay(t *testing.T) {
	tr := encodeRandomLLCStream(11, 2000)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 512); err != nil {
		t.Fatal(err)
	}
	path := writeTempContainer(t, buf.Bytes())

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
	// One worker and a one-chunk window: the sequential replay whose
	// resident bound is a single chunk.
	seq := ReplayOptions{Workers: 1, Window: 1}
	a := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	b := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := mapped.ReplayLLC(a, seq); err != nil {
		t.Fatalf("ReplayLLC (mapped): %v", err)
	}
	if err := copied.ReplayLLC(b, seq); err != nil {
		t.Fatalf("ReplayLLC (pread): %v", err)
	}
	if countersOf(a) != countersOf(b) {
		t.Fatal("mapped replay diverges from the pread replay")
	}
	if mapped.MaxResidentBytes() != copied.MaxResidentBytes() {
		t.Fatalf("window accounting differs by mode: mapped %d, pread %d",
			mapped.MaxResidentBytes(), copied.MaxResidentBytes())
	}
	if mapped.MaxResidentBytes() > mapped.MaxChunkBytes() {
		t.Fatalf("sequential replay resident %d exceeds one chunk (%d)",
			mapped.MaxResidentBytes(), mapped.MaxChunkBytes())
	}
}

// TestContainerMappedLLCParallel exercises the parallel LLC decode over
// mapped chunk views: concurrent workers reading disjoint subslices of
// one mapping must reproduce the pread replay counter for counter.
func TestContainerMappedLLCParallel(t *testing.T) {
	tr := encodeRandomLLCStream(13, 3000)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 512); err != nil {
		t.Fatal(err)
	}
	path := writeTempContainer(t, buf.Bytes())
	run := func(r *Reader) llcCounters {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if err := r.ReplayLLC(sim, ReplayOptions{Workers: 4, Window: 3}); err != nil {
			t.Fatalf("ReplayLLC: %v", err)
		}
		return countersOf(sim)
	}

	mapped, err := OpenContainerFile(path)
	if err != nil {
		t.Fatalf("OpenContainerFile: %v", err)
	}
	defer mapped.Close()
	got := run(mapped)

	copied, err := OpenContainerBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenContainerBytes: %v", err)
	}
	if copied.WindowMode() != "mapped" {
		t.Fatalf("in-memory reader WindowMode = %q, want %q", copied.WindowMode(), "mapped")
	}
	if want := run(copied); got != want {
		t.Fatalf("mapped parallel replay %+v != in-memory replay %+v", got, want)
	}
}

// BenchmarkContainerWindowModes compares the two chunk-window paths on a
// full-container walk (Verify: CRC plus structural scan of every chunk,
// no simulation): "mapped" serves capacity-capped views of one mapping,
// "pread" copies each chunk into a pooled heap window.
func BenchmarkContainerWindowModes(b *testing.B) {
	tr := encodeRandomLLCStream(7, 200_000)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 64<<10); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.poptc")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
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
	tr := encodeRandomLLCStream(17, 200)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 0); err != nil {
		t.Fatal(err)
	}
	path := writeTempContainer(t, buf.Bytes())
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
	plain, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
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
