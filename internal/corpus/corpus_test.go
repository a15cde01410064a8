package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
	"popt/internal/trace"
)

func testKey() Key {
	return Key{Workload: "URAND-16k", Schedule: "PR/pull", Scale: "tiny", Seed: 7}
}

// recordTestStream writes a small deterministic LLC stream through cw —
// the shape every Publish in these tests records, so racing publishers
// produce byte-identical files like the real (determinism-gated) recorder
// does.
func recordTestStream(cw *trace.ContainerWriter) error {
	cw.SetChunkBytes(64) // several chunks even for this small stream
	enc := trace.NewChunkedLLCEncoder(cw)
	addr := uint64(1 << 20)
	for i := 0; i < 500; i++ {
		if i%100 == 0 {
			enc.SetVertex(graph.V(500 + i))
		}
		enc.LLCAccess(mem.Access{Addr: addr, PC: uint16(i % 7), Write: i%3 == 0})
		addr += 64 * uint64(i%5+1)
		if i%50 == 0 {
			enc.LLCWriteback(addr ^ 0xfff)
		}
	}
	return enc.Finish(9999, cache.Stats{Accesses: 42}, cache.Stats{Accesses: 13})
}

func TestPublishLookupRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()
	if e := s.Lookup(k); e != nil {
		t.Fatalf("Lookup on an empty corpus returned %+v", e)
	}
	e, err := s.Publish(k, trace.KindLLC, recordTestStream)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if e.Key != k || e.Reader().Kind() != trace.KindLLC {
		t.Fatalf("published entry %+v does not match the key", e.Key)
	}
	if err := e.Reader().Verify(); err != nil {
		t.Fatalf("Verify on a fresh entry: %v", err)
	}
	if got := s.Lookup(k); got != e {
		t.Fatalf("Lookup did not return the cached entry (got %p, want %p)", got, e)
	}
	// A second store over the same directory (a separate process, in
	// effect) sees the same bytes.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e2, err := s2.Get(k)
	if err != nil {
		t.Fatalf("Get from a second store: %v", err)
	}
	if e2.Size != e.Size || e2.Reader().StreamCRC() != e.Reader().StreamCRC() {
		t.Fatal("second store reads different bytes")
	}
}

// TestConcurrentPublishSameKey races two goroutines recording the same
// key: both must succeed, and both must read back identical bytes —
// rename's atomicity plus recording determinism is the whole protocol.
// Runs under the CI race job.
func TestConcurrentPublishSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()
	var wg sync.WaitGroup
	entries := make([]*Entry, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], errs[i] = s.Publish(k, trace.KindLLC, recordTestStream)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("publisher %d: %v", i, errs[i])
		}
	}
	// Both publishers read the same (cached, post-rename) entry, and the
	// file on disk is exactly what a solo recording writes.
	if entries[0] != entries[1] {
		t.Fatalf("racing publishers got different entries: %p vs %p", entries[0], entries[1])
	}
	got, err := os.ReadFile(entries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw, err := trace.NewContainerWriter(&want, trace.KindLLC, k.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if err := recordTestStream(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("published file (%d bytes) differs from a solo recording (%d bytes)", len(got), want.Len())
	}
	if err := entries[0].Reader().Verify(); err != nil {
		t.Fatalf("Verify after the race: %v", err)
	}
	// No temp litter: the losing rename source was consumed by its own
	// rename (last-wins), not abandoned.
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != filepath.Base(entries[0].Path) {
			t.Fatalf("unexpected corpus file %q after the race", de.Name())
		}
	}
}

// TestTornTempNeverVisible is the crash-safety contract: a recording that
// dies mid-write (simulated by a hand-planted temp file) is invisible to
// Lookup and Manifest, and a failed record callback leaves nothing under
// the published name.
func TestTornTempNeverVisible(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()

	// A torn temp: the prefix of a real recording, never renamed.
	torn := filepath.Join(s.Dir(), ".tmp-999-1-"+k.filename())
	if err := os.WriteFile(torn, []byte("pc\x01l\x01partial garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if e := s.Lookup(k); e != nil {
		t.Fatalf("Lookup sees a torn temp file: %+v", e)
	}
	items, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("Manifest lists %d item(s) with only a torn temp on disk", len(items))
	}

	// A failed recording must clean its temp and publish nothing.
	boom := errors.New("recorder crashed")
	if _, err := s.Publish(k, trace.KindLLC, func(cw *trace.ContainerWriter) error {
		enc := trace.NewChunkedLLCEncoder(cw)
		enc.LLCAccess(mem.Access{Addr: 4096})
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Publish with a failing recorder: %v, want the recorder's error", err)
	}
	if e := s.Lookup(k); e != nil {
		t.Fatal("a failed Publish left a file under the published name")
	}
	des, _ := os.ReadDir(s.Dir())
	for _, de := range des {
		if de.Name() != filepath.Base(torn) {
			t.Fatalf("failed Publish left %q behind", de.Name())
		}
	}

	// Damage under the published name self-heals: Lookup misses, Publish
	// renames a good recording over it.
	bad := filepath.Join(s.Dir(), k.filename())
	if err := os.WriteFile(bad, []byte("not a container"), 0o666); err != nil {
		t.Fatal(err)
	}
	if e := s.Lookup(k); e != nil {
		t.Fatal("Lookup accepted a damaged published file")
	}
	items, err = s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Err == nil {
		t.Fatalf("Manifest must flag the damaged file, got %+v", items)
	}
	e, err := s.Publish(k, trace.KindLLC, recordTestStream)
	if err != nil {
		t.Fatalf("Publish over a damaged file: %v", err)
	}
	if err := e.Reader().Verify(); err != nil {
		t.Fatalf("Verify after self-heal: %v", err)
	}

	// An entry recorded under an older LLC stream version (1, the retired
	// flat form) fails to open with the named version error; Lookup
	// treats it as a miss and the next Publish re-records it.
	k2 := k
	k2.Seed++
	var old bytes.Buffer
	cw, err := trace.NewContainerWriter(&old, trace.KindLLC, k2.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if err := recordTestStream(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	stale := old.Bytes()
	stale[4] = 1 // the container header's inner.version byte
	if err := os.WriteFile(filepath.Join(s.Dir(), k2.filename()), stale, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k2); err == nil || !strings.Contains(err.Error(), "inner stream version 1") {
		t.Fatalf("Get on a version-1 entry: %v, want the inner-version error", err)
	}
	if e := s.Lookup(k2); e != nil {
		t.Fatal("Lookup accepted an entry recorded under an old stream version")
	}
	if _, err := s.Publish(k2, trace.KindLLC, recordTestStream); err != nil {
		t.Fatalf("Publish over an old-version entry: %v", err)
	}
	e2 := s.Lookup(k2)
	if e2 == nil {
		t.Fatal("Lookup misses the re-recorded entry")
	}
	if err := e2.Reader().Verify(); err != nil {
		t.Fatalf("Verify after re-recording: %v", err)
	}
}

// TestManifestAndKeyNaming pins the filename scheme: distinct keys that
// sanitize identically still get distinct files (the hash suffix), and
// Manifest reads keys back out of container metadata, not filenames.
func TestManifestAndKeyNaming(t *testing.T) {
	a := Key{Workload: "PR/pull", Schedule: "x", Scale: "tiny", Seed: 1}
	b := Key{Workload: "PR_pull", Schedule: "x", Scale: "tiny", Seed: 1}
	if a.filename() == b.filename() {
		t.Fatalf("keys %+v and %+v alias filename %q", a, b, a.filename())
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []Key{a, b} {
		if _, err := s.Publish(k, trace.KindLLC, recordTestStream); err != nil {
			t.Fatalf("Publish %+v: %v", k, err)
		}
	}
	items, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("Manifest lists %d items, want 2", len(items))
	}
	seen := map[Key]bool{}
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %q: %v", it.File, it.Err)
		}
		if it.Kind != trace.KindLLC || it.Events == 0 || it.Chunks == 0 {
			t.Fatalf("item %q summary %+v is empty", it.File, it)
		}
		seen[it.Key] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatalf("Manifest keys %v do not cover %+v and %+v", seen, a, b)
	}
	// A file renamed to another key's name is rejected by the meta check.
	if err := os.Rename(filepath.Join(s.Dir(), a.filename()), filepath.Join(s.Dir(), testKey().filename())); err != nil {
		t.Fatal(err)
	}
	if e := s.Lookup(testKey()); e != nil {
		t.Fatal("Lookup accepted a file whose metadata records another key")
	}
}
