package trace

// Wire-format discipline (DESIGN.md §10). Every encoded container begins
// with a fixed-width header — a two-byte magic, the container format
// version, the inner stream kind and that stream's format version — so
// that bytes which outlive the process (the persistent trace corpus) are
// rejected instead of misdecoded when a layout evolves. The version
// constants below are the single source of truth: the writer puts them
// in the header, OpenContainer checks them, and the poptlint
// wirecheck family (codecpair / formatlock / opexhaust) pins the layout
// they version — any change to an opcode's payload op sequence or a
// header field fails `poptlint -wirecheck` until the stream's entry here
// is bumped and the checked-in fingerprint baseline is regenerated with
// `poptlint -wirecheck -update`.

// Format versions, one per wire stream. Bump a stream's constant whenever
// its encoded layout changes (opcodes, payload op order, header fields);
// the formatlock analyzer refuses fingerprint drift that is not
// accompanied by a bump.
const (
	// LLCFormatVersion versions the LLC-visible event stream (llc.go)
	// inside container chunks. It has no header of its own; the version
	// rides in the container header's inner.version byte. Version 2
	// dropped the flat in-memory form and its fixed-width header.
	LLCFormatVersion byte = 2
	// ContainerFormatVersion versions the chunked on-disk container
	// (container.go): the frame markers, the chunk/stats/index/meta frame
	// payload layouts, and the fixed header/trailer. The event bytes
	// inside chunk payloads are versioned separately by the inner
	// stream's own entry, which rides in the container header.
	ContainerFormatVersion byte = 1
)

// FormatVersions is the stream-name -> current-version registry the
// wirecheck analyzers cross-check against the `//popt:codec <stream>`
// annotations. The keys are the stream names used in those annotations.
var FormatVersions = map[string]byte{
	"llc":       LLCFormatVersion,
	"container": ContainerFormatVersion,
}

// HeaderFields declares each stream's fixed-width header layout in wire
// order. The formatlock analyzer folds these lines into the stream
// fingerprint (so header changes need version bumps like opcode changes
// do), and TestHeaderLayoutMatchesDeclaration pins the declared widths
// against the real header sizes and offsets used by the encoders.
// The LLC stream has no entry: its chunks are headerless, and the
// setup-invariant totals ride in the container's stats frame.
var HeaderFields = map[string][]string{
	// The container's fixed-width bytes are split across the two ends of
	// the file: a 5-byte header up front (kind is 'l', naming the inner
	// LLC-visible event stream; inner.version is that stream's FormatVersions
	// entry at record time) and a 20-byte trailer at EOF that locates the
	// footer frames (stats/index/meta) so readers can seek without
	// scanning. Everything between is length-prefixed frames, fingerprinted
	// through the //popt:codec container annotations.
	"container": {
		"magic:pc", "version:u8", "kind:u8", "inner.version:u8",
		"trailer.footer_off:u64", "trailer.footer_len:u64",
		"trailer.magic:pc", "trailer.version:u8", "trailer.kind:u8",
	},
}

// Stream magics: 'p' plus one stream letter. 'c' opens a container; 'l'
// names the LLC-visible stream, now only as the container kind (its flat
// form, which opened with 'p' 'l', is retired). The letter 't' is retired
// too (it named the full pre-L1 stream, which is no longer recorded); do
// not reuse it, so old bytes keep failing with a named magic or kind
// error.
const (
	magic0          byte = 'p'
	magicLLC1       byte = 'l'
	magicContainer1 byte = 'c'
)

// KindLLC is the container kind of LLC-visible stream chunks, the only
// inner stream a container holds. The kind byte reuses the inner stream's
// magic letter so `popttrace info` output and hexdumps read the same way.
const KindLLC byte = magicLLC1

// containerHeaderLen is the container header size: magic (2) + container
// version (1) + kind (1) + inner stream version (1).
const containerHeaderLen = 5

// containerTrailerLen is the fixed trailer at EOF: footer offset (8) +
// footer length (8) + magic echo (2) + version (1) + kind (1). Readers
// seek here first, so it is fixed-width and last.
const containerTrailerLen = 20
