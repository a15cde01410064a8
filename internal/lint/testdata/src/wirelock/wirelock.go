// Package wirelock seeds formatlock violations against the checked-in
// testdata/wirelock.baseline: stream "fresh" matches its baseline entry,
// "drift" changed layout without a version bump, "stale" bumped its
// version without regenerating the baseline, "noentry" is annotated
// but missing from FormatVersions entirely, and "retired" is still locked
// in the baseline although the package no longer declares it.
package wirelock

var FormatVersions = map[string]byte{ // want `wire-format baseline testdata/wirelock.baseline still locks stream "retired", which FormatVersions no longer declares`
	"fresh": 1,
	"drift": 1, // want `wire fingerprint of stream "drift" changed but FormatVersions\["drift"\] is still 1`
	"stale": 2, // want `wire-format baseline for stream "stale" is stale \(baseline version 1, package declares 2\)`
}

var HeaderFields = map[string][]string{
	"fresh": {"magic:pf", "version:u8"},
}

const (
	fopA byte = iota + 1
)

const (
	dopA byte = iota + 1
)

const (
	sopA byte = iota + 1
)

const (
	nopA byte = iota + 1
)

type enc struct{ buf []byte }

func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

func appendVarint(buf []byte, x int64) []byte {
	return appendUvarint(buf, uint64(x)<<1^uint64(x>>63))
}

// Fresh matches its baseline entry exactly.
//
//popt:codec fresh enc
func (e *enc) Fresh(x uint64) {
	e.buf = append(e.buf, fopA)
	e.buf = appendUvarint(e.buf, x)
}

// Drift changed its payload from uvarint (what the baseline records) to
// varint without bumping FormatVersions["drift"].
//
//popt:codec drift enc
func (e *enc) Drift(x int64) {
	e.buf = append(e.buf, dopA)
	e.buf = appendVarint(e.buf, x)
}

// Stale bumped FormatVersions["stale"] to 2, but the baseline still
// records version 1.
//
//popt:codec stale enc
func (e *enc) Stale(x uint64) {
	e.buf = append(e.buf, sopA)
	e.buf = appendUvarint(e.buf, x)
}

// NoEntry is annotated but has no FormatVersions entry.
//
//popt:codec noentry enc
func (e *enc) NoEntry() { // want `stream "noentry" has //popt:codec annotations but no FormatVersions entry`
	e.buf = append(e.buf, nopA)
}
