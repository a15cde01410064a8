//go:build race

package core

// raceEnabled reports a -race build. The race detector slows the
// exhaustive on-demand oracle (TestNextRefMatchesEncodedMatrix) about
// fifteenfold, so under it the oracle checks fewer entry widths; the
// plain test run checks them all.
const raceEnabled = true
