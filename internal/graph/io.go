package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Serialization uses a small binary container holding the name and both
// adjacency directions, so generated suites can be saved by cmd/graphgen
// and reloaded by the benchmark harness without regeneration:
//
//	"POPTG1"
//	uint32 len(name), name
//	per direction (Out, then In):
//	  uint64 len(OA), OA as little-endian uint64s
//	  uint64 len(NA), NA as little-endian uint32s
//
// Read treats the file as untrusted input: arrays are read in bounded
// blocks, so a length word larger than the data present fails with an
// EOF error instead of an allocation of that size, and the loaded graph
// must pass Validate.

const magic = "POPTG1"

// ErrRetiredFormat is returned by Read for "POPTG2" files, which held the
// blocked delta-compressed adjacency layout. That layout was retired; the
// graph has to be regenerated (or rewritten by an older build) as POPTG1.
var ErrRetiredFormat = errors.New("graph: POPTG2 files hold the retired compact adjacency layout; regenerate the graph as POPTG1")

// readBlock bounds the elements Read allocates ahead of the bytes that
// back them.
const readBlock = 1 << 16

// Write serializes g to w.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeString(bw, g.Name); err != nil {
		return err
	}
	for _, a := range []*Adj{&g.Out, &g.In} {
		if err := writeAdj(bw, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write. It consumes r to its end:
// bytes after the second adjacency are an error, as is any graph that
// fails Validate.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	switch string(head) {
	case magic:
	case "POPTG2":
		return nil, ErrRetiredFormat
	default:
		return nil, fmt.Errorf("graph: bad magic %q", head)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	g := &Graph{Name: name}
	for _, a := range []*Adj{&g.Out, &g.In} {
		if err := readAdj(br, a); err != nil {
			return nil, err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graph %s: trailing data after the adjacency arrays", name)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("graph: unreasonable string length %d", n)
	}
	var sb strings.Builder
	if _, err := io.CopyN(&sb, r, int64(n)); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func writeAdj(w io.Writer, a *Adj) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(a.OA))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, a.OA); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(a.NA))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, a.NA)
}

func readAdj(r io.Reader, a *Adj) error {
	oa, err := readArray[uint64](r)
	if err != nil {
		return fmt.Errorf("graph: reading offsets: %w", err)
	}
	na, err := readArray[V](r)
	if err != nil {
		return fmt.Errorf("graph: reading neighbors: %w", err)
	}
	*a = Adj{OA: oa, NA: na}
	return nil
}

// readArray reads a length word and that many little-endian elements,
// readBlock at a time, so memory grows only with bytes actually read.
func readArray[T uint64 | V](r io.Reader) ([]T, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	block := make([]T, min(n, readBlock))
	out := make([]T, 0, len(block))
	for rem := n; rem > 0; {
		k := min(rem, readBlock)
		if err := binary.Read(r, binary.LittleEndian, block[:k]); err != nil {
			return nil, err
		}
		out = append(out, block[:k]...)
		rem -= k
	}
	return out, nil
}

// ParseEdgeList parses a whitespace-separated "src dst" edge list (one edge
// per line, '#' comments allowed) with n vertices, for loading external
// graphs through cmd/graphgen.
func ParseEdgeList(r io.Reader, name string, n int) (*Graph, error) {
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s, d int
		if _, err := fmt.Sscan(line, &s, &d); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if s < 0 || d < 0 || s >= n || d >= n {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range [0,%d)", lineNo, n)
		}
		edges = append(edges, Edge{V(s), V(d)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(name, n, edges), nil
}
