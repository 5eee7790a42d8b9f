package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// jsonGraph is the wire form used by MarshalJSON/UnmarshalJSON.
type jsonGraph struct {
	Nodes []NodeID    `json:"nodes"`
	Edges [][2]NodeID `json:"edges"`
}

// MarshalJSON encodes the graph as {"nodes":[...],"edges":[[u,v],...]}
// with deterministic ordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Nodes: g.Nodes()}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, [2]NodeID{e.U, e.V})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the format produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	*g = *New()
	for _, u := range jg.Nodes {
		g.AddNode(u)
	}
	for _, e := range jg.Edges {
		if e[0] == e[1] {
			return fmt.Errorf("graph: decode: self-loop on %d", e[0])
		}
		g.AddEdge(e[0], e[1])
	}
	return nil
}

// WriteEdgeList writes one "u v" pair per line followed by isolated
// vertices as single-token lines, in deterministic order.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("graph: write edge list: %w", err)
		}
	}
	for _, u := range g.Nodes() {
		if g.Degree(u) == 0 {
			if _, err := fmt.Fprintf(bw, "%d\n", u); err != nil {
				return fmt.Errorf("graph: write edge list: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	return nil
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 1:
			u, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			g.AddNode(NodeID(u))
		case 2:
			u, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			g.AddEdge(NodeID(u), NodeID(v))
		default:
			return nil, fmt.Errorf("graph: line %d: expected 1 or 2 fields, got %d", lineNo, len(fields))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	return g, nil
}

// DOT renders the graph in Graphviz DOT syntax, for debugging and for the
// figure-reproduction tooling.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for _, u := range g.Nodes() {
		fmt.Fprintf(&b, "  %d;\n", u)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
	}
	b.WriteString("}\n")
	return b.String()
}
