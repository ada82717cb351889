package main

import (
	"strings"
	"testing"

	"capmaestro/internal/topology"
)

func readTopology(t *testing.T, doc string) *topology.Topology {
	t.Helper()
	topo, err := topology.ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestFailoverFailsUnpoweredServer: a single-corded server on the only
// feed loses all power when that feed fails, whatever capping does, so
// the drill must name it and fail rather than report an empty branch as
// safe.
func TestFailoverFailsUnpoweredServer(t *testing.T) {
	topo := readTopology(t, `{"feeds": [
		{"id": "A", "kind": "utility", "children": [
			{"id": "A-cdu1", "kind": "cdu", "rating_watts": 6900, "children": [
				{"id": "web1-psA", "kind": "supply", "server": "web1", "split": 1}
			]}
		]}
	]}`)
	var out strings.Builder
	if failoverDrill(&out, topo) {
		t.Errorf("drill passed a topology whose feed failure leaves web1 unpowered:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "UNPOWERED web1") {
		t.Errorf("drill does not name the unpowered server:\n%s", out.String())
	}
}

func TestFailoverExampleIsSafe(t *testing.T) {
	topo := readTopology(t, exampleDoc)
	var out strings.Builder
	if !failoverDrill(&out, topo) {
		t.Errorf("example topology failed its drill:\n%s", out.String())
	}
	if got := strings.Count(out.String(), ": SAFE "); got != 2 {
		t.Errorf("%d of 2 feeds SAFE:\n%s", got, out.String())
	}
}
