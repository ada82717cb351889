// Command topoctl works with declarative power-topology files (the JSON
// wiring records CapMaestro builds its control trees from).
//
// Usage:
//
//	topoctl -example > dc.json       # emit a sample topology file
//	topoctl -validate dc.json        # parse + structural validation
//	topoctl -describe dc.json        # render the tree with derated limits
//	topoctl -failover dc.json        # simulate worst-case feed failures
//
// Validation catches the mistakes that undermine capping safety before
// they reach the control plane: duplicate node IDs, supplies with bad
// split fractions, splits that do not cover a server, feed or phase
// inconsistencies. The failover drill runs the full simulated stack
// (demand estimation, priority-aware allocation, PI capping, breaker
// thermal models) against the declared wiring with every server at peak
// power, failing each feed in turn, and reports whether every server keeps
// a live supply and capping protects every breaker.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/sim"
	"capmaestro/internal/topology"
)

const exampleDoc = `{
  "feeds": [
    {
      "id": "A", "kind": "utility",
      "children": [
        {"id": "A-ups", "kind": "ups", "children": [
          {"id": "A-rpp1", "kind": "rpp", "rating_watts": 52000, "children": [
            {"id": "A-cdu1", "kind": "cdu", "rating_watts": 6900, "children": [
              {"id": "web1-psA", "kind": "supply", "server": "web1", "split": 0.5},
              {"id": "db1-psA", "kind": "supply", "server": "db1", "split": 0.65}
            ]}
          ]}
        ]}
      ]
    },
    {
      "id": "B", "kind": "utility",
      "children": [
        {"id": "B-ups", "kind": "ups", "children": [
          {"id": "B-rpp1", "kind": "rpp", "rating_watts": 52000, "children": [
            {"id": "B-cdu1", "kind": "cdu", "rating_watts": 6900, "children": [
              {"id": "web1-psB", "kind": "supply", "server": "web1", "split": 0.5},
              {"id": "db1-psB", "kind": "supply", "server": "db1", "split": 0.35}
            ]}
          ]}
        ]}
      ]
    }
  ]
}
`

func main() {
	var (
		validate = flag.String("validate", "", "topology file to validate")
		describe = flag.String("describe", "", "topology file to describe")
		failover = flag.String("failover", "", "topology file to run a worst-case failover drill on")
		example  = flag.Bool("example", false, "print a sample topology file")
	)
	flag.Parse()

	switch {
	case *example:
		fmt.Print(exampleDoc)
	case *failover != "":
		topo, err := load(*failover)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !failoverDrill(os.Stdout, topo) {
			os.Exit(1)
		}
	case *validate != "":
		topo, err := load(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: OK — %d nodes, %d feeds, %d servers, %d supplies\n",
			*validate, topo.NodeCount(), len(topo.Feeds()),
			len(topo.ServerIDs()), len(topo.Supplies()))
	case *describe != "":
		topo, err := load(*describe)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printTopology(topo)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func load(path string) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ReadJSON(f)
}

// failoverDrill simulates the worst case on the declared topology: every
// server at peak demand, each feed failed in turn, CapMaestro's Global
// Priority capping active against the derated limits. Writes per-feed
// verdicts to w; returns false if any failure left a server without a
// live supply or tripped a breaker.
func failoverDrill(w io.Writer, topo *topology.Topology) bool {
	specs := make(map[string]sim.ServerSpec)
	for _, id := range topo.ServerIDs() {
		specs[id] = sim.ServerSpec{Utilization: 1.0}
	}
	fmt.Fprintf(w, "failover drill: %d servers at peak demand, Global Priority capping, 80%% derating\n\n",
		len(specs))
	ok := true
	for _, failed := range topo.Feeds() {
		s, err := sim.New(sim.Config{
			Topology: topo,
			Servers:  specs,
			Policy:   core.GlobalPriority,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		s.Run(30 * time.Second) // steady state with both feeds
		s.FailFeed(failed)
		s.Run(2 * time.Minute) // well past the capping window
		tripped := s.TrippedBreakers()
		var worstLoad, worstFrac float64
		var worstID string
		derating := topology.DefaultDerating()
		for _, root := range topo.Roots() {
			if root.Feed == failed {
				continue
			}
			root.Walk(func(n *topology.Node) bool {
				if n.Kind == topology.KindSupply || n.Rating <= 0 {
					return true
				}
				load := float64(s.NodeLoad(n.ID))
				frac := load / float64(derating.Limit(n))
				if frac > worstFrac {
					worstFrac, worstLoad, worstID = frac, load, n.ID
				}
				return true
			})
		}
		verdict := "SAFE"
		switch dark := unpowered(topo, failed); {
		case len(dark) > 0:
			verdict = "UNPOWERED " + strings.Join(dark, ",")
			ok = false
		case len(tripped) > 0:
			verdict = "TRIPPED " + strings.Join(tripped, ",")
			ok = false
		case len(s.InvariantViolations()) > 0:
			verdict = "BUDGET VIOLATIONS"
			ok = false
		case s.InfeasiblePeriods() > 0 || worstFrac > 1.0:
			// Even fully throttled, the fleet's minimum power exceeds the
			// sustained (derated) limit: the breaker runs chronically hot
			// and the 80% loading rule is violated.
			verdict = "OVER SUSTAINED LIMIT"
			ok = false
		}
		hottest := "no rated branch survives"
		if worstID != "" {
			hottest = fmt.Sprintf("hottest surviving branch %s at %.0f W (%.0f%% of sustained limit)",
				worstID, worstLoad, worstFrac*100)
		}
		fmt.Fprintf(w, "feed %-4s fails: %-28s %s\n", failed, verdict, hottest)
	}
	fmt.Fprintln(w)
	if ok {
		fmt.Fprintln(w, "verdict: capping holds every breaker through any single-feed failure.")
	} else {
		fmt.Fprintln(w, "verdict: NOT SAFE — reduce server count or raise ratings before deploying.")
	}
	return ok
}

// unpowered lists, in ID order, the servers whose every supply hangs off
// the failed feed: no capping can keep them running through that failure.
func unpowered(topo *topology.Topology, failed topology.FeedID) []string {
	var dark []string
	bySrv := topo.SuppliesByServer()
	for _, id := range topo.ServerIDs() {
		live := false
		for _, s := range bySrv[id] {
			live = live || s.Feed != failed
		}
		if !live {
			dark = append(dark, id)
		}
	}
	return dark
}

func printTopology(topo *topology.Topology) {
	derating := topology.DefaultDerating()
	for _, root := range topo.Roots() {
		fmt.Printf("feed %s:\n", root.Feed)
		var walk func(n *topology.Node, depth int)
		walk = func(n *topology.Node, depth int) {
			indent := strings.Repeat("  ", depth+1)
			switch {
			case n.Kind == topology.KindSupply:
				fmt.Printf("%s%-24s supply of %s (split %.0f%%)\n",
					indent, n.ID, n.ServerID, n.Split*100)
			case n.Rating > 0:
				fmt.Printf("%s%-24s %-11s rated %-9s sustained limit %s\n",
					indent, n.ID, n.Kind, n.Rating, derating.Limit(n))
			default:
				fmt.Printf("%s%-24s %s\n", indent, n.ID, n.Kind)
			}
			for _, c := range n.Children() {
				walk(c, depth+1)
			}
		}
		walk(root, 0)
	}
	var byFeed = map[topology.FeedID]power.Watts{}
	for _, s := range topo.Supplies() {
		// Peak contribution of this supply at the default 490 W class.
		byFeed[s.Feed] += power.Watts(s.Split) * power.DefaultServerModel().CapMax
	}
	fmt.Println("worst-case peak per feed (default 490 W server class, both feeds up):")
	for _, feed := range topo.Feeds() {
		fmt.Printf("  %s: %s\n", feed, byFeed[feed])
	}
}
