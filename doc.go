// Package capmaestro is a from-scratch implementation of CapMaestro, the
// scalable priority-aware power management architecture for data-center
// servers described in:
//
//	Y. Li, C. R. Lefurgy, K. Rajamani, M. S. Allen-Ware, G. J. Silva,
//	D. D. Heimsoth, S. Ghose, and O. Mutlu. "A Scalable Priority-Aware
//	Approach to Managing Data Center Server Power." HPCA 2019.
//
// CapMaestro lets a highly-available data center — one with N+N redundant
// power feeds — safely host far more servers on the same power
// infrastructure. It contributes three mechanisms, all implemented here:
//
//   - A closed-loop per-supply capping controller (internal/capping, run
//     by every NewSimulator server): a PI feedback loop that enforces an
//     individual AC budget on each power supply of a server, using a node
//     manager that can only cap total DC power.
//
//   - Global priority-aware power capping (Allocate with GlobalPriority):
//     a two-phase, distributed algorithm over a control tree that mirrors
//     the power hierarchy. Metrics summarized by priority flow up; budgets
//     flow down; high-priority servers anywhere in the data center are
//     capped only after every lower-priority server has been throttled to
//     its minimum, as far as breaker limits allow.
//
//   - Stranded power optimization (AllocateWithSPO): budgets that a
//     supply cannot draw — because the server's intrinsic load split binds
//     on the other feed — are reclaimed and re-budgeted in a second pass.
//
// This root package is a facade over the implementation packages:
//
//	internal/power        units, server power models, demand estimation
//	internal/topology     physical power-distribution trees and derating
//	internal/breaker      UL 489-style circuit-breaker trip curves
//	internal/server       simulated servers, supplies, node managers
//	internal/capping      the per-supply PI capping controller
//	internal/core         control trees, allocation policies, SPO
//	internal/controlplane rack-/room-level workers over TCP or in-process
//	internal/sim          tick-based data-center simulation
//	internal/workload     utilization distributions and throughput models
//	internal/dc           the Table 4 data center and capacity studies
//	internal/experiments  regenerators for every table and figure
//
// The facade exports what the examples directory and this package's
// examples and benchmarks use. The binaries under cmd/ (capmaestro,
// experiments, scenariorun, topoctl, scalesim) import the internal
// packages directly. See the examples directory for runnable
// walkthroughs, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for paper-vs-measured results.
package capmaestro
