package capping

import (
	"math"

	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// settleBuckets size the settle-time histogram in control iterations: the
// paper's controller converges within a few 8 s control periods, so
// anything past ~8 iterations is pathological.
var settleBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// controllerMetrics instruments one capping controller. Per-supply gauges
// are cached by supply index so the per-second sensing path does no
// map-key building when telemetry is on and nothing at all when it is off.
type controllerMetrics struct {
	enabled bool
	id      string

	budgetVec *telemetry.GaugeVec
	powerVec  *telemetry.GaugeVec
	budgetBy  []*telemetry.Gauge
	powerBy   []*telemetry.Gauge

	throttle   *telemetry.Gauge
	dcCap      *telemetry.Gauge
	violations *telemetry.Counter
	settle     *telemetry.Histogram
}

func newControllerMetrics(reg *telemetry.Registry, id string, supplies int) controllerMetrics {
	if reg == nil {
		return controllerMetrics{}
	}
	if id == "" {
		id = "server"
	}
	return controllerMetrics{
		enabled: true,
		id:      id,
		budgetVec: reg.GaugeVec("capmaestro_capping_budget_watts",
			"AC budget assigned to each supply (+Inf = unbudgeted).", "server", "supply"),
		powerVec: reg.GaugeVec("capmaestro_capping_supply_power_watts",
			"Measured AC power per supply at the last sensor sample.", "server", "supply"),
		budgetBy: make([]*telemetry.Gauge, supplies),
		powerBy:  make([]*telemetry.Gauge, supplies),
		throttle: reg.GaugeVec("capmaestro_capping_throttle_level",
			"Node-manager power-cap throttling level in [0,1].", "server").With(id),
		dcCap: reg.GaugeVec("capmaestro_capping_dc_cap_watts",
			"DC cap last applied by the PI controller.", "server").With(id),
		violations: reg.CounterVec("capmaestro_capping_cap_violations_total",
			"Control iterations in which a supply exceeded its AC budget beyond tolerance.", "server").With(id),
		settle: reg.HistogramVec("capmaestro_capping_settle_iterations",
			"Control iterations from a budget change until every supply is back under budget.",
			settleBuckets, "server").With(id),
	}
}

// budgetGauge returns supply i's budget gauge, registering it on first use.
func (m *controllerMetrics) budgetGauge(i int, supplyID string) *telemetry.Gauge {
	return m.gauge(m.budgetBy, m.budgetVec, i, supplyID)
}

// powerGauge returns supply i's measured-power gauge, registering it on
// first use.
func (m *controllerMetrics) powerGauge(i int, supplyID string) *telemetry.Gauge {
	return m.gauge(m.powerBy, m.powerVec, i, supplyID)
}

func (m *controllerMetrics) gauge(cache []*telemetry.Gauge, vec *telemetry.GaugeVec, i int, supplyID string) *telemetry.Gauge {
	if !m.enabled {
		return nil
	}
	if cache[i] == nil {
		cache[i] = vec.With(m.id, supplyID)
	}
	return cache[i]
}

// violationTolerance is the slack allowed before a supply over its budget
// counts as a cap violation: measurement noise and the node manager's
// settling dynamics put transient watts above the line even in a healthy
// loop.
func violationTolerance(budget power.Watts) power.Watts {
	return power.Watts(math.Max(1, 0.01*float64(budget)))
}
