package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnapshot is the process-wide state the proc.* metrics are
// differences of.
type procSnapshot struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// rusage returns the process's CPU time (user + system) and its peak
// resident set in kilobytes (Linux's unit for ru_maxrss).
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func takeProcSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := rusage()
	return procSnapshot{
		wall: time.Now(), cpu: cpu,
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcs: ms.NumGC, pauseNs: ms.PauseTotalNs,
	}
}

// procDelta sums what the process did over the measured stretches of a
// run, so stretches that belong to another configuration stay out.
type procDelta struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
	ops            int
}

func (d *procDelta) add(before, after procSnapshot, ops int) {
	d.wall += after.wall.Sub(before.wall)
	d.cpu += after.cpu - before.cpu
	d.mallocs += after.mallocs - before.mallocs
	d.bytes += after.bytes - before.bytes
	d.gcs += after.gcs - before.gcs
	d.pauseNs += after.pauseNs - before.pauseNs
	d.ops += ops
}

// report sets the proc.* metrics, per operation where that makes sense.
func (d *procDelta) report(r *result) {
	n := float64(max(d.ops, 1))
	r.set("proc.mallocs_per_op", float64(d.mallocs)/n, d.ops)
	r.set("proc.alloc_kb_per_op", float64(d.bytes)/1024/n, d.ops)
	r.set("proc.gc_cycles", float64(d.gcs), 1)
	r.set("proc.gc_pause_ms_total", float64(d.pauseNs)/1e6, 1)
	if d.wall > 0 {
		r.set("proc.cpu_s_per_wall_s", float64(d.cpu)/float64(d.wall), 1)
	}
	_, maxRSS := rusage()
	r.set("proc.peak_rss_mb", float64(maxRSS)/1024, 1)
}
