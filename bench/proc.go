package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process's cumulative resource use at one instant.
type procSnap struct {
	cpu     time.Duration // user + system, from getrusage
	mallocs uint64
	bytes   uint64
	pauseNs uint64
	heapSys uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		pauseNs: ms.PauseTotalNs,
		heapSys: ms.HeapSys,
	}
}

// procMetrics turns two snapshots around a pass into per-unit-of-work
// costs. Client and servers share the process, so this is the whole
// stack's cost of one unit of work. CPU time is far steadier than wall
// time on a shared box.
func procMetrics(before, after procSnap, p *pass) map[string]metric {
	work := p.work
	if work <= 0 {
		work = 1
	}
	return map[string]metric{
		"proc.cpu_ms_per_op":      {float64(after.cpu-before.cpu) / 1e6 / work, "ms"},
		"proc.allocs_per_op":      {float64(after.mallocs-before.mallocs) / work, "count"},
		"proc.alloc_bytes_per_op": {float64(after.bytes-before.bytes) / work, "B"},
		"proc.gc_pause_ratio":     {float64(after.pauseNs-before.pauseNs) / float64(p.wall), "ratio"},
		"proc.peak_heap_mb":       {float64(after.heapSys) / mb, "MB"},
	}
}
