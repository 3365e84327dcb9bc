package main

// Per-layer metrics of the traced run: one table of names and units
// (mirrored in BENCHMARK.json; the test checks they agree) and the
// collector the workloads write into. A metric a workload does not
// exercise is reported as 0.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	// Simulated statistics: deterministic, compare by equality.
	{"cycle_err_pct", "%"},
	{"failed_share", "ratio"},
	{"sim_digest", "u48"},
	{"core.c6x_packets", "count"},
	{"core.cpi_c6x", "cyc/inst"},
	{"c6x.segments", "count"},
	{"c6x.entries", "count"},
	{"c6x.fuse_declined", "count"},
	{"soc.bus_transactions", "count"},
	{"soc.bus_wait_cycles", "count"},
	{"soc.commit_ratio", "ratio"},
	{"simfarm.cache_hits", "count"},
	{"simfarm.cache_misses", "count"},
	{"simfarm.cache_disk_hits", "count"},
	{"server.rejected", "count"},
	{"store.object_bytes", "B"},
	// Host time per layer.
	{"tc32asm.assemble_ms", "ms"},
	{"iss.minst_per_s", "Minst/s"},
	{"core.translate_ms", "ms"},
	{"c6x.compile_ms", "ms"},
	{"c6x.fuse_ms", "ms"},
	{"platform.new_us", "us"},
	{"platform.load_ns", "ns"},
	{"platform.store_ns", "ns"},
	{"run.minst_per_s", "Minst/s"},
	{"speedup_vs_iss", "ratio"},
	{"c6x.ns_per_c6x_cycle.fused", "ns"},
	{"c6x.ns_per_c6x_cycle.nofuse", "ns"},
	{"c6x.ns_per_c6x_cycle.interp", "ns"},
	{"soc.ns_per_quantum", "ns"},
	{"simfarm.cache_hit_ns", "ns"},
	{"simfarm.overhead_us_per_job", "us"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"dist.journal_append_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"batch_p95_ms", "ms"},
	// The run itself.
	{"trace_overhead_pct", "%"},
	{"trace.attributed_pct", "%"},
	{"host.peak_rss_mib", "MiB"},
	{"host.alloc_mib", "MiB"},
	{"host.gc_pause_ms", "ms"},
}

// layers collects per-layer values; safe for the serve clients' goroutines.
type layers struct {
	mu   sync.Mutex
	vals map[string]float64
	// Accumulators that addPrepared turns into means and rates.
	programs                 int
	assemble, iss, translate time.Duration
	issInsts                 int64
	packets                  int
	childPeakRSSMiB          float64
}

func newLayers() *layers { return &layers{vals: map[string]float64{}} }

func (ly *layers) set(name string, v float64) {
	ly.mu.Lock()
	ly.vals[name] = v
	ly.mu.Unlock()
}

func (ly *layers) get(name string) float64 {
	ly.mu.Lock()
	defer ly.mu.Unlock()
	return ly.vals[name]
}

// addPrepared folds one program's front-end times into the per-program
// means (every set-up of the run contributes).
func (ly *layers) addPrepared(pp *prepared) {
	ly.programs++
	ly.assemble += pp.assembleWall
	ly.iss += pp.issWall
	ly.translate += pp.translateWall
	ly.issInsts += pp.ref.Retired
	if pp.prog != nil {
		ly.packets += len(pp.prog.C6x.Packets)
	}
	n := float64(ly.programs)
	ly.set("tc32asm.assemble_ms", ms(ly.assemble)/n)
	ly.set("core.translate_ms", ms(ly.translate)/n)
	ly.set("core.c6x_packets", float64(ly.packets)/n)
	if ly.iss > 0 {
		ly.set("iss.minst_per_s", float64(ly.issInsts)/ly.iss.Seconds()/1e6)
	}
}

func (ly *layers) setBuild(bs *buildStats) {
	if bs.timings == 0 {
		return
	}
	n := float64(bs.timings)
	ly.set("c6x.compile_ms", ms(bs.compileWall)/n)
	ly.set("c6x.fuse_ms", ms(bs.fuseWall)/n)
	ly.set("c6x.segments", float64(bs.segments))
	ly.set("c6x.entries", float64(bs.entries))
	ly.set("c6x.fuse_declined", float64(bs.declined))
}

// hostStats records the process's memory figures at the end of a run.
func (ly *layers) hostStats() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ly.set("host.alloc_mib", float64(m.TotalAlloc)/(1<<20))
	ly.set("host.gc_pause_ms", float64(m.PauseTotalNs)/1e6)
	ly.set("host.peak_rss_mib", max(peakRSSMiB(), ly.childPeakRSSMiB))
}

// peakRSSMiB reads VmHWM of this process (0 where /proc is absent).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem under dir (tmpfs and a disk differ by
// orders of magnitude in fsync cost, which serve.mixed pays per batch).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// digestNumber folds a hex digest into a number a float64 holds exactly
// (its first 48 bits), so the digest travels in the metrics object.
func digestNumber(hexDigest string) float64 {
	if len(hexDigest) < 12 {
		return 0
	}
	v, _ := strconv.ParseUint(hexDigest[:12], 16, 64)
	return float64(v)
}

// benchDir is the benchmark's own directory: run.sh passes it; a binary
// started by hand uses the current directory.
func benchDir() (string, error) {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d, nil
	}
	return os.Getwd()
}
