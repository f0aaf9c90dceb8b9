package main

import (
	"math/rand"
	"strings"
	"time"

	"ehna/internal/vecmath"
)

// layerDef is one per-layer metric and the workloads whose traced run
// measures it. A traced run reports the metrics of other workloads as 0:
// that layer is idle on this workload.
type layerDef struct {
	metricDef
	owners string // comma-separated workloads; "" means every workload
}

func (d layerDef) ownedBy(workload string) bool {
	if d.owners == "" {
		return true
	}
	for _, w := range strings.Split(d.owners, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

const serving = "search,ingest"

var perLayerDefs = []layerDef{
	// vecmath kernels, timed in isolation in every traced run.
	{metricDef{"vecmath.dot.ns", "ns"}, ""},
	{metricDef{"vecmath.dot.gbps", "GB/s"}, ""},
	{metricDef{"vecmath.axpy.ns", "ns"}, ""},
	{metricDef{"vecmath.axpy.gbps", "GB/s"}, ""},
	{metricDef{"vecmath.dot_sq8_sym.ns", "ns"}, ""},
	{metricDef{"vecmath.dot_sq8_sym.gbps", "GB/s"}, ""},
	{metricDef{"vecmath.dot_sq8.ns", "ns"}, ""},
	{metricDef{"vecmath.dot_sq8.gbps", "GB/s"}, ""},
	{metricDef{"vecmath.encode_sq8.ns", "ns"}, ""},
	{metricDef{"vecmath.encode_sq8.gbps", "GB/s"}, ""},
	{metricDef{"bench.trace_overhead_pct", "%"}, ""},

	// Wall-clock figures of every workload, measured as in the end-to-end
	// run but not gated: see BENCHMARK.md on steal.
	{metricDef{"bench.setup_wall_s", "s"}, ""},
	{metricDef{"bench.throughput_per_s", "1/s"}, ""},
	{metricDef{"bench.p50_ms", "ms"}, ""},
	{metricDef{"bench.p99_ms", "ms"}, ""},

	// train: data generation, graph, walks, forward, backward, optimizer.
	{metricDef{"datagen.generate.ms", "ms"}, "train"},
	{metricDef{"graph.build.ms", "ms"}, "train"},
	{metricDef{"walk.walks.us", "us"}, "train"},
	{metricDef{"ehna.edge_loss.us", "us"}, "train"},
	{metricDef{"ag.backward.us", "us"}, "train"},
	{metricDef{"ehna.step.us", "us"}, "train"},

	// search: in-process index and store calls on the served artifacts.
	{metricDef{"ann.search.p50_us", "us"}, "search"},
	{metricDef{"ann.search.p99_us", "us"}, "search"},
	{metricDef{"ann.graph_load.ms", "ms"}, "search"},
	{metricDef{"embstore.open_mmap.ms", "ms"}, "search"},
	{metricDef{"embstore.load_v3.ms", "ms"}, "search"},
	{metricDef{"embstore.get.us", "us"}, "search"},
	// search: the blocking path of one request, from the reference pass.
	{metricDef{"search.path.p50_ms", "ms"}, "search"},
	{metricDef{"search.path.mean_ms", "ms"}, "search"},
	{metricDef{"search.path.sum_ms", "ms"}, "search"},
	{metricDef{"search.path.residual_ms", "ms"}, "search"},

	// ingest: in-process write path in the daemon's order, build, saves.
	{metricDef{"ann.insert.us", "us"}, "ingest"},
	{metricDef{"ann.search_under_insert.p99_us", "us"}, "ingest"},
	{metricDef{"ann.build.inserts_per_s.p1", "1/s"}, "ingest"},
	{metricDef{"ann.build.inserts_per_s.p2", "1/s"}, "ingest"},
	{metricDef{"ann.build.parallel_x", "x"}, "ingest"},
	{metricDef{"embstore.upsert.us", "us"}, "ingest"},
	{metricDef{"embstore.save_v3.ms", "ms"}, "ingest"},
	{metricDef{"ann.graph_save.ms", "ms"}, "ingest"},
	{metricDef{"wal.append.us", "us"}, "ingest"},
	{metricDef{"wal.commit.us", "us"}, "ingest"},
	{metricDef{"wal.records_per_fsync", "ratio"}, "ingest"},
	{metricDef{"ehnad.http.upsert.ms", "ms"}, "ingest"},
	{metricDef{"ehnad.snapshot.s", "s"}, "ingest"},

	// serving: deltas of the daemon's /metrics over the reference passes,
	// and the benchmark client's own costs.
	{metricDef{"ehnad.boot.s", "s"}, serving},
	{metricDef{"ehnad.queue_wait.ms", "ms"}, serving},
	{metricDef{"ehnad.batch_size.mean", "count"}, serving},
	{metricDef{"ehnad.flush.ms", "ms"}, serving},
	{metricDef{"ehnad.ann_stage.candidates.ms", "ms"}, serving},
	{metricDef{"ehnad.ann_stage.rerank.ms", "ms"}, serving},
	{metricDef{"ehnad.http.neighbors.ms", "ms"}, serving},
	{metricDef{"ehnad.ann.fallback_frac", "ratio"}, serving},
	{metricDef{"ehnad.shed", "count"}, serving},
	{metricDef{"ehnad.expired", "count"}, serving},
	{metricDef{"bench.gen_lag.p99_ms", "ms"}, serving},
	{metricDef{"bench.client.search_ms", "ms"}, serving},
	{metricDef{"bench.wire.ms", "ms"}, serving},
}

// perLayer is the metric set of every --trace 1 run.
var perLayer = func() []metricDef {
	out := make([]metricDef, len(perLayerDefs))
	for i, d := range perLayerDefs {
		out[i] = d.metricDef
	}
	return out
}()

// fillIdle sets every per-layer metric the workload does not own to 0.
func fillIdle(workload string, out *outcome) {
	for _, d := range perLayerDefs {
		if !d.ownedBy(workload) {
			out.values[d.Name] = 0
		}
	}
}

// sink keeps the kernel results live so the compiler cannot drop calls.
var sink float64

// nsPerOp times fn in seven rounds of batch calls and returns the median
// nanoseconds per call.
func nsPerOp(batch int, fn func()) float64 {
	var rounds []float64
	for r := 0; r < 7; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		rounds = append(rounds, float64(time.Since(start))/float64(batch))
	}
	return median(rounds)
}

// kernelProbes times the vecmath kernels the two halves of the system
// run: the f64 kernels at the training dimension (16) and the sq8
// kernels at the serving dimension (64). Bytes moved per call are
// computed from the operand sizes, not measured.
func kernelProbes(out *outcome) {
	rng := rand.New(rand.NewSource(3))
	a16, b16, d16 := gaussian(rng, 16), gaussian(rng, 16), gaussian(rng, 16)
	q64, v64, w64 := gaussian(rng, 64), gaussian(rng, 64), gaussian(rng, 64)
	vc, wc := make([]int8, 64), make([]int8, 64)
	vs, vo, vsum := vecmath.EncodeSQ8(v64, vc)
	ws, wo, wsum := vecmath.EncodeSQ8(w64, wc)
	qsum := vecmath.Sum(q64)
	put := func(name string, ns, bytes float64) {
		out.values["vecmath."+name+".ns"] = ns
		out.values["vecmath."+name+".gbps"] = bytes / ns
	}
	const batch = 200_000
	put("dot", nsPerOp(batch, func() { sink += vecmath.Dot(a16, b16) }), 2*16*8)
	put("axpy", nsPerOp(batch, func() { vecmath.Axpy(d16, 1e-9, a16) }), 3*16*8)
	put("dot_sq8_sym", nsPerOp(batch, func() { sink += vecmath.DotSQ8Sym(vc, wc, vs, vo, ws, wo, vsum, wsum) }), 2*64)
	put("dot_sq8", nsPerOp(batch, func() { sink += vecmath.DotSQ8(q64, vc, vs, vo, qsum) }), 64*8+64)
	put("encode_sq8", nsPerOp(batch/4, func() { vecmath.EncodeSQ8(w64, wc) }), 64*8+64)
}

// overheadPct is how much slower the traced pass ran than the untraced
// one, in percent.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
}

// selfMeans returns the mean self time of each span name in
// microseconds.
func selfMeans(tr *tracer) map[string]float64 {
	self := map[string]float64{}
	for _, st := range summarize(tr.snapshot()) {
		self[st.Name] = float64(st.Self) / float64(st.Count) / 1e3
	}
	return self
}
