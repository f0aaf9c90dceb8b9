package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/ann"
	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/wal"
)

// servingDeltas reads the daemon's own stage histograms over the
// reference passes (means of the observations between two scrapes) and
// the benchmark client's costs from the same passes.
func servingDeltas(out *outcome, before, after promSnapshot, ref []sample) {
	ms := func(name, labels string) float64 {
		m, _ := after.histMean(before, name, labels)
		return m * 1e3
	}
	out.values["ehnad.boot.s"] = after["ehnad_boot_seconds"]
	out.values["ehnad.queue_wait.ms"] = ms("ehnad_queue_wait_seconds", "")
	out.values["ehnad.batch_size.mean"], _ = after.histMean(before, "ehnad_batch_size", "")
	out.values["ehnad.flush.ms"] = ms("ehnad_batch_flush_seconds", "")
	out.values["ehnad.ann_stage.candidates.ms"] = ms("ehnad_ann_stage_seconds", `{index="hnsw",stage="candidates"}`)
	out.values["ehnad.ann_stage.rerank.ms"] = ms("ehnad_ann_stage_seconds", `{index="hnsw",stage="rerank"}`)
	out.values["ehnad.http.neighbors.ms"] = ms("ehnad_http_request_seconds", `{path="/v1/neighbors"}`)
	out.values["ehnad.http.upsert.ms"] = ms("ehnad_http_request_seconds", `{path="/v1/upsert"}`)
	out.values["ehnad.snapshot.s"], _ = after.histMean(before, "ehnad_snapshot_seconds", "")
	if q := after.delta(before, `ehnad_ann_queries_total{index="hnsw"}`); q > 0 {
		out.values["ehnad.ann.fallback_frac"] = after.delta(before, "ehnad_ann_fallback_total") / q
	} else {
		out.values["ehnad.ann.fallback_frac"] = 0
	}
	var shed float64
	for _, reason := range []string{"queue_full", "deadline", "inflight"} {
		shed += after.delta(before, `ehnad_requests_shed_total{reason="`+reason+`"}`)
	}
	out.values["ehnad.shed"] = shed
	out.values["ehnad.expired"] = after.delta(before, "ehnad_requests_expired_total")
	if f := after.delta(before, "ehnad_wal_fsyncs_total"); f > 0 {
		out.values["wal.records_per_fsync"] = after.delta(before, "ehnad_wal_records_total") / f
	}

	var client []float64
	for _, s := range ref {
		if s.class == "search" && s.ok {
			client = append(client, float64(s.done.Sub(s.sent))/1e6)
		}
	}
	out.values["bench.gen_lag.p99_ms"] = lagP99(ref)
	out.values["bench.client.search_ms"] = mean(client)
	out.values["bench.wire.ms"] = mean(client) - out.values["ehnad.http.neighbors.ms"]
}

// searchPath sums the self times along a search request's blocking
// path — generator lag, wire and client, queue wait, the flush outside
// the index, and the index's two stages — and reports the residual the
// layers do not account for (request decode, id resolution, response
// encode inside the handler) beside the observed latency.
func searchPath(out *outcome, ref []sample) {
	var lat, lag []float64
	for _, s := range ref {
		if s.class == "search" && s.ok {
			lat = append(lat, s.latencyMs())
			lag = append(lag, s.lagMs())
		}
	}
	v := out.values
	cand, rerank := v["ehnad.ann_stage.candidates.ms"], v["ehnad.ann_stage.rerank.ms"]
	sum := mean(lag) + v["bench.wire.ms"] + v["ehnad.queue_wait.ms"] + (v["ehnad.flush.ms"] - cand - rerank) + cand + rerank
	v["search.path.p50_ms"] = quantile(lat, 0.5)
	v["search.path.mean_ms"] = mean(lat)
	v["search.path.sum_ms"] = sum
	v["search.path.residual_ms"] = mean(lat) - sum
}

// traceSearch measures the search layers: the daemon's stages over the
// reference passes, then the served artifacts opened in-process, with a
// span around each call into embstore and ann.
func traceSearch(e *env, out *outcome, dir string, before, after promSnapshot, ref []sample) error {
	kernelProbes(out)
	servingDeltas(out, before, after, ref)
	searchPath(out, ref)

	snap, graphPath := filepath.Join(dir, "store.snap"), filepath.Join(dir, "graph.gob")
	var opens, loads, graphLoads []float64
	var store *embstore.Store
	var h *ann.HNSW
	for i := 0; i < 5; i++ {
		start := time.Now()
		s, _, err := embstore.OpenMmap(snap)
		if err != nil {
			return err
		}
		opens = append(opens, msSince(start))
		start = time.Now()
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		g, err := ann.LoadHNSWGraph(f, s)
		f.Close()
		if err != nil {
			return err
		}
		graphLoads = append(graphLoads, msSince(start))
		if store != nil {
			store.Close()
		}
		store, h = s, g
		start = time.Now()
		if _, _, err := embstore.LoadSnapshotV3At(snap, embstore.DefaultShards, embstore.SQ8); err != nil {
			return err
		}
		loads = append(loads, msSince(start))
	}
	defer store.Close()
	out.values["embstore.open_mmap.ms"] = median(opens)
	out.values["ann.graph_load.ms"] = median(graphLoads)
	out.values["embstore.load_v3.ms"] = median(loads)
	h.SetEfSearch(searchEf)

	// The queries of the reference passes, resolved and searched the way
	// the daemon does it: id → store.Get → SearchInto.
	plan := newSearchPlan(e.seed, searchN)
	queries := plan.ops(2000)
	run := func(tr *tracer) (time.Duration, []float64) {
		var dst []ann.Result
		var searchUs []float64
		start := time.Now()
		for _, q := range queries {
			req := tr.newReq()
			root := tr.begin("probe.search", 0, req)
			var body struct {
				ID     *graph.NodeID `json:"id"`
				Vector []float64     `json:"vector"`
			}
			json.Unmarshal(q.body, &body)
			vec := body.Vector
			if body.ID != nil {
				id := tr.begin("embstore.get", root, req)
				vec, _ = store.Get(*body.ID)
				tr.end(id)
			}
			sp := tr.begin("ann.search", root, req)
			t0 := time.Now()
			dst, _ = h.SearchInto(context.Background(), dst[:0], vec, 11)
			searchUs = append(searchUs, float64(time.Since(t0))/1e3)
			tr.end(sp)
			tr.end(root)
		}
		return time.Since(start), searchUs
	}
	untraced, _ := run(newTracer(false))
	traced, searchUs := run(e.tr)
	out.values["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
	out.values["ann.search.p50_us"] = quantile(searchUs, 0.50)
	out.values["ann.search.p99_us"] = quantile(searchUs, 0.99)
	self := selfMeans(e.tr)
	out.values["embstore.get.us"] = self["embstore.get"]
	return nil
}

// traceIngest measures the write-side layers: the daemon's stages over
// the reference passes, then the graph build at one and two cores, the
// write path in the daemon's order (wal append, store upsert, graph
// insert, wal commit) with a span around each call, searches racing
// inserts, and the snapshot saves.
func traceIngest(e *env, out *outcome, before, after promSnapshot, ref []sample, base [][]float64) error {
	kernelProbes(out)
	servingDeltas(out, before, after, ref)
	sq8Store := func(n int) (*embstore.Store, error) {
		s, err := embstore.NewPrecision(searchDim, embstore.DefaultShards, embstore.SQ8)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := s.Upsert(graph.NodeID(i), base[i]); err != nil {
				return nil, err
			}
		}
		return s, nil
	}

	// Graph build at GOMAXPROCS 1 and 2 over the same 4,000 vectors.
	const buildN = 4000
	var h *ann.HNSW
	var store *embstore.Store
	for _, procs := range []int{1, 2} {
		s, err := sq8Store(buildN)
		if err != nil {
			return err
		}
		prev := runtime.GOMAXPROCS(procs)
		start := time.Now()
		g, err := ann.BuildHNSW(s, ann.DefaultHNSWConfig())
		took := time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		out.values[fmt.Sprintf("ann.build.inserts_per_s.p%d", procs)] = buildN / took.Seconds()
		h, store = g, s
	}
	out.values["ann.build.parallel_x"] = out.values["ann.build.inserts_per_s.p2"] / out.values["ann.build.inserts_per_s.p1"]

	// The durable write path, untraced then traced, on its own WAL.
	rng := rand.New(rand.NewSource(e.seed + 17))
	nextID := graph.NodeID(buildN)
	writes := func(tr *tracer, dir string, n int) (time.Duration, error) {
		lg, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return 0, err
		}
		defer lg.Close()
		start := time.Now()
		for i := 0; i < n; i++ {
			id := graph.NodeID(rng.Intn(buildN))
			if rng.Float64() < newIDShare {
				id, nextID = nextID, nextID+1
			}
			vec := gaussian(rng, searchDim)
			req := tr.newReq()
			root := tr.begin("ingest.write", 0, req)
			sp := tr.begin("wal.append", root, req)
			seq, err := lg.AppendBuffered([]wal.Record{{Op: wal.OpUpsert, ID: id, Vec: vec}})
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("embstore.upsert", root, req)
			err = store.Upsert(id, vec)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("ann.insert", root, req)
			err = h.AddToGraph(id, vec)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("wal.commit", root, req)
			err = lg.Commit(seq)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			tr.end(root)
		}
		return time.Since(start), nil
	}
	untraced, err := writes(newTracer(false), filepath.Join(e.work, "probe-wal-0"), 300)
	if err != nil {
		return err
	}
	traced, err := writes(e.tr, filepath.Join(e.work, "probe-wal-1"), 300)
	if err != nil {
		return err
	}
	out.values["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
	self := selfMeans(e.tr)
	for _, name := range []string{"wal.append", "embstore.upsert", "ann.insert", "wal.commit"} {
		out.values[name+".us"] = self[name]
	}

	// Searches while another goroutine inserts.
	h.SetEfSearch(searchEf)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		irng := rand.New(rand.NewSource(e.seed + 23))
		for id := graph.NodeID(1 << 20); !stop.Load(); id++ {
			h.Add(id, gaussian(irng, searchDim))
		}
	}()
	var lat []float64
	var dst []ann.Result
	for i := 0; i < 1000; i++ {
		q := gaussian(rng, searchDim)
		start := time.Now()
		dst, _ = h.SearchInto(context.Background(), dst[:0], q, 10)
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	stop.Store(true)
	wg.Wait()
	out.values["ann.search_under_insert.p99_us"] = quantile(lat, 0.99)

	// Snapshot saves, as one rotation writes them.
	var saves, graphSaves []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := writeFile(filepath.Join(e.work, "probe.snap"), func(f *os.File) error { return store.SaveSnapshotV3(f, 0) }); err != nil {
			return err
		}
		saves = append(saves, msSince(start))
		start = time.Now()
		if err := writeFile(filepath.Join(e.work, "probe.graph"), func(f *os.File) error { return h.SaveGraph(f) }); err != nil {
			return err
		}
		graphSaves = append(graphSaves, msSince(start))
	}
	out.values["embstore.save_v3.ms"] = median(saves)
	out.values["ann.graph_save.ms"] = median(graphSaves)
	return nil
}

// writeFile creates path, writes it and syncs it, as a snapshot
// rotation does.
func writeFile(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
