package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"ehna/internal/graph"
)

// Sizes and operating point of the search workload.
const (
	searchN        = 20_000
	searchDim      = 64
	searchEf       = 512
	searchRefRate  = 150.0 // requests/s of the reference passes, about 40% of capacity
	searchLimitMs  = 20.0  // search p99 limit the reference passes are checked against
	writeLimitMs   = 50.0  // write p99 limit the reference passes are checked against
	searchRecallAt = 0.95  // recall@10 gate against the mkstore truth
	rawShare       = 0.2   // share of queries that send a raw vector
	zipfS          = 1.1
)

type neighborsAnswer struct {
	Results []struct {
		ID    graph.NodeID `json:"id"`
		Score float64      `json:"score"`
	} `json:"results"`
}

type truthFile struct {
	K       int `json:"k"`
	Queries []struct {
		Vector []float64      `json:"vector"`
		IDs    []graph.NodeID `json:"ids"`
	} `json:"queries"`
}

// makeSearchArtifacts builds the v3 snapshot, the HNSW graph and the
// exact truth with the checkout's own ehnad-mkstore.
func makeSearchArtifacts(e *env, dir string) error {
	cmd := exec.Command(filepath.Join(e.bin, "ehnad-mkstore"),
		"-out", dir, "-n", fmt.Sprint(searchN), "-dim", fmt.Sprint(searchDim),
		"-precision", "sq8", "-hnsw", "-seed", fmt.Sprint(e.seed), "-queries", "200", "-k", "10")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("ehnad-mkstore: %v\n%s", err, out)
	}
	return nil
}

// bootSeveral boots the daemon n times, each killed as soon as it is
// ready, and once more to keep running. setup_s is the median CPU time
// a boot used up to readiness (from the exited process's rusage), the
// work a user's machine spends on set-up; bench.setup_wall_s is the
// median wall time from exec to /readyz 200, which CPU steal on a
// shared host stretches.
func bootSeveral(e *env, out *outcome, n int, args func(i int) []string) (*daemon, error) {
	var cpu, wall []float64
	for i := 0; ; i++ {
		d, took, err := startDaemon(e.bin, args(i), filepath.Join(e.work, fmt.Sprintf("ehnad-%d.log", i)))
		if err != nil {
			return nil, err
		}
		if i == n {
			out.values["setup_s"] = median(cpu)
			out.values["bench.setup_wall_s"] = median(wall)
			return d, nil
		}
		wall = append(wall, took.Seconds())
		cpu = append(cpu, d.stop().Seconds())
	}
}

// searchPlan draws n read-only queries: zipf-skewed id queries and a
// share of raw-vector queries, spread round-robin over the workers.
type searchPlan struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newSearchPlan(seed int64, n int) *searchPlan {
	rng := rand.New(rand.NewSource(seed*7 + 11))
	return &searchPlan{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *searchPlan) ops(count int) []op {
	ops := make([]op, count)
	for i := range ops {
		var body []byte
		if p.rng.Float64() < rawShare {
			body, _ = json.Marshal(map[string]any{"vector": gaussian(p.rng, searchDim), "k": 10})
		} else {
			body, _ = json.Marshal(map[string]any{"id": p.perm[p.zipf.Uint64()], "k": 10})
		}
		ops[i] = op{class: "search", worker: i, method: "POST", path: "/v1/neighbors", body: body, check: checkTen}
	}
	return ops
}

// checkTen accepts a neighbors answer with exactly ten results.
func checkTen(body []byte, _, _ time.Time) string {
	var a neighborsAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Sprintf("neighbors answer: %v", err)
	}
	if len(a.Results) != 10 {
		return fmt.Sprintf("neighbors answer has %d results, want 10", len(a.Results))
	}
	return ""
}

func gaussian(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func runSearch(e *env) (*outcome, error) {
	dir := filepath.Join(e.work, "search")
	if err := makeSearchArtifacts(e, dir); err != nil {
		return nil, err
	}
	args := []string{"-index", "hnsw", "-precision", "sq8", "-store", "mmap",
		"-snapshot", filepath.Join(dir, "store.snap"), "-hnsw-graph", filepath.Join(dir, "graph.gob"),
		"-ef-search", fmt.Sprint(searchEf)}
	out := newOutcome()
	d, err := bootSeveral(e, out, 9, func(int) []string { return args })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(e.conns)
	plan := newSearchPlan(e.seed, searchN)

	// Warm the page cache, the connections and the daemon's pools. Not
	// timed, but its answers are checked like any other.
	tally(out, openLoop(client, d.base, plan.ops(int(searchRefRate/2)), searchRefRate, e.conns, newTracer(false)))

	before, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	refSamples, err := referencePasses(e, out, client, d, searchRefRate, e.budget(0.6), plan.ops, slo{limits: map[string]float64{"search": searchLimitMs}, lagMs: searchLimitMs})
	if err != nil {
		return nil, err
	}
	after, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}

	recall, err := truthRecall(client, d.base, filepath.Join(dir, "truth.json"))
	if err != nil {
		return nil, err
	}
	out.notes["recall_at_10"] = recall
	if recall < searchRecallAt {
		out.fail("recall@10 %.4f against truth.json is below %.2f", recall, searchRecallAt)
	}

	out.values["bench.throughput_per_s"] = capacity(e, out, client, d.base, int(20*e.seconds), plan.ops)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.values["rss_mb"] = rss
	if e.trace {
		if err := traceSearch(e, out, dir, before, after, refSamples); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referencePasses runs the reference rate open loop in eight passes of
// equal length and reports p50 and p99 over every request of the four
// passes during which other guests stole the least CPU: on a shared
// host, a pass the hypervisor starved measures the neighbours. It
// notes whether all passes together met the SLO, and reports the
// daemon's CPU time per request over all passes. Returns every sample.
func referencePasses(e *env, out *outcome, client *http.Client, d *daemon, rate float64, total time.Duration, ops func(n int) []op, l slo) ([]sample, error) {
	const passes, kept = 8, 4
	var all []sample
	var byPass [][]sample
	var steal []float64
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	for i := 0; i < passes; i++ {
		m := startSteal()
		s := openLoop(client, d.base, ops(int(rate*total.Seconds()/passes)), rate, e.conns, e.tr)
		steal = append(steal, m.share())
		tally(out, s)
		byPass = append(byPass, s)
		all = append(all, s...)
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.values["cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(len(all))
	ok, why := l.meets(all)
	out.notes["slo_met_at_reference"] = ok
	if !ok {
		out.notes["slo_missed_because"] = why
	}
	var lat []float64
	for _, i := range quietest(steal, kept) {
		for _, s := range byPass[i] {
			if s.class != "admin" {
				lat = append(lat, s.latencyMs())
			}
		}
	}
	out.values["bench.p50_ms"] = quantile(lat, 0.50)
	out.values["bench.p99_ms"] = quantile(lat, 0.99)
	out.notes["reference"] = fmt.Sprintf("%d requests at %.0f/s in %d passes, p50/p99 over %d requests of the %d quietest; lag p99 %.3g ms",
		len(all), rate, passes, len(lat), kept, lagP99(all))
	out.notes["reference_steal"] = steal
	return all, nil
}

// truthRecall sends every truth query as a raw vector and returns the
// mean recall@k against the exact answers.
func truthRecall(client *http.Client, base, path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var truth truthFile
	if err := json.Unmarshal(b, &truth); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(truth.Queries) == 0 {
		return 0, fmt.Errorf("%s holds no queries", path)
	}
	var sum float64
	for _, q := range truth.Queries {
		got, err := queryVector(client, base, q.Vector, truth.K)
		if err != nil {
			return 0, err
		}
		sum += overlap(got, q.IDs)
	}
	return sum / float64(len(truth.Queries)), nil
}

func queryVector(client *http.Client, base string, v []float64, k int) ([]graph.NodeID, error) {
	body, _ := json.Marshal(map[string]any{"vector": v, "k": k})
	resp, err := client.Post(base+"/v1/neighbors", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("neighbors: status %d", resp.StatusCode)
	}
	var a neighborsAnswer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return nil, err
	}
	ids := make([]graph.NodeID, len(a.Results))
	for i, r := range a.Results {
		ids[i] = r.ID
	}
	return ids, nil
}

// overlap is |got ∩ want| / |want|.
func overlap(got, want []graph.NodeID) float64 {
	in := make(map[graph.NodeID]bool, len(want))
	for _, id := range want {
		in[id] = true
	}
	hits := 0
	for _, id := range got {
		if in[id] {
			hits++
		}
	}
	return float64(hits) / float64(len(want))
}
