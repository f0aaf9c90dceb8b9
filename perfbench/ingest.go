package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

// Sizes and operating point of the ingest workload.
const (
	ingestN        = 8_000
	ingestRefRate  = 150.0 // requests/s of the reference passes, about 40% of capacity
	ingestRecallAt = 0.90  // recall@10 gate against the oracle's exact scan
	writeShare     = 0.5   // share of requests that write
	deleteShare    = 0.2   // share of writes that delete
	newIDShare     = 0.25  // share of upserts that insert a new id
)

// keyState is the oracle's view of one id after its acknowledged writes.
type keyState struct {
	vec       []float64
	deleted   bool
	deletedAt time.Time // when the delete was acknowledged
	uncertain bool      // a write failed: the server may or may not hold it
	written   bool      // the run wrote this id at least once
}

// oracle is the state every acknowledged write implies. Writes to one id
// all go through one connection in plan order, so the last
// acknowledged write of an id is its state.
type oracle struct {
	mu   sync.Mutex
	keys map[graph.NodeID]*keyState
}

func (o *oracle) key(id graph.NodeID) *keyState {
	k := o.keys[id]
	if k == nil {
		k = &keyState{}
		o.keys[id] = k
	}
	return k
}

// deletedBefore reports whether id's delete was acknowledged before t.
func (o *oracle) deletedBefore(id graph.NodeID, t time.Time) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := o.keys[id]
	return k != nil && k.deleted && k.deletedAt.Before(t)
}

// ingestPlan draws the mixed read/write stream. It tracks the live ids
// itself, in plan order, so an op never names an id an earlier op of
// the plan deleted.
type ingestPlan struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	pool   []graph.NodeID // live ids, hot ones first
	nextID graph.NodeID
	dim    int
	o      *oracle
}

func newIngestPlan(seed int64, n, dim int, o *oracle) *ingestPlan {
	rng := rand.New(rand.NewSource(seed*13 + 5))
	pool := make([]graph.NodeID, n)
	for i, j := range rng.Perm(n) {
		pool[i] = graph.NodeID(j)
	}
	return &ingestPlan{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), pool: pool, nextID: graph.NodeID(n), dim: dim, o: o}
}

// pick draws a live id, zipf-skewed over the pool; del removes it from
// the pool.
func (p *ingestPlan) pick(del bool) graph.NodeID {
	i := int(p.zipf.Uint64()) % len(p.pool)
	id := p.pool[i]
	if del {
		p.pool[i] = p.pool[len(p.pool)-1]
		p.pool = p.pool[:len(p.pool)-1]
	}
	return id
}

// ops draws count requests; with rotate, one snapshot rotation sits in
// the middle of them.
func (p *ingestPlan) ops(count int, rotate bool) []op {
	ops := make([]op, 0, count+1)
	for i := 0; i < count; i++ {
		if rotate && i == count/2 {
			ops = append(ops, op{class: "admin", worker: 0, method: "POST", path: "/v1/admin/snapshot"})
		}
		ops = append(ops, p.next(i))
	}
	return ops
}

func (p *ingestPlan) next(i int) op {
	o := p.o
	r := p.rng.Float64()
	switch {
	case r >= writeShare: // search
		var body []byte
		worker := i
		if p.rng.Float64() < rawShare {
			body, _ = json.Marshal(map[string]any{"vector": gaussian(p.rng, p.dim), "k": 10})
		} else {
			id := p.pick(false)
			worker = int(id)
			body, _ = json.Marshal(map[string]any{"id": id, "k": 10})
		}
		return op{class: "search", worker: worker, method: "POST", path: "/v1/neighbors", body: body,
			check: func(b []byte, sent, _ time.Time) string {
				if msg := checkTen(b, sent, sent); msg != "" {
					return msg
				}
				var a neighborsAnswer
				json.Unmarshal(b, &a)
				for _, res := range a.Results {
					if o.deletedBefore(res.ID, sent) {
						return fmt.Sprintf("search returned id %d after its delete was acknowledged", res.ID)
					}
				}
				return ""
			}}
	case r < writeShare*deleteShare: // delete
		id := p.pick(true)
		body, _ := json.Marshal(map[string]any{"id": id})
		return op{class: "write", worker: int(id), method: "POST", path: "/v1/delete", body: body,
			check: func(_ []byte, _, done time.Time) string {
				o.mu.Lock()
				k := o.key(id)
				k.deleted, k.deletedAt, k.vec, k.written = true, done, nil, true
				o.mu.Unlock()
				return ""
			},
			failed: func() { o.markUncertain(id) }}
	default: // upsert
		var id graph.NodeID
		if p.rng.Float64() < newIDShare {
			id = p.nextID
			p.nextID++
			p.pool = append(p.pool, id)
		} else {
			id = p.pick(false)
		}
		vec := gaussian(p.rng, p.dim)
		body, _ := json.Marshal(map[string]any{"id": id, "vector": vec})
		return op{class: "write", worker: int(id), method: "POST", path: "/v1/upsert", body: body,
			check: func([]byte, time.Time, time.Time) string {
				o.mu.Lock()
				k := o.key(id)
				k.vec, k.deleted, k.written = vec, false, true
				o.mu.Unlock()
				return ""
			},
			failed: func() { o.markUncertain(id) }}
	}
}

func (o *oracle) markUncertain(id graph.NodeID) {
	o.mu.Lock()
	k := o.key(id)
	k.uncertain, k.written = true, true
	o.mu.Unlock()
}

// writeSeedSnapshot stores the base vectors as a v3 snapshot without a
// graph, so every boot builds the graph.
func writeSeedSnapshot(path string, base [][]float64) error {
	store, err := embstore.New(len(base[0]), embstore.DefaultShards)
	if err != nil {
		return err
	}
	for i, v := range base {
		if err := store.Upsert(graph.NodeID(i), v); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.SaveSnapshotV3(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runIngest(e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	base := make([][]float64, ingestN)
	o := &oracle{keys: map[graph.NodeID]*keyState{}}
	for i := range base {
		base[i] = gaussian(rng, searchDim)
		o.key(graph.NodeID(i)).vec = base[i]
	}
	seedPath := filepath.Join(e.work, "seed.snap")
	if err := writeSeedSnapshot(seedPath, base); err != nil {
		return nil, err
	}
	out := newOutcome()
	d, err := bootSeveral(e, out, 3, func(i int) []string {
		return []string{"-index", "hnsw", "-precision", "sq8", "-store", "ram",
			"-wal", filepath.Join(e.work, fmt.Sprintf("wal-%d", i)), "-fsync", "always",
			"-snapshot", seedPath, "-ef-search", fmt.Sprint(searchEf), "-snapshot-interval", "0"}
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(e.conns)
	plan := newIngestPlan(e.seed, ingestN, searchDim, o)

	// Warm-up: not timed, but its answers are checked like any other.
	tally(out, openLoop(client, d.base, plan.ops(int(ingestRefRate/2), false), ingestRefRate, e.conns, newTracer(false)))
	before, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	refSamples, err := referencePasses(e, out, client, d, ingestRefRate, e.budget(0.6),
		func(n int) []op { return plan.ops(n, true) },
		slo{limits: map[string]float64{"search": searchLimitMs, "write": writeLimitMs}, lagMs: searchLimitMs})
	if err != nil {
		return nil, err
	}
	after, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	for _, class := range []string{"search", "write"} {
		st := statsOf(refSamples, class)
		out.notes[class+"_p50_p99_ms"] = []float64{st.p50, st.p99}
	}

	out.values["bench.throughput_per_s"] = capacity(e, out, client, d.base, int(20*e.seconds),
		func(n int) []op { return plan.ops(n, false) })
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.values["rss_mb"] = rss
	if e.trace {
		if err := traceIngest(e, out, before, after, refSamples, base); err != nil {
			return nil, err
		}
	}

	if err := verifyReadback(client, d.base, o, out); err != nil {
		return nil, err
	}
	recall, err := oracleRecall(client, d.base, o, rand.New(rand.NewSource(e.seed+99)), searchDim, 100)
	if err != nil {
		return nil, err
	}
	out.notes["recall_at_10"] = recall
	if recall < ingestRecallAt {
		out.fail("recall@10 %.4f against an exact scan of the acknowledged state is below %.2f", recall, ingestRecallAt)
	}
	return out, nil
}

// verifyReadback reads every id the run wrote back through /v1/vector:
// an acknowledged upsert must come back within the sq8 reconstruction
// error, an acknowledged delete must be gone.
func verifyReadback(client *http.Client, base string, o *oracle, out *outcome) error {
	o.mu.Lock()
	var ids []graph.NodeID
	for id, k := range o.keys {
		if k.written && !k.uncertain {
			ids = append(ids, id)
		}
	}
	o.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		k := o.keys[id]
		resp, err := client.Get(fmt.Sprintf("%s/v1/vector?id=%d", base, id))
		if err != nil {
			return err
		}
		var got struct {
			Vector []float64 `json:"vector"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		switch {
		case k.deleted && resp.StatusCode != http.StatusNotFound:
			out.fail("deleted id %d reads back with status %d", id, resp.StatusCode)
		case k.deleted:
		case resp.StatusCode != http.StatusOK || err != nil:
			out.fail("acknowledged upsert of id %d reads back with status %d (%v)", id, resp.StatusCode, err)
		case !withinSQ8(got.Vector, k.vec):
			out.fail("acknowledged upsert of id %d reads back a different vector", id)
		}
	}
	out.notes["readback_ids"] = len(ids)
	return nil
}

// withinSQ8 reports whether got reconstructs want within the sq8 bound:
// half a quantization step, (max-min)/255/2, per lane.
func withinSQ8(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	lo, hi := want[0], want[0]
	for _, v := range want {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	tol := (hi-lo)/255/2*1.001 + 1e-12
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			return false
		}
	}
	return true
}

// oracleRecall scores n random raw-vector queries against an exact
// cosine scan of every live id the oracle holds.
func oracleRecall(client *http.Client, base string, o *oracle, rng *rand.Rand, dim, n int) (float64, error) {
	o.mu.Lock()
	type row struct {
		id   graph.NodeID
		vec  []float64
		norm float64
	}
	var rows []row
	for id, k := range o.keys {
		if !k.deleted && !k.uncertain && k.vec != nil {
			rows = append(rows, row{id, k.vec, vecmath.Norm(k.vec)})
		}
	}
	o.mu.Unlock()
	var sum float64
	for q := 0; q < n; q++ {
		v := gaussian(rng, dim)
		type hit struct {
			id    graph.NodeID
			score float64
		}
		hits := make([]hit, len(rows))
		for i, r := range rows {
			hits[i] = hit{r.id, vecmath.Dot(v, r.vec) / (r.norm + 1e-12)}
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
		want := make([]graph.NodeID, 10)
		for i := range want {
			want[i] = hits[i].id
		}
		got, err := queryVector(client, base, v, 10)
		if err != nil {
			return 0, err
		}
		sum += overlap(got, want)
	}
	return sum / float64(n), nil
}
