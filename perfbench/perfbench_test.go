package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,30] and [20,50] (overlapping, as
	// parallel calls are) and [60,70]; grandchild [12,18] under the first.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 10, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	byName := map[string]layerStat{}
	for _, st := range sum {
		byName[st.Name] = st
	}
	if a := byName["a"]; a.Count != 2 || a.Total != 30 || a.Self != 24 {
		t.Errorf("layer a = %+v, want count 2 total 30 self 24", a)
	}
	// Without overlapping siblings, the self times of one tree add up to
	// the root's duration: every instant belongs to exactly one layer.
	serial := []span{spans[0], spans[1], spans[3], spans[4]}
	var total int64
	for _, v := range selfTimes(serial) {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "late", Start: 15, End: 40},
	}
	if got := selfTimes(spans)[1]; got != 5 {
		t.Errorf("self = %d, want 5", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 0, tr.newReq())
	tr.end(id)
	tr.record("y", 0, 0, time.Now(), time.Now())
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("tracer off kept %d spans", n)
	}
}

func mkSample(class string, latMs float64, ok bool) sample {
	t0 := time.Unix(0, 0)
	return sample{class: class, intended: t0, sent: t0, done: t0.Add(time.Duration(latMs * 1e6)), ok: ok}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	var s []sample
	for i := 0; i < 98; i++ {
		s = append(s, mkSample("search", 1, true))
	}
	l := slo{limits: map[string]float64{"search": 20}, lagMs: 20}
	if ok, why := l.meets(s); !ok {
		t.Fatalf("all-fast pass missed: %s", why)
	}
	// Two refused requests (a 429 and a 503) out of 100 put p99 past any
	// limit: a refusal is not a fast answer.
	s = append(s, mkSample("search", 0.1, false), mkSample("search", 0.1, false))
	if ok, _ := l.meets(s); ok {
		t.Fatal("pass with 2% failed requests met a p99 limit")
	}
	st := statsOf(s, "search")
	if st.n != 100 || st.failed != 2 || !math.IsInf(st.p99, 1) {
		t.Fatalf("stats = %+v, want n 100, failed 2, p99 +Inf", st)
	}
	out := newOutcome()
	tally(out, s)
	if out.attempted != 100 || out.failed != 2 {
		t.Fatalf("tally attempted %d failed %d, want 100 and 2", out.attempted, out.failed)
	}
}

func TestLatencyCountsFromIntendedSend(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Sent 30 ms late, answered 5 ms after sending: the user waited 35 ms.
	s := sample{class: "search", intended: t0, sent: t0.Add(30 * time.Millisecond), done: t0.Add(35 * time.Millisecond), ok: true}
	if got := s.latencyMs(); got != 35 {
		t.Errorf("latency %v ms, want 35", got)
	}
	if got := s.lagMs(); got != 30 {
		t.Errorf("lag %v ms, want 30", got)
	}
	l := slo{limits: map[string]float64{"search": 100}, lagMs: 20}
	if ok, _ := l.meets([]sample{s}); ok {
		t.Error("a pass whose generator ran 30 ms late met a 20 ms lag bound")
	}
}

func TestAdminOpsStayOutOfLatency(t *testing.T) {
	s := []sample{mkSample("write", 2, true), mkSample("admin", 900, true)}
	if st := statsOf(s, ""); st.n != 1 || st.p99 != 2 {
		t.Errorf("stats over all classes = %+v, want only the write", st)
	}
}

func TestParsePromAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP ehnad_queue_wait_seconds x
# TYPE ehnad_queue_wait_seconds histogram
ehnad_queue_wait_seconds_bucket{le="0.001"} 1
ehnad_queue_wait_seconds_sum 0.5
ehnad_queue_wait_seconds_count 100
ehnad_http_request_seconds_sum{path="/v1/neighbors"} 1
ehnad_http_request_seconds_count{path="/v1/neighbors"} 10
ehnad_requests_shed_total{reason="queue_full"} 3
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`ehnad_queue_wait_seconds_sum 0.9
ehnad_queue_wait_seconds_count 300
ehnad_http_request_seconds_sum{path="/v1/neighbors"} 3
ehnad_http_request_seconds_count{path="/v1/neighbors"} 20
ehnad_requests_shed_total{reason="queue_full"} 7
ehnad_boot_seconds 1.5e-02
`))
	if err != nil {
		t.Fatal(err)
	}
	if m, n := after.histMean(before, "ehnad_queue_wait_seconds", ""); n != 200 || math.Abs(m-0.002) > 1e-12 {
		t.Errorf("queue wait mean %v over %v, want 0.002 over 200", m, n)
	}
	if m, _ := after.histMean(before, "ehnad_http_request_seconds", `{path="/v1/neighbors"}`); math.Abs(m-0.2) > 1e-12 {
		t.Errorf("neighbors mean %v, want 0.2", m)
	}
	if d := after.delta(before, `ehnad_requests_shed_total{reason="queue_full"}`); d != 4 {
		t.Errorf("shed delta %v, want 4", d)
	}
	if m, n := after.histMean(before, "ehnad_snapshot_seconds", ""); m != 0 || n != 0 {
		t.Errorf("absent histogram gave %v over %v", m, n)
	}
	if after["ehnad_boot_seconds"] != 0.015 {
		t.Errorf("boot gauge %v", after["ehnad_boot_seconds"])
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line parsed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestWithinSQ8(t *testing.T) {
	want := []float64{0, 1, 2.55}
	step := 2.55 / 255
	if !withinSQ8([]float64{step / 2, 1 - step/2, 2.55}, want) {
		t.Error("half a step off was rejected")
	}
	if withinSQ8([]float64{step, 1, 2.55}, want) {
		t.Error("a whole step off was accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric sets the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
