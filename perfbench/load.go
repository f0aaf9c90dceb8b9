package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// op is one request of a load plan. Ops that touch the same key carry
// the same worker, so the server applies them in plan order and the
// benchmark's oracle knows every key's final state.
type op struct {
	class  string // "search", "write" or "admin"
	worker int
	method string
	path   string
	body   []byte
	// check runs after a 2xx answer and returns a correctness problem,
	// or "" when the answer is right. sent and done bracket the request.
	check func(body []byte, sent, done time.Time) string
	// failed runs after a non-2xx answer or a transport error.
	failed func()
}

// sample is what happened to one op.
type sample struct {
	class    string
	intended time.Time // when the schedule said to send it
	sent     time.Time
	done     time.Time
	ok       bool // transport succeeded and the status was 2xx
	status   int
	problem  string
}

// latencyMs is the time from the intended send to the answer. A failed
// or refused request has no latency: it misses every limit.
func (s sample) latencyMs() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.done.Sub(s.intended)) / 1e6
}

// lagMs is how late the generator sent the request.
func (s sample) lagMs() float64 { return float64(s.sent.Sub(s.intended)) / 1e6 }

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends ops[i] at start+i/rate, open loop: the schedule does
// not wait for answers. Each of the conns workers sends its own ops in
// schedule order, one at a time, so at most conns requests are in
// flight; a worker that falls behind sends late, and the lateness is
// part of every later latency it records. With a tracer on, each
// request becomes a root span with a generator-lag child and an HTTP
// child.
func openLoop(client *http.Client, base string, ops []op, rate float64, conns int, tr *tracer) []sample {
	samples := make([]sample, len(ops))
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ops {
				if ops[i].worker%conns != w {
					continue
				}
				intended := start.Add(time.Duration(i) * interval)
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				samples[i] = send(client, base, &ops[i], intended)
				if tr.on {
					s := samples[i]
					req := tr.newReq()
					root := tr.record("request."+s.class, 0, req, s.intended, s.done)
					tr.record("bench.gen_lag", root, req, s.intended, s.sent)
					tr.record("client.http", root, req, s.sent, s.done)
				}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

func send(client *http.Client, base string, o *op, intended time.Time) sample {
	s := sample{class: o.class, intended: intended, sent: time.Now()}
	req, err := http.NewRequest(o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.done = time.Now()
		s.problem = err.Error()
		return s
	}
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = time.Now()
	s.ok = err == nil && s.status/100 == 2
	if !s.ok {
		if o.failed != nil {
			o.failed()
		}
		return s
	}
	if o.check != nil {
		s.problem = o.check(body, s.sent, s.done)
	}
	return s
}

// classStats summarizes the samples of one class ("" for every class
// but admin).
type classStats struct {
	n, failed int
	p50, p99  float64
}

func statsOf(samples []sample, class string) classStats {
	var lat []float64
	var st classStats
	for _, s := range samples {
		if s.class == "admin" || (class != "" && s.class != class) {
			continue
		}
		st.n++
		if !s.ok {
			st.failed++
		}
		lat = append(lat, s.latencyMs())
	}
	if st.n > 0 {
		st.p50, st.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	}
	return st
}

// lagP99 is the 99th percentile of how late the generator sent.
func lagP99(samples []sample) float64 {
	lag := make([]float64, len(samples))
	for i, s := range samples {
		lag[i] = s.lagMs()
	}
	return quantile(lag, 0.99)
}

// slo is the latency limit each class's p99 must meet; the generator's
// own lag p99 must stay under lagMs, or the backlog is growing.
type slo struct {
	limits map[string]float64
	lagMs  float64
}

// meets reports whether a pass met the SLO, and why not when it did not.
// Failed requests count as misses through their infinite latency.
func (l slo) meets(samples []sample) (bool, string) {
	for class, limit := range l.limits {
		st := statsOf(samples, class)
		if st.n > 0 && st.p99 > limit {
			return false, fmt.Sprintf("%s p99 %.2f ms > %.0f ms (%d of %d failed)", class, st.p99, limit, st.failed, st.n)
		}
	}
	if lag := lagP99(samples); lag > l.lagMs {
		return false, fmt.Sprintf("generator lag p99 %.2f ms > %.0f ms", lag, l.lagMs)
	}
	return true, ""
}

// tally adds a pass to the run's request accounting and collects its
// correctness problems.
func tally(out *outcome, samples []sample) {
	for _, s := range samples {
		out.attempted++
		if !s.ok {
			out.failed++
		}
		if s.problem != "" {
			out.fail("%s", s.problem)
		}
	}
}

// closedLoop sends every op as fast as the server answers: each of the
// conns workers sends its own ops back to back. It returns the samples
// and the completed requests per second over the whole batch. A fixed
// batch, not a fixed time, so that no planned write is left unsent.
func closedLoop(client *http.Client, base string, ops []op, conns int) ([]sample, float64) {
	samples := make([]sample, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ops {
				if ops[i].worker%conns == w {
					samples[i] = send(client, base, &ops[i], time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	return samples, float64(ok) / time.Since(start).Seconds()
}

// capacity is the median completed rate over the three quietest of
// eight closed-loop batches of n ops at nproc connections: the highest
// rate the daemon sustains before a backlog grows. Batches during which
// other guests stole the most CPU are left out, as in referencePasses.
func capacity(e *env, out *outcome, client *http.Client, base string, n int, ops func(n int) []op) float64 {
	var rates, steal []float64
	for i := 0; i < 8; i++ {
		m := startSteal()
		s, rate := closedLoop(client, base, ops(n), e.conns)
		steal = append(steal, m.share())
		tally(out, s)
		rates = append(rates, rate)
	}
	var kept []float64
	for _, i := range quietest(steal, 3) {
		kept = append(kept, rates[i])
	}
	out.notes["capacity_per_batch"] = rates
	out.notes["capacity_steal"] = steal
	return median(kept)
}
