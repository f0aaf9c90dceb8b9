package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnapshot maps each exposed series, written as on the wire
// (name{labels}), to its value.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text format the daemon serves on
// /metrics. Comment lines are skipped; a malformed sample line is an
// error.
func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

func scrape(client *http.Client, base string) (promSnapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta is the growth of one counter-like series between two scrapes.
func (p promSnapshot) delta(before promSnapshot, series string) float64 {
	return p[series] - before[series]
}

// histMean is the mean of the observations a histogram took between two
// scrapes, in the histogram's unit, with how many there were. labels is
// the label block as exposed, e.g. `{path="/v1/neighbors"}`, or "".
func (p promSnapshot) histMean(before promSnapshot, name, labels string) (mean, count float64) {
	count = p.delta(before, name+"_count"+labels)
	if count <= 0 {
		return 0, 0
	}
	return p.delta(before, name+"_sum"+labels) / count, count
}
