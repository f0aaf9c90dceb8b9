package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the p-quantile of xs, interpolating linearly between
// the two nearest ranks. xs is not modified. A failed request is
// recorded as +Inf, so it counts as missing every latency limit.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostTicks reads the aggregate cpu line of /proc/stat: the ticks the
// guest's vCPUs were busy or wanted to be (user, nice, system, irq,
// softirq, steal), and of those the ticks the hypervisor gave to other
// guests instead (steal).
func hostTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		v, _ := strconv.ParseFloat(f[i], 64)
		busy += v
	}
	steal, _ = strconv.ParseFloat(f[8], 64)
	return busy, steal
}

// stealMeter measures the share of the time this guest wanted the CPU
// that other guests got instead, while one pass ran.
type stealMeter struct{ busy, steal float64 }

func startSteal() stealMeter {
	b, s := hostTicks()
	return stealMeter{b, s}
}

func (m stealMeter) share() float64 {
	b, s := hostTicks()
	if b <= m.busy {
		return 0
	}
	return (s - m.steal) / (b - m.busy)
}

// quietest returns the indices of the k passes with the least stolen
// CPU time, in pass order. On a shared host a pass during which other
// guests took the CPU measures them, not the program.
func quietest(steal []float64, k int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	if k < len(idx) {
		idx = idx[:k]
	}
	sort.Ints(idx)
	return idx
}
