package ag

import (
	"math"
	"testing"

	"ehna/internal/tensor"
)

// tapeRun is what one graph produced: the values of its outputs and the
// gradients Backward left in the leaves' sinks, copied off the tape.
type tapeRun struct {
	values, sinks [][]float64
}

// tapeGraph builds one graph over leaves bound to inputs and returns
// the nodes whose values are compared; with backward set, the last one
// is the scalar root.
type tapeGraph struct {
	name     string
	inputs   []*tensor.Matrix
	backward bool
	build    func(tp *Tape, leaves []*Node) []*Node
}

func (g tapeGraph) run(t *testing.T, tp *Tape) tapeRun {
	t.Helper()
	sinks := make([]*tensor.Matrix, len(g.inputs))
	leaves := make([]*Node, len(g.inputs))
	for i, in := range g.inputs {
		sinks[i] = tensor.New(in.Rows, in.Cols)
		leaves[i] = tp.Leaf(in, sinks[i])
	}
	outs := g.build(tp, leaves)
	var r tapeRun
	if g.backward {
		tp.Backward(outs[len(outs)-1])
	} else {
		// A gradient read on a reset tape must start at zero, even
		// where the previous graph's Backward left gradients.
		for i, o := range outs {
			for _, v := range o.Grad().Data {
				if v != 0 {
					t.Fatalf("%s: output %d has gradient %g before any Backward", g.name, i, v)
				}
			}
		}
	}
	for _, o := range outs {
		r.values = append(r.values, append([]float64(nil), o.Value.Data...))
	}
	for _, s := range sinks {
		r.sinks = append(r.sinks, s.Data)
	}
	return r
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestTapeResetReuse runs one tape through Reset across three graphs,
// twice over so the second round records on memory the first dirtied,
// and requires every value and every sink gradient to be bit-identical
// to a fresh tape's: a chained LSTMStep sequence with Backward, a graph
// holding a matrix larger than the arena's largest chunk, and a graph
// that never runs Backward.
func TestTapeResetReuse(t *testing.T) {
	const in, hidden, steps = 3, 4, 5
	lstmInputs := []*tensor.Matrix{}
	for i := 0; i < 8; i++ { // Wi,Wf,Wo,Wg (in×hidden) then Ui,Uf,Uo,Ug
		r := in
		if i >= 4 {
			r = hidden
		}
		lstmInputs = append(lstmInputs, rnd(r, hidden, int64(100+i)))
	}
	for i := 0; i < 4; i++ {
		lstmInputs = append(lstmInputs, rnd(1, hidden, int64(110+i)))
	}
	lstmInputs = append(lstmInputs, rnd(steps*2, in, 120))

	graphs := []tapeGraph{
		{
			name: "lstm", inputs: lstmInputs, backward: true,
			build: func(tp *Tape, l []*Node) []*Node {
				w := LSTMWeights{
					Wi: l[0], Wf: l[1], Wo: l[2], Wg: l[3],
					Ui: l[4], Uf: l[5], Uo: l[6], Ug: l[7],
					Bi: l[8], Bf: l[9], Bo: l[10], Bg: l[11],
				}
				h, c := tp.Const(tp.Matrix(2, hidden)), tp.Const(tp.Matrix(2, hidden))
				var outs []*Node
				for s := 0; s < steps; s++ {
					x := tp.StackRows([]*Node{tp.Row(l[12], 2*s), tp.Row(l[12], 2*s+1)})
					h, c = tp.LSTMStep(w, x, h, c)
					outs = append(outs, h, c)
				}
				return append(outs, tp.SumSquares(h))
			},
		},
		{
			// 300×70 floats is larger than the arena's largest chunk,
			// so the matrix gets a chunk of its own.
			name: "large", inputs: []*tensor.Matrix{rnd(300, 70, 130), rnd(70, 6, 131)}, backward: true,
			build: func(tp *Tape, l []*Node) []*Node {
				y := tp.Tanh(tp.MatMul(l[0], l[1]))
				m := tp.MeanRows(y)
				return []*Node{y, m, tp.SumSquares(tp.L2NormalizeRow(m))}
			},
		},
		{
			name: "forward only", inputs: []*tensor.Matrix{rnd(4, 6, 140), rnd(1, 6, 141)},
			build: func(tp *Tape, l []*Node) []*Node {
				var scores []*Node
				for r := 0; r < 4; r++ {
					scores = append(scores, tp.SqDist(tp.Row(l[0], r), l[1]))
				}
				alpha := tp.SoftmaxRow(tp.ConcatScalars(scores))
				return []*Node{alpha, tp.LayerNorm(tp.RowScale(l[0], alpha), l[1], l[1], 1e-5)}
			},
		},
	}

	tp := New()
	for round := 0; round < 2; round++ {
		for _, g := range graphs {
			tp.Reset()
			if tp.Len() != 0 {
				t.Fatalf("Len %d after Reset", tp.Len())
			}
			got := g.run(t, tp)
			want := g.run(t, New())
			if !sameBits(got.values, want.values) {
				t.Fatalf("round %d %s: values differ from a fresh tape", round, g.name)
			}
			if !sameBits(got.sinks, want.sinks) {
				t.Fatalf("round %d %s: sink gradients differ from a fresh tape", round, g.name)
			}
		}
	}
	tp.Reset()
	for _, v := range tp.Matrix(300, 70).Data {
		if v != 0 {
			t.Fatal("Matrix after Reset is not zeroed")
		}
	}
}
