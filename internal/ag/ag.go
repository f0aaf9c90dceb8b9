// Package ag implements reverse-mode automatic differentiation over dense
// matrices (a "tape" or Wengert list). It is the training substrate that
// replaces the Python autodiff stack used by the original EHNA paper.
//
// Usage: create a Tape, build the computation with the Tape's operator
// methods, then call Backward on a scalar (1×1) root node. Gradients of
// Leaf nodes are accumulated into caller-owned sink matrices, which
// optimizers (internal/nn) then consume.
//
// A Tape owns the memory of the graph it records: every node, every
// value an operator computes, every gradient and every matrix taken
// with Matrix is carved from chunks the Tape keeps. Reset rewinds those
// chunks so the next graph reuses them, which is how a training loop
// runs one Tape per worker instead of allocating a graph's memory per
// example. Lifetime rule: nothing taken from a Tape — a Node, its Value
// or Grad, a Matrix — may be used after the Tape's Reset; copy out what
// must outlive it. A value kept after its Tape is dropped keeps the
// whole chunk holding it alive. A Tape is not safe for concurrent use.
//
// Every operator's gradient is verified against central finite differences
// in ag_test.go.
package ag

import (
	"fmt"
	"math"

	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Node is one value in the computation graph.
type Node struct {
	Value *tensor.Matrix
	grad  *tensor.Matrix
	tape  *Tape
	back  func(n *Node)
	needs bool // whether any ancestor is a Leaf (gradient required)
}

// Grad returns the accumulated gradient of n, taking it from the node's
// tape on first use.
func (n *Node) Grad() *tensor.Matrix {
	if n.grad == nil {
		n.grad = n.tape.Matrix(n.Value.Rows, n.Value.Cols)
	}
	return n.grad
}

// Tape records nodes in topological (creation) order and owns their
// memory.
type Tape struct {
	nodes  []*Node
	floats slab[float64]
	mats   slab[tensor.Matrix]
	recs   slab[Node]
}

// New returns an empty tape. Its arena starts with small chunks, so a
// tape used for one graph and dropped allocates about what it uses.
func New() *Tape {
	return &Tape{nodes: make([]*Node, 0, 256)}
}

// Reset forgets every recorded node and rewinds the tape's arena, so
// the next graph recorded on it reuses the same memory. The memory used
// so far is zeroed: the next graph's values and gradients start from
// zero as on a new tape. Nothing taken from the tape before Reset may
// be used after it.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.floats.reset()
	t.mats.reset()
	t.recs.reset()
}

// Matrix returns a zeroed rows×cols matrix carved from the tape's
// arena, valid until the next Reset. Layers use it for the values they
// record with Const, Leaf or LeafFunc.
func (t *Tape) Matrix(rows, cols int) *tensor.Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("ag: negative dimensions %dx%d", rows, cols))
	}
	m := &t.mats.take(1)[0]
	*m = tensor.Matrix{Rows: rows, Cols: cols, Data: t.floats.take(rows * cols)}
	return m
}

// Len returns the number of recorded nodes (useful for instrumentation).
func (t *Tape) Len() int { return len(t.nodes) }

// node records a new node holding v.
func (t *Tape) node(v *tensor.Matrix, needs bool) *Node {
	n := &t.recs.take(1)[0]
	*n = Node{Value: v, tape: t, needs: needs}
	t.nodes = append(t.nodes, n)
	return n
}

// like returns a zeroed matrix of m's shape from the tape.
func (t *Tape) like(m *tensor.Matrix) *tensor.Matrix { return t.Matrix(m.Rows, m.Cols) }

// Const records a node that requires no gradient.
func (t *Tape) Const(v *tensor.Matrix) *Node {
	return t.node(v, false)
}

// Leaf records a differentiable input whose gradient is accumulated into
// sink (same shape as v). The caller owns both matrices.
func (t *Tape) Leaf(v, sink *tensor.Matrix) *Node {
	if v.Rows != sink.Rows || v.Cols != sink.Cols {
		panic(fmt.Sprintf("ag: Leaf sink shape %dx%d != value %dx%d", sink.Rows, sink.Cols, v.Rows, v.Cols))
	}
	n := t.node(v, true)
	n.back = func(n *Node) {
		tensor.AddInPlace(sink, n.Grad())
	}
	return n
}

// LeafFunc records a differentiable input whose gradient is delivered to fn
// at backward time. Used for embedding-table lookups where the gradient is
// scattered into sparse per-row accumulators. grad belongs to the tape:
// fn must not keep it.
func (t *Tape) LeafFunc(v *tensor.Matrix, fn func(grad *tensor.Matrix)) *Node {
	n := t.node(v, true)
	n.back = func(n *Node) { fn(n.Grad()) }
	return n
}

// Backward seeds the gradient of the scalar root with 1 and propagates
// gradients to all leaves in reverse topological order.
func (t *Tape) Backward(root *Node) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("ag: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	root.Grad().Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.grad != nil && n.back != nil {
			n.back(n)
		}
	}
}

func needsAny(parents ...*Node) bool {
	for _, p := range parents {
		if p.needs {
			return true
		}
	}
	return false
}

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	val := t.like(a.Value)
	tensor.AddInto(val, a.Value, b.Value)
	n := t.node(val, needsAny(a, b))
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				tensor.AddInPlace(a.Grad(), n.grad)
			}
			if b.needs {
				tensor.AddInPlace(b.Grad(), n.grad)
			}
		}
	}
	return n
}

// Sub returns a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	val := t.like(a.Value)
	tensor.SubInto(val, a.Value, b.Value)
	n := t.node(val, needsAny(a, b))
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				tensor.AddInPlace(a.Grad(), n.grad)
			}
			if b.needs {
				tensor.AxpyInPlace(b.Grad(), -1, n.grad)
			}
		}
	}
	return n
}

// Mul returns the element-wise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	val := t.like(a.Value)
	tensor.HadamardInto(val, a.Value, b.Value)
	n := t.node(val, needsAny(a, b))
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				g := t.like(n.grad)
				tensor.HadamardInto(g, n.grad, b.Value)
				tensor.AddInPlace(a.Grad(), g)
			}
			if b.needs {
				g := t.like(n.grad)
				tensor.HadamardInto(g, n.grad, a.Value)
				tensor.AddInPlace(b.Grad(), g)
			}
		}
	}
	return n
}

// Scale returns c·a for a compile-time constant c.
func (t *Tape) Scale(a *Node, c float64) *Node {
	val := t.like(a.Value)
	tensor.ScaleInto(val, a.Value, c)
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			tensor.AxpyInPlace(a.Grad(), c, n.grad)
		}
	}
	return n
}

// AddConst returns a + c element-wise for a constant c.
func (t *Tape) AddConst(a *Node, c float64) *Node {
	val := t.like(a.Value)
	tensor.ApplyInto(val, a.Value, func(v float64) float64 { return v + c })
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			tensor.AddInPlace(a.Grad(), n.grad)
		}
	}
	return n
}

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	val := t.Matrix(a.Value.Rows, b.Value.Cols)
	tensor.MatMulAddInto(val, a.Value, b.Value) // val starts at zero
	n := t.node(val, needsAny(a, b))
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				g := t.like(a.Value)
				tensor.MatMulBTransposedInto(g, n.grad, b.Value)
				tensor.AddInPlace(a.Grad(), g)
			}
			if b.needs {
				g := t.like(b.Value)
				tensor.MatMulATransposedInto(g, a.Value, n.grad)
				tensor.AddInPlace(b.Grad(), g)
			}
		}
	}
	return n
}

// AddRowBroadcast returns x with the 1×cols bias node added to every row.
func (t *Tape) AddRowBroadcast(x, bias *Node) *Node {
	val := t.like(x.Value)
	tensor.AddRowBroadcastInto(val, x.Value, bias.Value)
	n := t.node(val, needsAny(x, bias))
	if n.needs {
		n.back = func(n *Node) {
			if x.needs {
				tensor.AddInPlace(x.Grad(), n.grad)
			}
			if bias.needs {
				g := t.like(bias.Value)
				tensor.SumRowsInto(g, n.grad)
				tensor.AddInPlace(bias.Grad(), g)
			}
		}
	}
	return n
}

// Sigmoid returns the logistic function applied element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	val := t.like(a.Value)
	tensor.ApplyInto(val, a.Value, vecmath.Sigmoid)
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, s := range val.Data {
				g.Data[i] += n.grad.Data[i] * s * (1 - s)
			}
		}
	}
	return n
}

// Tanh returns tanh applied element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	val := t.like(a.Value)
	tensor.ApplyInto(val, a.Value, math.Tanh)
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, th := range val.Data {
				g.Data[i] += n.grad.Data[i] * (1 - th*th)
			}
		}
	}
	return n
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// ReLU returns max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	val := t.like(a.Value)
	tensor.ApplyInto(val, a.Value, relu)
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, v := range a.Value.Data {
				if v > 0 {
					g.Data[i] += n.grad.Data[i]
				}
			}
		}
	}
	return n
}

// SoftmaxRow returns softmax of a 1×n row vector.
func (t *Tape) SoftmaxRow(a *Node) *Node {
	if a.Value.Rows != 1 {
		panic("ag: SoftmaxRow expects a 1×n node")
	}
	val := t.like(a.Value)
	tensor.SoftmaxInto(val.Data, a.Value.Data)
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			// dL/dx_i = s_i (dL/ds_i − Σ_j dL/ds_j s_j)
			dot := vecmath.Dot(n.grad.Data, val.Data)
			g := a.Grad()
			for i, s := range val.Data {
				g.Data[i] += s * (n.grad.Data[i] - dot)
			}
		}
	}
	return n
}

// ConcatCols returns [a ‖ b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	val := t.Matrix(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	tensor.ConcatColsInto(val, a.Value, b.Value)
	n := t.node(val, needsAny(a, b))
	if n.needs {
		ac := a.Value.Cols
		n.back = func(n *Node) {
			for i := 0; i < n.Value.Rows; i++ {
				grow := n.grad.Row(i)
				if a.needs {
					vecmath.Add(a.Grad().Row(i), grow[:ac])
				}
				if b.needs {
					vecmath.Add(b.Grad().Row(i), grow[ac:])
				}
			}
		}
	}
	return n
}

// RowScale scales row i of x (n×d) by element i of s (1×n):
// out[i,:] = s[i]·x[i,:]. This is the attention-weighting primitive.
func (t *Tape) RowScale(x, s *Node) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != x.Value.Rows {
		panic(fmt.Sprintf("ag: RowScale s %dx%d for x %dx%d", s.Value.Rows, s.Value.Cols, x.Value.Rows, x.Value.Cols))
	}
	val := t.like(x.Value)
	for i := 0; i < x.Value.Rows; i++ {
		si := s.Value.Data[i]
		xrow := x.Value.Row(i)
		vrow := val.Row(i)
		for j, v := range xrow {
			vrow[j] = si * v
		}
	}
	n := t.node(val, needsAny(x, s))
	if n.needs {
		n.back = func(n *Node) {
			for i := 0; i < x.Value.Rows; i++ {
				grow := n.grad.Row(i)
				if x.needs {
					vecmath.Axpy(x.Grad().Row(i), s.Value.Data[i], grow)
				}
				if s.needs {
					s.Grad().Data[i] += vecmath.Dot(grow, x.Value.Row(i))
				}
			}
		}
	}
	return n
}

// Row returns row i of x as a 1×cols node.
func (t *Tape) Row(x *Node, i int) *Node {
	val := t.Matrix(1, x.Value.Cols)
	copy(val.Data, x.Value.Row(i))
	n := t.node(val, x.needs)
	if n.needs {
		n.back = func(n *Node) {
			vecmath.Add(x.Grad().Row(i), n.grad.Data)
		}
	}
	return n
}

// StackRows stacks 1×c nodes into an n×c node.
func (t *Tape) StackRows(rows []*Node) *Node {
	if len(rows) == 0 {
		panic("ag: StackRows of zero rows")
	}
	c := rows[0].Value.Cols
	val := t.Matrix(len(rows), c)
	needs := false
	for i, r := range rows {
		if r.Value.Rows != 1 || r.Value.Cols != c {
			panic(fmt.Sprintf("ag: StackRows row %d is %dx%d want 1x%d", i, r.Value.Rows, r.Value.Cols, c))
		}
		copy(val.Row(i), r.Value.Data)
		needs = needs || r.needs
	}
	n := t.node(val, needs)
	if needs {
		n.back = func(n *Node) {
			for i, r := range rows {
				if r.needs {
					vecmath.Add(r.Grad().Data, n.grad.Row(i))
				}
			}
		}
	}
	return n
}

// SumAll returns the 1×1 sum of all elements of x.
func (t *Tape) SumAll(x *Node) *Node {
	val := t.Matrix(1, 1)
	val.Data[0] = x.Value.Sum()
	n := t.node(val, x.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := n.grad.Data[0]
			xg := x.Grad()
			for i := range xg.Data {
				xg.Data[i] += g
			}
		}
	}
	return n
}

// SumSquares returns the 1×1 sum of squared elements of x.
func (t *Tape) SumSquares(x *Node) *Node {
	val := t.Matrix(1, 1)
	val.Data[0] = vecmath.SquaredL2(x.Value.Data)
	n := t.node(val, x.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := n.grad.Data[0]
			xg := x.Grad()
			for i, v := range x.Value.Data {
				xg.Data[i] += 2 * g * v
			}
		}
	}
	return n
}

// MeanRows returns the 1×cols column means of x.
func (t *Tape) MeanRows(x *Node) *Node {
	val := t.Matrix(1, x.Value.Cols)
	tensor.MeanRowsInto(val, x.Value)
	n := t.node(val, x.needs)
	if n.needs {
		inv := 1 / float64(x.Value.Rows)
		n.back = func(n *Node) {
			xg := x.Grad()
			for i := 0; i < x.Value.Rows; i++ {
				vecmath.Axpy(xg.Row(i), inv, n.grad.Data)
			}
		}
	}
	return n
}

// L2NormalizeRow returns x/‖x‖₂ for a 1×d node, with ε guarding zero input.
func (t *Tape) L2NormalizeRow(x *Node) *Node {
	if x.Value.Rows != 1 {
		panic("ag: L2NormalizeRow expects 1×d")
	}
	const eps = 1e-12
	norm := vecmath.Norm(x.Value.Data) + eps
	val := t.like(x.Value)
	tensor.ScaleInto(val, x.Value, 1/norm)
	n := t.node(val, x.needs)
	if n.needs {
		n.back = func(n *Node) {
			// d(x/‖x‖)/dx = (I − y·yᵀ)/‖x‖ where y = x/‖x‖
			dot := vecmath.Dot(n.grad.Data, val.Data)
			xg := x.Grad()
			for i := range xg.Data {
				xg.Data[i] += (n.grad.Data[i] - dot*val.Data[i]) / norm
			}
		}
	}
	return n
}

// SqDist returns the 1×1 squared Euclidean distance ‖a−b‖² of two
// equal-shape nodes. Composite helper used by the EHNA loss and attention.
func (t *Tape) SqDist(a, b *Node) *Node {
	return t.SumSquares(t.Sub(a, b))
}

// Hinge returns max(0, margin + pos − neg) for 1×1 nodes pos and neg.
func (t *Tape) Hinge(margin float64, pos, neg *Node) *Node {
	return t.ReLU(t.AddConst(t.Sub(pos, neg), margin))
}

// Value returns the scalar value of a 1×1 node.
func Value(n *Node) float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic("ag: Value expects a 1×1 node")
	}
	return n.Value.Data[0]
}

// IsFinite reports whether every element of the node's value is finite.
func IsFinite(n *Node) bool {
	for _, v := range n.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RSqrt returns 1/√x element-wise. Inputs must be positive.
func (t *Tape) RSqrt(a *Node) *Node {
	val := t.like(a.Value)
	tensor.ApplyInto(val, a.Value, func(v float64) float64 { return 1 / math.Sqrt(v) })
	n := t.node(val, a.needs)
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, y := range val.Data {
				// d(1/√x)/dx = −½·x^(−3/2) = −½·y³
				g.Data[i] += n.grad.Data[i] * (-0.5 * y * y * y)
			}
		}
	}
	return n
}

// RowBroadcastMul returns x with every row multiplied element-wise by the
// 1×cols node s: out[i,j] = x[i,j]·s[j].
func (t *Tape) RowBroadcastMul(x, s *Node) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != x.Value.Cols {
		panic(fmt.Sprintf("ag: RowBroadcastMul s %dx%d for x %dx%d", s.Value.Rows, s.Value.Cols, x.Value.Rows, x.Value.Cols))
	}
	val := t.like(x.Value)
	for i := 0; i < x.Value.Rows; i++ {
		xrow := x.Value.Row(i)
		vrow := val.Row(i)
		for j, v := range xrow {
			vrow[j] = v * s.Value.Data[j]
		}
	}
	n := t.node(val, needsAny(x, s))
	if n.needs {
		n.back = func(n *Node) {
			for i := 0; i < x.Value.Rows; i++ {
				grow := n.grad.Row(i)
				if x.needs {
					xg := x.Grad().Row(i)
					for j, g := range grow {
						xg[j] += g * s.Value.Data[j]
					}
				}
				if s.needs {
					sg := s.Grad()
					xrow := x.Value.Row(i)
					for j, g := range grow {
						sg.Data[j] += g * xrow[j]
					}
				}
			}
		}
	}
	return n
}

// ConcatScalars concatenates 1×1 nodes into a single 1×n row (used to
// assemble attention score vectors before SoftmaxRow).
func (t *Tape) ConcatScalars(scalars []*Node) *Node {
	if len(scalars) == 0 {
		panic("ag: ConcatScalars of zero nodes")
	}
	val := t.Matrix(1, len(scalars))
	needs := false
	for i, s := range scalars {
		if s.Value.Rows != 1 || s.Value.Cols != 1 {
			panic(fmt.Sprintf("ag: ConcatScalars element %d is %dx%d", i, s.Value.Rows, s.Value.Cols))
		}
		val.Data[i] = s.Value.Data[0]
		needs = needs || s.needs
	}
	n := t.node(val, needs)
	if needs {
		n.back = func(n *Node) {
			for i, s := range scalars {
				if s.needs {
					s.Grad().Data[0] += n.grad.Data[i]
				}
			}
		}
	}
	return n
}
