// Fused tape operators for the training hot path.
//
// The unfused LSTM gate graph records ~25 nodes per timestep (eight
// MatMuls, four broadcast-adds, four activations and the cell/hidden
// arithmetic), each with its own value matrix, gradient matrix and
// backward closure. LSTMStep collapses a full timestep into two nodes
// with a handwritten backward, and LayerNorm collapses the ~13-node
// per-row normalization chain into one. Both are verified against the
// unfused compositions and central finite differences in fused_test.go.
package ag

import (
	"fmt"
	"math"

	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// LSTMWeights binds the twelve LSTM gate parameters (already recorded
// on the tape, typically via nn.Param.Node) for a fused LSTMStep call.
// W* are in×hidden, U* are hidden×hidden, B* are 1×hidden.
type LSTMWeights struct {
	Wi, Ui, Bi *Node
	Wf, Uf, Bf *Node
	Wo, Uo, Bo *Node
	Wg, Ug, Bg *Node
}

func (w LSTMWeights) all() []*Node {
	return []*Node{w.Wi, w.Ui, w.Bi, w.Wf, w.Uf, w.Bf, w.Wo, w.Uo, w.Bo, w.Wg, w.Ug, w.Bg}
}

// LSTMStep computes one fused LSTM timestep
//
//	i = σ(x·Wi + h·Ui + bi)    f = σ(x·Wf + h·Uf + bf)
//	o = σ(x·Wo + h·Uo + bo)    g = tanh(x·Wg + h·Ug + bg)
//	c' = f⊙c + i⊙g             h' = o⊙tanh(c')
//
// for x (n×in) and state h, c (n×hidden), recording only two tape
// nodes. The fused backward runs when hNew's gradient is propagated,
// so hNew must be consumed by the rest of the graph (cNew may be left
// dangling, as on the final timestep); this invariant holds for any
// sequence model that reads the hidden state.
func (t *Tape) LSTMStep(w LSTMWeights, x, h, c *Node) (hNew, cNew *Node) {
	n, hidden := x.Value.Rows, w.Bi.Value.Cols
	if h.Value.Rows != n || c.Value.Rows != n || h.Value.Cols != hidden || c.Value.Cols != hidden {
		panic(fmt.Sprintf("ag: LSTMStep state %dx%d/%dx%d for x rows %d hidden %d",
			h.Value.Rows, h.Value.Cols, c.Value.Rows, c.Value.Cols, n, hidden))
	}

	gate := func(W, U, B *Node) *tensor.Matrix {
		pre := t.Matrix(n, hidden)
		for r := 0; r < n; r++ {
			copy(pre.Row(r), B.Value.Data)
		}
		tensor.MatMulAddInto(pre, x.Value, W.Value)
		tensor.MatMulAddInto(pre, h.Value, U.Value)
		return pre
	}
	iv := gate(w.Wi, w.Ui, w.Bi)
	fv := gate(w.Wf, w.Uf, w.Bf)
	ov := gate(w.Wo, w.Uo, w.Bo)
	gv := gate(w.Wg, w.Ug, w.Bg)
	for idx := range iv.Data {
		iv.Data[idx] = vecmath.Sigmoid(iv.Data[idx])
		fv.Data[idx] = vecmath.Sigmoid(fv.Data[idx])
		ov.Data[idx] = vecmath.Sigmoid(ov.Data[idx])
		gv.Data[idx] = math.Tanh(gv.Data[idx])
	}
	cVal := t.Matrix(n, hidden)
	tc := t.Matrix(n, hidden)
	hVal := t.Matrix(n, hidden)
	for idx := range cVal.Data {
		cVal.Data[idx] = fv.Data[idx]*c.Value.Data[idx] + iv.Data[idx]*gv.Data[idx]
		tc.Data[idx] = math.Tanh(cVal.Data[idx])
		hVal.Data[idx] = ov.Data[idx] * tc.Data[idx]
	}

	// cNew is recorded before hNew so that hNew's backward — which
	// consumes cNew's accumulated gradient — runs first in the tape's
	// reverse sweep.
	needs := needsAny(x, h, c) || needsAny(w.all()...)
	cNode := t.node(cVal, needs)
	hNode := t.node(hVal, needs)
	if needs {
		hNode.back = func(hn *Node) {
			dh := hn.grad
			var dcOut *tensor.Matrix // grad arriving at c' from downstream
			if cNode.grad != nil {
				dcOut = cNode.grad
			}
			dpreI := t.Matrix(n, hidden)
			dpreF := t.Matrix(n, hidden)
			dpreO := t.Matrix(n, hidden)
			dpreG := t.Matrix(n, hidden)
			var cg *tensor.Matrix
			if c.needs {
				cg = c.Grad()
			}
			for idx := range hVal.Data {
				dhv := dh.Data[idx]
				tcv := tc.Data[idx]
				dc := dhv * ov.Data[idx] * (1 - tcv*tcv)
				if dcOut != nil {
					dc += dcOut.Data[idx]
				}
				ivv, fvv, ovv, gvv := iv.Data[idx], fv.Data[idx], ov.Data[idx], gv.Data[idx]
				dpreI.Data[idx] = dc * gvv * ivv * (1 - ivv)
				dpreF.Data[idx] = dc * c.Value.Data[idx] * fvv * (1 - fvv)
				dpreO.Data[idx] = dhv * tcv * ovv * (1 - ovv)
				dpreG.Data[idx] = dc * ivv * (1 - gvv*gvv)
				if cg != nil {
					cg.Data[idx] += dc * fvv
				}
			}
			backGate := func(dpre *tensor.Matrix, W, U, B *Node) {
				if W.needs {
					// dW += xᵀ·dpre
					wg := W.Grad()
					for r := 0; r < n; r++ {
						xrow := x.Value.Row(r)
						drow := dpre.Row(r)
						for k, xv := range xrow {
							if xv == 0 {
								continue
							}
							vecmath.Axpy(wg.Row(k), xv, drow)
						}
					}
				}
				if U.needs {
					ug := U.Grad()
					for r := 0; r < n; r++ {
						hrow := h.Value.Row(r)
						drow := dpre.Row(r)
						for k, hv := range hrow {
							if hv == 0 {
								continue
							}
							vecmath.Axpy(ug.Row(k), hv, drow)
						}
					}
				}
				if B.needs {
					bg := B.Grad()
					for r := 0; r < n; r++ {
						vecmath.Add(bg.Data, dpre.Row(r))
					}
				}
				if x.needs {
					// dx += dpre·Wᵀ
					xg := x.Grad()
					for r := 0; r < n; r++ {
						drow := dpre.Row(r)
						xgrow := xg.Row(r)
						for k := range xgrow {
							xgrow[k] += vecmath.Dot(drow, W.Value.Row(k))
						}
					}
				}
				if h.needs {
					hg := h.Grad()
					for r := 0; r < n; r++ {
						drow := dpre.Row(r)
						hgrow := hg.Row(r)
						for k := range hgrow {
							hgrow[k] += vecmath.Dot(drow, U.Value.Row(k))
						}
					}
				}
			}
			backGate(dpreI, w.Wi, w.Ui, w.Bi)
			backGate(dpreF, w.Wf, w.Uf, w.Bf)
			backGate(dpreO, w.Wo, w.Uo, w.Bo)
			backGate(dpreG, w.Wg, w.Ug, w.Bg)
		}
	}
	return hNode, cNode
}

// LayerNorm normalizes each row of x to zero mean and unit variance
// across features, then applies the learned affine transform:
//
//	y[r,:] = gain ⊙ (x[r,:] − μ_r)/√(σ²_r + eps) + bias
//
// gain and bias are 1×cols nodes. One fused node replaces the ~13-node
// per-row chain the unfused implementation recorded.
func (t *Tape) LayerNorm(x, gain, bias *Node, eps float64) *Node {
	rows, d := x.Value.Rows, x.Value.Cols
	if gain.Value.Rows != 1 || gain.Value.Cols != d || bias.Value.Rows != 1 || bias.Value.Cols != d {
		panic(fmt.Sprintf("ag: LayerNorm gain %dx%d bias %dx%d for x cols %d",
			gain.Value.Rows, gain.Value.Cols, bias.Value.Rows, bias.Value.Cols, d))
	}
	inv := t.floats.take(rows)
	xhat := t.Matrix(rows, d)
	val := t.Matrix(rows, d)
	fd := float64(d)
	for r := 0; r < rows; r++ {
		xrow := x.Value.Row(r)
		var mu float64
		for _, v := range xrow {
			mu += v
		}
		mu /= fd
		var variance float64
		for _, v := range xrow {
			dv := v - mu
			variance += dv * dv
		}
		variance /= fd
		inv[r] = 1 / math.Sqrt(variance+eps)
		hrow := xhat.Row(r)
		vrow := val.Row(r)
		for j, v := range xrow {
			hrow[j] = (v - mu) * inv[r]
			vrow[j] = hrow[j]*gain.Value.Data[j] + bias.Value.Data[j]
		}
	}
	n := t.node(val, needsAny(x, gain, bias))
	if n.needs {
		n.back = func(n *Node) {
			for r := 0; r < rows; r++ {
				grow := n.grad.Row(r)
				hrow := xhat.Row(r)
				if bias.needs {
					vecmath.Add(bias.Grad().Data, grow)
				}
				if gain.needs {
					gg := gain.Grad().Data
					for j, g := range grow {
						gg[j] += g * hrow[j]
					}
				}
				if x.needs {
					// dxhat = dy ⊙ gain; dx = inv·(dxhat − mean(dxhat)
					//        − xhat·mean(dxhat ⊙ xhat))
					var m1, m2 float64
					for j, g := range grow {
						dxh := g * gain.Value.Data[j]
						m1 += dxh
						m2 += dxh * hrow[j]
					}
					m1 /= fd
					m2 /= fd
					xrow := x.Grad().Row(r)
					for j, g := range grow {
						dxh := g * gain.Value.Data[j]
						xrow[j] += inv[r] * (dxh - m1 - hrow[j]*m2)
					}
				}
			}
		}
	}
	return n
}
