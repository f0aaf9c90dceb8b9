// Package ehna implements the paper's primary contribution: Embedding via
// Historical Neighborhoods Aggregation (Huang et al., ICDE 2020).
//
// For every edge formation (x, y, t) the model explains the event from the
// historical neighborhoods of both endpoints:
//
//  1. temporal random walks (internal/walk) collect the relevant nodes;
//  2. a node-level attention (Eq. 3) weights each node in a walk and a
//     stacked LSTM summarizes the walk into a vector h_r (Algorithm 1,
//     lines 1–4);
//  3. a walk-level attention (Eq. 4) weights the walk summaries and a
//     second stacked LSTM fuses them into H (lines 5–6);
//  4. the readout z = normalize(W·[H ‖ e_x]) (lines 7–8) feeds a
//     margin-based hinge loss over Euclidean distances with degree^0.75
//     negative sampling (Eqs. 5–7).
//
// The three ablations of Table VII are configuration switches:
// DisableAttention (EHNA-NA), Walk.Static (EHNA-RW) and SingleLevel
// (EHNA-SL).
package ehna

import (
	"fmt"
	"math/rand"
	"sync"

	"ehna/internal/ag"
	"ehna/internal/graph"
	"ehna/internal/nn"
	"ehna/internal/sample"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// Config collects every hyperparameter of the model and trainer.
type Config struct {
	Dim        int                 // embedding and hidden dimensionality d
	LSTMLayers int                 // stacked-LSTM depth (paper: 2)
	Walk       walk.TemporalConfig // temporal random walk parameters

	Margin        float64 // safety margin m of the hinge loss (paper: 5)
	Negatives     int     // Q negative samples per positive edge (paper: 5)
	Bidirectional bool    // Eq. 7: sample negatives on both endpoints

	LR        float64 // Adam learning rate for network parameters
	EmbLR     float64 // SGD learning rate for the embedding table
	Epochs    int     // passes over the chronological edge stream
	BatchSize int     // edges per optimizer step (paper: 512)
	ClipNorm  float64 // global gradient-norm clip; 0 disables
	Seed      int64   // master RNG seed

	// Ablation switches (Table VII).
	DisableAttention bool // EHNA-NA: uniform attention at both levels
	SingleLevel      bool // EHNA-SL: one single-layer LSTM, no two-level aggregation

	// CheapNegatives routes every negative sample through the GraphSAGE-
	// style neighborhood-mean fallback instead of the full walk
	// aggregation. This is markedly faster but unsound as a default: the
	// model can then separate the two aggregation *pathways* instead of
	// the nodes (positives cluster at one point, fallback readouts at the
	// antipode) and the loss collapses. Following the paper, the default
	// aggregates negatives through their historical neighborhoods whenever
	// they have one, falling back only for history-less nodes.
	CheapNegatives bool

	// FallbackSamples caps the 1-hop/2-hop neighbors drawn by the
	// GraphSAGE-style fallback aggregation.
	FallbackSamples int

	// Workers parallelizes training within each mini-batch: each worker
	// builds tapes against a shadow replica (shared weights, private
	// gradients) and the gradients are merged before the optimizer step,
	// so the update is identical in expectation to serial training and
	// free of data races. 0 or 1 trains serially.
	Workers int
}

// DefaultConfig returns laptop-scale defaults that keep the paper's
// structural choices (2 LSTM layers, m=5, Q=5, k=10, ℓ=10).
func DefaultConfig() Config {
	return Config{
		Dim:             32,
		LSTMLayers:      2,
		Walk:            walk.DefaultTemporalConfig(),
		Margin:          5,
		Negatives:       5,
		LR:              1e-3,
		EmbLR:           0.05,
		Epochs:          1,
		BatchSize:       32,
		ClipNorm:        5,
		Seed:            1,
		FallbackSamples: 10,
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("ehna: Dim %d < 1", c.Dim)
	}
	if c.LSTMLayers < 1 {
		return fmt.Errorf("ehna: LSTMLayers %d < 1", c.LSTMLayers)
	}
	if err := c.Walk.Validate(); err != nil {
		return err
	}
	if c.Margin <= 0 {
		return fmt.Errorf("ehna: Margin %g must be positive", c.Margin)
	}
	if c.Negatives < 1 {
		return fmt.Errorf("ehna: Negatives %d < 1", c.Negatives)
	}
	if c.LR <= 0 || c.EmbLR <= 0 {
		return fmt.Errorf("ehna: learning rates must be positive (LR=%g EmbLR=%g)", c.LR, c.EmbLR)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("ehna: Epochs %d < 1", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("ehna: BatchSize %d < 1", c.BatchSize)
	}
	if c.FallbackSamples < 1 {
		return fmt.Errorf("ehna: FallbackSamples %d < 1", c.FallbackSamples)
	}
	return nil
}

// Model is a trained (or training) EHNA model bound to one temporal graph.
type Model struct {
	cfg    Config
	g      *graph.Temporal
	emb    *nn.Embedding
	node   *nn.StackedLSTM // node-level aggregator (first level)
	walkL  *nn.StackedLSTM // walk-level aggregator (second level); nil if SingleLevel
	nNorm  *nn.Norm
	wNorm  *nn.Norm
	proj   *nn.Param // W ∈ R^{2d×d}: z = [H ‖ e]·W
	params nn.Params
	walker *walk.TemporalWalker
	neg    *sample.Negative
	opt    *nn.Adam
	rng    *rand.Rand
}

// NewModel validates cfg and initializes an untrained model over g. The
// graph must be built; timestamps should be normalized (NormalizeTimes) so
// the decay kernel of Eq. 1 is well-scaled.
func NewModel(g *graph.Temporal, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("ehna: empty graph")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	walker, err := walk.NewTemporalWalker(g, cfg.Walk)
	if err != nil {
		return nil, err
	}
	neg, err := sample.NewNegative(g)
	if err != nil {
		return nil, err
	}
	d := cfg.Dim
	m := &Model{
		cfg:    cfg,
		g:      g,
		emb:    nn.NewEmbedding(g.NumNodes(), d, rng),
		walker: walker,
		neg:    neg,
		opt:    nn.NewAdam(cfg.LR),
		rng:    rng,
	}
	if cfg.SingleLevel {
		// EHNA-SL: a single-layer LSTM over the flattened walk sequence.
		m.node = nn.NewStackedLSTM("ehna.single", d, d, 1, rng)
		m.nNorm = nn.NewNorm("ehna.singleNorm", d)
	} else {
		m.node = nn.NewStackedLSTM("ehna.node", d, d, cfg.LSTMLayers, rng)
		m.walkL = nn.NewStackedLSTM("ehna.walk", d, d, cfg.LSTMLayers, rng)
		m.nNorm = nn.NewNorm("ehna.nodeNorm", d)
		m.wNorm = nn.NewNorm("ehna.walkNorm", d)
	}
	m.proj = nn.NewParam("ehna.W", nn.XavierInit(2*d, d, rng))
	m.node.Register(&m.params)
	m.nNorm.Register(&m.params)
	if m.walkL != nil {
		m.walkL.Register(&m.params)
		m.wNorm.Register(&m.params)
	}
	m.params.Add(m.proj)
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Graph returns the training graph.
func (m *Model) Graph() *graph.Temporal { return m.g }

// NumParams returns the number of trainable network scalars (excluding the
// embedding table).
func (m *Model) NumParams() int { return m.params.Count() }

// timeWeight is the stabilized reciprocal interaction-recency factor
// 1/(1+Σt) used by both attention levels. The +1 guards walks whose edges
// all carry normalized timestamp 0 and bounds the coefficient for very
// early edges; monotonicity in Σt — the quantity the paper's Eq. 3 relies
// on — is preserved.
func timeWeight(sumT float64) float64 { return 1 / (1 + sumT) }

// incidentTimeSumsInto writes, for each position i of the walk, the sum
// of timestamps of the walk's edges incident to the node occupying
// position i, aggregated over all occurrences of that node in the walk
// (the Σ_{(u,v) in r} t(u,v) term of Eq. 3). dst is reusable scratch;
// the result reuses its capacity. Walks are short (ℓ ≤ ~10), so the
// O(ℓ²) scan beats the map the previous implementation allocated per
// walk.
func incidentTimeSumsInto(dst []float64, w walk.Walk) []float64 {
	if cap(dst) < len(w.Nodes) {
		dst = make([]float64, len(w.Nodes))
	} else {
		dst = dst[:len(w.Nodes)]
	}
	for i, v := range w.Nodes {
		var s float64
		for j, t := range w.Times {
			if w.Nodes[j] == v || w.Nodes[j+1] == v {
				s += t
			}
		}
		dst[i] = s
	}
	return dst
}

// Aggregate builds the aggregated embedding z_x (Algorithm 1) for target
// node x at target time tTarget on the given tape. The returned node is a
// 1×Dim L2-normalized row. Gradients flow into the embedding table and all
// network parameters when the tape is run backward.
func (m *Model) Aggregate(tp *ag.Tape, x graph.NodeID, tTarget float64, rng *rand.Rand) *ag.Node {
	// Walk buffers are pooled: the walks are fully consumed (embedding
	// rows copied onto the tape, time sums reduced) before this
	// function returns, so the scratch can be recycled on exit.
	sc := walk.GetScratch()
	defer walk.PutScratch(sc)
	walks := m.walker.WalksScratch(sc, x, tTarget, rng)
	ex := m.emb.LookupOne(tp, int(x))
	if m.cfg.SingleLevel {
		return m.aggregateSingleLevel(tp, ex, walks)
	}

	// First level: node attention + LSTM per walk (lines 1–4).
	hs := make([]*ag.Node, len(walks))
	walkFactors := make([]float64, len(walks))
	var sums []float64 // per-walk scratch, reused across iterations
	for i, w := range walks {
		evs := m.emb.Lookup(tp, nodeInts(w.Nodes))
		sums = incidentTimeSumsInto(sums, w)
		var seq *ag.Node
		if m.cfg.DisableAttention || len(w.Nodes) == 1 {
			seq = evs
		} else {
			scores := make([]*ag.Node, len(w.Nodes))
			for j := range w.Nodes {
				d2 := tp.SqDist(ex, tp.Row(evs, j))
				scores[j] = tp.Scale(d2, -timeWeight(sums[j]))
			}
			alpha := tp.SoftmaxRow(tp.ConcatScalars(scores))
			seq = tp.RowScale(evs, alpha)
		}
		h := tp.ReLU(m.nNorm.Forward(tp, m.node.Forward(tp, seq)))
		hs[i] = h
		// Per-walk relevance factor of Eq. 4: (1/|r|)·Σ_v 1/(1+Σt).
		var f float64
		for _, s := range sums {
			f += timeWeight(s)
		}
		walkFactors[i] = f / float64(len(w.Nodes))
	}

	// Second level: walk attention + LSTM (lines 5–6).
	var stacked *ag.Node
	if m.cfg.DisableAttention || len(hs) == 1 {
		stacked = tp.StackRows(hs)
	} else {
		scores := make([]*ag.Node, len(hs))
		for i, h := range hs {
			d2 := tp.SqDist(ex, h)
			scores[i] = tp.Scale(d2, -walkFactors[i])
		}
		beta := tp.SoftmaxRow(tp.ConcatScalars(scores))
		stacked = tp.RowScale(tp.StackRows(hs), beta)
	}
	H := m.wNorm.Forward(tp, m.walkL.Forward(tp, stacked))
	return m.readout(tp, H, ex)
}

// aggregateSingleLevel implements the EHNA-SL ablation: all walks are
// flattened into one sequence consumed by a single single-layer LSTM, with
// no attention and no second aggregation stage.
func (m *Model) aggregateSingleLevel(tp *ag.Tape, ex *ag.Node, walks []walk.Walk) *ag.Node {
	var ids []int
	for _, w := range walks {
		ids = append(ids, nodeInts(w.Nodes)...)
	}
	if len(ids) == 0 {
		ids = []int{0}
	}
	seq := m.emb.Lookup(tp, ids)
	H := m.nNorm.Forward(tp, m.node.Forward(tp, seq))
	return m.readout(tp, H, ex)
}

// readout applies lines 7–8 of Algorithm 1: z = normalize(W·[H ‖ e_x]).
func (m *Model) readout(tp *ag.Tape, H, ex *ag.Node) *ag.Node {
	cat := tp.ConcatCols(H, ex)
	z := tp.MatMul(cat, m.proj.Node(tp))
	return tp.L2NormalizeRow(z)
}

// AggregateFallback is the GraphSAGE-style aggregation for nodes without a
// usable historical neighborhood (Section IV-D): the mean embedding of
// sampled 1-hop and 2-hop neighbors replaces the walk-derived H.
func (m *Model) AggregateFallback(tp *ag.Tape, u graph.NodeID, rng *rand.Rand) *ag.Node {
	eu := m.emb.LookupOne(tp, int(u))
	ids := m.sampleTwoHop(u, rng)
	var H *ag.Node
	if len(ids) == 0 {
		H = eu // isolated node: self-aggregation
	} else {
		H = tp.MeanRows(m.emb.Lookup(tp, ids))
	}
	return m.readout(tp, H, eu)
}

// sampleTwoHop draws up to FallbackSamples 1-hop and FallbackSamples 2-hop
// neighbors of u, uniformly with replacement.
func (m *Model) sampleTwoHop(u graph.NodeID, rng *rand.Rand) []int {
	adj := m.g.Neighbors(u)
	if len(adj) == 0 {
		return nil
	}
	k := m.cfg.FallbackSamples
	ids := make([]int, 0, 2*k)
	for i := 0; i < k; i++ {
		n1 := adj[rng.Intn(len(adj))].To
		ids = append(ids, int(n1))
		adj2 := m.g.Neighbors(n1)
		if len(adj2) > 0 {
			ids = append(ids, int(adj2[rng.Intn(len(adj2))].To))
		}
	}
	return ids
}

// negEmbedding returns z_u for a negative sample u: the full walk-based
// aggregation when u has history at tTarget (the paper's rule), otherwise
// — or always, under CheapNegatives — the neighborhood-mean fallback.
func (m *Model) negEmbedding(tp *ag.Tape, u graph.NodeID, tTarget float64, rng *rand.Rand) *ag.Node {
	if !m.cfg.CheapNegatives && m.g.DegreeBefore(u, tTarget) > 0 {
		return m.Aggregate(tp, u, tTarget, rng)
	}
	return m.AggregateFallback(tp, u, rng)
}

// EdgeLoss builds the hinge loss of Eq. 6 (or Eq. 7 when Bidirectional)
// for a single positive edge on the tape and returns the scalar node.
func (m *Model) EdgeLoss(tp *ag.Tape, e graph.Edge, rng *rand.Rand) *ag.Node {
	zx := m.Aggregate(tp, e.U, e.Time, rng)
	zy := m.Aggregate(tp, e.V, e.Time, rng)
	pos := tp.SqDist(zx, zy)
	var loss *ag.Node
	addHinge := func(anchor *ag.Node) {
		u := m.neg.Draw(rng, e.U, e.V)
		zu := m.negEmbedding(tp, u, e.Time, rng)
		h := tp.Hinge(m.cfg.Margin, pos, tp.SqDist(anchor, zu))
		if loss == nil {
			loss = h
		} else {
			loss = tp.Add(loss, h)
		}
	}
	for q := 0; q < m.cfg.Negatives; q++ {
		addHinge(zx)
	}
	if m.cfg.Bidirectional {
		for q := 0; q < m.cfg.Negatives; q++ {
			addHinge(zy)
		}
	}
	return loss
}

// shadow returns a worker replica of the model: layer weights and the
// embedding table are shared with m, gradients are private to the replica.
// The replica must only be used for Aggregate/EdgeLoss, never optimized.
func (m *Model) shadow() *Model {
	w := &Model{
		cfg:    m.cfg,
		g:      m.g,
		emb:    m.emb.Shadow(),
		node:   m.node.Shadow(),
		nNorm:  m.nNorm.Shadow(),
		proj:   m.proj.Shadow(),
		walker: m.walker,
		neg:    m.neg,
	}
	if m.walkL != nil {
		w.walkL = m.walkL.Shadow()
		w.wNorm = m.wNorm.Shadow()
	}
	// Register in the SAME order as NewModel so MergeGradsInto can match
	// parameters position-wise.
	w.node.Register(&w.params)
	w.nNorm.Register(&w.params)
	if w.walkL != nil {
		w.walkL.Register(&w.params)
		w.wNorm.Register(&w.params)
	}
	w.params.Add(w.proj)
	return w
}

// TrainEpoch performs one pass over the chronological edge stream in
// mini-batches and returns the mean per-edge loss. With cfg.Workers > 1
// each batch is processed by shadow replicas in parallel and their
// gradients merged before the optimizer step.
func (m *Model) TrainEpoch() float64 {
	edges := m.g.Edges()
	workers := m.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	// Each worker records every edge on its own tape, reset before the
	// edge, so the tape's memory is reused across the epoch and freed
	// when it returns. The serial path runs between parallel batches,
	// never beside them, so it borrows worker 0's tape.
	var replicas []*Model
	tapes := make([]*ag.Tape, workers)
	for i := 0; i < workers; i++ {
		replicas = append(replicas, m.shadow())
		tapes[i] = ag.New()
	}
	var total float64
	var count int
	batchNo := 0
	for lo := 0; lo < len(edges); lo += m.cfg.BatchSize {
		hi := lo + m.cfg.BatchSize
		if hi > len(edges) {
			hi = len(edges)
		}
		batch := edges[lo:hi]
		m.params.ZeroGrad()
		m.emb.ZeroGrad()
		inv := 1 / float64(len(batch))

		if workers == 1 || len(batch) < 2*workers {
			tp := tapes[0]
			for _, e := range batch {
				tp.Reset()
				loss := m.EdgeLoss(tp, e, m.rng)
				tp.Backward(tp.Scale(loss, inv))
				total += ag.Value(loss)
				count++
			}
		} else {
			losses := make([]float64, workers)
			var wg sync.WaitGroup
			chunk := (len(batch) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				wlo := w * chunk
				whi := wlo + chunk
				if whi > len(batch) {
					whi = len(batch)
				}
				if wlo >= whi {
					continue
				}
				wg.Add(1)
				go func(w, wlo, whi int) {
					defer wg.Done()
					rep, tp := replicas[w], tapes[w]
					rng := rand.New(rand.NewSource(m.cfg.Seed + int64(batchNo)*131 + int64(w)*7 + 3))
					for _, e := range batch[wlo:whi] {
						tp.Reset()
						loss := rep.EdgeLoss(tp, e, rng)
						tp.Backward(tp.Scale(loss, inv))
						losses[w] += ag.Value(loss)
					}
				}(w, wlo, whi)
			}
			wg.Wait()
			for w, rep := range replicas {
				nn.MergeGradsInto(&m.params, &rep.params)
				rep.params.ZeroGrad()
				rep.emb.MergeGradsInto(m.emb)
				total += losses[w]
			}
			count += len(batch)
		}
		if m.cfg.ClipNorm > 0 {
			m.params.ClipGradNorm(m.cfg.ClipNorm)
		}
		m.opt.Step(&m.params)
		m.emb.Step(m.cfg.EmbLR)
		batchNo++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Train runs cfg.Epochs training epochs and returns the per-epoch losses.
func (m *Model) Train() []float64 {
	losses := make([]float64, m.cfg.Epochs)
	for i := range losses {
		losses[i] = m.TrainEpoch()
	}
	return losses
}

// InferAll runs the paper's final aggregation pass: each node is aggregated
// at the time of its most recent edge and the readout becomes its final
// embedding (e_x = z_x). Nodes without any edge fall back to the
// neighborhood-mean aggregation. The result is a NumNodes×Dim matrix.
func (m *Model) InferAll() *tensor.Matrix {
	out := tensor.New(m.g.NumNodes(), m.cfg.Dim)
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7919))
	tp := ag.New()
	for v := 0; v < m.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		tp.Reset()
		var z *ag.Node
		if adj := m.g.Neighbors(id); len(adj) > 0 {
			tRecent := adj[len(adj)-1].Time
			z = m.Aggregate(tp, id, tRecent, rng)
		} else {
			z = m.AggregateFallback(tp, id, rng)
		}
		out.SetRow(v, z.Value.Data)
	}
	// Inference must not leave stray gradient state behind.
	m.emb.ZeroGrad()
	return out
}

// RawEmbeddings exposes the current embedding table (pre-readout), mainly
// for tests and diagnostics.
func (m *Model) RawEmbeddings() *tensor.Matrix { return m.emb.W }

func nodeInts(ns []graph.NodeID) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n)
	}
	return out
}
