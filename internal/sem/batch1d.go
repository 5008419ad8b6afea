package sem

// Batched kernel of the 1-D operator: the same fused
// gather → contract → scatter structure as the 3-D kernels (batch3d.go),
// with nq-point planes. The 1-D kernel is far from any performance
// bottleneck; it exists so every operator offers the same BatchKernel
// contract (and the LTS correctness tests run on the paper's Fig. 1
// setting).

// NewBatchPlan implements BatchKernel.
func (op *Op1D) NewBatchPlan(elems []int32) BatchPlan {
	pl := newElemBatchPlan(op, elems, 1, 0, nil)
	pl.wpair = append([]float64(nil), op.Rule.Weights...)
	for i, e := range pl.lanes {
		j := (op.XC[e+1] - op.XC[e]) / 2
		mu := op.Rho[e] * op.C[e] * op.C[e]
		pl.cst[i] = mu / j
	}
	return pl
}

// AddKuBatch implements BatchKernel; bitwise-identical to AddKuScratch
// over plan.Elems().
func (op *Op1D) AddKuBatch(dst, u []float64, plan BatchPlan, bs *BatchScratch) {
	pl := checkPlan(op, plan, dst, u)
	nq := op.deg + 1
	pb := nq * batchB
	ws := bs.floats(2 * pb)
	in := ws[0*pb : 1*pb]
	f := ws[1*pb : 2*pb]
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		pl.gather1(u, blk, in)
		mulN(f, in, op.dfl, nq, batchB)
		cst := pl.cst[blk:]
		for q := 0; q < nq; q++ {
			wq := pl.wpair[q]
			o := q * batchB
			for i := 0; i < batchB; i++ {
				f[o+i] = (wq * cst[i]) * f[o+i]
			}
		}
		mulN(in, f, op.dtf, nq, batchB)
		pl.scatter1(dst, blk, in)
	}
}

var _ BatchKernel = (*Op1D)(nil)
