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
	pl := checkPlan(op, plan)
	checkLens(op, "dst", dst)
	checkLens(op, "u", u)
	nq := op.deg + 1
	pb := nq * batchB
	ws := bs.floats(2 * pb)
	in := ws[0*pb : 1*pb]
	f := ws[1*pb : 2*pb]
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		lanes, be := pl.block(blk)
		for i, e := range lanes {
			nb := op.conn[int(e)*nq : (int(e)+1)*nq]
			o := i
			for _, n := range nb {
				in[o] = u[n]
				o += batchB
			}
		}
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
		for i, e := range be {
			nb := op.conn[int(e)*nq : (int(e)+1)*nq]
			o := i
			for _, n := range nb {
				dst[n] += in[o]
				o += batchB
			}
		}
	}
}

var _ BatchKernel = (*Op1D)(nil)
