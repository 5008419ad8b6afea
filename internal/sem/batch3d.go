package sem

// Batched kernels of the two 3-D operators: AddKuBatch executes a
// prepared element set as fused gather → contract → scatter passes over a
// flat SoA workspace of batchB-lane planes (see batch.go for the layer's
// contract and bitwise-identity guarantee).
//
// Per block of batchB lanes (the last block of a ragged list is padded
// with repeats of the list's last element, whose lanes are gathered and
// computed like any other but never scattered):
//
//  1. gather: nodal values are pulled through the plan's index rows into
//     per-component planes u_k[q·batchB + lane];
//  2. contract: the axis derivatives are computed as blocked matrix–matrix
//     style passes — the X sweep runs the 5×5 (nq×nq) coefficient block
//     over 25 (nq²) contiguous row groups, the Y sweep over rows of
//     length nq·batchB, the Z sweep over one plane-wide row group — then
//     a pointwise pass turns gradients into weighted stress-flux planes,
//     and the transposed sweeps (Dᵀ) fold them back per component;
//  3. scatter: the output planes accumulate into dst element by element
//     in list order — the same conflict-free, deterministic order as the
//     per-element oracle.

// grad5 computes the three raw axis-derivative planes of one component
// for a deg=4 block (125-point planes, batchB lanes).
func grad5(dstX, dstY, dstZ, in, d []float64) {
	mul5(dstX, in, d, batchB, 25)
	mul5(dstY, in, d, 5*batchB, 5)
	mul5(dstZ, in, d, 25*batchB, 1)
}

// trans5 folds three stress-flux planes back through the transposed
// derivative matrix into one output component plane (deg=4):
// out = Xᵀ·tx, then += Yᵀ·ty, then += Zᵀ·tz, accumulating one product at
// a time in the scalar kernels' chain order.
func trans5(out, tx, ty, tz, dt []float64) {
	mul5(out, tx, dt, batchB, 25)
	mul5acc(out, ty, dt, 5*batchB, 5)
	mul5acc(out, tz, dt, 25*batchB, 1)
}

// gradN / transN are the generic-degree counterparts.
func gradN(dstX, dstY, dstZ, in, d []float64, nq int) {
	for cb := 0; cb < nq*nq; cb++ {
		off := cb * nq * batchB
		mulN(dstX[off:], in[off:], d, nq, batchB)
	}
	for c := 0; c < nq; c++ {
		off := c * nq * nq * batchB
		mulN(dstY[off:], in[off:], d, nq, nq*batchB)
	}
	mulN(dstZ, in, d, nq, nq*nq*batchB)
}

func transN(out, tx, ty, tz, dt []float64, nq int) {
	for cb := 0; cb < nq*nq; cb++ {
		off := cb * nq * batchB
		mulN(out[off:], tx[off:], dt, nq, batchB)
	}
	for c := 0; c < nq; c++ {
		off := c * nq * nq * batchB
		mulNacc(out[off:], ty[off:], dt, nq, nq*batchB)
	}
	mulNacc(out, tz, dt, nq, nq*nq*batchB)
}

// ---- Elastic3D ----

// elCstRows is the per-block constant row count of the elastic plan:
// ax, ay, az, jdet, λ, μ.
const elCstRows = 6

// NewBatchPlan implements BatchKernel: it precomputes the gather table
// copy, per-block metric and Lamé constants, and quadrature weight pairs
// for the element list.
func (op *Elastic3D) NewBatchPlan(elems []int32) BatchPlan {
	pl := newElemBatchPlan(op, elems, elCstRows, op.nq, op.Rule.Weights)
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		row := pl.cst[blk*elCstRows:]
		for i := 0; i < batchB; i++ {
			e := int(pl.lanes[blk+i])
			dx, dy, dz := op.M.ElemSize(e)
			lam, mu := op.Lame(e)
			row[0*batchB+i] = 2 / dx
			row[1*batchB+i] = 2 / dy
			row[2*batchB+i] = 2 / dz
			row[3*batchB+i] = dx * dy * dz / 8
			row[4*batchB+i] = lam
			row[5*batchB+i] = mu
		}
	}
	return pl
}

// AddKuBatch implements BatchKernel; bitwise-identical to AddKuScratch
// over plan.Elems(). The 12-plane workspace reuses the input planes as
// output planes.
func (op *Elastic3D) AddKuBatch(dst, u []float64, plan BatchPlan, bs *BatchScratch) {
	pl := checkPlan(op, plan, dst, u)
	pb := op.n3 * batchB
	ws := bs.floats(12 * pb)
	ux := ws[0*pb : 1*pb]
	uy := ws[1*pb : 2*pb]
	uz := ws[2*pb : 3*pb]
	gg := ws[3*pb : 12*pb]
	d, dt := op.dfl, op.dtf
	deg4 := op.deg == 4
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		pl.gather3(u, blk, ux, uy, uz)
		for k, in := range [3][]float64{ux, uy, uz} {
			gx := gg[(3*k+0)*pb : (3*k+1)*pb]
			gy := gg[(3*k+1)*pb : (3*k+2)*pb]
			gz := gg[(3*k+2)*pb : (3*k+3)*pb]
			if deg4 {
				grad5(gx, gy, gz, in, d)
			} else {
				gradN(gx, gy, gz, in, d, op.nq)
			}
		}
		cst := pl.cst[blk*elCstRows:]
		if deg4 {
			elStress8(gg, cst, pl.wpair)
		} else {
			elStressN(gg, cst, pl.wpair, op.n3)
		}
		for k, out := range [3][]float64{ux, uy, uz} {
			tx := gg[(3*k+0)*pb : (3*k+1)*pb]
			ty := gg[(3*k+1)*pb : (3*k+2)*pb]
			tz := gg[(3*k+2)*pb : (3*k+3)*pb]
			if deg4 {
				trans5(out, tx, ty, tz, dt)
			} else {
				transN(out, tx, ty, tz, dt, op.nq)
			}
		}
		pl.scatter3(dst, blk, ux, uy, uz)
	}
}

// ---- Acoustic3D ----

// acCstRows is the per-block constant row count of the acoustic plan:
// the premultiplied metric factors sx, sy, sz (μ·J·α²).
const acCstRows = 3

// NewBatchPlan implements BatchKernel.
func (op *Acoustic3D) NewBatchPlan(elems []int32) BatchPlan {
	pl := newElemBatchPlan(op, elems, acCstRows, op.nq, op.Rule.Weights)
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		row := pl.cst[blk*acCstRows:]
		for i := 0; i < batchB; i++ {
			e := int(pl.lanes[blk+i])
			dx, dy, dz := op.M.ElemSize(e)
			jdet := dx * dy * dz / 8
			ax, ay, az := 2/dx, 2/dy, 2/dz
			mu := op.M.Rho[e] * op.M.C[e] * op.M.C[e]
			row[0*batchB+i] = mu * jdet * ax * ax
			row[1*batchB+i] = mu * jdet * ay * ay
			row[2*batchB+i] = mu * jdet * az * az
		}
	}
	return pl
}

// AddKuBatch implements BatchKernel; bitwise-identical to AddKuScratch
// over plan.Elems().
func (op *Acoustic3D) AddKuBatch(dst, u []float64, plan BatchPlan, bs *BatchScratch) {
	pl := checkPlan(op, plan, dst, u)
	pb := op.n3 * batchB
	ws := bs.floats(4 * pb)
	ue := ws[0*pb : 1*pb]
	ff := ws[1*pb : 4*pb]
	fx := ff[0*pb : 1*pb]
	fy := ff[1*pb : 2*pb]
	fz := ff[2*pb : 3*pb]
	d, dt := op.dfl, op.dtf
	deg4 := op.deg == 4
	for blk := 0; blk < len(pl.lanes); blk += batchB {
		pl.gather1(u, blk, ue)
		cst := pl.cst[blk*acCstRows:]
		if deg4 {
			grad5(fx, fy, fz, ue, d)
			acStress8(ff, cst, pl.wpair)
			trans5(ue, fx, fy, fz, dt)
		} else {
			gradN(fx, fy, fz, ue, d, op.nq)
			acStressN(ff, cst, pl.wpair, op.n3)
			transN(ue, fx, fy, fz, dt, op.nq)
		}
		pl.scatter1(dst, blk, ue)
	}
}

var (
	_ BatchKernel = (*Acoustic3D)(nil)
	_ BatchKernel = (*Elastic3D)(nil)
)
