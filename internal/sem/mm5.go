package sem

// Pure-Go reference implementations of the batched microkernels, plus the
// generic-degree contraction primitives used for nq != 5.
//
// mm5go computes, for a 5-row coefficient matrix d (row-major, stride 5)
// and `blocks` consecutive groups of 5 input rows of length n at stride n,
//
//	dst[g*5n + a*n + j] = Σ_{m<5} d[a*5+m] · src[g*5n + m*n + j]
//
// with the five products summed left-to-right (ascending m), one rounding
// per add — the exact chain of the scalar per-element kernels, so the
// batched path stays bitwise-identical lane by lane. The asm microkernels
// (mm5_avx2_amd64.s, mm5_avx512_amd64.s) implement the same chains with
// 4- and 8-wide packed arithmetic across j; packed lanes round
// independently, so they too are bitwise-identical. Tests pin asm against
// these references, which also run on CPUs without AVX2.

func mm5go(dst, src, d []float64, n, blocks int) {
	for g := 0; g < blocks; g++ {
		db := dst[g*5*n : (g+1)*5*n]
		sb := src[g*5*n : (g+1)*5*n]
		for a := 0; a < 5; a++ {
			d0, d1, d2, d3, d4 := d[a*5], d[a*5+1], d[a*5+2], d[a*5+3], d[a*5+4]
			o := db[a*n : a*n+n]
			s0 := sb[0*n : 0*n+n]
			s1 := sb[1*n : 1*n+n]
			s2 := sb[2*n : 2*n+n]
			s3 := sb[3*n : 3*n+n]
			s4 := sb[4*n : 4*n+n]
			for j := range o {
				o[j] = d0*s0[j] + d1*s1[j] + d2*s2[j] + d3*s3[j] + d4*s4[j]
			}
		}
	}
}

// mm5accgo is mm5go accumulating into dst: each product is added onto the
// running value one rounding at a time, matching the scalar kernels'
// left-to-right chain across the y/z axis contributions.
func mm5accgo(dst, src, d []float64, n, blocks int) {
	for g := 0; g < blocks; g++ {
		db := dst[g*5*n : (g+1)*5*n]
		sb := src[g*5*n : (g+1)*5*n]
		for a := 0; a < 5; a++ {
			d0, d1, d2, d3, d4 := d[a*5], d[a*5+1], d[a*5+2], d[a*5+3], d[a*5+4]
			o := db[a*n : a*n+n]
			s0 := sb[0*n : 0*n+n]
			s1 := sb[1*n : 1*n+n]
			s2 := sb[2*n : 2*n+n]
			s3 := sb[3*n : 3*n+n]
			s4 := sb[4*n : 4*n+n]
			for j := range o {
				acc := o[j]
				acc += d0 * s0[j]
				acc += d1 * s1[j]
				acc += d2 * s2[j]
				acc += d3 * s3[j]
				acc += d4 * s4[j]
				o[j] = acc
			}
		}
	}
}

// elStressN is the pointwise stress pass of the batched isotropic
// elastic kernel over one batchB-lane block of n3 quadrature points: g
// holds 9 gradient planes of n3×batchB raw axis derivatives (rewritten
// in place with the stress-flux planes t0..t8), cst holds 6 rows of
// batchB per-element constants (ax, ay, az, jdet, λ, μ), and w holds n3
// interleaved (w[a], w[b]·w[c]) pairs. Every chain matches the scalar
// per-element kernel, so the pass is bitwise-identical per lane; the asm
// twins (elStress8avx2, elStress8avx512, n3 = 125) mirror it.
func elStressN(g, cst, w []float64, n3 int) {
	const bb = batchB
	pb := n3 * bb
	g0 := g[0*pb : 1*pb]
	g1 := g[1*pb : 2*pb]
	g2 := g[2*pb : 3*pb]
	g3 := g[3*pb : 4*pb]
	g4 := g[4*pb : 5*pb]
	g5 := g[5*pb : 6*pb]
	g6 := g[6*pb : 7*pb]
	g7 := g[7*pb : 8*pb]
	g8 := g[8*pb : 9*pb]
	pax := cst[0*bb : 1*bb]
	pay := cst[1*bb : 2*bb]
	paz := cst[2*bb : 3*bb]
	pjd := cst[3*bb : 4*bb]
	plam := cst[4*bb : 5*bb]
	pmu := cst[5*bb : 6*bb]
	for q := 0; q < n3; q++ {
		wa, wbc0 := w[2*q], w[2*q+1]
		o := q * bb
		for i := 0; i < bb; i++ {
			axv, ayv, azv := pax[i], pay[i], paz[i]
			wq := wa * (wbc0 * pjd[i])
			wx, wy, wz := wq*axv, wq*ayv, wq*azv
			lam, mu := plam[i], pmu[i]
			mu2 := mu + mu
			v00 := axv * g0[o+i]
			v11 := ayv * g4[o+i]
			v22 := azv * g8[o+i]
			tr := v00 + v11 + v22
			lt := lam * tr
			g0[o+i] = wx * (mu2*v00 + lt)
			g4[o+i] = wy * (mu2*v11 + lt)
			g8[o+i] = wz * (mu2*v22 + lt)
			sxy := mu * (ayv*g1[o+i] + axv*g3[o+i])
			g1[o+i] = wy * sxy
			g3[o+i] = wx * sxy
			sxz := mu * (azv*g2[o+i] + axv*g6[o+i])
			g2[o+i] = wz * sxz
			g6[o+i] = wx * sxz
			syz := mu * (azv*g5[o+i] + ayv*g7[o+i])
			g5[o+i] = wz * syz
			g7[o+i] = wy * syz
		}
	}
}

// acStressN is the acoustic counterpart: the three derivative planes are
// scaled by the premultiplied metric factors (cst rows sx, sy, sz) and
// the quadrature weights, matching the scalar kernel's
// ((s·w[a])·w[b]w[c])·∂u chain. The asm twins are acStress8avx2 and
// acStress8avx512 (n3 = 125).
func acStressN(f, cst, w []float64, n3 int) {
	const bb = batchB
	pb := n3 * bb
	fx := f[0*pb : 1*pb]
	fy := f[1*pb : 2*pb]
	fz := f[2*pb : 3*pb]
	psx := cst[0*bb : 1*bb]
	psy := cst[1*bb : 2*bb]
	psz := cst[2*bb : 3*bb]
	for q := 0; q < n3; q++ {
		wa, wbc := w[2*q], w[2*q+1]
		o := q * bb
		for i := 0; i < bb; i++ {
			fx[o+i] = (psx[i] * wa * wbc) * fx[o+i]
			fy[o+i] = (psy[i] * wa * wbc) * fy[o+i]
			fz[o+i] = (psz[i] * wa * wbc) * fz[o+i]
		}
	}
}

// mulN / mulNacc are the generic-degree (nq rows) contraction primitives
// for the non-specialised batched kernels; same summation order as the
// generic scalar kernels (ascending m, one rounding per add).
func mulN(dst, src, d []float64, nq, n int) {
	for a := 0; a < nq; a++ {
		da := d[a*nq : a*nq+nq]
		o := dst[a*n : a*n+n]
		s := src[0:n]
		for j := range o {
			o[j] = da[0] * s[j]
		}
		for m := 1; m < nq; m++ {
			dm := da[m]
			s := src[m*n : m*n+n]
			for j := range o {
				o[j] += dm * s[j]
			}
		}
	}
}

func mulNacc(dst, src, d []float64, nq, n int) {
	for a := 0; a < nq; a++ {
		da := d[a*nq : a*nq+nq]
		o := dst[a*n : a*n+n]
		for m := 0; m < nq; m++ {
			dm := da[m]
			s := src[m*n : m*n+n]
			for j := range o {
				o[j] += dm * s[j]
			}
		}
	}
}

// batchB is the internal lane count of the deg=4 batched kernels: eight
// elements execute together through the SoA workspace. Eight lanes keep
// the twelve 125-lane planes inside L2 on typical cores (the measured
// sweet spot) and make every plane stride a compile-time constant for
// the asm microkernels.
const batchB = 8
