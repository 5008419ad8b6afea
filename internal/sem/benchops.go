package sem

import "golts/internal/mesh"

// KernelBenchCase is one operator fixture of the kernel benchmark suite.
type KernelBenchCase struct {
	Name string
	Op   BatchKernel
}

// KernelSweepOperators builds the canonical operator set used by both
// BenchmarkAddKuBatch (internal/sem) and cmd/kernelbench, so the in-repo
// benchmark and the BENCH_kernels.json trajectory measure the same
// workload: 512-element meshes (an 8×8×8 box, a 512-element line) so the
// batched-kernel sweep can run element-list sizes up to 512 with
// realistic shared-face gather/scatter overlap.
func KernelSweepOperators(deg int) ([]KernelBenchCase, error) {
	m := mesh.Uniform(8, 8, 8, 1, 1)
	ac, err := NewAcoustic3D(m, deg, false)
	if err != nil {
		return nil, err
	}
	el, err := NewElastic3D(m, deg, false, 0)
	if err != nil {
		return nil, err
	}
	xc := make([]float64, 513)
	cl := make([]float64, 512)
	rho := make([]float64, 512)
	for i := range xc {
		xc[i] = float64(i)
	}
	for i := range cl {
		cl[i], rho[i] = 1, 1
	}
	o1, err := NewOp1D(xc, cl, rho, deg, FreeBC, FreeBC)
	if err != nil {
		return nil, err
	}
	return []KernelBenchCase{{"Op1D", o1}, {"Acoustic3D", ac}, {"Elastic3D", el}}, nil
}

// BenchField fills u with the deterministic non-smooth pseudo-random
// field shared by the kernel tests and benchmarks.
func BenchField(u []float64) {
	s := uint64(12345)
	for i := range u {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u[i] = float64(int64(s)) / float64(1<<63)
	}
}

// BenchNodeMap builds the node map the remapped-plan tests and benchmarks
// share, over the nodes of elems in a seed-shuffled order: Out numbers them
// compactly (every other node maps to -1), In equals Out except that every
// third one reads the extra, caller-zeroed slot NOut, as at an LTS interface.
func BenchNodeMap(op Operator, elems []int32, seed uint64) NodeMap {
	nodes := NodesOf(op, elems)
	nn, k := op.NumNodes(), len(nodes)
	m := NodeMap{In: make([]int32, nn), Out: make([]int32, nn), NIn: k + 1, NOut: k}
	for n := range m.Out {
		m.In[n], m.Out[n] = -1, -1
	}
	s := seed | 1
	for i := k - 1; i >= 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		nodes[i], nodes[j] = nodes[j], nodes[i]
		m.In[nodes[i]], m.Out[nodes[i]] = int32(i), int32(i)
		if i%3 == 0 {
			m.In[nodes[i]] = int32(k)
		}
	}
	return m
}
