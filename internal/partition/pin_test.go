package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// assignPins holds the FNV-64a hash of Assign's output on the smallest
// trench mesh (992 elements), per method, part count and seed. A change to
// the bisection engine that moves any of these changes the partitions the
// solver runs on, and the scotch-p entries back the benchmark goldens.
// Patoh at K = 64 reaches bisections of fewer than 32 vertices, which the
// smallest trench cannot produce at K = 16.
var assignPins = map[string]string{
	"scotch/k=2/seed=1":      "2206964faafd4da5",
	"scotch/k=2/seed=2":      "18290af63c66b425",
	"scotch/k=3/seed=1":      "9c6dc69668534225",
	"scotch/k=3/seed=2":      "6548a696f48e5825",
	"scotch/k=8/seed=1":      "c711b4aa8051b995",
	"scotch/k=8/seed=2":      "b5fc96f07071f135",
	"scotch-p/k=2/seed=1":    "95b94c96afd437e5",
	"scotch-p/k=2/seed=2":    "5ee5a3821179eda5",
	"scotch-p/k=3/seed=1":    "6361b2a55c6ad176",
	"scotch-p/k=3/seed=2":    "bf8ae5d482c82c24",
	"scotch-p/k=8/seed=1":    "60a1a5de9b93afa5",
	"scotch-p/k=8/seed=2":    "b1f2d84bab393d25",
	"metis/k=2/seed=1":       "9fdceae5ced82c55",
	"metis/k=2/seed=2":       "4545e14bcb0ace25",
	"metis/k=3/seed=1":       "2b6be556d5d59cb7",
	"metis/k=3/seed=2":       "0a392015cd478f55",
	"metis/k=8/seed=1":       "b66da33df8a07a94",
	"metis/k=8/seed=2":       "05d658cc20075a15",
	"patoh/k=2/seed=1":       "111877c6df117274",
	"patoh/k=2/seed=2":       "5424c62dd6fc6cd5",
	"patoh/k=3/seed=1":       "d3ca204effb5dac5",
	"patoh/k=3/seed=2":       "4fcc6c5b84966ba5",
	"patoh/k=8/seed=1":       "c15e817808ce8541",
	"patoh/k=8/seed=2":       "a424e32b699209f4",
	"scotch-pm/k=2/seed=1":   "95b94c96afd437e5",
	"scotch-pm/k=2/seed=2":   "5ee5a3821179eda5",
	"scotch-pm/k=3/seed=1":   "5b704e75edb21634",
	"scotch-pm/k=3/seed=2":   "bf8ae5d482c82c24",
	"scotch-pm/k=8/seed=1":   "e9426b0711c52ac5",
	"scotch-pm/k=8/seed=2":   "3209545496d572c5",
	"coarse-only/k=2/seed=1": "bb05354d49e0f425",
	"coarse-only/k=2/seed=2": "5a016065e783d625",
	"coarse-only/k=3/seed=1": "51672740f920cb25",
	"coarse-only/k=3/seed=2": "a3f1a521a3c10825",
	"coarse-only/k=8/seed=1": "dee80c2b31035f84",
	"coarse-only/k=8/seed=2": "1d83d85ab90e7286",
	"patoh/k=16/seed=1":      "4107cad395eb3eba",
	"patoh/k=16/seed=2":      "4a6dff60aabaa2d5",
	"patoh/k=64/seed=1":      "3e114741a7d808e1",
	"patoh/k=64/seed=2":      "1284a90cc7d793a0",
}

func TestAssignPinned(t *testing.T) {
	m, lv := trenchFixture(0.0005)
	type run struct {
		method Method
		k      int
	}
	var runs []run
	for _, method := range AllMethods {
		for _, k := range []int{2, 3, 8} {
			runs = append(runs, run{method, k})
		}
	}
	runs = append(runs, run{Patoh, 16}, run{Patoh, 64})
	for _, r := range runs {
		for _, seed := range []int64{1, 2} {
			part, err := Assign(m, lv, r.k, r.method, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, p := range part {
				binary.Write(h, binary.LittleEndian, p)
			}
			key := fmt.Sprintf("%s/k=%d/seed=%d", r.method, r.k, seed)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != assignPins[key] {
				t.Errorf("%s: hash %s, pinned %s", key, got, assignPins[key])
			}
		}
	}
}
