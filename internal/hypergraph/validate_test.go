package hypergraph

import "fmt"

// Validate checks structural consistency.
func (h *Hypergraph) Validate() error {
	if len(h.Cost) != h.NumNets() {
		return fmt.Errorf("hypergraph: %d costs for %d nets", len(h.Cost), h.NumNets())
	}
	for _, p := range h.Pins {
		if p < 0 || int(p) >= h.NV {
			return fmt.Errorf("hypergraph: pin %d out of range", p)
		}
	}
	for c := range h.VW {
		if len(h.VW[c]) != h.NV {
			return fmt.Errorf("hypergraph: constraint %d has %d weights", c, len(h.VW[c]))
		}
	}
	return nil
}
