package wave

import (
	"fmt"
	"strings"

	"golts/internal/ckpt"
	"golts/internal/sem"
	"golts/internal/solver"
)

// checkpointKey is the canonical string of every configuration choice
// that determines the numerical trajectory. Two runs with equal keys
// produce bitwise-identical fields cycle for cycle, so a checkpoint from
// one can seed the other. Deliberately excluded: the SIMD tier (bitwise
// equivalent by contract), the rank/worker split of a fixed
// decomposition width (the width pins the assembly order), the cycle
// count (a resumed run may be extended), and observation-only settings
// (sinks, probes, receivers' names).
func checkpointKey(set *settings, width int, srcs []solver.Source, recs []*sem.Receiver) string {
	var b strings.Builder
	fmt.Fprintf(&b, "golts|mesh=%s|scale=%.17g|physics=%s|degree=%d|cfl=%.17g|lts=%t",
		set.mesh, set.scale, set.physics, set.degree, set.cfl, set.lts)
	fmt.Fprintf(&b, "|width=%d|partitioner=%s|seed=%d", width, set.partitioner, set.seed)
	fmt.Fprintf(&b, "|sponge=%.17g,%.17g,%v", set.sponge.Width, set.sponge.Strength, set.sponge.Faces)
	for _, sp := range srcs {
		fmt.Fprintf(&b, "|src=%d:%.17g:%.17g", sp.Dof, sp.F0, sp.T0)
	}
	for _, r := range recs {
		fmt.Fprintf(&b, "|rcv=%d", r.Dof)
	}
	return b.String()
}

// Checkpoint writes a restartable snapshot of the full simulation state
// to path: a versioned, CRC-protected container (internal/ckpt) holding
// the configuration key, the cycle and the stepper state as state frames —
// one full frame, or a distributed run's footprint frames as its ranks
// wrote them. The write is atomic — a crash mid-write leaves the previous
// checkpoint intact. It may be called at any cycle boundary, including
// before the first Run.
func (s *Simulation) Checkpoint(path string) error {
	if s.closed {
		return fmt.Errorf("wave: Checkpoint: %w", ErrClosed)
	}
	frames, err := s.stepper.save()
	if err != nil {
		return fmt.Errorf("wave: checkpoint: %w", err)
	}
	f := ckpt.NewFile()
	f.PutMeta(&ckpt.Meta{ConfigKey: s.ckptKey, Cycle: int64(s.cycles)})
	f.Add("state", frames)
	if err := ckpt.WriteFile(path, f); err != nil {
		return fmt.Errorf("wave: checkpoint: %w", err)
	}
	s.ckptWrites++
	return nil
}

// Resume rebuilds a Simulation from the given options — which must
// describe the same run that wrote the checkpoint — and restores the
// checkpointed state into it, so the next Run continues the interrupted
// trajectory bitwise. A checkpoint written by a different
// result-determining configuration is rejected with an *OptionError
// wrapping ErrCheckpointMismatch. The configured cycle count
// (WithCycles) is interpreted as the run's total: Run(ctx, 0) on a
// resumed simulation steps only the cycles that remain.
func Resume(path string, opts ...Option) (*Simulation, error) {
	f, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wave: reading checkpoint: %w", err)
	}
	meta, err := f.Meta()
	if err != nil {
		return nil, fmt.Errorf("wave: reading checkpoint: %w", err)
	}
	frames, err := f.Frames()
	if err != nil {
		return nil, fmt.Errorf("wave: reading checkpoint: %w", err)
	}
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if meta.ConfigKey != s.ckptKey {
		s.Close()
		return nil, optErr("Resume", ErrCheckpointMismatch,
			"checkpoint %s was written by a different configuration", path)
	}
	if err := s.stepper.restore(frames); err != nil {
		s.Close()
		return nil, fmt.Errorf("wave: restoring checkpoint: %w", err)
	}
	s.cycles = int(meta.Cycle)
	s.resumed = true
	return s, nil
}
