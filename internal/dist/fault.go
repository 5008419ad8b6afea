package dist

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// FailureKind classifies how a rank was lost, for reporting and for
// routing: every kind recovers the same way (checkpoint restore), but
// the taxonomy tells operators whether they are fighting crashing
// processes, a hung host, a flaky NIC, or data corruption in flight.
type FailureKind string

const (
	// FailureCrash is a silent disappearance: the process exited or its
	// connection dropped without a farewell frame.
	FailureCrash FailureKind = "crash"
	// FailureTimeout is unresponsiveness: heartbeats stopped, or a step
	// overran the configured timeout, while connections stayed open.
	FailureTimeout FailureKind = "timeout"
	// FailureCorrupt is a frame whose CRC did not match its contents —
	// the link delivered bytes that were never sent.
	FailureCorrupt FailureKind = "corrupt"
	// FailureLink is a send-side transport error: the coordinator could
	// not deliver a frame to the rank.
	FailureLink FailureKind = "link"
)

// RankFailure reports the loss (or unresponsiveness) of one rank during
// a distributed run. Callers detect it with errors.As; when the
// coordinator holds a checkpoint it recovers from these automatically.
type RankFailure struct {
	Rank int
	Kind FailureKind
	Err  error
}

func (e *RankFailure) Error() string {
	kind := e.Kind
	if kind == "" {
		kind = FailureCrash
	}
	return fmt.Sprintf("dist: rank %d failed (%s): %v", e.Rank, kind, e.Err)
}

func (e *RankFailure) Unwrap() error { return e.Err }

// FaultKind selects what a FaultPlan does when it triggers.
type FaultKind string

const (
	// FaultKill terminates the target rank abruptly: a spawned rank
	// SIGKILLs its own process; an in-process rank tears down its
	// connections without a farewell frame. Either way the coordinator
	// sees a silent disappearance, exactly like a real crash.
	FaultKill FaultKind = "kill"
	// FaultStall freezes the target rank forever while keeping every
	// connection open, modelling a hung process or a stalled link; only
	// the heartbeat timeout can detect it.
	FaultStall FaultKind = "stall"
	// FaultDelay pauses the target rank once for Delay, modelling a
	// transient network hiccup; the run must ride it out unharmed.
	FaultDelay FaultKind = "delay"
	// FaultDropLink severs the target rank's coordinator connection,
	// modelling a failed uplink: the rank's serve loop dies on the closed
	// socket and the coordinator sees the drop as a crash to recover.
	FaultDropLink FaultKind = "droplink"
	// FaultStallLink freezes the target rank's coordinator link for
	// Delay, at the conn layer with the write mutex held: frames and
	// heartbeats alike queue behind it. A short stall rides out; one
	// longer than the heartbeat timeout is indistinguishable from a hung
	// host and triggers recovery.
	FaultStallLink FaultKind = "stall-link"
	// FaultCorrupt flips bits in the CRC tail of the target rank's next
	// coordinator-bound frame, modelling in-flight data corruption; the
	// coordinator's checksum verification must catch it and recover.
	FaultCorrupt FaultKind = "corrupt"
	// FaultPartition severs every connection of the target rank —
	// coordinator and peers — modelling a network partition that
	// isolates the host completely.
	FaultPartition FaultKind = "partition"
)

// EnvFault names the environment variable carrying a fault-plan spec.
// Spawned rank processes inherit it from the launcher, so
//
//	GOLTS_FAULT=kill:rank=1,cycle=3,substep=2 distrun ...
//
// injects the fault without any flag plumbing.
const EnvFault = "GOLTS_FAULT"

// envGen carries the coordinator's spawn generation to rank processes.
// Respawned ranks run at generation ≥ 1, and a plan only arms in its
// own generation, so an injected fault never re-fires after recovery.
const envGen = "GOLTS_DIST_GEN"

// FaultPlan injects one fault into one rank of a distributed run, at a
// chosen cycle and substep. Substep n triggers immediately before the
// n-th stiffness apply of the cycle (an LTS cycle with L levels runs
// 2^L − 1 applies, so every level boundary is addressable); substep 0
// triggers before the cycle steps at all. A negative substep — Config.Faults
// only, the GOLTS_FAULT grammar has no spelling for it — triggers inside
// the snapshot taken after the generation's Cycle-th cycle (0: before its
// first), once the rank has written its file and before it answers for it.
type FaultPlan struct {
	Kind    FaultKind
	Rank    int
	Cycle   int64 // 1-based cycle in which the fault triggers
	Substep int   // 1-based stiffness apply within the cycle; 0 = before stepping; < 0 = in the snapshot after it
	Delay   time.Duration
	Gen     int // spawn generation the plan arms in (0 = initial launch)
}

// ParseFaultPlan parses a spec of the form
//
//	kind:rank=R,cycle=C[,substep=S][,ms=D][,gen=G]
//
// with kind one of kill, stall, delay, droplink, stall-link, corrupt,
// partition.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("dist: fault spec %q: want kind:rank=R,cycle=C,...", spec)
	}
	p := &FaultPlan{Kind: FaultKind(kind)}
	switch p.Kind {
	case FaultKill, FaultStall, FaultDelay,
		FaultDropLink, FaultStallLink, FaultCorrupt, FaultPartition:
	default:
		return nil, fmt.Errorf("dist: fault spec %q: unknown kind %q", spec, kind)
	}
	for _, field := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("dist: fault spec %q: bad field %q", spec, field)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dist: fault spec %q: field %q: %v", spec, field, err)
		}
		switch key {
		case "rank":
			p.Rank = int(n)
		case "cycle":
			p.Cycle = n
		case "substep":
			p.Substep = int(n)
		case "ms":
			p.Delay = time.Duration(n) * time.Millisecond
		case "gen":
			p.Gen = int(n)
		default:
			return nil, fmt.Errorf("dist: fault spec %q: unknown field %q", spec, key)
		}
	}
	if p.Rank < 0 || p.Cycle < 1 || p.Substep < 0 {
		return nil, fmt.Errorf("dist: fault spec %q: rank ≥ 0, cycle ≥ 1, substep ≥ 0 required", spec)
	}
	return p, nil
}

// String re-encodes the plan in ParseFaultPlan's syntax.
func (p *FaultPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:rank=%d,cycle=%d,substep=%d", p.Kind, p.Rank, p.Cycle, p.Substep)
	if p.Delay > 0 {
		fmt.Fprintf(&b, ",ms=%d", p.Delay.Milliseconds())
	}
	if p.Gen != 0 {
		fmt.Fprintf(&b, ",gen=%d", p.Gen)
	}
	return b.String()
}

// ParseFaultPlans parses a ';'-separated list of fault specs, so one
// GOLTS_FAULT value can target several ranks, cycles or generations at
// once (two ranks killed in the same cycle; a rank killed again during
// the replay of its own recovery via gen=1; ...).
func ParseFaultPlans(specs string) ([]*FaultPlan, error) {
	var plans []*FaultPlan
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// faultsFromEnv reads the process's fault plans, if any, from EnvFault.
func faultsFromEnv() ([]*FaultPlan, error) {
	specs := os.Getenv(EnvFault)
	if specs == "" {
		return nil, nil
	}
	return ParseFaultPlans(specs)
}

// killPanic aborts an in-process rank from inside the stepper the way
// SIGKILL aborts a spawned one: the rank's runRank recover tears down
// its connections without any farewell frame.
type killPanic struct{}
