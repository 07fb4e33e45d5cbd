package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// AckKind selects which durability domain must hold a commit before the
// guest sees the acknowledgement.
type AckKind int

const (
	// AckKindLocal is the paper's original contract: the hypervisor buffer
	// plus the emergency-dump guarantee are the durability domain. A commit
	// is acked the moment it is copied into hypervisor memory.
	AckKindLocal AckKind = iota
	// AckKindQuorum acks a commit only when the local buffer AND k standby
	// replicas hold it. Survives everything AckKindLocal survives, plus
	// faults the local dump cannot: a dump-zone media failure, a defective
	// PSU whose real hold-up undershoots its rating, whole-machine loss.
	AckKindQuorum
	// AckKindRemoteOnly makes the replicas the durability domain outright:
	// acks wait for k replicas, the emergency dump is disabled, and the
	// buffer bound is no longer tied to the PSU hold-up window.
	AckKindRemoteOnly
)

// AckPolicy is the durability policy a Logger enforces on the ack path.
type AckPolicy struct {
	Kind AckKind
	// K is the number of standby replicas that must hold a commit before it
	// is acknowledged. Ignored for AckKindLocal; zero means 1 otherwise (see Effective).
	K int
}

// AckLocal returns the default local-durability policy.
func AckLocal() AckPolicy { return AckPolicy{Kind: AckKindLocal} }

// AckQuorum returns a policy that acks once local memory plus k replicas
// hold the commit.
func AckQuorum(k int) AckPolicy { return AckPolicy{Kind: AckKindQuorum, K: k} }

// AckRemoteOnly returns a policy where k replicas replace the emergency
// dump as the durability domain.
func AckRemoteOnly(k int) AckPolicy { return AckPolicy{Kind: AckKindRemoteOnly, K: k} }

// ParseAckPolicy maps a CLI-style policy name ("local", "quorum",
// "remote-only") and replica count to a policy.
func ParseAckPolicy(kind string, k int) (AckPolicy, error) {
	switch kind {
	case "", "local":
		return AckLocal(), nil
	case "quorum":
		return AckQuorum(k), nil
	case "remote-only", "remote":
		return AckRemoteOnly(k), nil
	default:
		return AckPolicy{}, fmt.Errorf("rapilog: unknown ack policy %q (local|quorum|remote-only)", kind)
	}
}

func (a AckPolicy) String() string {
	switch a.Kind {
	case AckKindLocal:
		return "local"
	case AckKindQuorum:
		return fmt.Sprintf("quorum(%d)", a.K)
	case AckKindRemoteOnly:
		return fmt.Sprintf("remote-only(%d)", a.K)
	default:
		return fmt.Sprintf("ackpolicy(%d)", int(a.Kind))
	}
}

// Remote reports whether the policy involves replicas at all.
func (a AckPolicy) Remote() bool { return a.Kind != AckKindLocal }

// Effective returns the policy a Logger enforces: a remote policy with no
// quorum size waits for one replica.
func (a AckPolicy) Effective() AckPolicy {
	if a.Remote() && a.K == 0 {
		a.K = 1
	}
	return a
}

// DefaultReplicas is the standby count a replicated deployment gets when
// none is configured.
const DefaultReplicas = 2

// ValidateQuorumFlags vets raw -quorum/-replicas CLI values before any
// deployment is constructed, so an unsatisfiable configuration fails with a
// usage error instead of a deep rig-construction failure. replicas == 0
// means the deployment default (DefaultReplicas).
func ValidateQuorumFlags(quorum, replicas int) error {
	if quorum < 0 {
		return fmt.Errorf("rapilog: -quorum %d: a commit cannot wait for a negative number of replicas", quorum)
	}
	if replicas < 0 {
		return fmt.Errorf("rapilog: -replicas %d: the standby count cannot be negative", replicas)
	}
	n := replicas
	if n == 0 {
		n = DefaultReplicas
	}
	if quorum > n {
		return fmt.Errorf("rapilog: -quorum %d exceeds the %d configured standbys: such a commit could never be acknowledged (lower -quorum or raise -replicas)", quorum, n)
	}
	return nil
}

// Replicator is the Logger's hook into log shipping. The Logger calls Ship
// for every byte it intends to make durable — buffered inserts, absorbed
// rewrites, and degraded pass-through writes alike — and WaitQuorum on the
// ack path when the policy demands remote copies. internal/replica provides
// the real implementation; tests substitute fakes.
type Replicator interface {
	// Ship hands one write to the replication stream and returns its
	// sequence number. The data is copied before Ship returns.
	Ship(lba int64, data []byte) uint64
	// WaitQuorum blocks p until k replicas have acknowledged seq.
	WaitQuorum(p *sim.Proc, seq uint64, k int)
}

// ship forwards one write to the replicator, if any. Every path that makes
// bytes durable must pass through here — a write the replicas never saw is
// a write replica-based recovery would silently roll back. span is the
// causal parent (the buffer-entry span, or 0 when untracked); it rides the
// tracer's cause slot because the Replicator interface predates tracing and
// its fakes must keep compiling.
func (l *Logger) ship(lba int64, data []byte, span obs.SpanID) uint64 {
	if l.cfg.Replicator == nil {
		return 0
	}
	tr := l.tracer()
	tr.SetCause(span)
	seq := l.cfg.Replicator.Ship(lba, data)
	tr.ClearCause()
	return seq
}

// waitPolicy blocks the acking writer until the configured durability
// domain holds the write.
func (l *Logger) waitPolicy(p *sim.Proc, seq uint64) {
	if l.cfg.Replicator == nil || !l.cfg.Policy.Remote() || seq == 0 {
		return
	}
	start := p.Now()
	l.cfg.Replicator.WaitQuorum(p, seq, l.cfg.Policy.K)
	l.stats.QuorumWait.Observe(p.Now().Sub(start))
}
