// Package replica implements the replicated durability domain: log shipping
// from the RapiLog buffer to N standby replicas over the simulated network
// fabric, with a sequence-numbered stream protocol, cumulative acks, and
// per-replica catch-up after partitions heal.
//
// The protocol is deliberately minimal — the subsystem exists to extend the
// paper's safety argument, not to reinvent consensus:
//
//   - The Shipper assigns every shipped write a sequence number within the
//     current power epoch, coalesces records shipped in the same instant
//     into wire frames (one fabric send per frame per standby; one
//     cumulative ack back per frame), and sends each frame to every
//     standby. Records are
//     retained until every standby has cumulatively acknowledged them —
//     bounded by Config.RetainLimit: a standby whose acks stall while
//     retention exceeds the bound is evicted (lost for the epoch once the
//     stream is trimmed past it) and re-syncs when the next epoch restarts
//     the stream at seq 1.
//   - A Standby applies records strictly in sequence order (out-of-order
//     arrivals are buffered, duplicates re-acknowledged) and replies with a
//     cumulative ack: "I durably hold everything up to seq S". The ack also
//     carries the highest sequence the standby has seen, so the shipper can
//     tell a hole (retransmit now) from a tail still in flight.
//   - Lost records and lost acks are repaired by retransmission: a hole
//     reported by an ack is refilled immediately, and a probe resends the
//     oldest unacknowledged window whenever a replica has been silent for a
//     full retransmit interval — which is how a replica catches back up
//     after a partition heals or after it restarts.
//
// Epochs make power cycles safe: each Logger rebuild gets a fresh Shipper
// with the next epoch number, standbys track applied prefixes per epoch,
// and recovery replays epochs in order — so a record from a dead epoch can
// never overwrite a newer one.
//
// Standbys live in their own simulation-level crash domains, NOT in the
// machine's: they model separate machines in separate failure domains, and
// surviving the primary's power loss is their entire purpose.
package replica

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wire-size model: per-record framing (epoch, seq, lba, length, CRC), the
// per-frame header (epoch, record count, frame CRC), and the fixed size of
// a cumulative ack.
const (
	recordOverhead = 32
	frameOverhead  = 16
	ackBytes       = 24
)

// Fixed protocol constants.
const (
	// DefaultPrimaryName is the shipper's fabric endpoint when
	// Config.PrimaryName is empty.
	DefaultPrimaryName = "primary"
	// retransmitEvery is the silent-replica probe interval: a replica whose
	// acks have stalled for this long gets its oldest unacknowledged window
	// resent.
	retransmitEvery = 10 * time.Millisecond
	// holeResendMin rate-limits hole-triggered retransmissions per replica
	// (an ack reporting seen > acked means a gap lost on the wire): about
	// two RTTs on the default link.
	holeResendMin = 2 * time.Millisecond
	// resendRecords bounds records resent to one replica per repair round.
	resendRecords = 128
	// maxFrameRecords caps how many pending records are coalesced into one
	// wire frame. A flush fires synchronously the moment the cap is
	// reached, so a single non-yielding producer still frames.
	maxFrameRecords = 64
	// maxFrameBytes caps a frame's payload bytes. A single record larger
	// than the cap still ships — alone in its own frame.
	maxFrameBytes = 256 << 10
	// applyDelay is the standby-side cost of processing one record
	// (validate, append to its durable log).
	applyDelay = 2 * time.Microsecond
)

// Config tunes the shipping protocol. The same Config parameterises the
// Shipper and every Standby so both sides agree on names.
type Config struct {
	// PrimaryName is the shipper's endpoint on the fabric; default
	// DefaultPrimaryName.
	PrimaryName string
	// SectorSize is the log device's sector granularity. Shipped records are
	// sector images — recovery folds them back onto sector boundaries — so
	// Ship panics on a payload that is not a whole number of sectors: that
	// is a protocol violation by the caller, not a runtime condition.
	// Default 512.
	SectorSize int
	// RetainLimit bounds the bytes of shipped-but-unacknowledged records the
	// shipper retains for retransmission. While every standby keeps acking,
	// retention trails the slowest cumulative ack and stays tiny; a standby
	// that stops acking (crash, long partition) would otherwise pin the
	// whole stream in memory at the write rate for the whole outage. When
	// retained bytes exceed RetainLimit and a standby's ack has not advanced
	// for DeadAfter, that standby is evicted: retention is trimmed past it,
	// and it is lost for the epoch — it re-syncs naturally at the next
	// epoch, when the stream restarts from seq 1. Default 64 MiB.
	RetainLimit int64
	// DeadAfter is the ack-stall threshold for eviction; it only applies
	// while retention exceeds RetainLimit. Default 500ms.
	DeadAfter time.Duration
	// Reg, when set, registers the subsystem's instruments centrally.
	Reg *obs.Registry
	// Trace, when set, records replication trace events (ship, replica
	// apply/ack, quorum, repair, evict, epoch) with causal parentage: a
	// shipped record's span rides the wire in Record.Span, so a standby's
	// apply links back to the primary-side ship that caused it.
	Trace *obs.Tracer
	// TraceQuorumK, when > 0, makes the shipper emit EvQuorumMet the
	// moment the k-th replica covers a sequence — the trace-visible form
	// of the ack policy's quorum barrier. Zero (no quorum tracing) for
	// local-ack deployments.
	TraceQuorumK int
}

func (c *Config) applyDefaults() {
	if c.PrimaryName == "" {
		c.PrimaryName = DefaultPrimaryName
	}
	if c.SectorSize == 0 {
		c.SectorSize = 512
	}
	if c.RetainLimit == 0 {
		c.RetainLimit = 64 << 20
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 500 * time.Millisecond
	}
}

// Record is one shipped log write: a copy of the payload plus where it
// belongs on the log partition. Records double as the wire format. Span is
// the ship's trace context riding the wire (zero when tracing is off) —
// the analogue of a traceparent header — so standby-side events parent
// under the primary-side ship span.
type Record struct {
	Epoch int
	Seq   uint64
	Lba   int64
	Data  []byte
	Span  obs.SpanID

	// buf is the pooled backing array behind Data on the primary side. It
	// is nil for records built by tests, for standby-held copies, and in
	// recovery replay — the wire format and Recover are unaffected.
	buf *payloadBuf
}

// payloadBuf is a pooled, refcounted backing array for a shipped record's
// payload. The retained stream holds one reference; every frame carrying a
// copy of the record holds one more. The buffer returns to its size-class
// pool only when the last reference dies — which is what makes recycling
// safe under the fabric's delivery-by-reference contract: no frame still in
// flight can ever observe a recycled buffer.
type payloadBuf struct {
	data []byte
	refs int
}

// frame is one wire-level batch of records bound for a replica link: the
// shipper issues one Fabric send per frame instead of one per record, and a
// standby applies the whole frame in one pass and answers with one
// cumulative ack. Frames are pooled and refcounted (netsim.Refcounted): a
// fresh frame starts with one reference per replica it is broadcast to —
// the fabric releases dropped copies, receivers release on delivery — and
// returns to its shipper's pool when the last reference dies.
type frame struct {
	epoch int
	recs  []Record
	span  obs.SpanID
	refs  int
	sh    *Shipper
}

// Retain and Release implement netsim.Refcounted (the fabric retains
// duplicated deliveries and releases dropped ones).
func (f *frame) Retain() { f.refs++ }

func (f *frame) Release() {
	f.refs--
	if f.refs == 0 {
		f.sh.putFrame(f)
	}
}

// OwnershipSum implements netsim.Checksummer: an FNV-1a digest over the
// frame header and every record's identity and payload bytes, so the
// ownership check catches a pooled buffer recycled while the frame was
// still in flight.
func (f *frame) OwnershipSum() uint32 {
	h := uint32(2166136261)
	mix64 := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint32(v>>i&0xff)) * 16777619
		}
	}
	mix64(uint64(f.epoch))
	mix64(uint64(f.span))
	mix64(uint64(len(f.recs)))
	for i := range f.recs {
		r := &f.recs[i]
		mix64(r.Seq)
		mix64(uint64(r.Lba))
		for _, b := range r.Data {
			h = (h ^ uint32(b)) * 16777619
		}
	}
	return h
}

// ackMsg is a standby's cumulative acknowledgement for one epoch.
type ackMsg struct {
	Epoch int
	Seq   uint64 // everything ≤ Seq is durably applied
	Seen  uint64 // highest seq received (Seen > Seq ⇒ a hole the shipper should refill)
	From  string
}

// FenceMsg raises a recipient's fence to Epoch: from its arrival onward,
// records and acks carrying an epoch below the fence are rejected. The HA
// coordinator broadcasts it before promoting a standby, so a deposed
// primary's stream can never commit into a fenced cluster.
type FenceMsg struct {
	Epoch int
	From  string // endpoint to send the FenceAck back to
}

// FenceAck confirms a standby's fence is at least Epoch.
type FenceAck struct {
	Epoch int
	From  string
}

// StateReq asks a standby for its replication state (election evidence).
type StateReq struct {
	From string // endpoint to send the StateResp back to
}

// StateResp reports a standby's per-epoch contiguous applied prefixes and
// its current fence. Applied is a copy: the payload crosses the fabric by
// reference and must not alias the standby's live map.
type StateResp struct {
	From    string
	Applied map[int]uint64
	Fenced  int
}

// fenceMsgBytes is the wire size of fence/state-query control messages —
// small fixed-format datagrams like acks.
const fenceMsgBytes = ackBytes

// shipRec is a retained record plus its ship time (for ack latency).
type shipRec struct {
	rec Record
	at  sim.Time
}

// repState is the shipper's view of one replica.
type repState struct {
	name       string
	ack        uint64   // cumulative ack received
	lastHeard  sim.Time // last ack arrival (stalls during partitions)
	lastFill   sim.Time // last hole-triggered resend
	fillHi     uint64   // highest seq already resent to this replica
	progressAt sim.Time // last time ack advanced (repair go-back deadline)
	dead       bool     // ack stalled past DeadAfter under retention pressure
	lost       bool     // retention trimmed past its ack: unrecoverable this epoch
	labelID    int64    // interned trace label for this replica
	ackGauge   *metrics.Gauge
	ackLat     *metrics.Histogram // ship → covered-by-cumulative-ack, per record
}

// Shipper is the primary-side half: it runs in the hypervisor's crash
// domain (it must survive guest crashes, and keeps shipping through the
// PSU hold-up window), retains unacknowledged records, and repairs losses.
type Shipper struct {
	s     *sim.Sim
	cfg   Config
	epoch int
	ep    *netsim.Endpoint

	next     uint64 // seq the next Ship call gets; first record is seq 1
	base     uint64 // seq of retained[0]
	retained []shipRec
	reps     []*repState
	allLost  bool // every replica lost for the epoch: retention is pointless

	pending      []Record // shipped records awaiting the next frame flush
	pendingBytes int

	daemons []*sim.Proc // ack/probe/flush procs, retained so Stop can kill them
	stopped bool
	fenced  bool // a FenceMsg for a later epoch arrived: this shipper is deposed

	quorumSig *sim.Signal // broadcast whenever any replica's ack advances
	workSig   *sim.Signal // wakes the probe when records are outstanding
	flushSig  *sim.Signal // wakes the flusher on the 0→1 pending transition

	framePool []*frame
	bufPool   map[int][]*payloadBuf // size class (capacity) → free buffers

	tr       *obs.Tracer
	quorumHi uint64 // highest seq already traced as quorum-met

	lag       *metrics.Gauge // newest shipped seq − slowest replica ack, records
	retainedB *metrics.Gauge // bytes retained awaiting full acknowledgement
	shipped   *metrics.Counter
	shippedB  *metrics.Counter
	resends   *metrics.Counter
	evictions *metrics.Counter
	fenceRej  *metrics.Counter // stale-epoch acks/messages rejected
}

// NewShipper creates the primary side for one power epoch and starts its
// ack receiver and retransmit probe in dom (the hypervisor domain — both
// die with the machine, and a recovered machine builds a fresh Shipper
// under the next epoch).
func NewShipper(s *sim.Sim, fab *netsim.Fabric, dom *sim.Domain, epoch int, replicas []string, cfg Config) *Shipper {
	cfg.applyDefaults()
	reg := cfg.Reg
	sh := &Shipper{
		s:         s,
		cfg:       cfg,
		epoch:     epoch,
		ep:        fab.Endpoint(cfg.PrimaryName),
		next:      1,
		base:      1,
		quorumSig: s.NewSignal("repl.quorum"),
		workSig:   s.NewSignal("repl.work"),
		flushSig:  s.NewSignal("repl.flush"),
		bufPool:   make(map[int][]*payloadBuf),
		tr:        cfg.Trace,
		lag:       reg.Gauge("repl.lag"),
		retainedB: reg.Gauge("repl.retained_bytes"),
		shipped:   reg.Counter("repl.shipped"),
		shippedB:  reg.Counter("repl.shipped_bytes"),
		resends:   reg.Counter("repl.resends"),
		evictions: reg.Counter("repl.evictions"),
		fenceRej:  reg.Counter("ha.fence_rejections"),
	}
	for _, name := range replicas {
		sh.reps = append(sh.reps, &repState{
			name:     name,
			labelID:  cfg.Trace.Label(name),
			ackGauge: reg.Gauge("repl." + name + ".acked"),
			ackLat:   reg.Histogram("repl." + name + ".ack_latency"),
		})
	}
	sh.tr.Emit(s.Now().Duration(), obs.EvEpoch, 0, 0, int64(epoch), int64(len(replicas)))
	// A new epoch starts with nothing outstanding; the gauges are shared
	// across logger rebuilds and must restart from this shipper's reality
	// (peaks are preserved by the registry).
	sh.lag.Set(0)
	sh.retainedB.Set(0)
	sh.daemons = []*sim.Proc{
		s.Spawn(dom, fmt.Sprintf("repl.ack.e%d", epoch), sh.ackLoop),
		s.Spawn(dom, fmt.Sprintf("repl.probe.e%d", epoch), sh.probeLoop),
		s.Spawn(dom, fmt.Sprintf("repl.flush.e%d", epoch), sh.flushLoop),
	}
	return sh
}

// Stop shuts the shipper down in place: its ack/probe/flush daemons are
// killed (the domain stays live — this is a demotion, not a crash) and every
// payload-buffer reference the shipper itself holds, across the retained
// stream and the unflushed pending queue, is released back to the pools.
// Frames still in flight hold their own references and release themselves on
// delivery or drop, so Stop is safe while the fabric is busy. Stopping a
// shipper whose domain already died is a no-op kill (the daemons are gone)
// plus the same buffer release. Ship must not be called after Stop.
func (sh *Shipper) Stop() {
	if sh.stopped {
		return
	}
	sh.stopped = true
	for _, d := range sh.daemons {
		d.Kill()
	}
	for i := range sh.pending {
		sh.releasePBuf(sh.pending[i].buf)
		sh.pending[i] = Record{}
	}
	sh.pending = sh.pending[:0]
	sh.pendingBytes = 0
	freed := int64(0)
	for i := range sh.retained {
		freed += int64(len(sh.retained[i].rec.Data))
		sh.releasePBuf(sh.retained[i].rec.buf)
		sh.retained[i] = shipRec{}
	}
	sh.retained = sh.retained[:0]
	sh.base = sh.next
	sh.retainedB.Add(-freed)
	sh.lag.Set(0)
	sh.s.Tracef("repl: shipper epoch %d stopped (%d bytes released)", sh.epoch, freed)
}

// Stopped reports whether Stop has run.
func (sh *Shipper) Stopped() bool { return sh.stopped }

// Fenced reports whether a fence for a later epoch has reached this shipper:
// it has been deposed and its acks are being rejected cluster-wide.
func (sh *Shipper) Fenced() bool { return sh.fenced }

// getPBuf takes a payload buffer from the size-class pool (or grows one),
// already holding the retained stream's reference.
func (sh *Shipper) getPBuf(n int) *payloadBuf {
	c := 512
	for c < n {
		c <<= 1
	}
	if free := sh.bufPool[c]; len(free) > 0 {
		pb := free[len(free)-1]
		sh.bufPool[c] = free[:len(free)-1]
		pb.data = pb.data[:n]
		pb.refs = 1
		return pb
	}
	return &payloadBuf{data: make([]byte, n, c), refs: 1}
}

// releasePBuf drops one reference and pools the buffer when the last one
// dies. Nil-safe: records built outside Ship have no pooled buffer.
func (sh *Shipper) releasePBuf(pb *payloadBuf) {
	if pb == nil {
		return
	}
	if pb.refs--; pb.refs == 0 {
		c := cap(pb.data)
		sh.bufPool[c] = append(sh.bufPool[c], pb)
	}
}

func (sh *Shipper) getFrame() *frame {
	if n := len(sh.framePool); n > 0 {
		f := sh.framePool[n-1]
		sh.framePool = sh.framePool[:n-1]
		return f
	}
	return &frame{sh: sh}
}

// putFrame returns a dead frame to the pool, dropping the payload-buffer
// reference each of its records held. Entries are zeroed so a pooled frame
// does not pin payload arrays the truncated stream has let go of.
func (sh *Shipper) putFrame(f *frame) {
	for i := range f.recs {
		sh.releasePBuf(f.recs[i].buf)
		f.recs[i] = Record{}
	}
	f.recs = f.recs[:0]
	f.span = 0
	sh.framePool = append(sh.framePool, f)
}

// Epoch returns the shipper's power epoch.
func (sh *Shipper) Epoch() int { return sh.epoch }

// LastSeq returns the newest sequence number shipped this epoch.
func (sh *Shipper) LastSeq() uint64 { return sh.next - 1 }

// Lag returns the current replication lag in records: newest shipped seq
// minus the slowest replica's cumulative ack.
func (sh *Shipper) Lag() uint64 {
	minAck := sh.minAck()
	return sh.next - 1 - minAck
}

func (sh *Shipper) minAck() uint64 {
	m := sh.next - 1
	for _, r := range sh.reps {
		if r.ack < m {
			m = r.ack
		}
	}
	return m
}

// Ship copies data (callers reuse their buffers) into a retained,
// sequence-numbered record and queues it for the next frame flush. It never
// blocks — durability waiting is WaitQuorum's job — so it is safe on the
// Logger's hot path and inside degraded pass-through. Transmission is
// frame-batched: the record rides the next frame the flusher builds, at the
// same virtual timestamp as this call (signals do not advance time), so
// batching adds zero latency; a full batch flushes synchronously right
// here, so a producer that never yields still frames.
func (sh *Shipper) Ship(lba int64, data []byte) uint64 {
	if ss := sh.cfg.SectorSize; len(data) == 0 || len(data)%ss != 0 {
		panic(fmt.Sprintf("replica: Ship(lba %d) payload of %d bytes is not a whole number of %d-byte sectors", lba, len(data), ss))
	}
	pb := sh.getPBuf(len(data))
	copy(pb.data, data)
	seq := sh.next
	sh.next++
	// The caller (the Logger's ship hook) plants the buffer-entry span as
	// the implicit cause; the ship span bridges it to the wire.
	span := sh.tr.NewSpan()
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvShip, span, sh.tr.TakeCause(), int64(seq), int64(len(data)))
	rec := Record{Epoch: sh.epoch, Seq: seq, Lba: lba, Data: pb.data, Span: span, buf: pb}
	sh.retained = append(sh.retained, shipRec{rec: rec, at: sh.s.Now()})
	sh.retainedB.Add(int64(len(data)))
	sh.shipped.Inc()
	sh.shippedB.Add(int64(len(data)))
	// The pending queue holds its own buffer reference: if an all-replicas-
	// dead eviction truncates the stream past a record that has not framed
	// yet, the retained reference dies but the buffer stays live until the
	// frame that finally carries it does.
	pb.refs++
	sh.pending = append(sh.pending, rec)
	sh.pendingBytes += len(data)
	if len(sh.pending) >= maxFrameRecords || sh.pendingBytes >= maxFrameBytes {
		sh.flushPending()
	} else if len(sh.pending) == 1 {
		sh.flushSig.Broadcast()
	}
	sh.updateLag()
	sh.workSig.Broadcast()
	// With every replica lost for the epoch, no retransmission can ever
	// target this record and the probe that would otherwise trim is parked
	// (anyBehind ignores lost replicas) — drop the retention immediately or
	// it grows with every Ship until the next epoch. The pending queue's
	// own buffer reference keeps the frame path safe (see above).
	if sh.allLost {
		sh.truncate()
	}
	return seq
}

// flushLoop is the frame flusher. It is woken by the first record of a
// batch and runs the moment the producer yields — at the SAME virtual
// timestamp as the Ship that woke it — so every record shipped in the
// current instant coalesces into one frame per link with no added latency.
func (sh *Shipper) flushLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		for len(sh.pending) == 0 {
			sh.flushSig.Wait(p)
		}
		sh.flushPending()
	}
}

// flushPending cuts the pending queue into frames bounded by
// maxFrameRecords and maxFrameBytes and broadcasts each. The cut>0 guard
// lets a single record larger than maxFrameBytes ship alone rather than
// wedge the queue.
func (sh *Shipper) flushPending() {
	for len(sh.pending) > 0 {
		cut, bytes := 0, 0
		for cut < len(sh.pending) && cut < maxFrameRecords {
			if cut > 0 && bytes+len(sh.pending[cut].Data) > maxFrameBytes {
				break
			}
			bytes += len(sh.pending[cut].Data)
			cut++
		}
		sh.sendFrame(sh.pending[:cut], bytes)
		n := copy(sh.pending, sh.pending[cut:])
		for i := n; i < len(sh.pending); i++ {
			sh.pending[i] = Record{}
		}
		sh.pending = sh.pending[:n]
	}
	sh.pendingBytes = 0
}

// sendFrame broadcasts one pooled frame built from recs: one fabric send
// per replica per frame instead of one per record. The frame inherits the
// pending queue's payload-buffer references and starts with one frame
// reference per replica — a copy the fabric drops is released synchronously
// inside the send loop, so the frame must not be touched after it.
func (sh *Shipper) sendFrame(recs []Record, payloadBytes int) {
	f := sh.getFrame()
	f.epoch = sh.epoch
	f.recs = append(f.recs, recs...)
	f.span = sh.tr.NewSpan()
	wire := payloadBytes + len(recs)*recordOverhead + frameOverhead
	sh.tr.Emit(sh.s.Now().Duration(), obs.EvFrame, f.span, 0, int64(len(recs)), int64(wire))
	if len(sh.reps) == 0 {
		f.refs = 1
		f.Release()
		return
	}
	f.refs = len(sh.reps)
	for _, r := range sh.reps {
		sh.ep.SendCtx(r.name, wire, f, f.span)
	}
}

// QuorumSeq returns the highest sequence number held by at least k
// replicas (0 when k exceeds the replica count).
func (sh *Shipper) QuorumSeq(k int) uint64 {
	if k <= 0 {
		return sh.next - 1
	}
	if k > len(sh.reps) {
		return 0
	}
	acks := make([]uint64, len(sh.reps))
	for i, r := range sh.reps {
		acks[i] = r.ack
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[k-1]
}

// WaitQuorum parks p until at least k replicas hold seq. This is the ack
// policy's blocking point: the caller is a guest writer, and a partition
// stalls it here — no ack is ever issued that the policy cannot honour. A
// quorum the replica set can never form (k > replica count) is a config
// bug, not a wait: panic rather than park the writer forever.
// core.NewLogger rejects such configs up front via ReplicaCount.
func (sh *Shipper) WaitQuorum(p *sim.Proc, seq uint64, k int) {
	if k > len(sh.reps) {
		panic(fmt.Sprintf("replica: WaitQuorum(k=%d) with %d replicas can never be satisfied", k, len(sh.reps)))
	}
	for sh.QuorumSeq(k) < seq {
		sh.quorumSig.Wait(p)
	}
}

// ReplicaCount returns the number of standby replicas this shipper feeds.
// core.NewLogger uses it to reject an ack policy whose quorum the replica
// set can never satisfy.
func (sh *Shipper) ReplicaCount() int { return len(sh.reps) }

// RetentionBound returns the retained-bytes limit past which stalled
// replicas are evicted, and the grace an online monitor should allow above
// it: eviction legitimately takes an ack-stall window plus a couple of
// probe rounds, so only retention high for longer is a violation.
func (sh *Shipper) RetentionBound() (limit int64, grace time.Duration) {
	return sh.cfg.RetainLimit, sh.cfg.DeadAfter + 2*retransmitEvery
}

// ReplicaProgress is one replica's view for reports.
type ReplicaProgress struct {
	Name  string
	Acked uint64
}

// Progress returns per-replica cumulative acks in replica order.
func (sh *Shipper) Progress() []ReplicaProgress {
	out := make([]ReplicaProgress, len(sh.reps))
	for i, r := range sh.reps {
		out[i] = ReplicaProgress{Name: r.name, Acked: r.ack}
	}
	return out
}

func (sh *Shipper) rep(name string) *repState {
	for _, r := range sh.reps {
		if r.name == name {
			return r
		}
	}
	return nil
}

func (sh *Shipper) updateLag() {
	sh.lag.Set(int64(sh.next - 1 - sh.minAck()))
}

// retainMin is the truncation frontier: the slowest cumulative ack among
// replicas still participating. Dead replicas are excluded — that is the
// whole point of eviction — so trimming can pass them. When every replica
// is dead there is no participant left to hold the frontier back, and
// next-1 would drop the entire retained stream — permanently: revival
// requires the stream to still reach a standby's first missing record, so
// a full trim turns a transient all-standbys-stalled episode into
// lost-for-epoch even for a standby that acks moments later. The frontier
// instead falls back to a grace floor that trims only what RetainLimit
// forces, keeping the newest retained suffix revivable.
func (sh *Shipper) retainMin() uint64 {
	m := sh.next - 1
	alive := false
	for _, r := range sh.reps {
		if r.dead {
			continue
		}
		alive = true
		if r.ack < m {
			m = r.ack
		}
	}
	if !alive && len(sh.reps) > 0 {
		if sh.allLost {
			return sh.next - 1 // no replica can ever be repaired this epoch
		}
		return sh.graceFloor()
	}
	return m
}

// graceRetainFactor scales RetainLimit into the hard retention cap that
// applies while every replica is dead. Below the cap the stream holds at
// the slowest replica's ack, so the probe can still repair any standby
// that comes back; above it memory wins, the oldest records go, and the
// replicas that needed them turn lost for the epoch.
const graceRetainFactor = 4

// graceFloor is the all-replicas-dead truncation frontier: the slowest
// replica's cumulative ack (trimming past any replica's ack makes it
// unrevivable), overridden by a byte floor once the retained suffix would
// exceed graceRetainFactor × RetainLimit.
func (sh *Shipper) graceFloor() uint64 {
	m := sh.next - 1
	for _, r := range sh.reps {
		if r.ack < m {
			m = r.ack
		}
	}
	hard := graceRetainFactor * sh.cfg.RetainLimit
	var kept int64
	byteFloor := sh.base - 1
	for i := len(sh.retained) - 1; i >= 0; i-- {
		kept += int64(len(sh.retained[i].rec.Data))
		if kept > hard {
			byteFloor = sh.base + uint64(i)
			break
		}
	}
	if byteFloor > m {
		return byteFloor
	}
	return m
}

// truncate drops retained records every participating replica has
// acknowledged. A replica the trim passed (its first missing record is
// gone) is marked lost for the epoch: no amount of retransmission can fill
// its gap now, so repair stops targeting it and it re-syncs at the next
// epoch's stream.
func (sh *Shipper) truncate() {
	minAck := sh.retainMin()
	if minAck < sh.base {
		return
	}
	n := int(minAck - sh.base + 1)
	if n > len(sh.retained) {
		n = len(sh.retained)
	}
	freed := int64(0)
	for i := range sh.retained[:n] {
		freed += int64(len(sh.retained[i].rec.Data))
		sh.releasePBuf(sh.retained[i].rec.buf)
	}
	// Shift in place: the old copy-on-trim reallocated the backing array on
	// every ack round, which the steady-state zero-alloc discipline forbids.
	m := copy(sh.retained, sh.retained[n:])
	for i := m; i < len(sh.retained); i++ {
		sh.retained[i] = shipRec{}
	}
	sh.retained = sh.retained[:m]
	sh.base += uint64(n)
	sh.retainedB.Add(-freed)
	all := len(sh.reps) > 0
	for _, r := range sh.reps {
		if !r.lost && r.ack+1 < sh.base {
			r.lost = true
			sh.s.Tracef("repl: %s lost for epoch %d (ack %d, stream trimmed to %d)", r.name, sh.epoch, r.ack, sh.base)
		}
		all = all && r.lost
	}
	// Lost is terminal within an epoch (a lost replica's gap starts below
	// base, and base never moves back), so all-lost latches until the next
	// epoch's shipper.
	sh.allLost = all
}

// reapStalled enforces RetainLimit: while retained bytes exceed the bound,
// any replica whose ack has not advanced for DeadAfter is marked dead and
// the stream is trimmed past it. Dead is reversible — a late ack revives
// the replica if the stream still reaches back to its first missing record
// (see ackLoop); otherwise the trim has made it lost for the epoch.
func (sh *Shipper) reapStalled(now sim.Time) {
	if sh.retainedB.Value() <= sh.cfg.RetainLimit {
		return
	}
	evicted := false
	allDead := len(sh.reps) > 0
	for _, r := range sh.reps {
		if r.dead || r.ack >= sh.next-1 {
			allDead = allDead && r.dead
			continue
		}
		if now.Sub(r.progressAt) >= sh.cfg.DeadAfter {
			r.dead = true
			evicted = true
			sh.evictions.Inc()
			sh.tr.Emit(now.Duration(), obs.EvEvict, 0, 0, r.labelID, sh.retainedB.Value())
			sh.s.Tracef("repl: evicting %s (ack %d stalled %v, %d bytes retained)",
				r.name, r.ack, now.Sub(r.progressAt), sh.retainedB.Value())
		} else {
			allDead = false
		}
	}
	// With every replica dead no ack round will trim again, so keep calling
	// truncate from here: the grace floor holds the stream at the slowest
	// ack while it fits the hard cap and slides once it does not, keeping
	// retention bounded while the primary keeps shipping.
	if evicted || allDead {
		sh.truncate()
	}
}

// ackLoop receives cumulative acks, advances per-replica state, observes
// ack latency for newly covered records, and refills reported holes.
func (sh *Shipper) ackLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		m := sh.ep.Recv(p)
		if fm, ok := m.Payload.(FenceMsg); ok {
			// The cluster has fenced a later epoch: this shipper is deposed.
			// Acknowledge (so the coordinator's fence wait can complete even
			// with the old primary alive) and stop counting acks toward
			// quorum — a deposed stream must never commit.
			if fm.Epoch > sh.epoch {
				sh.fenced = true
				sh.ep.Send(fm.From, fenceMsgBytes, FenceAck{Epoch: fm.Epoch, From: sh.cfg.PrimaryName})
			}
			continue
		}
		am, ok := m.Payload.(ackMsg)
		if !ok {
			continue
		}
		if am.Epoch != sh.epoch {
			sh.fenceRej.Inc()
			continue // stale epoch: a standby acking a dead shipper's stream
		}
		if sh.fenced {
			sh.fenceRej.Inc()
			continue // deposed: acks no longer advance quorum
		}
		r := sh.rep(am.From)
		if r == nil {
			continue
		}
		now := sh.s.Now()
		r.lastHeard = now
		if am.Seq > r.ack {
			for seq := r.ack + 1; seq <= am.Seq; seq++ {
				if seq >= sh.base && int(seq-sh.base) < len(sh.retained) {
					sr := sh.retained[int(seq-sh.base)]
					r.ackLat.Observe(now.Sub(sr.at))
					sh.tr.Emit(now.Duration(), obs.EvReplicaAck, 0, sr.rec.Span, int64(seq), r.labelID)
				}
			}
			r.ack = am.Seq
			r.progressAt = now
			r.ackGauge.Set(int64(am.Seq))
			// A late ack revives an evicted replica — but only if the
			// retained stream still reaches back to its first missing
			// record; past that, it stays lost until the next epoch.
			if r.ack+1 >= sh.base {
				r.dead, r.lost = false, false
			}
			sh.traceQuorum(now)
			sh.truncate()
			sh.updateLag()
			sh.quorumSig.Broadcast()
		}
		// The standby has received past a gap it cannot apply: refill the
		// window right away instead of waiting out the probe interval. A
		// lost replica's gap starts before the retained stream — there is
		// nothing to refill it with.
		if !r.lost && am.Seen > am.Seq && r.ack < sh.next-1 && now.Sub(r.lastFill) >= holeResendMin {
			r.lastFill = now
			sh.resendWindow(r)
		}
	}
}

// traceQuorum emits EvQuorumMet for every sequence that newly reached the
// configured quorum, parented under the record's ship span. It runs before
// truncate so the retained stream still holds the spans; a sequence whose
// record was already trimmed (dead-replica eviction) is traced with no
// parent rather than dropped.
func (sh *Shipper) traceQuorum(now sim.Time) {
	k := sh.cfg.TraceQuorumK
	if k <= 0 || !sh.tr.Enabled() {
		return
	}
	q := sh.QuorumSeq(k)
	for seq := sh.quorumHi + 1; seq <= q; seq++ {
		var parent obs.SpanID
		if seq >= sh.base && int(seq-sh.base) < len(sh.retained) {
			parent = sh.retained[int(seq-sh.base)].rec.Span
		}
		sh.tr.Emit(now.Duration(), obs.EvQuorumMet, 0, parent, int64(seq), int64(k))
	}
	if q > sh.quorumHi {
		sh.quorumHi = q
	}
}

// probeLoop resends the oldest unacknowledged window to any replica that
// has been silent for a full retransmit interval — the slow path that
// catches a replica back up after a partition heals or a restart, when no
// acks are flowing to trigger hole repair. It parks when nothing is
// outstanding, so an idle deployment schedules no timer churn.
func (sh *Shipper) probeLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		if !sh.anyBehind() {
			sh.workSig.Wait(p)
			continue
		}
		p.Sleep(retransmitEvery)
		now := sh.s.Now()
		sh.reapStalled(now)
		for _, r := range sh.reps {
			if r.lost || r.ack >= sh.next-1 {
				continue
			}
			if now.Sub(r.lastHeard) < retransmitEvery {
				continue // acks are flowing; hole repair owns the fast path
			}
			sh.resendWindow(r)
		}
	}
}

func (sh *Shipper) anyBehind() bool {
	for _, r := range sh.reps {
		if !r.lost && r.ack < sh.next-1 {
			return true
		}
	}
	return false
}

// resendWindow retransmits up to resendRecords retained records towards one
// replica's first unacknowledged sequence. Repair is pipelined: while the
// replica's cumulative ack is advancing, each round extends past what was
// already resent instead of resending overlapping windows — overlapping
// windows saturate the link's bandwidth exactly when it is trying to catch
// up, and the resulting duplicate flood collapses the repair rate. Only
// when progress stalls for a full retransmit interval does the window go
// back to ack+1 (the earlier refill evidently died on the wire). The total
// repair pipeline is bounded so a slow replica cannot accumulate unbounded
// in-flight bytes.
func (sh *Shipper) resendWindow(r *repState) {
	now := sh.s.Now()
	lo := r.ack + 1
	if lo < sh.base {
		lo = sh.base
	}
	if r.fillHi >= lo && now.Sub(r.progressAt) < retransmitEvery {
		lo = r.fillHi + 1
	}
	hi := sh.next - 1
	if maxAhead := uint64(resendRecords) * 8; hi > r.ack+maxAhead {
		hi = r.ack + maxAhead
	}
	if span := uint64(resendRecords); hi >= lo && hi-lo+1 > span {
		hi = lo + span - 1
	}
	if hi < lo {
		return
	}
	// Repair is frame-granular too: retained records are rebatched into
	// frames of the same shape as fresh sends, unicast to the one replica
	// being repaired (refs = 1). Each record in a repair frame takes its own
	// payload-buffer reference, so a truncate racing the repair in virtual
	// time cannot recycle a buffer the frame still carries.
	sh.resends.Add(int64(hi - lo + 1))
	for seq := lo; seq <= hi; {
		f := sh.getFrame()
		f.epoch = sh.epoch
		bytes := 0
		for seq <= hi && len(f.recs) < maxFrameRecords {
			rec := sh.retained[int(seq-sh.base)].rec
			if len(f.recs) > 0 && bytes+len(rec.Data) > maxFrameBytes {
				break
			}
			if rec.buf != nil {
				rec.buf.refs++
			}
			f.recs = append(f.recs, rec)
			bytes += len(rec.Data)
			seq++
		}
		f.span = sh.tr.NewSpan()
		wire := bytes + len(f.recs)*recordOverhead + frameOverhead
		sh.tr.Emit(now.Duration(), obs.EvFrame, f.span, 0, int64(len(f.recs)), int64(wire))
		f.refs = 1
		sh.ep.SendCtx(r.name, wire, f, f.span)
	}
	sh.tr.Emit(now.Duration(), obs.EvRepair, 0, 0, r.labelID, int64(hi-lo+1))
	r.fillHi = hi
}

// Standby is one remote replica: a receiver in its own crash domain that
// applies the record stream in order and holds the applied log durably
// (its store survives its own crashes; only the receiver process dies).
type Standby struct {
	s    *sim.Sim
	fab  *netsim.Fabric
	name string
	cfg  Config
	dom  *sim.Domain
	ep   *netsim.Endpoint

	alive   bool
	fenced  int                       // lowest epoch still accepted; below it everything is rejected
	applied map[int]uint64            // per-epoch contiguous applied prefix
	seen    map[int]uint64            // per-epoch highest seq ever received
	ooo     map[int]map[uint64]Record // buffered out-of-order arrivals
	log     []Record                  // applied records, in apply order
	arena   []byte                    // append-only copy space for kept payloads

	appliedC *metrics.Counter
	dupC     *metrics.Counter
	oooC     *metrics.Counter
	fenceRej *metrics.Counter

	tr      *obs.Tracer
	labelID int64
}

// NewStandby creates a standby replica and starts its receiver. The domain
// is created directly on the simulation — deliberately outside the
// machine's crash domains, because the standby models a different machine.
func NewStandby(s *sim.Sim, fab *netsim.Fabric, name string, cfg Config) *Standby {
	cfg.applyDefaults()
	reg := cfg.Reg
	st := &Standby{
		s:        s,
		fab:      fab,
		name:     name,
		cfg:      cfg,
		dom:      s.NewDomain("replica." + name),
		ep:       fab.Endpoint(name),
		alive:    true,
		applied:  make(map[int]uint64),
		seen:     make(map[int]uint64),
		ooo:      make(map[int]map[uint64]Record),
		appliedC: reg.Counter("repl." + name + ".applied"),
		dupC:     reg.Counter("repl." + name + ".dups"),
		oooC:     reg.Counter("repl." + name + ".out_of_order"),
		fenceRej: reg.Counter("ha.fence_rejections"),
		tr:       cfg.Trace,
		labelID:  cfg.Trace.Label(name),
	}
	st.spawnReceiver()
	return st
}

// Name returns the standby's fabric endpoint name.
func (st *Standby) Name() string { return st.name }

// Alive reports whether the standby is up (its receiver running).
func (st *Standby) Alive() bool { return st.alive }

// AppliedSeq returns the contiguous applied prefix for an epoch.
func (st *Standby) AppliedSeq(epoch int) uint64 { return st.applied[epoch] }

// Records returns the standby's applied log (live; callers must not
// mutate). Records survive crashes — the store is durable, the process is
// not.
func (st *Standby) Records() []Record { return st.log }

// Epochs returns the epochs this standby holds records for, ascending.
func (st *Standby) Epochs() []int {
	out := make([]int, 0, len(st.applied))
	for e := range st.applied {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// Crash kills the standby: its receiver dies, its network port goes down
// (in-flight packets to it are lost), but its applied log — durable
// storage — survives for Restart and for recovery.
func (st *Standby) Crash() {
	if !st.alive {
		return
	}
	st.alive = false
	st.fab.Isolate(st.name)
	st.dom.Kill()
	st.s.Tracef("replica %s: crashed (%d records held)", st.name, len(st.log))
}

// Restart brings a crashed standby back: the NIC queue that died with the
// node is discarded, the port comes back up, and a fresh receiver resumes
// from the durable applied state. Catch-up is the shipper's retransmit
// protocol doing its job.
func (st *Standby) Restart() {
	if st.alive {
		return
	}
	st.alive = true
	for {
		m, ok := st.ep.TryRecv()
		if !ok {
			break
		}
		// The NIC queue dies with the node — but a discarded frame is still
		// a reference the shipper's pool is waiting on.
		if rc, ok := m.Payload.(netsim.Refcounted); ok {
			rc.Release()
		}
	}
	st.fab.Restore(st.name)
	st.dom.Revive()
	st.spawnReceiver()
	st.s.Tracef("replica %s: restarted at %v", st.name, st.s.Now())
}

func (st *Standby) spawnReceiver() {
	st.s.Spawn(st.dom, "replica."+st.name, func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			m := st.ep.Recv(p)
			var epochs []int
			ackTo := make(map[int]string)
			applied := 0
			st.handle(m, &epochs, ackTo, &applied)
			for {
				m2, ok := st.ep.TryRecv()
				if !ok {
					break
				}
				st.handle(m2, &epochs, ackTo, &applied)
			}
			if applied > 0 {
				p.Sleep(time.Duration(applied) * applyDelay)
			}
			// One cumulative ack per epoch touched in this batch, addressed
			// to whichever shipper carried that epoch's frames: a standby
			// outlives leaders, so the ack target is the stream's sender,
			// not a fixed endpoint.
			sort.Ints(epochs)
			for _, e := range epochs {
				to := ackTo[e]
				if to == "" {
					to = st.cfg.PrimaryName
				}
				st.ep.Send(to, ackBytes, ackMsg{
					Epoch: e, Seq: st.applied[e], Seen: st.maxSeen(e), From: st.name,
				})
			}
		}
	})
}

// handle dispatches one inbound message: a frame is applied record by
// record in one pass and then released back to its shipper's pool; a bare
// Record (older senders, tests) takes the same per-record path. Either way
// the batch accounting in the receiver yields ONE cumulative ack per epoch
// per wakeup — the ack-coalescing half of frame shipping.
func (st *Standby) handle(m netsim.Message, epochs *[]int, ackTo map[int]string, applied *int) {
	switch pl := m.Payload.(type) {
	case *frame:
		for i := range pl.recs {
			st.handleRec(pl.recs[i], m.From, epochs, ackTo, applied)
		}
		pl.Release()
	case Record:
		st.handleRec(pl, m.From, epochs, ackTo, applied)
	case FenceMsg:
		// Fencing is monotone: the fence only ever rises. The ack always
		// reports the current fence so a duplicate or stale fence still
		// completes the coordinator's wait.
		if pl.Epoch > st.fenced {
			st.fenced = pl.Epoch
			st.s.Tracef("replica %s: fenced at epoch %d", st.name, pl.Epoch)
		}
		st.ep.Send(pl.From, fenceMsgBytes, FenceAck{Epoch: st.fenced, From: st.name})
	case StateReq:
		st.ep.Send(pl.From, fenceMsgBytes, st.stateResp())
	}
}

// stateResp snapshots the standby's election evidence. The applied map is
// copied: the response crosses the fabric by reference.
func (st *Standby) stateResp() StateResp {
	ap := make(map[int]uint64, len(st.applied))
	for e, seq := range st.applied {
		ap[e] = seq
	}
	return StateResp{From: st.name, Applied: ap, Fenced: st.fenced}
}

// Fenced returns the standby's current fence epoch.
func (st *Standby) Fenced() int { return st.fenced }

// copyData copies a wire payload into the standby's append-only arena.
// Anything the standby keeps — applied log entries and the out-of-order
// stash alike — must be its own copy: the shipper's pooled buffers are
// recycled once every reference dies, while a duplicate frame may still
// deliver long after. Chunked growth amortises the copies to zero
// allocations per record at steady state.
func (st *Standby) copyData(d []byte) []byte {
	const chunk = 256 << 10
	if len(d) > cap(st.arena)-len(st.arena) {
		sz := chunk
		if len(d) > sz {
			sz = len(d)
		}
		st.arena = make([]byte, 0, sz)
	}
	n := len(st.arena)
	st.arena = append(st.arena, d...)
	return st.arena[n : n+len(d) : n+len(d)]
}

// handleRec processes one inbound record: apply in order, buffer ahead-of-
// order arrivals, re-acknowledge duplicates.
func (st *Standby) handleRec(rec Record, from string, epochs *[]int, ackTo map[int]string, applied *int) {
	e := rec.Epoch
	if e < st.fenced {
		// A deposed shipper's stream: reject without applying or acking, so
		// the stale epoch can never gather quorum evidence after promotion.
		st.fenceRej.Inc()
		return
	}
	touched := false
	for _, seen := range *epochs {
		if seen == e {
			touched = true
			break
		}
	}
	if !touched {
		*epochs = append(*epochs, e)
	}
	ackTo[e] = from
	if rec.Seq > st.seen[e] {
		st.seen[e] = rec.Seq
	}
	switch ap := st.applied[e]; {
	case rec.Seq <= ap:
		st.dupC.Inc() // duplicate or already-covered resend: just re-ack
	case rec.Seq == ap+1:
		rec.Data, rec.buf = st.copyData(rec.Data), nil
		st.apply(rec)
		*applied++
		for {
			nxt, ok := st.ooo[e][st.applied[e]+1]
			if !ok {
				break
			}
			delete(st.ooo[e], st.applied[e]+1)
			st.apply(nxt)
			*applied++
		}
	default:
		if st.ooo[e] == nil {
			st.ooo[e] = make(map[uint64]Record)
		}
		if _, dup := st.ooo[e][rec.Seq]; !dup {
			rec.Data, rec.buf = st.copyData(rec.Data), nil
			st.ooo[e][rec.Seq] = rec
			st.oooC.Inc()
		}
	}
}

func (st *Standby) apply(rec Record) {
	st.applied[rec.Epoch] = rec.Seq
	st.log = append(st.log, rec)
	st.appliedC.Inc()
	st.tr.Emit(st.s.Now().Duration(), obs.EvReplicaApply, 0, rec.Span, int64(rec.Seq), st.labelID)
}

// maxSeen returns the highest sequence this standby has received for an
// epoch — applied prefix or anything that ever arrived ahead of it. Tracked
// incrementally: the receiver acks often, and scanning the out-of-order
// stash per ack is quadratic in the backlog a partition leaves behind.
func (st *Standby) maxSeen(epoch int) uint64 {
	if m := st.seen[epoch]; m > st.applied[epoch] {
		return m
	}
	return st.applied[epoch]
}

// RecoverReport summarises a replica-side recovery replay.
type RecoverReport struct {
	Epochs  int   // epochs replayed
	Entries int   // records contributing to the image
	Bytes   int64 // record payload bytes
	Runs    int   // coalesced sequential writes issued
	From    []string
}

// Recover replays the replicated log into the log partition at boot: for
// every epoch any alive standby holds, the standby with the longest
// applied prefix contributes its records. Because each standby applies
// strictly in order, its log is a contiguous prefix of the stream — the
// longest prefix is a superset of every ack the dead primary ever issued
// against surviving replicas.
//
// Records are folded into a sector image in (epoch, seq) order — later
// writes win, exactly the order the drain would have used — and the image
// lands in coalesced sequential bursts rather than per-record seeks, like
// any sane restore path. Replaying more than was acknowledged is harmless:
// log-partition writes are idempotent sector rewrites, and the engine's
// own scan decides what the log tail means.
func Recover(p *sim.Proc, standbys []*Standby, logDev disk.Device) (RecoverReport, error) {
	var rep RecoverReport
	epochSet := make(map[int]bool)
	for _, st := range standbys {
		if !st.Alive() {
			continue
		}
		for _, e := range st.Epochs() {
			epochSet[e] = true
		}
	}
	epochs := make([]int, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	rep.Epochs = len(epochs)

	ss := int64(logDev.SectorSize())
	img := make(map[int64][]byte) // sector → newest data for it
	for _, e := range epochs {
		var best *Standby
		for _, st := range standbys {
			if st.Alive() && (best == nil || st.AppliedSeq(e) > best.AppliedSeq(e)) {
				best = st
			}
		}
		rep.From = append(rep.From, fmt.Sprintf("%s:e%d≤%d", best.Name(), e, best.AppliedSeq(e)))
		for _, rec := range best.Records() {
			if rec.Epoch != e {
				continue
			}
			rep.Entries++
			rep.Bytes += int64(len(rec.Data))
			if int64(len(rec.Data))%ss != 0 {
				return rep, fmt.Errorf("replica recover: record e%d seq %d at lba %d: %d bytes is not a whole number of %d-byte sectors",
					e, rec.Seq, rec.Lba, len(rec.Data), ss)
			}
			nsec := int64(len(rec.Data)) / ss
			for i := int64(0); i < nsec; i++ {
				img[rec.Lba+i] = rec.Data[i*ss : (i+1)*ss]
			}
		}
	}
	if len(img) == 0 {
		return rep, nil
	}

	lbas := make([]int64, 0, len(img))
	for lba := range img {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	run := make([]byte, 0, 1<<20)
	start := lbas[0]
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		rep.Runs++
		err := logDev.Write(p, start, run, true)
		run = run[:0]
		return err
	}
	for i, lba := range lbas {
		if i > 0 && lba != lbas[i-1]+1 {
			if err := flush(); err != nil {
				return rep, fmt.Errorf("replica recover: %w", err)
			}
			start = lba
		}
		run = append(run, img[lba]...)
	}
	if err := flush(); err != nil {
		return rep, fmt.Errorf("replica recover: %w", err)
	}
	return rep, nil
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("replica replay: %d entries (%d bytes) from %d epochs in %d writes %v",
		r.Entries, r.Bytes, r.Epochs, r.Runs, r.From)
}
