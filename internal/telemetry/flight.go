package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one flight-recorder entry: a structured lifecycle event
// (admission, queue exit, retry, breaker transition, fault, terminal
// status) correlated to a job id where one exists.
type Event struct {
	// Seq is the event's slot sequence within its shard ring
	// (monotonic per ring, not global).
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the host capture time.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Shard is the pool shard key the event belongs to ("server" for
	// events before a request resolves to a shard).
	Shard string `json:"shard,omitempty"`
	// Kind names the event (job_admitted, queue_exit, job_retry,
	// breaker_open, fault_injected, job_done, ...).
	Kind string `json:"kind"`
	// JobID correlates the event with a request id (0 = shard-level
	// event such as a breaker transition).
	JobID uint64 `json:"job_id,omitempty"`
	// Detail is free-form context: status, error, attempt number.
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-capacity lock-free ring of recent events.
// Writers reserve a slot with one atomic add and publish the event
// with one atomic pointer store, so recording never blocks the hot
// path and is race-detector-clean under concurrent writers. Readers
// snapshot without stopping writers; an event overwritten mid-read is
// simply skipped (its slot's sequence no longer matches).
type FlightRecorder struct {
	mask uint64
	seq  atomic.Uint64
	slot []atomic.Pointer[Event]
}

// DefaultFlightCap is the per-ring event capacity when none is given.
const DefaultFlightCap = 1024

// NewFlightRecorder builds a ring holding the most recent capacity
// events (rounded up to a power of two; <= 0 selects
// DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slot: make([]atomic.Pointer[Event], n)}
}

// Cap returns the ring capacity in events.
func (r *FlightRecorder) Cap() int { return len(r.slot) }

// Recorded returns the total number of events ever recorded (not the
// number still resident).
func (r *FlightRecorder) Recorded() uint64 { return r.seq.Load() }

// Record stores one event, overwriting the oldest slot at capacity.
// ev.Seq and, when zero, ev.TimeUnixNano are stamped here.
func (r *FlightRecorder) Record(ev Event) {
	e := new(Event)
	*e = ev
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	e.Seq = r.seq.Add(1) - 1
	r.slot[e.Seq&r.mask].Store(e)
}

// Snapshot returns the resident events in recording order. Events
// overwritten while snapshotting are skipped, never torn: each slot
// holds an immutable *Event and the sequence check rejects mismatched
// generations.
func (r *FlightRecorder) Snapshot() []Event {
	hi := r.seq.Load()
	lo := uint64(0)
	if n := uint64(len(r.slot)); hi > n {
		lo = hi - n
	}
	out := make([]Event, 0, hi-lo)
	for s := lo; s < hi; s++ {
		if e := r.slot[s&r.mask].Load(); e != nil && e.Seq == s {
			out = append(out, *e)
		}
	}
	return out
}

// Flight is the server-wide flight recorder: one ring per pool shard
// (plus the synthetic "server" ring for events recorded before a
// request resolves to a shard), created lazily on first record.
type Flight struct {
	perShard int

	mu    sync.RWMutex
	rings map[string]*FlightRecorder
}

// NewFlight builds a flight recorder holding perShard events per
// shard ring (<= 0 selects DefaultFlightCap).
func NewFlight(perShard int) *Flight {
	if perShard <= 0 {
		perShard = DefaultFlightCap
	}
	return &Flight{perShard: perShard, rings: make(map[string]*FlightRecorder)}
}

// Ring returns (creating on first use) the shard's ring.
func (f *Flight) Ring(shard string) *FlightRecorder {
	f.mu.RLock()
	r, ok := f.rings[shard]
	f.mu.RUnlock()
	if ok {
		return r
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok = f.rings[shard]; !ok {
		r = NewFlightRecorder(f.perShard)
		f.rings[shard] = r
	}
	return r
}

// Record stores one event on the shard's ring, stamping Shard.
func (f *Flight) Record(shard, kind string, jobID uint64, detail string) {
	f.Ring(shard).Record(Event{Shard: shard, Kind: kind, JobID: jobID, Detail: detail})
}

// Recorded returns the total events ever recorded across all rings.
func (f *Flight) Recorded() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n uint64
	for _, r := range f.rings {
		n += r.Recorded()
	}
	return n
}

// SnapshotAll merges every shard ring into one time-ordered event
// list — the /v1/debug/flightrecorder and SIGQUIT dump body.
func (f *Flight) SnapshotAll() []Event {
	f.mu.RLock()
	rings := make([]*FlightRecorder, 0, len(f.rings))
	for _, r := range f.rings {
		rings = append(rings, r)
	}
	f.mu.RUnlock()
	var out []Event
	for _, r := range rings {
		out = append(out, r.Snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TimeUnixNano != out[j].TimeUnixNano {
			return out[i].TimeUnixNano < out[j].TimeUnixNano
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// SnapshotJob returns the merged events correlated to one job id.
func (f *Flight) SnapshotJob(jobID uint64) []Event {
	all := f.SnapshotAll()
	out := make([]Event, 0, 8)
	for _, e := range all {
		if e.JobID == jobID {
			out = append(out, e)
		}
	}
	return out
}
