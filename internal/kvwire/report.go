package kvwire

import (
	"runtime"

	"repro/internal/latency"
	"repro/internal/obs"
)

// Row is one (tenant, op) latency record, the composebench -json row
// shape extended with the percentile fields the service layer reports:
// per-tenant, per-op p50/p99/p999 read out of merged HDR histograms.
// In kvload output the latencies are response times measured from each
// request's *intended* (scheduled) send time, so queueing a stalled
// server causes shows up in the tail instead of being coordinated-
// omission'd away; in kvserver STATS output they are server-side
// service times.
type Row struct {
	Figure  string `json:"figure"` // "kvload" or "kvserver"
	Tenant  string `json:"tenant"` // tenant id, or "all"
	Op      string `json:"op"`     // protocol verb, or "all"
	Threads int    `json:"threads"`
	Ops     uint64 `json:"ops"`

	OpsPerSec float64 `json:"ops_per_sec"`
	MeanNS    float64 `json:"mean_ns"`
	P50NS     int64   `json:"p50_ns"`
	P99NS     int64   `json:"p99_ns"`
	P999NS    int64   `json:"p999_ns"`
	MaxNS     int64   `json:"max_ns"`

	// Late counts requests dispatched behind their intended schedule
	// slot (kvload only): nonzero means the open-loop generator could
	// not keep up and tail percentiles include backlog wait, exactly as
	// they should.
	Late uint64 `json:"late,omitempty"`
}

// RowFrom fills a Row from a merged snapshot. wallNS is the measured
// interval the ops were recorded over (for ops/s; <= 0 omits it).
func RowFrom(figure, tenant, op string, threads int, s latency.Snapshot, wallNS float64) Row {
	r := Row{
		Figure: figure, Tenant: tenant, Op: op, Threads: threads,
		Ops:    s.Count,
		MeanNS: s.MeanNS(),
		P50NS:  s.Percentile(0.50),
		P99NS:  s.Percentile(0.99),
		P999NS: s.Percentile(0.999),
		MaxNS:  s.MaxNS,
	}
	if wallNS > 0 {
		r.OpsPerSec = float64(s.Count) * 1e9 / wallNS
	}
	return r
}

// StageRow is one request-stage latency record: the same percentile
// shape as Row, but over the span layer's stage dimension (queue wait,
// parse, execute, degrade, write) merged across workers. kvserver
// attaches them to STATS output and kvload prints them next to its
// client-side percentiles, so a fat tail is attributable to a stage
// without a second scrape.
type StageRow struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// StageRowFrom fills a StageRow from a stage's merged snapshot.
func StageRowFrom(stage string, s latency.Snapshot) StageRow {
	return StageRow{
		Stage:  stage,
		Count:  s.Count,
		MeanNS: s.MeanNS(),
		P50NS:  s.Percentile(0.50),
		P99NS:  s.Percentile(0.99),
		P999NS: s.Percentile(0.999),
		MaxNS:  s.Max(),
	}
}

// SlowDoc is the SLOW verb's one-line JSON document: the server's tail
// exemplars (slowest requests' spans, full stage breakdown each,
// slowest first) plus the threshold gate that admitted them and the
// count of completed spans overwritten unread. Each exemplar's own
// JSON form carries the "span":1 discriminator, so a SlowDoc exemplar
// pasted into a JSONL trace file still parses as a span record.
type SlowDoc struct {
	// ThresholdNS is the exemplar gate at snapshot time: the windowed
	// p99 the span layer self-tunes to (0 until the first control
	// window closes — every span admitted).
	ThresholdNS int64 `json:"threshold_ns"`
	// Dropped counts completed spans overwritten in the per-worker
	// rings before any reader saw them.
	Dropped uint64 `json:"dropped"`
	// Exemplars are the retained slowest spans, slowest first.
	Exemplars []obs.Span `json:"exemplars"`
}

// Audit is the conservation verdict of one kvload run: the change in
// totals the client expects from its tracked successful responses
// against the change the server's AUDIT command observed between the
// start of the run and quiesce. Moves, transfers and drains must leave
// all three invariant — an entry relocated between tenants is in
// exactly one map (or queue) at every instant, so only PUT/DEL (and
// PUSH/POP) change the totals. Auditing changes rather than totals
// lets a run against a server that already holds data pass as cleanly
// as one against a fresh server; the run must be the server's only
// client.
type Audit struct {
	Pass bool `json:"pass"`

	// The server's totals before the run (its AUDIT answer ahead of
	// the prefill).
	BaseMapCount   uint64 `json:"base_map_count"`
	BaseMapSum     uint64 `json:"base_map_sum"`
	BaseQueueCount uint64 `json:"base_queue_count"`

	// Signed changes over the run. Map value-sums wrap (two's
	// complement); equality still witnesses the value multiset when
	// values are unique random tokens.
	ExpectMapCount   int64 `json:"expect_map_count"`
	GotMapCount      int64 `json:"got_map_count"`
	ExpectMapSum     int64 `json:"expect_map_sum"`
	GotMapSum        int64 `json:"got_map_sum"`
	ExpectQueueCount int64 `json:"expect_queue_count"`
	GotQueueCount    int64 `json:"got_queue_count"`
}

// RobustCounters is the degradation-path accounting both binaries
// attach to their JSON documents, so a chaos run's overload and fault
// behavior is machine-checkable alongside the latency rows. kvserver
// fills the server-side fields in STATS output; kvload fills the
// client-side fields in its report. Zero-valued fields are still
// emitted: a chaos assertion greps for exact counts, and "absent"
// must not alias "zero".
type RobustCounters struct {
	// Busy: BUSY responses (kvserver: sent; kvload: received).
	Busy uint64 `json:"busy"`
	// Timeouts: kvserver counts TIMEOUT responses sent (per-request
	// deadline expiries); kvload counts connection-level timeouts it
	// observed (no response within -timeout).
	Timeouts uint64 `json:"timeouts"`
	// Retries is the number of retry attempts kvload issued after BUSY/
	// TIMEOUT responses or neutral-op connection timeouts.
	Retries uint64 `json:"retries"`
	// Ambiguous counts kvload connection timeouts on operations whose
	// execution state is unknowable (PUT/DEL/PUSH/POP: the request may
	// have executed and the response been lost) — never retried, and
	// excluded from the client's conservation expectations.
	Ambiguous uint64 `json:"ambiguous"`
	// Shed counts operations the kvserver overload controller rejected
	// with BUSY to protect the configured SLO.
	Shed uint64 `json:"shed"`
	// ShedLevel is the controller's shed level at snapshot time: tenants
	// with id >= Tenants-ShedLevel are currently being shed (0: none).
	ShedLevel int `json:"shed_level"`
	// SlowClients counts connections kvserver dropped because a response
	// write exceeded the per-connection write timeout.
	SlowClients uint64 `json:"slow_clients"`
	// LostWorkers counts worker threads kvserver retired after a fault
	// action (hard-kill) terminated their goroutine mid-operation; the
	// server degrades by that much capacity and keeps serving.
	LostWorkers uint64 `json:"lost_workers"`
	// Drained marks the final STATS document emitted by the SIGTERM
	// graceful-drain path.
	Drained bool `json:"drained"`
}

// Doc is the top-level JSON document both binaries emit: the
// composebench -json layout (host_cpus + contended honesty flags, then
// rows) extended with the load generator's schedule parameters and
// conservation audit.
type Doc struct {
	HostCPUs  int  `json:"host_cpus"`
	Contended bool `json:"contended"`

	// RateRPS/DurationMS/Conns describe the kvload schedule (omitted in
	// kvserver STATS output).
	RateRPS    float64 `json:"rate_rps,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Conns      int     `json:"conns,omitempty"`

	Audit  *Audit          `json:"audit,omitempty"`
	Robust *RobustCounters `json:"robust,omitempty"`

	// Obs is the metrics-registry snapshot (series name → value) taken
	// when the document was built — the same names, from the same
	// registry, that the METRICS verb and cmd/stress report, documented
	// in docs/observability.md. Like RobustCounters it is kept
	// non-omitempty per series: when the map is present every known
	// series appears even at zero, because "absent" must not alias
	// "zero" for grep-style assertions. Nil only when the registry is
	// disabled (kvserver -metrics=false) or the emitter has none
	// (kvload reports).
	Obs map[string]uint64 `json:"obs,omitempty"`

	// Stages is the server-side per-stage latency breakdown (span layer
	// merged across workers), present when spans are enabled. kvload
	// echoes it from the server's STATS response into its own report.
	Stages []StageRow `json:"stages,omitempty"`

	Rows []Row `json:"rows"`
}

// NewDoc returns a Doc with the host-honesty fields filled the same
// way composebench fills them: Contended is false when the process had
// one schedulable CPU, in which case "concurrent" latencies were
// time-sliced and must not be compared against contended runs.
func NewDoc() Doc {
	return Doc{HostCPUs: runtime.NumCPU(), Contended: runtime.GOMAXPROCS(0) > 1}
}
