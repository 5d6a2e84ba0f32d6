//! Live service telemetry: per-request records, rolling aggregation, and
//! a flight recorder.
//!
//! Every completed request produces one [`RequestRecord`] attributing its
//! latency to the pipeline phases (decode, queue wait, cache lookup,
//! translate, solve, response encode). [`ServiceTelemetry`] folds records
//! into log₂-binned latency histograms (the same binning as
//! [`mca_obs::Histogram`]) per request kind, counters per outcome and
//! cache disposition, a rolling current/previous window pair, and a
//! bounded flight recorder: a ring of the last N records plus the K
//! slowest requests seen since startup.
//!
//! The aggregate state lives behind one mutex that is only held for the
//! few map updates per request — never across the cache, the admission
//! queue, or any I/O — so a `Metrics`/`FlightDump` scrape can never
//! deadlock against in-flight work. Wall-clock durations stay inside
//! this opt-in telemetry surface; verdict payloads remain byte-exact
//! regardless of whether telemetry is enabled (the determinism contract
//! from PR 7).

use crate::cache::CacheStats;
use mca_obs::json::Json;
use mca_obs::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Tuning knobs for [`ServiceTelemetry`]. All have serviceable defaults;
/// `repro serve` exposes them as `--ring-cap`, `--slowest-cap`, and
/// `--window-secs`.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Record per-request telemetry at all. Defaults to `true`; the
    /// disabled path is one branch per request.
    pub enabled: bool,
    /// How many recent [`RequestRecord`]s the flight-recorder ring keeps.
    pub ring_capacity: usize,
    /// How many all-time-slowest requests are retained.
    pub slowest_capacity: usize,
    /// Width of the rolling aggregation window in seconds.
    pub window_secs: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            ring_capacity: 256,
            slowest_capacity: 16,
            window_secs: 60,
        }
    }
}

/// One completed request with its latency attribution. All durations are
/// nanoseconds on the serving thread's monotonic clock; `total_ns` covers
/// frame-read-complete to response-encode-complete and is therefore `>=`
/// the sum of the attributed phases (the remainder is dispatch overhead).
/// The record is folded before the response's first byte is written, so
/// the socket write itself is not timed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// Service-assigned monotonic request id (accept order).
    pub req: u64,
    /// Request kind tag (`"ping"`, `"check"`, `"lint"`, `"stats"`, ...).
    pub kind: &'static str,
    /// `"ok"` or `"error"`.
    pub outcome: &'static str,
    /// Cache disposition label (`"miss"` or `"verdict-hit"`) or `"-"`
    /// for non-cacheable kinds.
    pub cache: &'static str,
    /// Admission-queue depth observed when the request arrived.
    pub queue_depth: u64,
    /// End-to-end service time.
    pub total_ns: u64,
    /// Frame read + body decode.
    pub decode_ns: u64,
    /// Wait for an admission-queue slot, then for a compute slot.
    pub queue_ns: u64,
    /// Spec resolve, model-hash memo and content-addressed cache
    /// lookup(s)/stores.
    pub cache_ns: u64,
    /// Model build + hashing + relational translation to CNF, counting
    /// only the work that ran (zero on a warm hit).
    pub translate_ns: u64,
    /// SAT solving (or lint analysis for lint requests).
    pub solve_ns: u64,
    /// Response encode; the phase keeps its label, `write`.
    pub write_ns: u64,
}

impl RequestRecord {
    /// Fixed-field-order JSON rendering, pinned by tests so `FlightDump`
    /// consumers can rely on it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("req", self.req.into()),
            ("kind", self.kind.into()),
            ("outcome", self.outcome.into()),
            ("cache", self.cache.into()),
            ("queue_depth", self.queue_depth.into()),
            ("total_ns", self.total_ns.into()),
            ("decode_ns", self.decode_ns.into()),
            ("queue_ns", self.queue_ns.into()),
            ("cache_ns", self.cache_ns.into()),
            ("translate_ns", self.translate_ns.into()),
            ("solve_ns", self.solve_ns.into()),
            ("write_ns", self.write_ns.into()),
        ])
    }

    /// The phase (by name) that consumed the most time, with its share of
    /// `total_ns`. Used by the W104 slow-request diagnosis.
    pub fn dominant_phase(&self) -> (&'static str, f64) {
        let phases = [
            ("decode", self.decode_ns),
            ("queue", self.queue_ns),
            ("cache", self.cache_ns),
            ("translate", self.translate_ns),
            ("solve", self.solve_ns),
            ("write", self.write_ns),
        ];
        let (name, ns) = phases
            .iter()
            .copied()
            .max_by_key(|&(_, ns)| ns)
            .unwrap_or(("solve", 0));
        let share = if self.total_ns == 0 {
            0.0
        } else {
            ns as f64 / self.total_ns as f64
        };
        (name, share)
    }
}

/// Counters for one rolling window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WindowCounts {
    requests: u64,
    errors: u64,
    hits: u64,
}

#[derive(Default)]
struct Inner {
    requests_by_kind: BTreeMap<&'static str, u64>,
    responses_by_outcome: BTreeMap<&'static str, u64>,
    cache_by_disposition: BTreeMap<&'static str, u64>,
    latency_by_kind: BTreeMap<&'static str, Histogram>,
    queue_wait: Histogram,
    phase_ns: BTreeMap<&'static str, u64>,
    read_timeouts: u64,
    recorded: u64,
    window_index: u64,
    window: WindowCounts,
    last_window: WindowCounts,
    ring: Vec<RequestRecord>,
    ring_next: usize,
    slowest: Vec<RequestRecord>,
}

/// The in-daemon aggregator + flight recorder. All methods take `&self`;
/// one short-lived mutex serializes updates.
pub struct ServiceTelemetry {
    enabled: bool,
    ring_capacity: usize,
    slowest_capacity: usize,
    window_secs: u64,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl ServiceTelemetry {
    /// A telemetry aggregator with `config`'s capacities (clamped to
    /// sane minimums so a zero knob cannot panic the ring arithmetic).
    pub fn new(config: &TelemetryConfig) -> ServiceTelemetry {
        ServiceTelemetry {
            enabled: config.enabled,
            ring_capacity: config.ring_capacity.max(1),
            slowest_capacity: config.slowest_capacity.max(1),
            window_secs: config.window_secs.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether per-request recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Total records folded in so far.
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Count one mid-frame read timeout (a client that stalled after
    /// starting a frame — the W105 churn signal).
    pub fn record_read_timeout(&self) {
        if !self.enabled {
            return;
        }
        self.lock().read_timeouts += 1;
    }

    /// Folds one completed request into the aggregate state.
    pub fn record(&self, record: RequestRecord) {
        if !self.enabled {
            return;
        }
        self.record_at(record, Instant::now());
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Window index for a timestamp; injected by tests via `record_at`.
    fn window_index_at(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_secs() / self.window_secs
    }

    fn record_at(&self, record: RequestRecord, now: Instant) {
        let idx = self.window_index_at(now);
        let mut inner = self.lock();
        Self::rotate(&mut inner, idx);
        inner.recorded += 1;
        *inner.requests_by_kind.entry(record.kind).or_insert(0) += 1;
        *inner
            .responses_by_outcome
            .entry(record.outcome)
            .or_insert(0) += 1;
        if record.cache != "-" {
            *inner.cache_by_disposition.entry(record.cache).or_insert(0) += 1;
        }
        inner
            .latency_by_kind
            .entry(record.kind)
            .or_default()
            .record(record.total_ns);
        inner.queue_wait.record(record.queue_ns);
        for (phase, ns) in [
            ("decode", record.decode_ns),
            ("queue", record.queue_ns),
            ("cache", record.cache_ns),
            ("translate", record.translate_ns),
            ("solve", record.solve_ns),
            ("write", record.write_ns),
        ] {
            *inner.phase_ns.entry(phase).or_insert(0) += ns;
        }
        inner.window.requests += 1;
        if record.outcome == "error" {
            inner.window.errors += 1;
        }
        if record.cache.ends_with("hit") {
            inner.window.hits += 1;
        }
        // Flight recorder: ring of the last N...
        if inner.ring.len() < self.ring_capacity {
            inner.ring.push(record.clone());
        } else {
            let slot = inner.ring_next;
            inner.ring[slot] = record.clone();
        }
        inner.ring_next = (inner.ring_next + 1) % self.ring_capacity;
        // ... plus the K slowest, ordered slowest-first with the request
        // id as a deterministic tie-break.
        inner.slowest.push(record);
        inner
            .slowest
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.req.cmp(&b.req)));
        inner.slowest.truncate(self.slowest_capacity);
    }

    fn rotate(inner: &mut Inner, idx: u64) {
        if idx == inner.window_index {
            return;
        }
        // The previous window is the immediately preceding one; after an
        // idle gap it is empty by definition.
        inner.last_window = if idx == inner.window_index + 1 {
            inner.window
        } else {
            WindowCounts::default()
        };
        inner.window = WindowCounts::default();
        inner.window_index = idx;
    }

    /// Prometheus-style text exposition of the aggregate state plus the
    /// queue/cache gauges the server passes in. Served as the `Metrics`
    /// wire frame.
    pub fn prometheus_text(
        &self,
        queue_depth: u64,
        queue_hwm: u64,
        queue_capacity: u64,
        cache: &CacheStats,
    ) -> String {
        self.prometheus_text_at(
            queue_depth,
            queue_hwm,
            queue_capacity,
            cache,
            Instant::now(),
        )
    }

    fn prometheus_text_at(
        &self,
        queue_depth: u64,
        queue_hwm: u64,
        queue_capacity: u64,
        cache: &CacheStats,
        now: Instant,
    ) -> String {
        let idx = self.window_index_at(now);
        let mut inner = self.lock();
        Self::rotate(&mut inner, idx);
        let mut out = String::with_capacity(4096);
        let w = &mut out;

        let _ = writeln!(
            w,
            "# HELP mca_serve_requests_total Requests served, by kind."
        );
        let _ = writeln!(w, "# TYPE mca_serve_requests_total counter");
        for (kind, n) in &inner.requests_by_kind {
            let _ = writeln!(w, "mca_serve_requests_total{{kind=\"{kind}\"}} {n}");
        }
        let _ = writeln!(w, "# TYPE mca_serve_responses_total counter");
        for (outcome, n) in &inner.responses_by_outcome {
            let _ = writeln!(w, "mca_serve_responses_total{{outcome=\"{outcome}\"}} {n}");
        }
        let _ = writeln!(w, "# TYPE mca_serve_cache_disposition_total counter");
        for (disposition, n) in &inner.cache_by_disposition {
            let _ = writeln!(
                w,
                "mca_serve_cache_disposition_total{{disposition=\"{disposition}\"}} {n}"
            );
        }
        let _ = writeln!(w, "# TYPE mca_serve_latency_ns histogram");
        for (kind, hist) in &inner.latency_by_kind {
            write_histogram(
                w,
                "mca_serve_latency_ns",
                &format!("kind=\"{kind}\","),
                hist,
            );
        }
        write_histogram(w, "mca_serve_queue_wait_ns", "", &inner.queue_wait);
        let _ = writeln!(w, "# TYPE mca_serve_phase_ns_total counter");
        for (phase, ns) in &inner.phase_ns {
            let _ = writeln!(w, "mca_serve_phase_ns_total{{phase=\"{phase}\"}} {ns}");
        }
        let _ = writeln!(w, "mca_serve_read_timeouts_total {}", inner.read_timeouts);
        let _ = writeln!(w, "# TYPE mca_serve_queue_depth gauge");
        let _ = writeln!(w, "mca_serve_queue_depth {queue_depth}");
        let _ = writeln!(w, "mca_serve_queue_depth_hwm {queue_hwm}");
        let _ = writeln!(w, "mca_serve_queue_capacity {queue_capacity}");
        let _ = writeln!(w, "# TYPE mca_serve_cache_lookups_total counter");
        for (tier, result, n) in [
            ("verdict", "hit", cache.verdict_hits),
            ("verdict", "miss", cache.verdict_misses),
        ] {
            let _ = writeln!(
                w,
                "mca_serve_cache_lookups_total{{tier=\"{tier}\",result=\"{result}\"}} {n}"
            );
        }
        let _ = writeln!(w, "mca_serve_cache_evictions_total {}", cache.evictions);
        let _ = writeln!(w, "mca_serve_cache_bytes {}", cache.bytes);
        let _ = writeln!(w, "mca_serve_cache_bytes_hwm {}", cache.bytes_hwm);
        let _ = writeln!(w, "# TYPE mca_serve_window_requests gauge");
        for (window, counts) in [("current", inner.window), ("last", inner.last_window)] {
            let _ = writeln!(
                w,
                "mca_serve_window_requests{{window=\"{window}\"}} {}",
                counts.requests
            );
            let _ = writeln!(
                w,
                "mca_serve_window_errors{{window=\"{window}\"}} {}",
                counts.errors
            );
            let _ = writeln!(
                w,
                "mca_serve_window_hits{{window=\"{window}\"}} {}",
                counts.hits
            );
        }
        let _ = writeln!(w, "mca_serve_window_seconds {}", self.window_secs);
        out
    }

    /// The flight recorder as JSON: configuration, totals, the ring
    /// (oldest first), and the slowest-K list (slowest first). Served as
    /// the `FlightDump` wire frame.
    pub fn flight_json(&self) -> Json {
        let inner = self.lock();
        let ring: Vec<Json> = if inner.ring.len() < self.ring_capacity {
            inner.ring.iter().map(RequestRecord::to_json).collect()
        } else {
            // A full ring starts at the write cursor (the oldest entry).
            inner.ring[inner.ring_next..]
                .iter()
                .chain(&inner.ring[..inner.ring_next])
                .map(RequestRecord::to_json)
                .collect()
        };
        let dropped = inner.recorded.saturating_sub(inner.ring.len() as u64);
        Json::obj([
            ("version", 1u64.into()),
            (
                "config",
                Json::obj([
                    ("ring_capacity", (self.ring_capacity as u64).into()),
                    ("slowest_capacity", (self.slowest_capacity as u64).into()),
                    ("window_secs", self.window_secs.into()),
                ]),
            ),
            ("recorded", inner.recorded.into()),
            ("dropped", dropped.into()),
            ("read_timeouts", inner.read_timeouts.into()),
            ("ring", Json::Array(ring)),
            (
                "slowest",
                Json::Array(inner.slowest.iter().map(RequestRecord::to_json).collect()),
            ),
        ])
    }
}

/// One log₂ histogram in Prometheus exposition style: cumulative
/// `_bucket{...,le="<bin hi>"}` series, a closing `le="+Inf"`, `_sum`,
/// and `_count`. The `le` bounds are the histogram's inclusive bin upper
/// bounds, so a scraper can reconstruct percentile estimates bin-exactly.
fn write_histogram(out: &mut String, name: &str, label_prefix: &str, hist: &Histogram) {
    let mut cumulative = 0u64;
    let max_bin = hist.max().map_or(0, Histogram::bin_index);
    for bin in 0..=max_bin {
        let count = hist.bin_count(bin);
        if count == 0 && bin != max_bin {
            continue;
        }
        cumulative += count;
        let (_, hi) = Histogram::bin_range(bin);
        let _ = writeln!(
            out,
            "{name}_bucket{{{label_prefix}le=\"{hi}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{label_prefix}le=\"+Inf\"}} {}",
        hist.count()
    );
    let _ = writeln!(
        out,
        "{name}_sum{{{label_prefix_trim}}} {}",
        hist.sum().min(u64::MAX as u128),
        label_prefix_trim = label_prefix.trim_end_matches(','),
    );
    let _ = writeln!(
        out,
        "{name}_count{{{label_prefix_trim}}} {}",
        hist.count(),
        label_prefix_trim = label_prefix.trim_end_matches(','),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(req: u64, total_ns: u64) -> RequestRecord {
        RequestRecord {
            req,
            kind: "check",
            outcome: "ok",
            cache: "miss",
            total_ns,
            solve_ns: total_ns / 2,
            translate_ns: total_ns / 4,
            ..RequestRecord::default()
        }
    }

    fn telemetry(ring: usize, slowest: usize) -> ServiceTelemetry {
        ServiceTelemetry::new(&TelemetryConfig {
            ring_capacity: ring,
            slowest_capacity: slowest,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let t = telemetry(4, 2);
        for req in 0..7u64 {
            t.record(record(req, 1000 + req));
        }
        let dump = t.flight_json();
        let ring = match dump.get("ring") {
            Some(Json::Array(items)) => items,
            other => panic!("ring must be an array, got {other:?}"),
        };
        // Capacity 4, 7 records: the ring holds 3..=6 oldest-first.
        let reqs: Vec<u64> = ring
            .iter()
            .map(|r| r.get("req").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(reqs, vec![3, 4, 5, 6]);
        assert_eq!(dump.get("recorded").and_then(Json::as_u64), Some(7));
        assert_eq!(dump.get("dropped").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn slowest_k_is_ordered_and_stable() {
        let t = telemetry(16, 3);
        // Two requests tie on total_ns: the lower request id wins the
        // earlier slot, regardless of arrival order.
        for (req, total) in [(1u64, 50u64), (2, 900), (3, 500), (4, 900), (5, 10)] {
            t.record(record(req, total));
        }
        let dump = t.flight_json();
        let slowest = match dump.get("slowest") {
            Some(Json::Array(items)) => items,
            other => panic!("slowest must be an array, got {other:?}"),
        };
        let reqs: Vec<u64> = slowest
            .iter()
            .map(|r| r.get("req").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(reqs, vec![2, 4, 3], "900(req2), 900(req4), 500(req3)");
    }

    #[test]
    fn window_rotation_promotes_and_expires() {
        let t = telemetry(8, 2);
        let start = t.epoch;
        t.record_at(record(1, 100), start);
        t.record_at(record(2, 100), start + Duration::from_secs(1));
        // Next window: the first two become "last".
        t.record_at(record(3, 100), start + Duration::from_secs(61));
        {
            let inner = t.lock();
            assert_eq!(inner.window.requests, 1);
            assert_eq!(inner.last_window.requests, 2);
        }
        // A long idle gap empties the "last" window.
        t.record_at(record(4, 100), start + Duration::from_secs(400));
        let inner = t.lock();
        assert_eq!(inner.window.requests, 1);
        assert_eq!(inner.last_window.requests, 0);
    }

    #[test]
    fn prometheus_text_renders_counters_and_buckets() {
        let t = telemetry(8, 2);
        t.record(RequestRecord {
            req: 1,
            kind: "check",
            outcome: "ok",
            cache: "verdict-hit",
            total_ns: 1_000,
            queue_ns: 10,
            ..RequestRecord::default()
        });
        t.record(RequestRecord {
            req: 2,
            kind: "lint",
            outcome: "error",
            cache: "-",
            total_ns: 3_000,
            ..RequestRecord::default()
        });
        t.record_read_timeout();
        let cache = CacheStats {
            verdict_hits: 1,
            verdict_misses: 2,
            ..CacheStats::default()
        };
        let text = t.prometheus_text(3, 5, 64, &cache);
        for needle in [
            "mca_serve_requests_total{kind=\"check\"} 1",
            "mca_serve_requests_total{kind=\"lint\"} 1",
            "mca_serve_responses_total{outcome=\"ok\"} 1",
            "mca_serve_responses_total{outcome=\"error\"} 1",
            "mca_serve_cache_disposition_total{disposition=\"verdict-hit\"} 1",
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"+Inf\"} 1",
            "mca_serve_latency_ns_sum{kind=\"check\"} 1000",
            "mca_serve_latency_ns_count{kind=\"lint\"} 1",
            "mca_serve_queue_wait_ns_bucket{le=\"+Inf\"} 2",
            "mca_serve_queue_wait_ns_count{} 2",
            "mca_serve_read_timeouts_total 1",
            "mca_serve_queue_depth 3",
            "mca_serve_queue_depth_hwm 5",
            "mca_serve_queue_capacity 64",
            "mca_serve_cache_lookups_total{tier=\"verdict\",result=\"hit\"} 1",
            "mca_serve_cache_lookups_total{tier=\"verdict\",result=\"miss\"} 2",
            "mca_serve_window_requests{window=\"current\"} 2",
            "mca_serve_window_errors{window=\"current\"} 1",
            "mca_serve_window_hits{window=\"current\"} 1",
            "mca_serve_window_seconds 60",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // The "-" disposition of non-cacheable kinds is not a series.
        assert!(!text.contains("disposition=\"-\""));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let t = telemetry(64, 4);
        for (req, total) in [(1u64, 0u64), (2, 1), (3, 7), (4, 7), (5, 5_000)] {
            t.record(record(req, total));
        }
        let text = t.prometheus_text(0, 0, 64, &CacheStats::default());
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mca_serve_latency_ns_bucket{kind=\"check\",") {
                let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(count >= last, "cumulative counts must be monotone: {text}");
                last = count;
                buckets += 1;
            }
        }
        assert!(buckets >= 3, "expected several buckets:\n{text}");
        assert_eq!(last, 5, "+Inf bucket carries the full count");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = ServiceTelemetry::new(&TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        });
        t.record(record(1, 100));
        t.record_read_timeout();
        assert_eq!(t.recorded(), 0);
        let dump = t.flight_json();
        assert_eq!(dump.get("recorded").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn dominant_phase_names_the_biggest_slice() {
        let rec = RequestRecord {
            total_ns: 1_000,
            translate_ns: 700,
            solve_ns: 200,
            ..RequestRecord::default()
        };
        let (phase, share) = rec.dominant_phase();
        assert_eq!(phase, "translate");
        assert!((share - 0.7).abs() < 1e-9);
    }

    #[test]
    fn request_record_json_field_order_is_pinned() {
        let rec = RequestRecord {
            req: 9,
            kind: "check",
            outcome: "ok",
            cache: "miss",
            queue_depth: 1,
            total_ns: 10,
            decode_ns: 1,
            queue_ns: 2,
            cache_ns: 3,
            translate_ns: 4,
            solve_ns: 5,
            write_ns: 6,
        };
        assert_eq!(
            rec.to_json().render(),
            r#"{"req":9,"kind":"check","outcome":"ok","cache":"miss","queue_depth":1,"total_ns":10,"decode_ns":1,"queue_ns":2,"cache_ns":3,"translate_ns":4,"solve_ns":5,"write_ns":6}"#
        );
    }
}
