//! Wall-clock ratio gates: opt-in observability must cost (almost)
//! nothing. Each test times one run against another, so a loaded or
//! single-core host can fail them without any change to the code. They
//! are ignored by default and run in CI's release-mode step:
//!
//! ```text
//! cargo test --release -q -p mca-bench --test wall_clock -- --ignored
//! ```
//!
//! The deterministic counterparts (same rows with spans on, no span
//! events without a recorder) run in every `cargo test`: see
//! `tests/span_profiling.rs`.
//!
//! * A span-enabled E3 run stays within 5% of the no-observer run.

use mca_obs::{Handle, SpanRecorder};
use mca_verify::analysis::run_policy_matrix;
use std::time::Instant;

#[test]
#[ignore = "wall-clock ratio; CI runs it"]
fn span_recording_overhead_on_e3_is_within_five_percent() {
    // min-of-N on both sides: the minimum is the least noisy statistic of
    // a repeated deterministic workload.
    let runs = 3;
    let time_min = |spanned: bool| {
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                let rows = if spanned {
                    let handle = Handle::new(mca_obs::CollectSink::default());
                    let spans = SpanRecorder::new(handle.observer());
                    run_policy_matrix(1, Some(&spans))
                } else {
                    run_policy_matrix(1, None)
                };
                assert_eq!(rows.len(), 4);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = time_min(false);
    let spanned = time_min(true);
    // 5% relative plus 10ms absolute slack: a few spans cost
    // microseconds, but sub-millisecond timer noise shouldn't fail the
    // build.
    assert!(
        spanned <= plain * 1.05 + 0.010,
        "span overhead too high: plain {plain:.4}s vs spanned {spanned:.4}s"
    );
}
