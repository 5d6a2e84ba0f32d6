//! Summary statistics, the metric lists, and the result line.

use std::collections::BTreeMap;

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`), reported only
/// when at least ten samples lie strictly beyond its rank — a tail
/// percentile read off fewer samples is noise.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The end-to-end metrics, `(name, unit)`, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("deck_s", "s"),
    ("max_check_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics, `(name, unit)`, as listed in `BENCHMARK.json`.
/// Every traced run prints all of them; a layer a workload never calls
/// reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("verify.build_s", "s"),
    ("verify.content_hash_s", "s"),
    ("alloy.to_problem_s", "s"),
    ("relalg.translate_s", "s"),
    ("relalg.gates_per_s", "1/s"),
    ("relalg.primary_vars", "count"),
    ("relalg.gates", "count"),
    ("relalg.cnf_vars", "count"),
    ("relalg.cnf_clauses", "count"),
    ("sat.load_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.props_per_s", "1/s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.restarts", "count"),
    ("sat.drat_check_s", "s"),
    ("sat.proof_steps", "count"),
    ("sat.drat_steps_per_s", "1/s"),
    ("serve.key_s", "s"),
    ("serve.lookup_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.wire_s", "s"),
    ("serve.hit_ratio", "frac"),
    ("serve.req_p99_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.server_frac", "frac"),
    ("runtime.queue_wait_s", "s"),
    ("share.translate", "frac"),
    ("share.solve", "frac"),
    ("share.drat_check", "frac"),
    ("share.key", "frac"),
    ("other_s", "s"),
    ("other_max_frac", "frac"),
    ("failed_frac", "frac"),
    ("passes", "count"),
    ("peak_rss_mb", "MB"),
];

/// The metrics of `list`, in its order, valued from `values` (0 where a
/// name is absent).
pub fn metrics(list: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// `n / secs`, or 0 when `secs` is not positive.
pub fn rate(n: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        n / secs
    } else {
        0.0
    }
}

/// `peak_rss_mb`: the peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    mca_obs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// One named metric with its unit.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The last line of a run: correctness, counts, and metrics.
pub struct RunResult {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Checks or requests attempted in the measured window.
    pub attempted: u64,
    /// Of those, how many failed (see `failed_frac`).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) render as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples sits at rank 90 with 10 beyond: reported.
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p99 of 100 samples has 1 beyond: withheld.
        assert_eq!(percentile(&xs, 0.99), None);
        // p99 needs 1000 samples (rank 990, 10 beyond).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "deck_s",
                unit: "s",
                value: 1.25,
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"deck_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}

#[cfg(test)]
mod contract_tests {
    use super::*;

    /// The metric lists printed by the binary are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = &entry[..entry.find('"').expect("name closes")];
                    let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                    let unit = &entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit")];
                    (name.to_string(), unit.to_string())
                })
                .collect::<Vec<_>>()
        };
        let listed = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), listed(&END_TO_END));
        assert_eq!(section("per_layer"), listed(&PER_LAYER));
    }
}
