//! The metric catalog, the summary statistics, and the result line.
//!
//! Every workload reports every metric of the catalog for its mode: the
//! end-to-end metrics from an untraced run, the per-layer metrics from a
//! traced one. A layer that does no work on a workload reports 0.

/// A named metric with its unit and the direction that is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of the untraced run. An *op* is one Monte Carlo replica on the
/// replica workloads and one `BroadcastTime` request on the serving one.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("serial_ops_per_s", "1/s", "higher"),
    m("op_p50_us", "us", "lower"),
    m("op_tail_us", "us", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Metrics of the traced run, grouped by layer.
pub const PER_LAYER: &[Metric] = &[
    m("montecarlo.replica_busy_s", "s", "lower"),
    m("montecarlo.pool_efficiency", "ratio", "higher"),
    m("montecarlo.replicas", "count", "higher"),
    m("montecarlo.censored", "count", "lower"),
    m("montecarlo.total_rounds", "count", "lower"),
    m("trees.sample_s", "s", "lower"),
    m("trees.trees_sampled", "count", "lower"),
    m("trees.ns_per_tree", "ns", "lower"),
    m("trees.predraw_s", "s", "lower"),
    m("trees.drawn_per_round", "ratio", "lower"),
    m("core.faults_s", "s", "lower"),
    m("core.fault_events", "count", "lower"),
    m("core.dense.rounds", "count", "lower"),
    m("core.dense.ns_per_round", "ns", "lower"),
    m("core.dense.masked_frac", "ratio", "lower"),
    m("core.dense.state_apply_s", "s", "lower"),
    m("core.dense.tracked_apply_s", "s", "lower"),
    m("core.frontier.rounds", "count", "lower"),
    m("core.frontier.apply_s", "s", "lower"),
    m("core.frontier.ns_per_round", "ns", "lower"),
    m("core.prefix.predicate_s", "s", "lower"),
    m("server.tree_hash_us_per_req", "us", "lower"),
    m("server.hit_round_us", "us", "lower"),
    m("server.miss_round_us", "us", "lower"),
    m("server.hits", "count", "higher"),
    m("server.misses", "count", "lower"),
    m("server.hit_ratio", "ratio", "higher"),
    m("server.evictions", "count", "lower"),
    m("server.cache_mib", "MiB", "lower"),
    m("server.batch_efficiency", "ratio", "higher"),
    m("emulation.rounds", "count", "lower"),
    m("emulation.ns_per_round", "ns", "lower"),
    m("emulation.pending_max", "count", "lower"),
    m("emulation.pending_sum", "count", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.self_over_untraced", "ratio", "lower"),
    m("self_s.montecarlo", "s", "lower"),
    m("self_s.trees", "s", "lower"),
    m("self_s.core.scenario", "s", "lower"),
    m("self_s.core.dense", "s", "lower"),
    m("self_s.core.frontier", "s", "lower"),
    m("self_s.core.prefix", "s", "lower"),
    m("self_s.server", "s", "lower"),
    m("self_s.emulation", "s", "lower"),
];

/// The layers of the traced run's spans, each with the metric reporting
/// its self time. Every span the benchmark records belongs to one of
/// them or to the probe layer.
pub const LAYERS: &[(&str, &str)] = &[
    ("montecarlo", "self_s.montecarlo"),
    ("trees", "self_s.trees"),
    ("core.scenario", "self_s.core.scenario"),
    ("core.dense", "self_s.core.dense"),
    ("core.frontier", "self_s.core.frontier"),
    ("core.prefix", "self_s.core.prefix"),
    ("server", "self_s.server"),
    ("emulation", "self_s.emulation"),
];

/// Every [`PER_LAYER`] metric, in catalog order: the given values, and 0
/// for a layer the workload does not exercise.
///
/// # Panics
///
/// Panics if `values` names a metric outside the catalog.
#[must_use]
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = values
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or(0.0, |&(_, v)| v);
            (metric.name, value)
        })
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank 99th percentile of `values` (0 for none). Below 100
/// samples this is the maximum.
#[must_use]
pub fn p99(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[(0.99 * n as f64).ceil() as usize - 1],
    }
}

/// The calibration kernel's nominal time: window timings are scaled to
/// what they would read had the kernel taken exactly this long.
pub const KERNEL_REF_S: f64 = 1e-3;

/// Allocations of one calibration kernel run.
const KERNEL_ALLOCS: usize = 16_000;

/// Times one run of the calibration kernel: many small heap allocations
/// and frees, the operation whose speed this host's neighbours move
/// most. Returns seconds.
#[must_use]
pub fn calibrate() -> f64 {
    let start = std::time::Instant::now();
    let blocks: Vec<Vec<usize>> = (0..KERNEL_ALLOCS).map(|i| vec![i; 2]).collect();
    std::hint::black_box(&blocks);
    drop(blocks);
    start.elapsed().as_secs_f64()
}

/// Per-op times in seconds, grouped into windows of consecutive ops (a
/// pool batch, or a run of requests), optionally with the calibration
/// kernel's time measured alongside each window.
///
/// On this kind of shared host the speed of small heap allocations
/// drifts by up to 1.7x over seconds to minutes as other tenants load
/// it, and allocation-bound work drifts with it. A calibrated window's
/// timings are scaled by [`KERNEL_REF_S`] / kernel time; windows without
/// kernel times are taken as measured. Every metric is the median over
/// windows of the per-window value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Windows {
    /// Each window's op times, in seconds.
    pub op_s: Vec<Vec<f64>>,
    /// Each window's wall time on the pooled path, in seconds.
    pub wall_s: Vec<f64>,
    /// Each window's median calibration kernel time, in seconds; empty
    /// for uncalibrated windows.
    pub kernel_s: Vec<f64>,
}

impl Windows {
    fn scale(&self, window: usize) -> f64 {
        self.kernel_s
            .get(window)
            .map_or(1.0, |kernel| KERNEL_REF_S / kernel)
    }

    fn median_over<F: Fn(usize, &[f64]) -> f64>(&self, f: F) -> f64 {
        let values: Vec<f64> = self
            .op_s
            .iter()
            .enumerate()
            .map(|(w, ops)| f(w, ops))
            .collect();
        median(&values)
    }

    /// Ops per second of pooled wall time.
    #[must_use]
    pub fn pooled_rate(&self) -> f64 {
        self.median_over(|w, ops| ops.len() as f64 / (self.wall_s[w] * self.scale(w)))
    }

    /// Ops per second of summed op time.
    #[must_use]
    pub fn serial_rate(&self) -> f64 {
        self.median_over(|w, ops| ops.len() as f64 / (ops.iter().sum::<f64>() * self.scale(w)))
    }

    /// Median op time, in µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        1e6 * self.median_over(|w, ops| median(ops) * self.scale(w))
    }

    /// [`p99`] op time, in µs.
    #[must_use]
    pub fn tail_us(&self) -> f64 {
        1e6 * self.median_over(|w, ops| p99(ops) * self.scale(w))
    }

    /// Number of ops.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.op_s.iter().map(Vec::len).sum()
    }
}

/// Median of the wall times of `reps` calls of `f`, in seconds, with
/// the last call's result.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1, "need at least one repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous result first so repetitions do not stack up
        // memory.
        drop(last.take());
        let start = std::time::Instant::now();
        let out = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("reps >= 1"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// What one run measured: the result line's fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or an error.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The value of metric `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `catalog` with its unit.
    ///
    /// # Panics
    ///
    /// Panics if the metrics are not exactly the catalog's names, or a
    /// value is not finite — both bugs in the benchmark.
    #[must_use]
    pub fn to_json(&self, catalog: &[Metric]) -> String {
        assert_eq!(
            self.metrics.len(),
            catalog.len(),
            "every catalog metric is reported once"
        );
        let fields: Vec<String> = catalog
            .iter()
            .map(|metric| {
                let value = self
                    .get(metric.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
                assert!(value.is_finite(), "metric {} = {value}", metric.name);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(p99(&values), 990.0, "ten samples lie beyond it");
        assert_eq!(p99(&[3.0, 1.0]), 3.0);
        assert_eq!(p99(&[]), 0.0);
    }

    #[test]
    fn window_metrics_take_medians_of_scaled_windows() {
        let mut w = Windows {
            op_s: vec![vec![2.0, 2.0], vec![1.0, 1.0], vec![1.0, 3.0]],
            wall_s: vec![2.0, 4.0, 1.0],
            kernel_s: Vec::new(),
        };
        assert_eq!(w.pooled_rate(), 1.0);
        assert_eq!(w.serial_rate(), 0.5);
        assert_eq!(w.p50_us(), 2.0e6);
        assert_eq!(w.tail_us(), 2.0e6);
        assert_eq!(w.ops(), 6);
        // A kernel twice its nominal time halves every timing.
        w.kernel_s = vec![2.0 * KERNEL_REF_S; 3];
        assert_eq!(w.pooled_rate(), 2.0);
        assert_eq!(w.p50_us(), 1.0e6);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(metric.name.len() <= 64);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric.better == "lower" || metric.better == "higher");
        }
        for (layer, name) in LAYERS {
            assert_eq!(*name, format!("self_s.{layer}"));
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
