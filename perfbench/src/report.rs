//! Metric names, the run's result line, and the partition digest.
//!
//! The metric lists here are the ones `BENCHMARK.json` declares (a unit
//! test keeps the two in step). Every workload reports every metric:
//! end-to-end metrics carry a per-workload meaning (see
//! `perfbench/README.md`), and a per-layer metric of a layer the
//! workload does not exercise reads 0.

use hera_types::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hera_types.dataset_parse_s", "s"),
    ("hera_block.block_s", "s"),
    ("hera_block.pairs_emitted", "count"),
    ("hera_block.reduction_ratio", "ratio"),
    ("hera_join.join_s", "s"),
    ("hera_join.value_pairs", "count"),
    ("hera_join.pairs_per_s", "1/s"),
    ("hera_index.build_s", "s"),
    ("hera_index.entries", "count"),
    ("hera_index.groups", "count"),
    ("hera_core.resolve_s", "s"),
    ("hera_core.verify_s", "s"),
    ("hera_core.iterations", "count"),
    ("hera_core.decisions", "count"),
    ("hera_core.comparisons", "count"),
    ("hera_core.merges", "count"),
    ("hera_core.merge_yield", "ratio"),
    ("hera_core.session.slice_s", "s"),
    ("hera_core.session.verify_s", "s"),
    ("hera_core.session.schedule_s", "s"),
    ("hera_core.session.comparisons", "count"),
    ("hera_core.session.merges", "count"),
    ("hera_core.session.frontier_start", "count"),
    ("hera_core.session.index_entries", "count"),
    ("hera_core.session.simcache_entries", "count"),
    ("hera_core.session.add_record_p50_us", "us"),
    ("hera_core.session.add_record_p99_us", "us"),
    ("hera_store.restore_s", "s"),
    ("hera_store.snapshot_bytes", "bytes"),
    ("hera_store.checkpoint_s", "s"),
    ("hera_serve.stitch_pass_ms", "ms"),
    ("hera_serve.backlog_max", "count"),
    ("hera_serve.passes", "count"),
    ("hera_serve.lookup_provisional_frac", "ratio"),
    ("hera_serve.lookup_inproc_us", "us"),
    ("gen.lag_max_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Outcome of one benchmark run: operation accounting, failed checks and
/// metric values.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts `n` attempted operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one output check as an operation; a failed check is a
    /// failed operation and makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok));
        if !ok {
            let msg = format!("check failed: {what}: {}", detail());
            eprintln!("{msg}");
            self.failures.push(msg);
        }
    }

    /// Records a failure that is not an output check (a broken sample,
    /// say) without counting an operation.
    pub fn fault(&mut self, msg: String) {
        eprintln!("fault: {msg}");
        self.failures.push(msg);
    }

    /// True when no check failed and no fault was recorded.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Sets a declared metric and prints it as a report line.
    ///
    /// # Panics
    /// On an undeclared metric name (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let &(key, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        println!("metric {name} = {value} {unit}");
        self.values.insert(key, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metric
    /// set of the run's mode — every end-to-end metric untraced, every
    /// per-layer metric traced (0 for a layer the workload does not
    /// exercise).
    ///
    /// # Panics
    /// When an untraced run left an end-to-end metric unset.
    pub fn result_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Canonical form of a partition: members ascending, entities ordered
/// by their smallest member.
fn canonical(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_unstable();
    clusters
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A digest of a partition's canonical form, printed by every run so
/// two commits can be compared for identical answers.
pub fn digest(clusters: &[Vec<u32>]) -> u64 {
    // Length-prefixed, so entity boundaries are part of the digest.
    fnv1a(canonical(clusters.to_vec()).into_iter().flat_map(|c| {
        std::iter::once(c.len() as u32)
            .chain(c)
            .flat_map(u32::to_le_bytes)
    }))
}

/// One digest over an ordered list of digests (a multi-part input).
pub fn combine(digests: &[u64]) -> u64 {
    fnv1a(digests.iter().flat_map(|d| d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_member_and_entity_order() {
        let a = vec![vec![3, 1], vec![2], vec![0, 4]];
        let b = vec![vec![4, 0], vec![1, 3], vec![2]];
        assert_eq!(digest(&a), digest(&b));
        let c = vec![vec![3, 1, 2], vec![0, 4]];
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = hera_types::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.expect(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.expect("name").unwrap().as_str().unwrap().to_string(),
                        m.expect("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.ops(3, 0);
        r.set("hera_join.join_s", 1.5);
        let line = r.result_line(true);
        let json = hera_types::json::parse(&line).unwrap();
        let m = json.expect("metrics").unwrap();
        assert_eq!(
            m.expect("hera_join.join_s")
                .unwrap()
                .expect("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.5
        );
        assert_eq!(
            m.expect("gen.lag_max_ms")
                .unwrap()
                .expect("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            0.0
        );
        assert_eq!(json.expect("correct").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("x", false, || "boom".into());
        assert!(!r.correct());
        let json = hera_types::json::parse(&r.result_line(true)).unwrap();
        assert_eq!(json.expect("failed").unwrap().as_i64().unwrap(), 1);
    }
}
