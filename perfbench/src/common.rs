//! Inputs, host facts and journal reading shared by the workloads.

use hera_core::HeraSession;
use hera_datagen::{scale_preset, ScaleGenerator};
use hera_types::json::{parse, Json};
use hera_types::{Dataset, SchemaId};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Derives the seed of input part `part` from the run's seed, so every
/// part of a workload's input is a pure function of `--seed`.
pub fn sub_seed(seed: u64, part: u64) -> u64 {
    let mut z = seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Source schemas per generated dataset.
pub const SOURCES: usize = 24;

/// A scale-generator dataset of `records` records from [`SOURCES`]
/// sources, each drawing from the full 16-attribute catalog. A seed
/// draws each source's arity and attribute subset; with the preset's
/// 12 attributes and 6 sources those draws swing one dataset's join
/// cost by ±17% from seed to seed (4k records), with all 16 attributes
/// and 24 sources by ±8%, so differences between commits are not
/// drowned by differences between seeds.
pub fn scale_dataset(records: usize, seed: u64, skew: f64) -> Dataset {
    let mut cfg = scale_preset(records, seed);
    cfg.n_attrs = hera_datagen::scale::scale_catalog().len();
    cfg.n_sources = SOURCES;
    cfg.duplicate_skew = skew;
    ScaleGenerator::new(cfg).generate()
}

/// Registers `ds`'s source schemas on a session, in registry order, and
/// returns their session ids.
pub fn mirror_schemas(session: &mut HeraSession, ds: &Dataset) -> Vec<SchemaId> {
    ds.registry
        .schemas()
        .map(|s| session.add_schema(s.name.clone(), s.attrs.iter().map(|a| a.name.clone())))
        .collect()
}

/// Logical CPUs of the host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads the benchmark lets the program use: at most two, so
/// runs on larger hosts stay comparable with the two-CPU reference host.
pub fn program_threads() -> usize {
    host_cpus().min(2)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// A scratch directory for one run, removed with everything in it when
/// dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<parent>/<pid>` afresh.
    pub fn create(parent: &Path) -> std::io::Result<Self> {
        let dir = parent.join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What one journal says about the layers it covers: the `timing`
/// diagnostics summed per stage, and the counters of each stage's last
/// `span` line.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    timings: Vec<(String, Duration)>,
    spans: Vec<(String, Json)>,
}

impl Journal {
    /// Reads a JSON-lines journal; lines that do not parse are skipped
    /// (a journal's own validation is `hera-cli trace-check`'s job).
    pub fn read(text: &str) -> Self {
        let mut j = Journal::default();
        for line in text.lines() {
            let Ok(ev) = parse(line) else { continue };
            let kind = ev.get("ev").and_then(|e| e.as_str().ok()).unwrap_or("");
            let stage = ev
                .get("stage")
                .and_then(|s| s.as_str().ok())
                .unwrap_or("")
                .to_string();
            match kind {
                "timing" => {
                    let us = ev.get("wall_us").and_then(|w| w.as_i64().ok()).unwrap_or(0);
                    j.timings
                        .push((stage, Duration::from_micros(us.max(0) as u64)));
                }
                "span" => j.spans.push((stage, ev)),
                _ => {}
            }
        }
        j
    }

    /// Total journaled wall time of `stage`.
    pub fn time(&self, stage: &str) -> Duration {
        self.timings
            .iter()
            .filter(|(s, _)| s == stage)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Counter `key` summed over every `span` line of `stage`.
    pub fn counter(&self, stage: &str, key: &str) -> i64 {
        self.spans
            .iter()
            .filter(|(s, _)| s == stage)
            .filter_map(|(_, ev)| ev.get(key).and_then(|v| v.as_i64().ok()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_part_and_repeat_per_seed() {
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
        assert_ne!(sub_seed(7, 3), sub_seed(7, 4));
        assert_ne!(sub_seed(7, 3), sub_seed(8, 3));
    }

    #[test]
    fn journal_sums_timings_and_span_counters() {
        let text = "{\"ev\":\"timing\",\"stage\":\"join\",\"wall_us\":1500}\n\
                    {\"ev\":\"timing\",\"stage\":\"join\",\"wall_us\":500}\n\
                    {\"ev\":\"span\",\"stage\":\"blocking\",\"pairs_emitted\":7}\n\
                    {\"ev\":\"span\",\"stage\":\"blocking\",\"pairs_emitted\":3}\n\
                    not json\n";
        let j = Journal::read(text);
        assert_eq!(j.time("join"), Duration::from_micros(2000));
        assert_eq!(j.time("verify"), Duration::ZERO);
        assert_eq!(j.counter("blocking", "pairs_emitted"), 10);
        assert_eq!(j.counter("blocking", "records"), 0);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
