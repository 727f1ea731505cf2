//! Benchmark entry point; `run.sh` builds this and passes it the
//! `hera-cli` path and a scratch directory:
//!
//! ```text
//! hera-perfbench --cli PATH --work DIR --workload <batch|anytime|serve>
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Progress and the human-readable report go to stdout ahead of the
//! last line, which is the run's JSON result. `prep-anytime` is the
//! internal prep child of the `anytime` workload.

use hera_perfbench::common::{host_cpus, program_threads, WorkDir};
use hera_perfbench::report::Report;
use hera_perfbench::workloads::{anytime, batch, serve, Ctx};
use std::path::PathBuf;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!(
        "hera-perfbench: {msg}\nusage: hera-perfbench --cli PATH --work DIR \
         --workload <batch|anytime|serve> --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn value<'a>(args: &'a [String], flag: &str) -> &'a str {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        None => usage(&format!("missing {flag}")),
    }
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let v = value(args, flag);
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("prep-anytime") {
        let dir = PathBuf::from(value(&args, "--dir"));
        anytime::prep(number(&args, "--seed"), &dir, number(&args, "--threads"));
        return;
    }
    let workload = value(&args, "--workload").to_string();
    let traced = match value(&args, "--trace") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let seconds: f64 = number(&args, "--seconds");
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let work = WorkDir::create(&PathBuf::from(value(&args, "--work")))
        .unwrap_or_else(|e| usage(&format!("--work: {e}")));
    let ctx = Ctx {
        seed: number(&args, "--seed"),
        seconds: Duration::from_secs_f64(seconds),
        traced,
        work: work.path().to_path_buf(),
        cli: PathBuf::from(value(&args, "--cli")),
        threads: program_threads(),
    };
    println!(
        "run workload={workload} seed={} seconds={seconds} trace={} host_cpus={} program_threads={}",
        ctx.seed,
        u8::from(traced),
        host_cpus(),
        ctx.threads
    );
    let mut report = Report::default();
    match workload.as_str() {
        "batch" => batch::run(&ctx, &mut report),
        "anytime" => anytime::run(&ctx, &mut report),
        "serve" => serve::run(&ctx, &mut report),
        other => usage(&format!("unknown workload {other:?}")),
    }
    drop(work);
    println!("{}", report.result_line(traced));
}
