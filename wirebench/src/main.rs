//! `wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `{"run": …}` line with the run's facts (host cores, git
//! revision, effective knobs, sample counts), then, as the last line,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones.

use std::process::ExitCode;
use wirebench::bench::{self, Options};
use wirebench::workload::Workload;

const USAGE: &str = "usage: wirebench --workload analytic_warm|short_point|adhoc_cold \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite());
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The UP_* knobs would silently change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UP_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "wirebench: refusing to run with {} set; unset them to measure the defaults",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    match bench::run(&opts) {
        Ok(report) => {
            println!("{}", bench::notes_json(&report));
            println!("{}", bench::result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}
