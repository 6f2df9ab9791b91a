//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload for `--seconds` seconds and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced replay with
//! `--trace 1` (which also writes the spans and the self-time table under
//! `--out`, default `.bench_out`).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{end_to_end, measure, per_layer, replay, result_json, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let m = measure(args.workload, args.seed, args.seconds)?;
    let mut report = String::new();
    let e2e = end_to_end(&m, &mut report);
    let attempted = m.records.len() as u64;
    let mut failed = m.records.iter().filter(|r| r.answer.is_err()).count() as u64;
    let mut correct = failed == 0;
    let metrics = if args.trace {
        let t = replay(&m, args.seconds)?;
        let layers = per_layer(&t, &mut report);
        for f in t.failures.iter().take(3) {
            report.push_str(&format!("  REPLAY FAILED {f}\n"));
        }
        if !t.failures.is_empty() {
            correct = false;
            failed += t.failures.len() as u64;
        }
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        std::fs::write(
            args.out.join(format!("{stem}.spans.jsonl")),
            t.tracer.spans_jsonl(),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(args.out.join(format!("{stem}.report.txt")), &report)
            .map_err(|e| e.to_string())?;
        layers
    } else {
        e2e
    };
    print!("{report}");
    Ok(result_json(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
