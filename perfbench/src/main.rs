//! Command-line entry point; see the crate documentation.

use std::path::PathBuf;
use std::process::ExitCode;

use wafl_perfbench::metrics::{catalogue, json_num};
use wafl_perfbench::runner::{self, Options};
use wafl_perfbench::workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <oltp_small_cp|aged_97|snapshot_churn> \
--seed <n> --seconds <s> --trace <0|1> [--cycles <n>] [--out <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::OltpSmallCp,
        seed: 1,
        seconds: 10.0,
        cycles: None,
        traced: false,
        scale: Scale::Full,
        out_dir: Some(PathBuf::from(".bench_out")),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--cycles" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--cycles: {e}"))?;
                opts.cycles = Some(n.max(1));
            }
            "--out" => opts.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match runner::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = catalogue(opts.traced);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    println!("host {}", out.host.to_json());
    for d in defs {
        let v = out.metrics.get(d.name).unwrap_or(f64::NAN);
        println!("  {:<36} {:>16.4} {}", d.name, v, d.unit);
    }
    for (name, v, unit) in &out.notes {
        println!("  ({:<34} {:>16.4} {})", name, v, unit);
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let missing = out.metrics.missing(defs);
    for name in &missing {
        println!("FAILED: metric {name} was not measured");
    }
    let correct = out.correct() && missing.is_empty();
    println!(
        "verdict: {} ({} failed of {} attempted)",
        if correct { "correct" } else { "INCORRECT" },
        out.tally.failed,
        out.tally.attempted
    );
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        out.tally.attempted.max(1),
        out.tally.failed,
        out.metrics.to_json(defs)
    );
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.traced)
        ));
        let notes: Vec<String> = out
            .notes
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        let cycles: Vec<String> = out
            .cycles
            .iter()
            .map(|c| {
                let row: Vec<String> = c.iter().map(|&v| json_num(v)).collect();
                format!("[{}]", row.join(", "))
            })
            .collect();
        let text = format!(
            "{{\"host\": {}, \"result\": {line}, \"notes\": {{{}}}, \"cycle_columns\": {:?}, \"cycles\": [{}]}}\n",
            out.host.to_json(),
            notes.join(", "),
            runner::CYCLE_COLUMNS,
            cycles.join(", ")
        );
        if let Err(e) = runner::write_file(&path, &text) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
