//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line and, last, the result object.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::report;
use perfbench::workloads::{self, Args, WORKLOADS};

fn parse(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload =
        WORKLOADS.iter().position(|w| *w == name).ok_or(format!("unknown workload {name}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")?.max(1), trace })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&args, started) {
        Ok(out) => {
            println!("detail: {}", report::object(&out.detail));
            println!(
                "{}",
                report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::from(1)
        }
    }
}
