//! `mcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and the per-layer table on stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero if any output check failed.
//!
//! Each round runs in a child process started as
//! `mcbench ... --round --window-ms <ms>`, which prints the round as one
//! line. `--window-ms` also shortens the measured window (the tests use
//! it). A child started with `--setup-only` instead sets up a round's
//! world and prints `setup <ns>`, the host CPU time that took.

use std::process::ExitCode;

use mcbench::{report, workloads};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    round: bool,
    setup_only: bool,
    window_ms: Option<u64>,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        round: false,
        setup_only: false,
        window_ms: None,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--round" {
            a.round = true;
            continue;
        }
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => seed = Some(num()?),
            "--seconds" => a.seconds = num()?.clamp(1, 120),
            "--trace" => {
                a.trace = match num()? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                }
            }
            "--window-ms" => a.window_ms = Some(num()?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut spec) = workloads::spec(&args.workload) else {
        let names: Vec<&str> = workloads::specs().iter().map(|s| s.name).collect();
        eprintln!(
            "mcbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Some(ms) = args.window_ms {
        spec.window_ns = ms * 1_000_000;
    }
    if args.setup_only {
        println!("setup {}", workloads::run_setup(&spec, args.seed));
        return ExitCode::SUCCESS;
    }
    if args.round {
        let round = workloads::run_round(&spec, args.seed, args.trace);
        if args.trace {
            if let Err(e) = report::write_spans(&spec) {
                eprintln!("mcbench: writing spans: {e}");
            }
        }
        println!("{}", round.encode());
        return ExitCode::SUCCESS;
    }
    match report::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(out) => {
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
