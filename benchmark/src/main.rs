//! The CLIC benchmark: `--workload NAME --seed N --seconds S --trace 0|1`.
//!
//! `--trace 0` (the default) is the end-to-end run; `--trace 1` (or
//! `--traced`) is the layer ladder. Without `--workload`, every workload
//! runs in a child process of its own, so `peak_rss_mb` stays per workload.
//! The last line of standard output is the result object of the benchmark
//! contract; the exit code is non-zero when any check failed.

mod client;
mod common;
mod ladder;
mod netrun;
mod workloads;

use std::process::ExitCode;

use common::{Workload, DEFAULT_SECONDS};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".to_string());
                }
            }
            "--trace" => args.traced = value()? == "1",
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\nusage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--aa N]");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_each_in_a_child(&args);
    };
    println!(
        "# {} seed {} seconds {} {} ({} hardware threads)",
        workload.name(),
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "end-to-end" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = if args.traced {
        ladder::run(workload, args.seed, args.seconds)
    } else {
        workloads::run(workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("{} did not finish: {err}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run_each_in_a_child(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot find the benchmark executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
