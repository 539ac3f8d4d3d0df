//! `cb-benchmark`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cb-benchmark compare <setA.jsonl> <setB.jsonl>
//! ```
//!
//! Without `--workload` every workload runs in turn. Each workload's
//! report ends with its result as one JSON object on a line of its own,
//! under the `== <workload> ...` header that names it; with `--workload`
//! that is the last line of standard output.

mod compare;
mod direct;
mod json;
mod layers;
mod loadgen;
mod oplist;
mod report;
mod run;
mod stack;
mod stats;

use oplist::Workload;
use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cb-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out-dir DIR]\n       \
                     cb-benchmark compare <setA.jsonl> <setB.jsonl>";

fn parse_args(args: &[String]) -> Result<(Vec<Workload>, RunArgs), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut run = RunArgs {
        workload: Workload::RagWarm,
        seed: 7,
        seconds: report::catalogue().run_seconds,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => run.smoke = true,
            "--out-dir" => run.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workloads, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (workloads, base) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    cb_obs::init_clock();
    let mut all_correct = true;
    for workload in workloads {
        let args = RunArgs {
            workload,
            ..base.clone()
        };
        let report = if args.traced {
            layers::run_traced(&args)
        } else {
            run::run_untraced(&args)
        };
        report.print_human();
        run::store(&report, &args.out_dir);
        all_correct &= report.correct;
        println!("{}", report.contract_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
