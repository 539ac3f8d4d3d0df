//! Regenerates fig14 (see DESIGN.md §8 and EXPERIMENTS.md).
//!
//! Flags:
//!
//! - `--smoke` — shrunken grids (seconds, for CI).
//! - `--backend analytic|engine|net-cluster|both` — the delay-model arm
//!   (default), the closed-loop real-engine arm, the multi-replica
//!   cluster arm behind the `cb-net` gateway with a measured routing-hop
//!   latency tax (emits `BENCH_cluster.json`), or analytic+engine.
//! - `--replicas N` — largest replica count for the cluster arm
//!   (default 2; the grid always includes 1 and 2).
//! - `--chaos` — with `--backend net-cluster`, also run the fault drill:
//!   the same workload with and without a deterministic mid-run worker
//!   kill, emitting goodput and p99 TTFT for both into
//!   `BENCH_chaos.json`.
//! - `--trace-out PATH` — export the run's span timeline as
//!   `chrome://tracing` JSON (a chaos run shows each mid-stream retry as
//!   a `retry#k` child span under its request).

use cb_bench::experiments::fig14::{run_opts, BackendArm, Fig14Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    let backend = match args.iter().position(|a| a == "--backend") {
        None => BackendArm::Analytic,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("analytic") => BackendArm::Analytic,
            Some("engine") => BackendArm::Engine,
            Some("net-cluster") => BackendArm::NetCluster,
            Some("both") => BackendArm::Both,
            Some(other) => {
                eprintln!(
                    "unknown --backend {other:?} (expected analytic|engine|net-cluster|both)"
                );
                std::process::exit(2);
            }
            None => {
                eprintln!("--backend requires a value (analytic|engine|net-cluster|both)");
                std::process::exit(2);
            }
        },
    };
    let replicas = match args.iter().position(|a| a == "--replicas") {
        None => 2,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("--replicas requires a positive integer");
                std::process::exit(2);
            }
        },
    };
    if chaos && backend != BackendArm::NetCluster {
        eprintln!("--chaos requires --backend net-cluster");
        std::process::exit(2);
    }
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("--trace-out requires a path");
                std::process::exit(2);
            }
        },
    };
    run_opts(Fig14Opts {
        smoke,
        backend,
        replicas,
        chaos,
        trace_out,
    });
}
