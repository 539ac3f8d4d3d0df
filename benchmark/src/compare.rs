//! `compare <setA> <setB>`: do two sets of runs agree within the bounds
//! `BENCHMARK.json` fixes?
//!
//! A set is a `results.jsonl` file (one record per run, as `store`
//! appends them). For every workload and end-to-end metric the tool prints
//! each set's median and quartiles, the relative gap of B against A in the
//! metric's *worse* direction, the bound, and a verdict:
//!
//! - `within`: B's median is no worse than A's by more than the bound;
//! - `regressed`: it is worse by more than the bound;
//! - `unresolved`: either set's own spread (interquartile range over
//!   median) is wider than the bound, so the comparison cannot tell.
//!
//! Runs of the same workload and seed must have been fed the same inputs:
//! where both sets hold such a run, their `oplist_hash` must be equal, or
//! the comparison is refused.
//!
//! The exit code is non-zero if anything regressed. Two sets of the same
//! commit must come out all `within`: that is the benchmark's own noise
//! test, and the table it prints is the one the README records.

use crate::json::Json;
use crate::report::{catalogue, MetricDef};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// workload -> metric -> one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// (workload, seed) -> `oplist_hash` of the run.
type Inputs = BTreeMap<(String, u64), String>;

/// What `compare` reads from one results file.
#[derive(Debug)]
struct Loaded {
    set: Set,
    hosts: Vec<String>,
    inputs: Inputs,
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: (f64, f64),
    pub quartiles_b: (f64, f64),
    /// (B - A) / A, signed so that positive means B is worse.
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> (f64, (f64, f64)) {
    let m = median(v);
    (m, if v.len() >= 2 { quartiles(v) } else { (m, m) })
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (median_a, quartiles_a) = summary(a);
    let (median_b, quartiles_b) = summary(b);
    let gap = (median_b - median_a) / median_a.abs();
    // `+ 0.0` turns the -0.0 of an exact repeat into 0.0.
    let worse_by = if def.lower_is_better { gap } else { -gap } + 0.0;
    let spread_of = |m: f64, q: (f64, f64)| (q.1 - q.0) / m.abs();
    let spread = spread_of(median_a, quartiles_a).max(spread_of(median_b, quartiles_b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    Row {
        median_a,
        median_b,
        quartiles_a,
        quartiles_b,
        worse_by,
        spread,
        verdict,
    }
}

/// Reads the untraced, comparable records of a results file.
fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    let mut hosts = Vec::new();
    let mut inputs = Inputs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let flag = |key: &str| rec.get(key).and_then(Json::as_bool).unwrap_or(false);
        if flag("traced") || !flag("comparable") {
            continue;
        }
        if !flag("correct") {
            return Err(format!(
                "{}:{}: a run that failed its output check",
                path.display(),
                n + 1
            ));
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let host = rec
            .get("host")
            .map(|h| format!("{h:?}"))
            .unwrap_or_default();
        if !hosts.contains(&host) {
            hosts.push(host);
        }
        if let (Some(seed), Some(hash)) = (
            rec.get("seed").and_then(Json::as_f64),
            rec.get("oplist_hash").and_then(Json::as_str),
        ) {
            let previous = inputs.insert((workload.to_owned(), seed as u64), hash.to_owned());
            if previous.is_some_and(|p| p != hash) {
                return Err(format!(
                    "{}:{}: {workload} seed {seed} ran on different inputs within one set",
                    path.display(),
                    n + 1
                ));
            }
        }
        let metrics = rec.get("metrics").map(Json::fields).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(Loaded { set, hosts, inputs })
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    if a.hosts != b.hosts || a.hosts.len() != 1 {
        println!("WARNING: the sets were not all measured on one host fingerprint; numbers from different hosts do not compare");
    }
    let shared: Vec<_> = a
        .inputs
        .iter()
        .filter_map(|(run, hash)| b.inputs.get(run).map(|other| (run, hash == other)))
        .collect();
    for ((workload, seed), _) in shared.iter().filter(|(_, same)| !same) {
        eprintln!("compare: {workload} seed {seed} ran on different inputs in the two sets");
    }
    if shared.iter().any(|(_, same)| !same) {
        return ExitCode::from(2);
    }
    println!(
        "{} runs share workload and seed between the sets; workload.oplist_hash identical in all",
        shared.len()
    );
    let (set_a, set_b) = (a.set, b.set);
    println!(
        "{:<12} {:<16} {:>3} {:>11} {:>23} {:>3} {:>11} {:>23} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "quartiles A",
        "nB",
        "median B",
        "quartiles B",
        "worse by",
        "spread",
        "bound"
    );
    let mut regressed = 0;
    let mut compared = 0;
    for workload in &catalogue().workloads {
        let (Some(wa), Some(wb)) = (set_a.get(workload), set_b.get(workload)) else {
            println!("{workload:<12} missing from one of the sets");
            continue;
        };
        for def in &catalogue().end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&def.name), wb.get(&def.name)) else {
                continue;
            };
            let row = judge(def, va, vb);
            compared += 1;
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<12} {:<16} {:>3} {:>11.4} {:>11.4}..{:<10.4} {:>3} {:>11.4} {:>11.4}..{:<10.4} {:>+8.4} {:>7.4} {:>6.2}  {}",
                workload,
                def.name,
                va.len(),
                row.median_a,
                row.quartiles_a.0,
                row.quartiles_a.1,
                vb.len(),
                row.median_b,
                row.quartiles_b.0,
                row.quartiles_b.1,
                row.worse_by,
                row.spread,
                def.bound.unwrap_or(0.0),
                match row.verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    println!("{compared} workload x metric pairs compared, {regressed} regressed");
    if compared == 0 {
        eprintln!("compare: the sets share no workload");
        return ExitCode::from(2);
    }
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +3 % is within 5 %, +8 % regresses, -8 % is a gain.
        let shift = |f: f64| a.map(|x| x * f);
        assert_eq!(
            judge(&def(true, 0.05), &a, &shift(1.03)).verdict,
            Verdict::Within
        );
        assert_eq!(
            judge(&def(true, 0.05), &a, &shift(1.08)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def(true, 0.05), &a, &shift(0.92)).verdict,
            Verdict::Within
        );
        // Higher is better flips the sign.
        assert_eq!(
            judge(&def(false, 0.05), &a, &shift(0.92)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def(false, 0.05), &a, &shift(1.08)).verdict,
            Verdict::Within
        );
        // A set noisier than the bound cannot resolve anything.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let row = judge(&def(true, 0.05), &a, &noisy);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread > 0.05);
        let row = judge(&def(true, 0.05), &a, &shift(1.08));
        assert!((row.worse_by - 0.08).abs() < 1e-9);
    }

    #[test]
    fn loads_only_comparable_untraced_records() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.jsonl");
        let rec = |traced: bool, comparable: bool, v: f64| {
            format!(
                "{{\"workload\":\"rag_warm\",\"seed\":7,\"oplist_hash\":\"00ff\",\"traced\":{traced},\"comparable\":{comparable},\"correct\":true,\
                 \"host\":{{\"nproc\":2}},\"metrics\":{{\"ttft_p50_ms\":{{\"value\":{v},\"samples\":3}}}}}}\n"
            )
        };
        std::fs::write(
            &path,
            rec(false, true, 1.0)
                + &rec(true, true, 9.0)
                + &rec(false, false, 9.0)
                + &rec(false, true, 2.0),
        )
        .unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.set["rag_warm"]["ttft_p50_ms"], vec![1.0, 2.0]);
        assert_eq!(loaded.hosts.len(), 1);
        assert_eq!(loaded.inputs[&("rag_warm".to_owned(), 7)], "00ff");
        // The same seed on different inputs within one set is refused.
        std::fs::write(
            &path,
            rec(false, true, 1.0) + &rec(false, true, 1.0).replace("00ff", "00fe"),
        )
        .unwrap();
        assert!(load(&path).unwrap_err().contains("different inputs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
