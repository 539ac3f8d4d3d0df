//! What a run prints and stores: the metric catalogue (read from the
//! `BENCHMARK.json` this binary was built beside — the single source of
//! names, units, directions and bounds), the host fingerprint, the one-line
//! result the driver parses, and the richer record appended to
//! `benchmark/out/results.jsonl` for `compare`.

use crate::json::{quote, Json};
use std::fmt::Write;
use std::sync::OnceLock;

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no array `{key}`"))
        };
        let text_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: match text_of(m, "better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    pub fn def(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| Catalogue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses"))
}

/// One reported number with the count of samples behind it (requests,
/// blocks, iterations — whatever the statistic was taken over).
#[derive(Clone, Debug)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Value>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.0.push(Value {
            name: name.to_owned(),
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// Where a result came from. Numbers from different fingerprints are not
/// comparable, and `compare` says so.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// SIMD features this binary was compiled to use (`target-cpu=native`
    /// makes this a property of the build host).
    pub target_features: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut features = Vec::new();
        for (name, on) in [
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("fma", cfg!(target_feature = "fma")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("neon", cfg!(target_feature = "neon")),
        ] {
            if on {
                features.push(name);
            }
        }
        Host {
            nproc: crate::stack::nproc(),
            cpu_model,
            target_features: features.join("+"),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"target_features\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.target_features)
        )
    }
}

#[derive(Clone, Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// False for `--smoke` runs: too short to compare with anything.
    pub comparable: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub oplist_hash: u64,
    pub blocks: usize,
    pub metrics: Metrics,
    pub host: Host,
}

impl Report {
    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (every metric of the run's kind, with its unit).
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, v) in self.metrics.0.iter().enumerate() {
            let def = catalogue()
                .def(&v.name)
                .unwrap_or_else(|| panic!("metric {} is not in BENCHMARK.json", v.name));
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&v.name),
                v.value,
                quote(&def.unit)
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }

    /// One line of `results.jsonl`: the contract line's content plus what
    /// `compare` and a later reader need to trust it.
    pub fn record_line(&self) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"comparable\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"oplist_hash\":{},\"blocks\":{},\"host\":{},\"metrics\":{{",
            quote(&self.workload),
            self.seed,
            self.traced,
            self.comparable,
            self.correct,
            self.attempted,
            self.failed,
            quote(&format!("{:016x}", self.oplist_hash)),
            self.blocks,
            self.host.to_json(),
        );
        for (i, v) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{}:{{\"value\":{},\"samples\":{}}}",
                quote(&v.name),
                v.value,
                v.samples
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn print_human(&self) {
        println!(
            "== {} seed={} {} ({} measured blocks{}) workload.oplist_hash={:016x}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.blocks,
            if self.comparable {
                ""
            } else {
                ", SMOKE: not comparable"
            },
            self.oplist_hash,
        );
        for v in &self.metrics.0 {
            let unit = catalogue().def(&v.name).map_or("?", |d| d.unit.as_str());
            println!(
                "{:<36} {:>14.4} {:<8} n={}",
                v.name, v.value, unit, v.samples
            );
        }
        println!(
            "requests+registrations attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool) -> Report {
        let cat = catalogue();
        let defs = if traced {
            &cat.per_layer
        } else {
            &cat.end_to_end
        };
        let mut metrics = Metrics::default();
        for (i, d) in defs.iter().enumerate() {
            metrics.put(&d.name, 1.5 + i as f64, 8);
        }
        Report {
            workload: "rag_warm".into(),
            seed: 7,
            traced,
            comparable: true,
            correct: true,
            attempted: 384,
            failed: 0,
            oplist_hash: 0xDEAD_BEEF,
            blocks: 8,
            metrics,
            host: Host::detect(),
        }
    }

    #[test]
    fn catalogue_matches_the_workloads_in_code() {
        let cat = catalogue();
        let names: Vec<&str> = crate::oplist::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(cat.workloads, names);
        assert!(cat.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(cat
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(cat.per_layer.iter().all(|d| d.bound.is_none()));
    }

    /// The line's *shape*. That a real run emits exactly the catalogue's
    /// names is asserted at run time, in `run_untraced` and `run_traced`.
    #[test]
    fn emitted_json_parses_and_names_every_metric_with_a_unit() {
        for traced in [false, true] {
            let r = report(traced);
            let line = Json::parse(&r.contract_line()).expect("contract line parses");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let cat = catalogue();
            let defs = if traced {
                &cat.per_layer
            } else {
                &cat.end_to_end
            };
            let metrics = line.get("metrics").unwrap();
            assert_eq!(metrics.fields().len(), defs.len());
            for d in defs {
                let m = metrics
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit.as_str()));
            }
            let record = Json::parse(&r.record_line()).expect("record line parses");
            assert_eq!(record.get("workload").unwrap().as_str(), Some("rag_warm"));
            assert!(record.get("host").unwrap().get("nproc").is_some());
        }
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_names_are_refused() {
        let mut r = report(false);
        r.metrics.put("made_up_metric", 1.0, 1);
        r.contract_line();
    }
}
