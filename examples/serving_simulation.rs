//! Serving-rate exploration: sweep the request rate and watch each
//! scheme's TTFT saturate (a quick interactive view of Figure 14), serve
//! a real batch through an [`EngineService`], then close the loop:
//! run the same simulator against the *real* engine via
//! [`EngineBackend`].
//!
//! Run with: `cargo run --release --example serving_simulation`

use cacheblend::baselines::SchemeKind;
use cacheblend::prelude::*;
use cacheblend::rag::datasets::Dataset;
use cacheblend::serving::backend::EngineBackend;
use cacheblend::serving::sim::{ServingConfig, Simulator};
use cacheblend::serving::workload::{Workload, WorkloadConfig};
use cacheblend::storage::perf::{PaperModel, PerfModel};

fn main() {
    // Paper-scale side: the discrete-event simulator. Its CacheBlend arm
    // charges admission costs through the engine's delay model
    // (`cacheblend::engine::blend_admission`).
    let perf = PerfModel::on_a40(PaperModel::Yi34B);
    let schemes = [
        SchemeKind::CacheBlend,
        SchemeKind::FullReuse,
        SchemeKind::PrefixCaching,
        SchemeKind::FullRecompute,
    ];
    println!(
        "{} on {}: mean TTFT (s) by request rate\n",
        perf.spec.name,
        DeviceKind::NvmeSsd.spec().name
    );
    print!("{:>10}", "rate(rps)");
    for s in schemes {
        print!("{:>20}", s.name());
    }
    println!();
    let saturation = 1.0 / perf.ttft_full_prefill(6 * 512 + 32);
    for mult in [0.2, 0.5, 0.8, 1.0, 1.5, 2.5, 4.0] {
        let rate = saturation * mult;
        print!("{rate:>10.3}");
        for scheme in schemes {
            let w = Workload::generate(&WorkloadConfig::extended(rate, 99));
            let cfg = ServingConfig::fig14(scheme, perf, DeviceKind::NvmeSsd);
            let stats = Simulator::new(cfg).run(&w);
            print!("{:>20.3}", stats.ttft.mean_s);
        }
        println!();
    }
    println!("\n(each column saturates at a different rate — CacheBlend's knee is furthest right among quality-preserving schemes)\n");

    // Executable side: the same concurrent-serving shape on the tiny
    // model, through the engine's worker pool.
    let engine = EngineBuilder::new(ModelProfile::Yi34B)
        .blend_config(BlendConfig::with_ratio(0.18))
        .build()
        .expect("engine");
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let chunk_ids = engine.register_chunks(&ds.chunks).expect("register");
    let batch: Vec<Request> = ds
        .cases
        .iter()
        .take(16)
        .map(|case| {
            let ctx = ds.retrieve(case, 6);
            Request::new(
                ctx.iter().map(|&c| chunk_ids[c]).collect(),
                case.query.clone(),
            )
        })
        .collect();
    let service = EngineService::new(
        engine.clone(),
        ServiceConfig::default()
            .workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
            .queue_capacity(batch.len()),
    );
    let t0 = std::time::Instant::now();
    let streams: Vec<_> = batch
        .into_iter()
        .map(|r| service.submit_stream(r))
        .collect();
    let responses: Vec<_> = streams.into_iter().map(|s| s.collect()).collect();
    let elapsed = t0.elapsed();
    let ok = responses.iter().filter(|r| r.is_ok()).count();
    let mean_score: f32 = responses
        .iter()
        .zip(ds.cases.iter())
        .filter_map(|(r, case)| {
            r.as_ref()
                .ok()
                .map(|resp| ds.score(&resp.answer, &case.gold))
        })
        .sum::<f32>()
        / ok.max(1) as f32;
    println!(
        "EngineService: {ok}/16 requests served concurrently in {elapsed:?} \
         (mean {} {mean_score:.3}, store stats {:?})",
        ds.kind.metric_name(),
        engine.store().stats(),
    );

    // Closed loop: the same discrete-event queueing, but every admission
    // is really served through an EngineService and the measured TTFTs
    // drive the knee.
    println!("\nclosed loop (tiny compiled model through the EngineService):");
    let probe_service_s = EngineBackend::single_worker(ModelProfile::Tiny).warm_service_time_s();
    println!(
        "{:>12} {:>16} {:>16}",
        "rate(rps)", "mean TTFT (s)", "peak queue"
    );
    for mult in [0.3, 1.0, 3.0] {
        let rate = mult / probe_service_s;
        let w = Workload::generate(&WorkloadConfig {
            n_requests: 60,
            n_groups: 20,
            n_chunks: 100,
            chunks_per_request: 4,
            ..WorkloadConfig::extended(rate, 12)
        });
        let mut backend = EngineBackend::single_worker(ModelProfile::Tiny);
        let stats = Simulator::run_with(&w, &mut backend, None);
        println!(
            "{rate:>12.1} {:>16.5} {:>16}",
            stats.ttft.mean_s, stats.peak_queue_depth
        );
    }
}
