//! Tests for the benchmark's own code: order statistics, the tail
//! percentile rule, error accounting, the result line, the metric catalogue
//! against `BENCHMARK.json`, and that every wrapper leaves the simulation
//! untouched.

use koc_sim::{
    engine, CycleAccounting, InstructionSource, NullObserver, Processor, ProcessorConfig, SimStats,
};
use koc_workloads::{kernels, KernelSource};
use perfbench::layers::{per_layer_catalogue, END_TO_END};
use perfbench::probe::{TimedEngine, TimedObserver, TimedSource};
use perfbench::report::{result_line, Metrics};
use perfbench::stats::{median, quartiles, sum_of_slice_medians, tail, Tally, MIN_BEYOND};
use perfbench::{memwall, serve_mix};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn slice_medians_ignore_a_burst_in_one_trial() {
    let trials = vec![
        vec![10.0, 20.0, 30.0],
        vec![11.0, 90.0, 29.0],
        vec![12.0, 21.0, 31.0],
    ];
    assert_eq!(sum_of_slice_medians(&trials), Some(11.0 + 21.0 + 30.0));
    assert_eq!(sum_of_slice_medians(&[]), None);
    assert_eq!(sum_of_slice_medians(&[vec![1.0], vec![1.0, 2.0]]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values from `statistics.quantiles(values, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
    assert_eq!(
        quartiles(&[4.0, 8.0, 15.0, 16.0, 23.0, 42.0]),
        Some([7.0, 15.5, 27.75])
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_is_p99_when_enough_samples_lie_beyond_it() {
    let v: Vec<f64> = (1..=2000).map(f64::from).collect();
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!(t.value, 1980.0);
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.samples, 2000);
    assert_eq!(t.beyond, 20);
}

#[test]
fn tail_drops_to_the_highest_percentile_with_ten_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!(t.beyond, MIN_BEYOND);
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    // Too few samples for any percentile: the maximum, flagged by
    // `beyond == 0`.
    let t = tail(&[2.0, 9.0, 4.0], 99.0).expect("non-empty");
    assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
    assert!(tail(&[], 99.0).is_none());
}

#[test]
fn a_failed_job_counts_as_missing_any_latency_limit() {
    let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
    v.extend([f64::INFINITY; 11]);
    assert_eq!(tail(&v, 99.0).expect("non-empty").value, f64::INFINITY);
    let line = result_line(false, 61, 11, &{
        let mut m = Metrics::default();
        m.push("job_p99_ms", "ms", f64::INFINITY, String::new());
        m
    });
    assert!(line.contains("\"value\": 1.7976931348623157e308"), "{line}");
}

#[test]
fn error_rate_counts_failures_over_attempts() {
    let mut t = Tally::default();
    assert_eq!(t.error_rate(), 0.0);
    t.check(true, || unreachable!("no message for a passing check"));
    t.check(false, || "bad".to_string());
    t.attempt(2);
    t.fail("retried".to_string());
    assert_eq!((t.attempted, t.failed), (4, 2));
    assert_eq!(t.error_rate(), 0.5);
    assert_eq!(t.failures, ["bad", "retried"]);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut m = Metrics::default();
    m.push("setup_s", "s", 0.8127, String::new());
    let line = result_line(true, 1000, 0, &m);
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
    );
    let parsed = koc_isa::json::parse_json(&line).expect("valid JSON");
    assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(1000));
}

/// The names and units the program reports are the ones `BENCHMARK.json`
/// declares, in both directions.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = koc_isa::json::parse_json(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(koc_isa::json::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_catalogue()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}

fn short_run(config: ProcessorConfig) -> SimStats {
    let source = KernelSource::new("gather", kernels::gather().with_target_len(3_000));
    Processor::new(config, source).run()
}

#[test]
fn engine_and_source_wrappers_leave_sim_stats_identical() {
    for config in [
        ProcessorConfig::cooo(32, 512, 300),
        ProcessorConfig::baseline(64, 300),
    ] {
        let plain = short_run(config);
        let mut source = TimedSource::new(KernelSource::new(
            "gather",
            kernels::gather().with_target_len(3_000),
        ));
        let (timed, clocks) =
            TimedEngine::wrap(engine::from_config::<NullObserver>(&config.commit));
        let wrapped = Processor::with_engine(config, &mut source, timed).run();
        assert_eq!(plain, wrapped, "{:?}", config.commit);
        let clocks = clocks.get();
        // One commit call per stepped cycle, never more than simulated.
        assert!(clocks.commit.calls > 0 && clocks.commit.calls <= wrapped.cycles);
        assert!(clocks.commit.timed_calls > 0);
        // The source is pulled once per instruction, plus the end marker.
        assert_eq!(source.clock.calls, wrapped.committed_instructions + 1);
    }
}

#[test]
fn observer_wrapper_leaves_sim_stats_and_buckets_identical() {
    let config = memwall::machine("cooo");
    let len = 5_000;
    let (src, expected) = memwall::source(3, len);
    let (plain, acct) =
        Processor::with_observer(config, src, CycleAccounting::new()).run_observed();
    let (src, _) = memwall::source(3, len);
    let (wrapped, obs) =
        Processor::with_observer(config, src, TimedObserver::new(CycleAccounting::new()))
            .run_observed();
    assert_eq!(plain, wrapped);
    assert_eq!(plain.committed_instructions, expected as u64);
    assert_eq!(acct.buckets(), obs.inner.buckets());
    assert_eq!(acct.buckets().total(), plain.cycles);
    assert!(obs.events > 0 && obs.sample.calls > 0);
}

#[test]
fn memwall_chain_is_the_three_kernels_in_order() {
    let (mut src, len) = memwall::source(1, 1_000);
    let mut n = 0;
    while src.next_inst().is_some() {
        n += 1;
    }
    assert_eq!(n, len);
    let names: Vec<_> = memwall::kernel_configs(1, 1_000)
        .iter()
        .map(|k| k.0)
        .collect();
    assert_eq!(names, ["pointer_chase", "stream_mlp", "stream_add"]);
}

#[test]
fn job_stream_is_seeded_and_never_repeats_a_fresh_key() {
    let draw = |seed| {
        let mut s = serve_mix::JobStream::new(seed);
        let mut out = Vec::new();
        for i in 0..200 {
            let (spec, repeat) = s.next_job();
            if !repeat && i % 2 == 0 {
                s.finished(spec.clone());
            }
            out.push((spec.cache_key(), repeat));
        }
        out
    };
    let a = draw(5);
    assert_eq!(a, draw(5));
    assert_ne!(a, draw(6));
    let fresh: Vec<_> = a.iter().filter(|(_, r)| !r).map(|(k, _)| k).collect();
    let unique: std::collections::HashSet<_> = fresh.iter().collect();
    assert_eq!(fresh.len(), unique.len());
    let repeats = a.iter().filter(|(_, r)| *r).count();
    assert!(repeats > 100, "{repeats} repeats of 200");
}

#[test]
fn fresh_specs_deal_every_engine_kernel_window_once_per_deck() {
    let mut s = serve_mix::JobStream::new(9);
    let mut seen = std::collections::HashSet::new();
    let deck = 2 * serve_mix::KERNELS.len() * serve_mix::WINDOWS.len();
    while seen.len() < deck {
        let (spec, repeat) = s.next_job();
        if !repeat {
            assert!(
                seen.insert((spec.engine, spec.workload, spec.window)),
                "a combination came twice in one deck"
            );
        }
    }
}
