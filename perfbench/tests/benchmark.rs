//! The benchmark's own tests: seeded inputs, the metric catalogue
//! against `BENCHMARK.json`, complete output on every workload, and a
//! verdict that catches a damaged aggregate.

use wafl_faults::{FaultPlan, FaultSession, RuntimeScribbleFault, RuntimeTarget};
use wafl_obs::trace::json::{self, Value};
use wafl_perfbench::bench;
use wafl_perfbench::metrics::{catalogue, MetricDef, END_TO_END, PER_LAYER};
use wafl_perfbench::runner::{self, Options};
use wafl_perfbench::workload::{OpStream, Round, Scale, Workload};

fn rounds(w: Workload, seed: u64, n: usize) -> Vec<Round> {
    let spec = w.spec(Scale::Full);
    let mut stream = OpStream::measured(&spec, seed);
    (0..n)
        .map(|_| {
            let mut r = Round::default();
            stream.next_round(spec.writes_per_cp, &mut r);
            r
        })
        .collect()
}

#[test]
fn one_seed_gives_one_op_stream_and_another_seed_another() {
    for w in Workload::ALL {
        let a = rounds(w, 11, 3);
        assert_eq!(a, rounds(w, 11, 3), "{}", w.name());
        assert_ne!(a, rounds(w, 12, 3), "{}", w.name());
        let spec = w.spec(Scale::Full);
        assert!(a.iter().all(|r| r.writes.len() == spec.writes_per_cp));
    }
    // Set-up churn draws from its own stream, not the measured one.
    let spec = Workload::Aged97.spec(Scale::Full);
    let mut aging = OpStream::aging(&spec, 11);
    let mut r = Round::default();
    aging.next_round(spec.writes_per_cp, &mut r);
    assert_ne!(r, rounds(Workload::Aged97, 11, 1)[0]);
}

#[test]
fn oltp_rounds_mix_reads_and_writes() {
    let r = &rounds(Workload::OltpSmallCp, 5, 1)[0];
    let reads = r.reads.len() as f64;
    assert!((0.4..0.6).contains(&(reads / (reads + r.writes.len() as f64))));
    assert!(rounds(Workload::Aged97, 5, 1)[0].reads.is_empty());
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn assert_same_metrics(listed: &Value, defs: &[MetricDef], with_bound: bool) {
    let listed = listed.as_arr().expect("metric list");
    let names: Vec<&str> = listed
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(d.better.as_str()),
            "{}",
            d.name
        );
        let bound = m.get("bound").and_then(Value::as_f64);
        assert_eq!(bound.is_some(), with_bound, "{}", d.name);
        if let Some(b) = bound {
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec = benchmark_json();
    assert_same_metrics(spec.get("end_to_end").unwrap(), END_TO_END, true);
    assert_same_metrics(spec.get("per_layer").unwrap(), PER_LAYER, false);
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
}

#[test]
fn every_workload_prints_every_metric_and_is_correct() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = runner::run(&Options {
                workload: w,
                seed: 3,
                seconds: 0.2,
                cycles: None,
                traced,
                scale: Scale::Test,
                out_dir: None,
            })
            .expect("set-up succeeds");
            let defs = catalogue(traced);
            assert!(
                out.correct(),
                "{} traced={traced}: {:?}",
                w.name(),
                out.failures
            );
            assert_eq!(out.metrics.missing(defs), Vec::<&str>::new());
            let line = out.metrics.to_json(defs);
            for d in defs {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
            }
            if traced {
                assert_eq!(out.metrics.get("trace.dropped_events"), Some(0.0));
                assert!(out.metrics.get("trace.cps").unwrap() > 0.0);
            } else {
                assert_eq!(out.metrics.get("ok_op_frac"), Some(1.0));
                assert!(out.metrics.get("ops_per_s").unwrap() > 0.0);
                assert!(out.metrics.get("ops_per_cpu_s").unwrap() > 0.0);
            }
        }
    }
}

#[test]
fn verdict_fails_on_a_scribbled_summary_counter() {
    let spec = Workload::OltpSmallCp.spec(Scale::Test);
    let mut agg = bench::setup(&spec, 1, 0).expect("set-up");
    assert!(bench::verdict(&mut agg).is_clean());

    let plan = FaultPlan {
        runtime_scribbles: vec![RuntimeScribbleFault {
            target: RuntimeTarget::AggSummaryPage { page: 0 },
            at_cp: 0,
            value_seed: 0xDEAD_BEEF,
        }],
        ..FaultPlan::default()
    };
    let mut session = FaultSession::new(&plan);
    assert_eq!(
        wafl_fs::scrub::apply_due_runtime_scribbles(&mut agg, &mut session),
        1
    );
    let v = bench::verdict(&mut agg);
    assert!(!v.is_clean());
    assert!(
        v.failures
            .iter()
            .any(|f| f.contains("stale_summary_counters: 1")),
        "{:?}",
        v.failures
    );
}
