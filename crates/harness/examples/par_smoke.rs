//! Sharded write-allocation smoke gate: the sharded CP pipeline must
//! beat the sequential reference planner, and must agree with it.
//!
//! Two arms run the same overwrite+CP workload:
//!
//! * **baseline** — the `wafl-oracle` crate's `OracleAggregate`, the
//!   frozen transcription of the retired legacy (`write_shards: 0`)
//!   pipeline (per-block binds, frees, and costing). Pinned explicitly
//!   by planner name, not by a config value that could silently resolve
//!   to the candidate;
//! * **candidate** — `write_shards: 4`, the lease-based sharded planner
//!   with partitioned bitmap applies.
//!
//! Each arm reports which planner it ran; the gate refuses to measure a
//! planner against itself (a baseline/candidate mix-up fails loudly
//! instead of producing a vacuous 1.0x "speedup" and zero "diffs").
//!
//! The gate (`scripts/ci.sh --par-smoke`) fails unless:
//!
//! 1. candidate *end-to-end* throughput — client ingest plus every
//!    `run_cp`, the whole timed run — is ≥ 1.3x baseline, comparing the
//!    median whole-run time of each arm over `TRIALS` interleaved
//!    trials. Every trial is a run that happened; the CP-pipeline share
//!    of each trial is printed alongside for context but is not gated;
//! 2. zero parity diffs: identical aggregate free space, per-volume free
//!    space, and logical→virtual mappings after the full workload.
//!
//! Usage: `cargo run --release -p wafl-harness --example par_smoke`.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;
use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_oracle::{OracleAggregate, OracleRaidGroupSpec, OracleVolSpec};
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};

const ROUNDS: u64 = 10;
const OPS: u64 = 8192;
const TRIALS: u32 = 5;
const LOGICAL: u64 = 200_000;
const MIN_SPEEDUP: f64 = 1.3;
const SHARDS: usize = 4;

const BASELINE_PLANNER: &str = "wafl-oracle/sequential";

fn candidate_planner() -> String {
    format!("wafl-fs/sharded({SHARDS})")
}

fn build(shards: usize) -> Aggregate {
    let mut agg = Aggregate::new(
        AggregateConfig {
            write_shards: shards,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 64 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 16 * BITS_PER_BITMAP_BLOCK,
                aa_cache: true,
                aa_blocks: None,
            },
            LOGICAL,
        )],
        1,
    )
    .expect("aggregate");
    wafl_fs::aging::fill_volume(&mut agg, VolumeId(0), 8192).expect("fill");
    agg
}

fn build_oracle() -> OracleAggregate {
    let mut orc = OracleAggregate::new(
        &[OracleRaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 64 * 4096,
        }],
        &[(
            OracleVolSpec {
                size_blocks: 16 * BITS_PER_BITMAP_BLOCK,
                aa_blocks: None,
            },
            LOGICAL,
        )],
    )
    .expect("oracle aggregate");
    // Same prefill as `aging::fill_volume(.., 8192)`.
    let mut l = 0u64;
    while l < LOGICAL {
        let end = (l + 8192).min(LOGICAL);
        for b in l..end {
            orc.client_overwrite(VolumeId(0), b).expect("fill");
        }
        orc.run_cp().expect("fill cp");
        l = end;
    }
    orc
}

/// Everything the two planners must agree on after the workload.
#[derive(PartialEq, Debug)]
struct Digest {
    agg_free: u64,
    vol_free: u64,
    /// logical → vvbn for every logical block (placement-independent).
    vvbn_map: Vec<Option<u64>>,
}

/// One timed run of either arm: planner name, per-round CP-pipeline wall
/// seconds, end-to-end wall seconds, and the end-state digest (identical
/// op sequence per call — same seed).
struct ArmResult {
    planner: String,
    cp_secs: Vec<f64>,
    total_secs: f64,
    digest: Digest,
}

fn run_candidate() -> ArmResult {
    let mut agg = build(SHARDS);
    let mut rng = StdRng::seed_from_u64(13);
    let start = Instant::now();
    let mut cp_secs = Vec::with_capacity(ROUNDS as usize);
    for _ in 0..ROUNDS {
        for _ in 0..OPS {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..LOGICAL))
                .expect("overwrite");
        }
        let cp = Instant::now();
        agg.run_cp().expect("cp");
        cp_secs.push(cp.elapsed().as_secs_f64());
    }
    let total_secs = start.elapsed().as_secs_f64();
    let vol = &agg.volumes()[0];
    ArmResult {
        planner: candidate_planner(),
        cp_secs,
        total_secs,
        digest: Digest {
            agg_free: agg.bitmap().free_blocks(),
            vol_free: vol.free_blocks(),
            vvbn_map: (0..LOGICAL)
                .map(|l| vol.lookup_logical(l).map(|v| v.get()))
                .collect(),
        },
    }
}

fn run_baseline() -> ArmResult {
    let mut orc = build_oracle();
    let mut rng = StdRng::seed_from_u64(13);
    let start = Instant::now();
    let mut cp_secs = Vec::with_capacity(ROUNDS as usize);
    for _ in 0..ROUNDS {
        for _ in 0..OPS {
            orc.client_overwrite(VolumeId(0), rng.random_range(0..LOGICAL))
                .expect("overwrite");
        }
        let cp = Instant::now();
        orc.run_cp().expect("cp");
        cp_secs.push(cp.elapsed().as_secs_f64());
    }
    let total_secs = start.elapsed().as_secs_f64();
    let vol = &orc.volumes()[0];
    ArmResult {
        planner: BASELINE_PLANNER.to_string(),
        cp_secs,
        total_secs,
        digest: Digest {
            agg_free: orc.bitmap().free_blocks(),
            vol_free: vol.free_blocks(),
            vvbn_map: (0..LOGICAL)
                .map(|l| vol.lookup_logical(l).map(|v| v.get()))
                .collect(),
        },
    }
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() {
    let mut baseline_e2e: Vec<f64> = Vec::new();
    let mut candidate_e2e: Vec<f64> = Vec::new();
    let mut parity: Option<(Digest, Digest)> = None;
    for trial in 0..TRIALS {
        let baseline = run_baseline();
        let candidate = run_candidate();
        if trial == 0 {
            eprintln!(
                "baseline planner: {}; candidate planner: {}",
                baseline.planner, candidate.planner
            );
            if baseline.planner == candidate.planner {
                eprintln!(
                    "FAIL: baseline and candidate resolved to the same planner \
                     ({}) — the gate would be comparing a pipeline to itself",
                    baseline.planner
                );
                std::process::exit(1);
            }
        }
        baseline_e2e.push(baseline.total_secs);
        candidate_e2e.push(candidate.total_secs);
        eprintln!(
            "trial {trial}: end-to-end baseline {:.0} ops/s, candidate {:.0} ops/s \
             (CP pipeline {:.0} / {:.0})",
            (ROUNDS * OPS) as f64 / baseline.total_secs,
            (ROUNDS * OPS) as f64 / candidate.total_secs,
            (ROUNDS * OPS) as f64 / baseline.cp_secs.iter().sum::<f64>(),
            (ROUNDS * OPS) as f64 / candidate.cp_secs.iter().sum::<f64>(),
        );
        if parity.is_none() {
            parity = Some((baseline.digest, candidate.digest));
        }
    }
    let median_baseline = median(baseline_e2e);
    let median_candidate = median(candidate_e2e);
    let (d_baseline, d_candidate) = parity.expect("at least one trial");

    let mut diffs = 0u64;
    if d_baseline.agg_free != d_candidate.agg_free {
        eprintln!(
            "PARITY DIFF: aggregate free {} (baseline) vs {} (candidate)",
            d_baseline.agg_free, d_candidate.agg_free
        );
        diffs += 1;
    }
    if d_baseline.vol_free != d_candidate.vol_free {
        eprintln!(
            "PARITY DIFF: volume free {} (baseline) vs {} (candidate)",
            d_baseline.vol_free, d_candidate.vol_free
        );
        diffs += 1;
    }
    let map_diffs = d_baseline
        .vvbn_map
        .iter()
        .zip(&d_candidate.vvbn_map)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if map_diffs > 0 {
        eprintln!("PARITY DIFF: {map_diffs} logical→virtual mappings diverge");
        diffs += map_diffs;
    }

    let speedup = median_baseline / median_candidate;
    println!(
        "par_smoke: end-to-end {} {:.0} ops/s vs {BASELINE_PLANNER} {:.0} ops/s \
         (median of {TRIALS} trials, {speedup:.2}x, gate >= {MIN_SPEEDUP}x); \
         parity diffs {diffs}",
        candidate_planner(),
        (ROUNDS * OPS) as f64 / median_candidate,
        (ROUNDS * OPS) as f64 / median_baseline,
    );
    if diffs > 0 {
        eprintln!("FAIL: candidate planner diverged from the wafl-oracle baseline");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: candidate/baseline speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate");
        std::process::exit(1);
    }
}
