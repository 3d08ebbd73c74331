//! Reproducers for program defects the benchmark works around. Each is
//! ignored because it fails today; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
//! When one passes, the work-around it names can go.

use wafl_fs::{aging, mount, Aggregate};
use wafl_perfbench::workload::{OpStream, Round, Scale, Spec, Workload};

fn churn(agg: &mut Aggregate, spec: &Spec, stream: &mut OpStream) -> wafl_types::WaflResult<()> {
    let mut round = Round::default();
    stream.next_round(spec.writes_per_cp, &mut round);
    for &(vol, logical) in &round.writes {
        agg.client_overwrite(vol, logical)?;
    }
    agg.run_cp().map(|_| ())
}

/// The TopAA remount in the order §3.4 describes: the first CP runs on
/// the seeded partial heap and the background rebuild completes it
/// afterwards. The rebuild re-inserts the group's active AA (popped from
/// the heap when the CP claimed it) and the next CP plans it twice:
/// `mutate_runs_partitioned` rejects overlapping runs. `aged_97`
/// therefore rebuilds before the first CP.
#[test]
#[ignore = "known defect: complete_background_rebuild after a CP re-inserts the active AA"]
fn remount_rebuild_after_the_first_cp() {
    let spec = Workload::Aged97.spec(Scale::Full);
    let mut agg = Aggregate::new(spec.aggregate_config(0), &spec.vols, 1).unwrap();
    aging::fill_volume(&mut agg, wafl_types::VolumeId(0), spec.writes_per_cp).unwrap();
    let mut stream = OpStream::aging(&spec, 1);
    for _ in 0..10 {
        churn(&mut agg, &spec, &mut stream).unwrap();
    }
    let image = mount::save_topaa(&agg);
    mount::crash(&mut agg);
    mount::mount_auto(&mut agg, &image);
    churn(&mut agg, &spec, &mut stream).expect("first CP after the mount");
    mount::complete_background_rebuild(&mut agg).unwrap();
    churn(&mut agg, &spec, &mut stream).expect("second CP after the mount");
}

/// Live volume HBPS state drifts until a bin lists more AAs than it
/// counts; `save_topaa` writes that state and `mount_auto` rejects it as
/// a corrupt metafile ("bin N lists X entries but counts Y"), so an
/// intact image mounts degraded. The defect is random (3–17 % of
/// remounts at 97 % fill so far); this probe remounts up to 48 times.
#[test]
#[ignore = "known defect: an intact volume TopAA image can fail HBPS validation"]
fn intact_topaa_images_mount_without_degradation() {
    let spec = Workload::Aged97.spec(Scale::Full);
    let mut agg = Aggregate::new(spec.aggregate_config(0), &spec.vols, 9).unwrap();
    aging::fill_volume(&mut agg, wafl_types::VolumeId(0), spec.writes_per_cp).unwrap();
    let mut stream = OpStream::aging(&spec, 9);
    for remount in 0..48 {
        for _ in 0..25 {
            churn(&mut agg, &spec, &mut stream).unwrap();
        }
        let image = mount::save_topaa(&agg);
        mount::crash(&mut agg);
        let stats = mount::mount_auto(&mut agg, &image);
        assert!(
            stats.degraded.is_empty(),
            "remount {remount}: {:?}",
            stats.degraded
        );
        mount::complete_background_rebuild(&mut agg).unwrap();
    }
}

/// Between `snapshot_delete` and the next CP the released pairs wait as
/// delayed frees. Iron excuses pending free-log pvbns but not pending
/// vvbn frees: it reports each released pair as a leaked vvbn and an
/// owner mismatch, and the volume's accounting as wrong. The verdict
/// therefore audits only after a CP.
#[test]
#[ignore = "known defect: iron::check flags pending delayed vvbn frees after snapshot_delete"]
fn iron_is_clean_between_snapshot_delete_and_the_next_cp() {
    let spec = Workload::SnapshotChurn.spec(Scale::Test);
    let mut agg = wafl_perfbench::bench::setup(&spec, 1, 0).unwrap();
    let vol = wafl_types::VolumeId(0);
    agg.snapshot_create(vol).unwrap();
    let oldest = agg.snapshots(vol)[0];
    let released = agg.snapshot_delete(vol, oldest).unwrap().blocks_released;
    assert!(released > 0);
    let report = wafl_fs::iron::check(&agg).unwrap();
    assert!(report.is_clean(), "{released} blocks released: {report:?}");
}
