//! TopAA remount in the order §3.4 describes: the first CP runs on the
//! partial heap the TopAA seed restored, and the background rebuild
//! completes the heap afterwards. The rebuild must leave the group's
//! active AA — popped from the heap by the CP that claimed it and still
//! mid-drain — out of the heap, or the next CP claims it twice.

use wafl_fs::{aging, iron, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{AaSizingPolicy, VolumeId};

/// 86 % of the group's 256 Ki data blocks: the AA the first CP leaves
/// mid-drain still ranks among the emptiest, so the second CP reaches it.
const LOGICAL: u64 = 225_000;

fn aged_agg(shards: usize) -> Aggregate {
    let mut a = Aggregate::new(
        AggregateConfig {
            write_shards: shards,
            // 4096 AAs per group: the 512-entry TopAA seed is a strict
            // subset, so the rebuild after the first CP has work to do.
            aa_policy_override: Some(AaSizingPolicy::Stripes { stripes: 16 }),
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 8 * 32768,
                aa_cache: true,
                aa_blocks: None,
            },
            LOGICAL,
        )],
        3,
    )
    .unwrap();
    aging::fill_volume(&mut a, VolumeId(0), 16_384).unwrap();
    aging::random_overwrite_churn(&mut a, VolumeId(0), 50_000, 8192, 0).unwrap();
    a
}

fn cp(a: &mut Aggregate, from: u64, writes: u64) {
    for l in from..from + writes {
        a.client_overwrite(VolumeId(0), l % LOGICAL).unwrap();
    }
    let stats = a.run_cp().unwrap();
    assert_eq!(stats.blocks_written, writes);
}

#[test]
fn rebuild_between_the_first_two_cps_after_a_remount() {
    for shards in [1, 2, 4] {
        let mut a = aged_agg(shards);
        let image = mount::save_topaa(&a);
        mount::crash(&mut a);
        mount::mount_with_topaa(&mut a, &image).unwrap();
        assert!(!a.groups()[0].cache().unwrap().is_complete());
        cp(&mut a, 0, 3000);
        assert!(mount::complete_background_rebuild(&mut a).unwrap() > 0);
        assert!(a.groups()[0].cache().unwrap().is_complete());
        cp(&mut a, 3000, 30_000);
        let report = iron::check(&a).unwrap();
        assert!(report.is_clean(), "{shards} shards: {report:?}");
    }
}
