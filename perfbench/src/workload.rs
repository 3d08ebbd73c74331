//! The three workloads: aggregate shape, set-up recipe, op stream and
//! cadence. Everything random is derived from the benchmark's seed; the
//! program under test only ever sees the generated operations.

use wafl_fs::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::VolumeId;
use wafl_workloads::{OltpMix, Op, RandomOverwrite};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many volumes, small CPs, half reads: per-CP fixed cost and ingest
    /// dominate, free-space search is cheap.
    OltpSmallCp,
    /// One 97 %-full aged group with large CPs and periodic TopAA
    /// remounts: free-space search dominates.
    Aged97,
    /// Batched frees with a rolling snapshot window: the delayed-free
    /// path does most of the work.
    SnapshotChurn,
}

/// How large to build a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for the benchmark's own tests in a debug build.
    Test,
}

/// What happens at the start of every cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleEvent {
    /// Nothing: a cycle is only a measurement segment.
    None,
    /// `save_topaa` → `crash` → `mount_auto` →
    /// `complete_background_rebuild`; the cycle's first CP is the first
    /// after the mount.
    Remount,
    /// Snapshot volume 0, then delete its oldest snapshot once more than
    /// `keep` exist.
    Snapshot {
        /// Snapshots retained after the delete.
        keep: usize,
    },
}

/// A workload's aggregate, set-up recipe and cadence.
#[derive(Clone, Debug)]
pub struct Spec {
    /// RAID groups, in PVBN order.
    pub groups: Vec<RaidGroupSpec>,
    /// Volumes: config and logical (client-addressable) size.
    pub vols: Vec<(FlexVolConfig, u64)>,
    /// Route physical frees through the delayed-free log.
    pub batched_frees: bool,
    /// Client writes per CP.
    pub writes_per_cp: usize,
    /// Fraction of client ops that are reads.
    pub read_fraction: f64,
    /// CPs per cycle; the cycle event runs at each cycle's start.
    pub cycle_cps: u64,
    /// The cycle event.
    pub event: CycleEvent,
    /// Cycles of write-only churn (with the cycle event) after the
    /// sequential fill, before measurement.
    pub aging_cycles: u64,
    /// Runtime scrub budget per CP (0 = scrub off, the default).
    pub scrub_pages_per_cp: u64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OltpSmallCp,
        Workload::Aged97,
        Workload::SnapshotChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSmallCp => "oltp_small_cp",
            Workload::Aged97 => "aged_97",
            Workload::SnapshotChurn => "snapshot_churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape at `scale`.
    pub fn spec(self, scale: Scale) -> Spec {
        let small = scale == Scale::Test;
        let hdd = |data_devices: u32, device_blocks: u64| RaidGroupSpec {
            data_devices,
            parity_devices: 1,
            device_blocks,
            profile: MediaProfile::hdd(),
        };
        let vol = |size_blocks: u64, logical: u64| {
            (
                FlexVolConfig {
                    size_blocks,
                    aa_cache: true,
                    aa_blocks: None,
                },
                logical,
            )
        };
        const KI: u64 = 1024;
        match self {
            // 2 groups x 256 Ki blocks; 8 volumes x 26 Ki logical blocks
            // = 40 % of the physical space.
            Workload::OltpSmallCp => {
                let dev = if small { 8 * KI } else { 64 * KI };
                let physical = 2 * 4 * dev;
                let logical = physical * 2 / 5 / 8;
                Spec {
                    groups: vec![hdd(4, dev), hdd(4, dev)],
                    vols: (0..8).map(|_| vol(128 * KI, logical)).collect(),
                    batched_frees: false,
                    writes_per_cp: if small { 256 } else { 1024 },
                    read_fraction: 0.5,
                    cycle_cps: 64,
                    event: CycleEvent::None,
                    aging_cycles: 2,
                    scrub_pages_per_cp: 0,
                }
            }
            // 1 group of 1 Mi data blocks, one volume written to 97 %.
            Workload::Aged97 => {
                let dev = if small { 16 * KI } else { 128 * KI };
                let physical = 8 * dev;
                Spec {
                    groups: vec![hdd(8, dev)],
                    vols: vec![vol(physical, physical * 97 / 100)],
                    batched_frees: false,
                    writes_per_cp: if small {
                        2 * KI as usize
                    } else {
                        16 * KI as usize
                    },
                    read_fraction: 0.0,
                    cycle_cps: 25,
                    event: CycleEvent::Remount,
                    aging_cycles: 3,
                    // Scrub heals the quarantine a degraded mount leaves
                    // (README.md, "Known defects"); a pass over all 66
                    // units takes 9 CPs, well inside one 25-CP cycle.
                    scrub_pages_per_cp: 8,
                }
            }
            // One 200 Ki-block volume in a 512 Ki-block group, batched
            // frees, a snapshot every 16 CPs keeping the newest two.
            Workload::SnapshotChurn => {
                let dev = if small { 16 * KI } else { 128 * KI };
                let physical = 4 * dev;
                Spec {
                    groups: vec![hdd(4, dev)],
                    vols: vec![vol(physical, physical * 25 / 64)],
                    batched_frees: true,
                    writes_per_cp: if small { KI as usize } else { 8 * KI as usize },
                    read_fraction: 0.0,
                    cycle_cps: 16,
                    event: CycleEvent::Snapshot { keep: 2 },
                    aging_cycles: 3,
                    scrub_pages_per_cp: 0,
                }
            }
        }
    }
}

impl Spec {
    /// The aggregate configuration: paper defaults, the host's detected
    /// `write_shards`, and a flight-recorder ring of `trace_events`
    /// (0 = tracing off).
    pub fn aggregate_config(&self, trace_events: usize) -> AggregateConfig {
        AggregateConfig {
            raid_groups: self.groups.clone(),
            batched_frees: self.batched_frees,
            scrub_pages_per_cp: self.scrub_pages_per_cp,
            trace_events,
            ..AggregateConfig::single_group(self.groups[0].clone())
        }
    }

    /// Every volume paired with its logical size, for generators.
    pub fn working_sets(&self) -> Vec<(VolumeId, u64)> {
        self.vols
            .iter()
            .enumerate()
            .map(|(i, &(_, logical))| (VolumeId(i as u32), logical))
            .collect()
    }
}

/// Salt separating the set-up churn's stream from the measured stream.
const AGING_SALT: u64 = 0xA6E1_0000_0000_0001;

/// The seeded client op stream of one workload, cut into CP rounds.
pub struct OpStream {
    inner: Box<dyn wafl_workloads::Workload>,
}

/// One CP round of client ops, split by kind (queued writes and reads
/// commute within a CP: a read sees the last CP's mapping either way).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Round {
    /// Overwrites, in stream order.
    pub writes: Vec<(VolumeId, u64)>,
    /// Point reads, in stream order.
    pub reads: Vec<(VolumeId, u64)>,
}

impl OpStream {
    /// The measured stream for `spec` and `seed`.
    pub fn measured(spec: &Spec, seed: u64) -> OpStream {
        OpStream::new(spec, seed, spec.read_fraction)
    }

    /// The write-only set-up churn stream for `spec` and `seed`.
    pub fn aging(spec: &Spec, seed: u64) -> OpStream {
        OpStream::new(spec, seed ^ AGING_SALT, 0.0)
    }

    fn new(spec: &Spec, seed: u64, read_fraction: f64) -> OpStream {
        let sets = spec.working_sets();
        let inner: Box<dyn wafl_workloads::Workload> = if sets.len() == 1 && read_fraction == 0.0 {
            Box::new(RandomOverwrite::new(sets[0].0, sets[0].1, seed))
        } else {
            Box::new(OltpMix::new(sets, read_fraction, seed))
        };
        OpStream { inner }
    }

    /// Fill `round` with the next ops up to and including the
    /// `writes`-th write.
    pub fn next_round(&mut self, writes: usize, round: &mut Round) {
        round.writes.clear();
        round.reads.clear();
        while round.writes.len() < writes {
            match self.inner.next_op() {
                Op::Write { vol, logical } => round.writes.push((vol, logical)),
                Op::Read { vol, logical } => round.reads.push((vol, logical)),
                other => unreachable!("generators used here never emit {other:?}"),
            }
        }
    }
}
