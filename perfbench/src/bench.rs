//! Set-up, the measured window, the correctness verdict, and the
//! reduction of one window to metrics.
//!
//! One process, one closed-loop client: every call into the file system
//! returns before the next is issued. A window is a sequence of cycles;
//! each cycle runs the workload's cycle event (remount, snapshot, or
//! nothing) and then `cycle_cps` rounds of client ops, each round ending
//! in one `Aggregate::run_cp`.

use std::hint::black_box;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_fs::{aging, iron, mount, Aggregate, CpStats, HealthState};
use wafl_types::{Vbn, VolumeId, WaflError, WaflResult};

use crate::host::{process_cpu_s, CpuTimes};
use crate::spans::SpanLog;
use crate::workload::{CycleEvent, OpStream, Round, Spec};

/// Build one workload aggregate: construct, write every logical block
/// of every volume once, then run `aging_cycles` cycles of write-only
/// churn with the workload's cycle event.
pub fn setup(spec: &Spec, seed: u64, trace_events: usize) -> WaflResult<Aggregate> {
    let mut agg = Aggregate::new(spec.aggregate_config(trace_events), &spec.vols, seed)?;
    for (vol, _) in spec.working_sets() {
        aging::fill_volume(&mut agg, vol, spec.writes_per_cp)?;
    }
    let mut churn = Client::new(spec, OpStream::aging(spec, seed), None);
    churn.run(&mut agg, Stop::Cycles(spec.aging_cycles))?;
    if churn.tally.failed > 0 {
        return Err(WaflError::InvalidConfig {
            reason: format!("{} client ops failed during set-up", churn.tally.failed),
        });
    }
    Ok(agg)
}

/// Operations attempted and failed: client ops, CPs, cycle events and
/// verdict checks alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Count one attempt; `ok` says whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Failures described individually; the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 16;

/// When a window ends (always at a cycle boundary).
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many cycles.
    Cycles(u64),
    /// At the first cycle boundary past this instant, or earlier if the
    /// flight-recorder ring could not hold another cycle.
    Deadline(Instant),
}

/// Timings and counts from the cycle events of a window.
#[derive(Clone, Debug, Default)]
pub struct EventStats {
    /// `snapshot_create` wall times, ms.
    pub snapshot_create_ms: Vec<f64>,
    /// `snapshot_delete` wall times, ms.
    pub snapshot_delete_ms: Vec<f64>,
    /// Blocks released per snapshot delete.
    pub snapshot_released: Vec<u64>,
    /// `save_topaa` wall times, µs.
    pub save_topaa_us: Vec<f64>,
    /// `mount_auto` wall times, µs.
    pub mount_auto_us: Vec<f64>,
    /// Wall time of the first CP after each mount, ms.
    pub first_cp_ms: Vec<f64>,
    /// `complete_background_rebuild` wall times, ms.
    pub rebuild_ms: Vec<f64>,
    /// Metafile blocks each mount read.
    pub metafile_blocks_read: Vec<u64>,
    /// TopAA mounts run.
    pub mounts: u64,
    /// Mounts that fell back to a cold scan for some structure.
    pub degraded_mounts: u64,
    /// The degradation events of the latest degraded mount.
    pub last_degradation: Option<String>,
}

/// One completed cycle of a window.
#[derive(Clone, Debug, PartialEq)]
pub struct Cycle {
    /// Client ops completed.
    pub ops: u64,
    /// Wall time, cycle event included, s.
    pub wall_s: f64,
    /// Process CPU time over the same span, s.
    pub cpu_s: f64,
    /// Share of the host's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
    /// The cycle's CPs, as indices into [`Client::cp_ms`].
    pub cps: std::ops::Range<usize>,
}

/// Cycles with at most this much stolen host CPU count as quiet.
pub const QUIET_STEAL: f64 = 0.05;

/// Fewest cycles the window's figures come from (at least 128 CPs on
/// every workload).
pub const MIN_STEADY_CYCLES: usize = 8;

/// The cycles the window's figures come from: the quiet ones, or, when
/// fewer than [`MIN_STEADY_CYCLES`] were quiet, that many with the least
/// steal. Even on the CPU clock a CP costs more while the hypervisor
/// steals (README.md, "Clocks and steady cycles"); a neighbour's steal
/// then shows in `host.steal_frac` and the `window.steady_cycles` note
/// rather than in the timings, unless it lasted the whole window.
pub fn steady_cycles(cycles: &[Cycle]) -> Vec<&Cycle> {
    quietest(cycles, |c| c.steal, MIN_STEADY_CYCLES)
}

/// The items measured while the host was quiet (at most
/// [`QUIET_STEAL`] of its CPU stolen), or, when fewer than `min` were,
/// the `min` with the least steal.
pub fn quietest<T>(items: &[T], steal: impl Fn(&T) -> f64, min: usize) -> Vec<&T> {
    let quiet: Vec<&T> = items.iter().filter(|c| steal(c) <= QUIET_STEAL).collect();
    if quiet.len() >= min {
        return quiet;
    }
    let mut by_steal: Vec<&T> = items.iter().collect();
    by_steal.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    by_steal.truncate(min);
    by_steal
}

/// The closed-loop client: drives rounds and cycle events against one
/// aggregate.
pub struct Client<'s> {
    spec: &'s Spec,
    stream: OpStream,
    round: Round,
    /// Attempts and failures so far.
    pub tally: Tally,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Wall time of every `run_cp`, ms.
    pub cp_ms: Vec<f64>,
    /// Process CPU time of every `run_cp`, ms.
    pub cp_cpu_ms: Vec<f64>,
    /// Every completed cycle.
    pub cycles: Vec<Cycle>,
    /// Accumulated CP statistics.
    pub acc: CpStats,
    /// Client writes queued by completed rounds.
    pub writes: u64,
    /// Client reads served by completed rounds.
    pub reads: u64,
    /// Wall time inside `client_overwrite` batches, ns.
    pub ingest_ns: f64,
    /// Wall time inside `client_read` batches, ns.
    pub read_ns: f64,
    /// Sum over CPs of the delayed-free log backlog after the CP.
    pub backlog_sum: f64,
    /// Cycle-event timings.
    pub events: EventStats,
    /// Span journal (traced runs only).
    pub spans: Option<SpanLog>,
    /// Most flight-recorder events one cycle has added.
    max_cycle_events: usize,
    first_cp_after_mount: bool,
    read_sink: f64,
}

impl<'s> Client<'s> {
    /// A client issuing `stream`'s ops; `spans` turns span recording on.
    pub fn new(spec: &'s Spec, stream: OpStream, spans: Option<SpanLog>) -> Client<'s> {
        Client {
            spec,
            stream,
            round: Round::default(),
            tally: Tally::default(),
            failures: Vec::new(),
            cp_ms: Vec::new(),
            cp_cpu_ms: Vec::new(),
            cycles: Vec::new(),
            acc: CpStats::default(),
            writes: 0,
            reads: 0,
            ingest_ns: 0.0,
            read_ns: 0.0,
            backlog_sum: 0.0,
            events: EventStats::default(),
            spans,
            max_cycle_events: 0,
            first_cp_after_mount: false,
            read_sink: 0.0,
        }
    }

    /// Client ops completed (writes + reads).
    pub fn ops(&self) -> u64 {
        self.writes + self.reads
    }

    /// Count one attempt; describe it if it failed.
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < MAX_REPORTED_FAILURES {
            self.failures.push(what());
        }
    }

    fn span_start(&self) -> f64 {
        self.spans.as_ref().map_or(0.0, SpanLog::now_us)
    }

    fn span_close(&mut self, name: &'static str, cp: u64, start_us: f64) {
        if let Some(log) = &mut self.spans {
            log.close(name, cp, start_us);
        }
    }

    /// Run cycles until `stop`. An error from a CP or a cycle event ends
    /// the window; it is also counted in the tally.
    pub fn run(&mut self, agg: &mut Aggregate, stop: Stop) -> WaflResult<()> {
        let mut cycles = 0u64;
        loop {
            let t0 = Instant::now();
            let cpu0 = process_cpu_s();
            let host0 = CpuTimes::now();
            let ops0 = self.ops();
            let cps0 = self.cp_ms.len();
            let events0 = agg.tracer().map_or(0, |t| t.recorded());
            self.cycle_event(agg)?;
            for _ in 0..self.spec.cycle_cps {
                self.round(agg)?;
            }
            self.cycles.push(Cycle {
                ops: self.ops() - ops0,
                wall_s: t0.elapsed().as_secs_f64(),
                cpu_s: process_cpu_s() - cpu0,
                steal: host0.steal_frac_until(&CpuTimes::now()),
                cps: cps0..self.cp_ms.len(),
            });
            cycles += 1;
            if let Some(t) = agg.tracer() {
                self.max_cycle_events = self.max_cycle_events.max(t.recorded() - events0);
            }
            if self.reached(stop, cycles, agg) {
                return Ok(());
            }
        }
    }

    /// True when a window that has run `cycles` cycles should end at
    /// `stop`: also when the flight-recorder ring may not hold two more
    /// cycles like the largest so far.
    pub fn reached(&self, stop: Stop, cycles: u64, agg: &Aggregate) -> bool {
        match stop {
            Stop::Cycles(n) => cycles >= n,
            Stop::Deadline(at) => {
                Instant::now() >= at
                    || agg
                        .tracer()
                        .is_some_and(|t| t.recorded() + 2 * self.max_cycle_events > t.capacity())
            }
        }
    }

    /// One round: generate the CP's ops, queue the writes, serve the
    /// reads, run the CP.
    fn round(&mut self, agg: &mut Aggregate) -> WaflResult<()> {
        let cp = agg.cp_count();
        let round_start = self.span_start();
        self.stream
            .next_round(self.spec.writes_per_cp, &mut self.round);

        let s = self.span_start();
        let t = Instant::now();
        let mut failed = Vec::new();
        for &(vol, logical) in &self.round.writes {
            if let Err(e) = agg.client_overwrite(vol, logical) {
                failed.push(format!("client_overwrite({vol}, {logical}): {e}"));
            }
        }
        self.ingest_ns += t.elapsed().as_secs_f64() * 1e9;
        self.span_close("ingest", cp, s);

        let s = self.span_start();
        let t = Instant::now();
        let mut sink = 0.0;
        for &(vol, logical) in &self.round.reads {
            // Every logical block was written at set-up, so every read
            // must reach the media; a free read means a lost mapping.
            match agg.client_read(vol, logical) {
                Ok(cost) if cost > 0.0 => sink += cost,
                Ok(_) => failed.push(format!("client_read({vol}, {logical}) is unmapped")),
                Err(e) => failed.push(format!("client_read({vol}, {logical}): {e}")),
            }
        }
        self.read_ns += t.elapsed().as_secs_f64() * 1e9;
        self.span_close("read", cp, s);
        self.read_sink += black_box(sink);
        let (nw, nr) = (
            self.round.writes.len() as u64,
            self.round.reads.len() as u64,
        );
        self.tally.attempted += nw + nr;
        self.tally.failed += failed.len() as u64;
        let room = MAX_REPORTED_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(failed.into_iter().take(room));

        let s = self.span_start();
        let t = Instant::now();
        let cpu = process_cpu_s();
        let result = agg.run_cp();
        let cpu_ms = (process_cpu_s() - cpu) * 1e3;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.span_close("run_cp", cp, s);
        self.record(result.is_ok(), || {
            format!("run_cp: {:?}", result.as_ref().err())
        });
        let stats = result?;
        self.cp_ms.push(ms);
        self.cp_cpu_ms.push(cpu_ms);
        self.acc.accumulate(&stats);
        self.writes += nw;
        self.reads += nr;
        self.backlog_sum += agg.free_log().pending() as f64;

        if std::mem::take(&mut self.first_cp_after_mount) {
            self.events.first_cp_ms.push(ms);
        }
        self.span_close("round", cp, round_start);
        Ok(())
    }

    fn cycle_event(&mut self, agg: &mut Aggregate) -> WaflResult<()> {
        let cp = agg.cp_count();
        match self.spec.event {
            CycleEvent::None => Ok(()),
            CycleEvent::Remount => {
                let s = self.span_start();
                let t = Instant::now();
                let image = mount::save_topaa(agg);
                self.events
                    .save_topaa_us
                    .push(t.elapsed().as_secs_f64() * 1e6);
                self.span_close("mount.save_topaa", cp, s);

                let s = self.span_start();
                mount::crash(agg);
                self.span_close("mount.crash", cp, s);

                let s = self.span_start();
                let t = Instant::now();
                let stats = mount::mount_auto(agg, &image);
                self.events
                    .mount_auto_us
                    .push(t.elapsed().as_secs_f64() * 1e6);
                self.span_close("mount.auto", cp, s);
                self.events
                    .metafile_blocks_read
                    .push(stats.metafile_blocks_read);
                // A degraded mount is a handled outcome, not an error: the
                // structure is cold-scanned and quarantined until a clean
                // scrub pass. Intact images still degrade now and then
                // (README.md, "Known defects"), so it is counted apart.
                self.events.mounts += 1;
                if !stats.degraded.is_empty() {
                    self.events.degraded_mounts += 1;
                    self.events.last_degradation = Some(format!("{:?}", stats.degraded));
                }

                // The rebuild runs before the first CP, not after it:
                // rebuilding after a CP re-inserts the group's active AA
                // into the heap and the next CP plans it twice (see
                // README.md, "Known defects").
                let s = self.span_start();
                let t = Instant::now();
                let rebuilt = mount::complete_background_rebuild(agg);
                self.events.rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
                self.span_close("mount.rebuild", cp, s);
                self.record(rebuilt.is_ok(), || {
                    format!("rebuild: {:?}", rebuilt.as_ref().err())
                });
                rebuilt?;
                self.first_cp_after_mount = true;
                Ok(())
            }
            CycleEvent::Snapshot { keep } => {
                let vol = VolumeId(0);
                let s = self.span_start();
                let t = Instant::now();
                let created = agg.snapshot_create(vol);
                self.events
                    .snapshot_create_ms
                    .push(t.elapsed().as_secs_f64() * 1e3);
                self.span_close("snapshot.create", cp, s);
                self.record(created.is_ok(), || {
                    format!("snapshot_create: {:?}", created.as_ref().err())
                });
                created?;
                while agg.snapshots(vol).len() > keep {
                    let oldest = agg.snapshots(vol)[0];
                    let s = self.span_start();
                    let t = Instant::now();
                    let deleted = agg.snapshot_delete(vol, oldest);
                    self.events
                        .snapshot_delete_ms
                        .push(t.elapsed().as_secs_f64() * 1e3);
                    self.span_close("snapshot.delete", cp, s);
                    self.record(deleted.is_ok(), || {
                        format!("snapshot_delete: {:?}", deleted.as_ref().err())
                    });
                    self.events.snapshot_released.push(deleted?.blocks_released);
                }
                Ok(())
            }
        }
    }
}

/// The correctness verdict on an aggregate after its window.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Checks run and failed.
    pub tally: Tally,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok {
            self.failures.push(what());
        }
    }

    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.tally.failed == 0
    }
}

/// Flush with one CP, then require that Iron finds nothing, health is
/// Healthy, and every logical block (all were written at set-up) still
/// maps.
///
/// The flush comes first because between `snapshot_delete` and the next
/// CP, Iron reports the pending delayed vvbn frees as leaked (README.md,
/// "Known defects").
pub fn verdict(agg: &mut Aggregate) -> Verdict {
    let mut v = Verdict::default();
    let flushed = agg.run_cp();
    v.check(flushed.is_ok(), || {
        format!("flushing CP failed: {:?}", flushed.err())
    });
    match iron::check(agg) {
        Ok(report) => v.check(report.is_clean(), || format!("iron: {report:?}")),
        Err(e) => v.check(false, || format!("iron check failed: {e}")),
    }
    let health = agg.health();
    v.check(health == HealthState::Healthy, || {
        format!("health {health:?}")
    });
    let unmapped: u64 = agg
        .volumes()
        .iter()
        .map(|vol| {
            (0..vol.logical_blocks())
                .filter(|&l| vol.lookup_logical(l).is_none())
                .count() as u64
        })
        .sum();
    v.check(unmapped == 0, || {
        format!("{unmapped} written blocks unmapped")
    });
    v
}

/// Mean wall time of `all_scores` over every group, µs (median of 5).
pub fn all_scores_us(agg: &Aggregate) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for g in agg.groups() {
                black_box(g.topology().all_scores(agg.bitmap()));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

/// Mean wall time of `first_free_from` from seeded random positions, ns.
pub fn first_free_ns(agg: &Aggregate, seed: u64) -> f64 {
    const PROBES: u32 = 4096;
    let space = agg.bitmap().space_len();
    let mut rng = StdRng::seed_from_u64(seed);
    let starts: Vec<u64> = (0..PROBES).map(|_| rng.random_range(0..space)).collect();
    let t = Instant::now();
    for &s in &starts {
        black_box(agg.bitmap().first_free_from(Vbn(black_box(s))));
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(PROBES)
}

/// Median; 0 for an empty slice. Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile; 0 for an empty slice. Sorts in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of a slice of µs/ms/counts; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(steal: f64) -> Cycle {
        Cycle {
            ops: 1,
            wall_s: 1.0,
            cpu_s: 1.0,
            steal,
            cps: 0..0,
        }
    }

    #[test]
    fn steady_cycles_drop_stolen_ones_but_keep_a_minimum() {
        let steals = |cycles: &[Cycle]| -> Vec<f64> {
            steady_cycles(cycles).iter().map(|c| c.steal).collect()
        };
        let mut mixed = vec![cycle(0.3); 20];
        mixed.extend((0..MIN_STEADY_CYCLES).map(|_| cycle(0.01)));
        assert_eq!(steals(&mixed), [0.01; MIN_STEADY_CYCLES]);
        let noisy = [0.3, 0.1, 0.2, 0.06, 0.4, 0.07, 0.0, 0.5, 0.09, 0.08].map(cycle);
        assert_eq!(steals(&noisy), [0.0, 0.06, 0.07, 0.08, 0.09, 0.1, 0.2, 0.3]);
        let short = [cycle(0.2), cycle(0.0)];
        assert_eq!(steals(&short), [0.0, 0.2]);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
