//! One benchmark run: the untraced end-to-end measurement or the traced
//! per-layer one, reduced to the catalogue's metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wafl_fs::Aggregate;

use crate::bench::{self, mean, median, quantile, setup, Client, Stop, Tally};
use crate::host::{self, CpuTimes};
use crate::metrics::{json_num, Metrics};
use crate::spans::{self, SpanLog};
use crate::workload::{OpStream, Scale, Spec, Workload};

/// Flight-recorder ring for the traced run, in events. The traced
/// window also stops early, at a cycle boundary, rather than let the
/// ring overflow, so `trace.dropped_events` stays 0.
pub const TRACE_RING_EVENTS: usize = 1 << 17;

/// Set-ups an end-to-end run times for `setup_s`.
pub const SETUPS: usize = 5;

/// Fewest set-ups `setup_s` is the median of: the quiet ones, or this
/// many with the least steal (as for cycles, [`bench::quietest`]).
pub const MIN_QUIET_SETUPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, s.
    pub seconds: f64,
    /// Measure exactly this many cycles instead (for repeat-run checks:
    /// a fixed window makes deterministic counts comparable).
    pub cycles: Option<u64>,
    /// Per-layer traced run instead of the end-to-end one.
    pub traced: bool,
    /// Workload size.
    pub scale: Scale,
    /// Where to write the result file and, when traced, the spans.
    pub out_dir: Option<PathBuf>,
}

/// What each row of [`Outcome::cycles`] holds.
pub const CYCLE_COLUMNS: [&str; 5] = [
    "ops_per_cpu_s",
    "ops_per_s",
    "steal_frac",
    "cp_cpu_p50_ms",
    "cp_p50_ms",
];

/// The host descriptor printed with every result.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// Available parallelism.
    pub nproc: usize,
    /// The aggregate's `write_shards` (the detected default).
    pub write_shards: usize,
    /// Git revision of the checkout, or `"unknown"`.
    pub git_rev: String,
    /// Share of CPU time stolen by the hypervisor during the run.
    pub steal_frac: f64,
}

impl HostInfo {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"write_shards\": {}, \"git_rev\": \"{}\", \"steal_frac\": {}}}",
            self.nproc,
            self.write_shards,
            self.git_rev,
            json_num(self.steal_frac)
        )
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The catalogue's metrics for this kind of run.
    pub metrics: Metrics,
    /// Everything attempted, and what failed.
    pub tally: Tally,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Host descriptor.
    pub host: HostInfo,
    /// Further figures printed for people but not part of the contract.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Per cycle of the (traced) window: [`CYCLE_COLUMNS`]. Written to
    /// the result file.
    pub cycles: Vec<[f64; 5]>,
}

impl Outcome {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.failures.is_empty()
    }
}

/// One measured window on a freshly set-up aggregate, and its verdict.
struct Window<'s> {
    client: Client<'s>,
    agg: Aggregate,
    /// CP count when the window began.
    first_cp: u64,
    /// Wall time spent in the window's cycles, s.
    elapsed_s: f64,
}

impl<'s> Window<'s> {
    fn new(spec: &'s Spec, seed: u64, agg: Aggregate) -> Window<'s> {
        let spans = agg.tracer().map(|t| SpanLog::aligned_to(t.now_us()));
        Window {
            client: Client::new(spec, OpStream::measured(spec, seed), spans),
            first_cp: agg.cp_count(),
            agg,
            elapsed_s: 0.0,
        }
    }

    /// Run cycles until `stop`; false if an error ended the window.
    fn run(&mut self, stop: Stop, out: &mut Outcome) -> bool {
        let t = Instant::now();
        let result = self.client.run(&mut self.agg, stop);
        self.elapsed_s += t.elapsed().as_secs_f64();
        if let Err(e) = &result {
            out.failures.push(format!("window aborted: {e}"));
        }
        result.is_ok()
    }

    /// Run the verdict and add it, and the window's own tally, to `out`.
    fn judge(&mut self, out: &mut Outcome) {
        let ev = &self.client.events;
        if let Some(events) = &ev.last_degradation {
            eprintln!(
                "perfbench: known defect: {} of {} TopAA mounts degraded; latest: {events}",
                ev.degraded_mounts, ev.mounts
            );
        }
        let v = bench::verdict(&mut self.agg);
        out.tally.add(self.client.tally);
        out.failures.append(&mut self.client.failures);
        out.tally.add(v.tally);
        out.failures.extend(v.failures);
    }
}

/// When the window that starts now ends.
fn stop(opts: &Options) -> Stop {
    match opts.cycles {
        Some(n) => Stop::Cycles(n),
        None => Stop::Deadline(Instant::now() + Duration::from_secs_f64(opts.seconds)),
    }
}

/// Set-up cost on both clocks, s, and the host CPU stolen meanwhile.
#[derive(Clone, Copy, Debug)]
struct SetupTime {
    cpu_s: f64,
    wall_s: f64,
    steal: f64,
}

fn timed_setup(
    spec: &Spec,
    opts: &Options,
    trace_events: usize,
) -> Result<(Aggregate, SetupTime), String> {
    let (t, cpu, host0) = (Instant::now(), host::process_cpu_s(), CpuTimes::now());
    let agg = setup(spec, opts.seed, trace_events).map_err(|e| format!("set-up failed: {e}"))?;
    let time = SetupTime {
        cpu_s: host::process_cpu_s() - cpu,
        wall_s: t.elapsed().as_secs_f64(),
        steal: host0.steal_frac_until(&CpuTimes::now()),
    };
    Ok((agg, time))
}

/// Run the benchmark once. `Err` means set-up itself failed.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cpu0 = CpuTimes::now();
    let spec = opts.workload.spec(opts.scale);
    let mut out = Outcome {
        metrics: Metrics::default(),
        tally: Tally::default(),
        failures: Vec::new(),
        host: HostInfo {
            nproc: host::nproc(),
            write_shards: spec.aggregate_config(0).write_shards,
            git_rev: host::git_rev(),
            steal_frac: 0.0,
        },
        notes: Vec::new(),
        cycles: Vec::new(),
    };
    if opts.traced {
        run_traced(&spec, opts, &mut out)?;
    } else {
        run_end_to_end(&spec, opts, &mut out)?;
    }
    out.host.steal_frac = cpu0.steal_frac_until(&CpuTimes::now());
    if opts.traced {
        out.metrics.set("host.steal_frac", out.host.steal_frac);
    }
    Ok(out)
}

fn run_end_to_end(spec: &Spec, opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let (agg, first) = timed_setup(spec, opts, 0)?;
    let mut w = Window::new(spec, opts.seed, agg);
    w.run(stop(opts), out);
    w.judge(out);
    // Peak RSS covers one aggregate and its window: it is read before
    // the repeat set-ups, whose freed memory would only add allocator
    // noise.
    let peak_rss = host::peak_rss_mib();
    let mut setups = vec![first];
    for _ in 1..SETUPS {
        setups.push(timed_setup(spec, opts, 0)?.1);
    }
    let quiet = bench::quietest(&setups, |t| t.steal, MIN_QUIET_SETUPS);
    let d = &w.client;
    out.cycles = cycle_table(d);
    let cpu = Figures::of(d, Clock::Cpu);
    let wall = Figures::of(d, Clock::Wall);
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        median(&mut quiet.iter().map(|t| t.cpu_s).collect::<Vec<_>>()),
    );
    m.set("ops_per_s", wall.ops_per_s);
    m.set("cp_p50_ms", wall.cp_p50_ms);
    m.set("cp_p90_ms", wall.cp_p90_ms);
    m.set("ops_per_cpu_s", cpu.ops_per_s);
    m.set("cp_cpu_p50_ms", cpu.cp_p50_ms);
    m.set("cp_cpu_p90_ms", cpu.cp_p90_ms);
    m.set("peak_rss_mib", peak_rss);
    let failed_frac = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    m.set("ok_op_frac", 1.0 - failed_frac);
    let cp_s: f64 = d.cp_ms.iter().sum::<f64>() / 1e3;
    out.notes = vec![
        ("failed_op_frac", failed_frac, "ratio"),
        (
            "wall.setup_s",
            median(&mut quiet.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
            "s",
        ),
        ("setup.quiet_setups", quiet.len() as f64, "count"),
        ("window.cycles", d.cycles.len() as f64, "count"),
        (
            "window.steady_cycles",
            bench::steady_cycles(&d.cycles).len() as f64,
            "count",
        ),
        ("window.cps", d.cp_ms.len() as f64, "count"),
        ("window.client_ops", d.ops() as f64, "count"),
        ("window.cp_share_of_wall", cp_s / w.elapsed_s, "ratio"),
        (
            "window.degraded_mounts",
            d.events.degraded_mounts as f64,
            "count",
        ),
    ];
    Ok(())
}

fn cycle_table(d: &Client<'_>) -> Vec<[f64; 5]> {
    d.cycles
        .iter()
        .map(|c| {
            [
                c.ops as f64 / c.cpu_s,
                c.ops as f64 / c.wall_s,
                c.steal,
                median(&mut d.cp_cpu_ms[c.cps.clone()].to_vec()),
                median(&mut d.cp_ms[c.cps.clone()].to_vec()),
            ]
        })
        .collect()
}

/// Which clock a figure is read on (README.md, "Clocks and steady cycles").
#[derive(Clone, Copy)]
enum Clock {
    /// The process CPU clock: every thread's user and system time.
    Cpu,
    Wall,
}

/// A window's throughput and CP-time quantiles on one clock, over its
/// steady cycles.
struct Figures {
    /// Median over cycles of client ops per second.
    ops_per_s: f64,
    cp_p50_ms: f64,
    cp_p90_ms: f64,
}

impl Figures {
    fn of(d: &Client<'_>, clock: Clock) -> Figures {
        let steady = bench::steady_cycles(&d.cycles);
        let (cp, secs): (&[f64], fn(&bench::Cycle) -> f64) = match clock {
            Clock::Cpu => (&d.cp_cpu_ms, |c| c.cpu_s),
            Clock::Wall => (&d.cp_ms, |c| c.wall_s),
        };
        let mut rates: Vec<f64> = steady.iter().map(|c| c.ops as f64 / secs(c)).collect();
        let mut cp_ms: Vec<f64> = steady
            .iter()
            .flat_map(|c| cp[c.cps.clone()].iter().copied())
            .collect();
        Figures {
            ops_per_s: median(&mut rates),
            cp_p50_ms: quantile(&mut cp_ms, 0.5),
            cp_p90_ms: quantile(&mut cp_ms, 0.9),
        }
    }
}

/// Registry counters read as window deltas; the per-shard lease and
/// steal families are summed under `allocator.shard.*`.
fn counters(agg: &Aggregate) -> BTreeMap<&'static str, u64> {
    let reg = agg.obs();
    let read = |name: &str| reg.counter_value(name).unwrap_or(0);
    let mut out: BTreeMap<&'static str, u64> = [
        "allocator.aas_claimed",
        "allocator.sweep_fallback_picks",
        "heap.sift_swaps",
        "heap.rebalance_updates",
        "hbps.bin_moves",
        "hbps.list_refills",
    ]
    .into_iter()
    .map(|name| (name, read(name)))
    .collect();
    let shards = 0..agg.config().write_shards;
    let sum = |family: &str| -> u64 {
        shards
            .clone()
            .map(|i| read(&format!("allocator.shard.{i}.{family}")))
            .sum()
    };
    out.insert("allocator.shard.leases", sum("leases"));
    out.insert("allocator.shard.steals", sum("steals"));
    out
}

fn run_traced(spec: &Spec, opts: &Options, out: &mut Outcome) -> Result<(), String> {
    // An untraced twin of the traced aggregate runs the same ops, one
    // cycle each in turn, so that `trace.overhead_frac` compares cycles
    // measured side by side rather than windows minutes apart.
    let (twin, _) = timed_setup(spec, opts, 0)?;
    let (agg, _) = timed_setup(spec, opts, TRACE_RING_EVENTS)?;
    let before = counters(&agg);
    let mut base = Window::new(spec, opts.seed, twin);
    let mut w = Window::new(spec, opts.seed, agg);
    let stop = stop(opts);
    while base.run(Stop::Cycles(1), out) && w.run(Stop::Cycles(1), out) {
        if w.client.reached(stop, w.client.cycles.len() as u64, &w.agg) {
            break;
        }
    }
    base.judge(out);
    let overhead = trace_overhead(&base.client.cycles, &w.client.cycles);
    let (base_rate, traced_rate) = (
        Figures::of(&base.client, Clock::Cpu).ops_per_s,
        Figures::of(&w.client, Clock::Cpu).ops_per_s,
    );
    drop(base);

    let last_cp = w.agg.cp_count();
    let after = counters(&w.agg);
    let delta = |name: &str| after[name].saturating_sub(before[name]) as f64;

    let d = &w.client;
    out.cycles = cycle_table(d);
    let a = &w.agg;
    let acc = &d.acc;
    let cps = d.cp_ms.len().max(1) as f64;
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let flushed_ops = acc.ops as f64;
    let m = &mut out.metrics;

    m.set("ingest.ns_per_op", per(d.ingest_ns, d.writes as f64));
    m.set("read.ns_per_op", per(d.read_ns, d.reads as f64));
    let wall = &acc.wall;
    m.set("cp.plan_virtual_us", wall.plan_virtual_us / cps);
    m.set("cp.plan_physical_us", wall.plan_physical_us / cps);
    m.set("cp.apply_us", wall.apply_us / cps);
    m.set("cp.bind_us", wall.bind_us / cps);
    m.set("cp.frees_us", wall.frees_us / cps);
    m.set("cp.costing_us", wall.costing_us / cps);
    m.set("cp.rebalance_us", wall.rebalance_us / cps);
    m.set("cp.glue_us", (wall.total_us - wall.phase_sum_us()) / cps);

    m.set(
        "alloc.blocks_examined_per_op",
        per(acc.blocks_examined as f64, flushed_ops),
    );
    m.set(
        "alloc.aas_claimed_per_cp",
        delta("allocator.aas_claimed") / cps,
    );
    m.set(
        "alloc.cursor_hit_rate",
        per(
            acc.cursor_hits as f64,
            (acc.cursor_hits + acc.cursor_misses) as f64,
        ),
    );
    m.set(
        "alloc.sweep_fallback_picks",
        delta("allocator.sweep_fallback_picks"),
    );
    m.set("alloc.agg_pick_free_frac", acc.agg_pick_free_mean());
    m.set("alloc.vol_pick_free_frac", acc.vol_pick_free_mean());
    m.set(
        "alloc.steal_rate",
        per(
            delta("allocator.shard.steals"),
            delta("allocator.shard.leases"),
        ),
    );

    m.set("heap.sift_swaps_per_cp", delta("heap.sift_swaps") / cps);
    m.set(
        "heap.rebalance_updates_per_cp",
        delta("heap.rebalance_updates") / cps,
    );
    m.set("hbps.bin_moves_per_cp", delta("hbps.bin_moves") / cps);
    m.set("hbps.list_refills", delta("hbps.list_refills"));
    m.set(
        "alloc.replenish_pages_per_cp",
        acc.replenish_pages as f64 / cps,
    );
    let heap_bytes: usize = a
        .groups()
        .iter()
        .filter_map(|g| g.cache())
        .map(|c| c.memory_bytes())
        .sum();
    let hbps_bytes: usize = a
        .volumes()
        .iter()
        .filter_map(|v| v.cache())
        .map(|c| c.memory_bytes())
        .chain(
            a.groups()
                .iter()
                .filter_map(|g| g.hbps_cache())
                .map(|h| h.memory_bytes()),
        )
        .sum();
    m.set("mem.heap_bytes", heap_bytes as f64);
    m.set("mem.hbps_bytes", hbps_bytes as f64);

    m.set(
        "bitmap.metafile_pages_per_kop",
        per(acc.metafile_pages as f64 * 1e3, flushed_ops),
    );
    m.set("bitmap.all_scores_us", bench::all_scores_us(a));
    m.set("bitmap.first_free_ns", bench::first_free_ns(a, opts.seed));

    m.set("raid.full_stripe_frac", acc.full_stripe_fraction());
    let parity_reads: u64 = acc.per_rg.iter().map(|r| r.parity_reads).sum();
    m.set(
        "raid.parity_reads_per_kblock",
        per(parity_reads as f64 * 1e3, acc.blocks_written as f64),
    );
    m.set("model.media_us_per_op", per(acc.media_us, flushed_ops));
    m.set("model.cpu_us_per_op", per(acc.cpu_us, flushed_ops));

    let ev = &d.events;
    let released: Vec<f64> = ev.snapshot_released.iter().map(|&b| b as f64).collect();
    m.set("snapshot.create_ms", mean(&ev.snapshot_create_ms));
    m.set("snapshot.delete_ms", mean(&ev.snapshot_delete_ms));
    m.set("snapshot.blocks_released_per_delete", mean(&released));
    m.set("free_log.backlog_blocks", d.backlog_sum / cps);
    m.set(
        "free_log.applied_per_cp",
        acc.delayed_frees_applied as f64 / cps,
    );
    m.set(
        "mem.free_log_ranking_bytes",
        a.free_log().ranking_memory_bytes() as f64,
    );

    let blocks_read: Vec<f64> = ev.metafile_blocks_read.iter().map(|&b| b as f64).collect();
    m.set("mount.save_topaa_us", mean(&ev.save_topaa_us));
    m.set("mount.auto_us", mean(&ev.mount_auto_us));
    m.set("mount.first_cp_ms", mean(&ev.first_cp_ms));
    m.set("mount.background_rebuild_ms", mean(&ev.rebuild_ms));
    m.set("mount.metafile_blocks_read", mean(&blocks_read));
    m.set(
        "mount.degraded_frac",
        per(ev.degraded_mounts as f64, ev.mounts as f64),
    );

    // Self times: the benchmark's spans plus the CP engine's journal,
    // restricted to the window's CPs.
    let tracer = a
        .tracer()
        .expect("traced set-up enables the flight recorder");
    let engine: Vec<spans::Span> = spans::engine_spans(&tracer.events())
        .into_iter()
        .filter(|s| (w.first_cp..last_cp).contains(&s.cp))
        .collect();
    let bench_spans = d.spans.as_ref().map(SpanLog::spans).unwrap_or(&[]);
    let all: Vec<spans::Span> = bench_spans.iter().chain(&engine).copied().collect();
    let table = spans::self_times(&all);
    m.set("span.round_self_us", spans::mean_self_us(&table, "round"));
    m.set("span.run_cp_self_us", spans::mean_self_us(&table, "run_cp"));
    m.set("span.cp_self_us", spans::mean_self_us(&table, "cp"));

    m.set("host.nproc", out.host.nproc as f64);
    m.set("host.write_shards", a.config().write_shards as f64);
    m.set("trace.overhead_frac", overhead);
    m.set("trace.dropped_events", tracer.dropped() as f64);
    m.set("trace.cps", d.cp_ms.len() as f64);
    out.notes = vec![
        ("trace.events_recorded", tracer.recorded() as f64, "count"),
        ("trace.ring_capacity", tracer.capacity() as f64, "count"),
        ("trace.bench_spans", bench_spans.len() as f64, "count"),
        ("trace.untraced_ops_per_cpu_s", base_rate, "ops/cpu-s"),
        ("trace.traced_ops_per_cpu_s", traced_rate, "ops/cpu-s"),
    ];
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = write_file(&path, &spans::chrome_json(bench_spans, &engine)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    w.judge(out);
    Ok(())
}

/// Median over paired cycles of 1 − traced / untraced client ops per
/// CPU second; cycle `i` of each window ran the same ops.
fn trace_overhead(untraced: &[bench::Cycle], traced: &[bench::Cycle]) -> f64 {
    let rate = |c: &bench::Cycle| c.ops as f64 / c.cpu_s;
    let mut pairs: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| 1.0 - rate(t) / rate(u))
        .collect();
    median(&mut pairs)
}

/// Write `text` to `path`, creating the parent directory.
pub fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(ops: u64, cpu_s: f64) -> bench::Cycle {
        bench::Cycle {
            ops,
            wall_s: cpu_s,
            cpu_s,
            steal: 0.0,
            cps: 0..0,
        }
    }

    #[test]
    fn trace_overhead_is_the_median_of_paired_ratios() {
        // The host halves its speed for the last two pairs; pairing
        // cancels it, and the median ignores the one outlying pair.
        let untraced = [1.0, 1.0, 1.0, 2.0, 2.0].map(|s| cycle(100, s));
        let traced = [1.1, 1.1, 3.0, 2.2, 2.2].map(|s| cycle(100, s));
        let overhead = trace_overhead(&untraced, &traced);
        assert!((overhead - (1.0 - 1.0 / 1.1)).abs() < 1e-12, "{overhead}");
    }
}
