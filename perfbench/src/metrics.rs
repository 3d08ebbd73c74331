//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names; a test keeps the two in step.

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off (`--trace 0`), over
/// the window's steady cycles. Throughput and CP time are read on the
/// wall clock and on the process CPU clock, which CPU stolen by the
/// hypervisor does not advance (README.md, "Clocks and steady cycles").
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("ops_per_s", "ops/s", Higher),
    m("cp_p50_ms", "ms", Lower),
    m("cp_p90_ms", "ms", Lower),
    m("ops_per_cpu_s", "ops/cpu-s", Higher),
    m("cp_cpu_p50_ms", "ms", Lower),
    m("cp_cpu_p90_ms", "ms", Lower),
    m("peak_rss_mib", "MiB", Lower),
    // 1 - failed_op_frac: the same verdict as a number that is never 0
    // on a good run, so a relative bound on it is defined.
    m("ok_op_frac", "ratio", Higher),
];

/// Per-layer metrics, from the separate traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // fs::aggregate ingest
    m("ingest.ns_per_op", "ns", Lower),
    m("read.ns_per_op", "ns", Lower),
    // fs::cp phases, per-CP means of CpStats::wall
    m("cp.plan_virtual_us", "us", Lower),
    m("cp.plan_physical_us", "us", Lower),
    m("cp.apply_us", "us", Lower),
    m("cp.bind_us", "us", Lower),
    m("cp.frees_us", "us", Lower),
    m("cp.costing_us", "us", Lower),
    m("cp.rebalance_us", "us", Lower),
    m("cp.glue_us", "us", Lower),
    // fs::allocator + fs::sharded
    m("alloc.blocks_examined_per_op", "count", Lower),
    m("alloc.aas_claimed_per_cp", "count", Lower),
    m("alloc.cursor_hit_rate", "ratio", Higher),
    m("alloc.sweep_fallback_picks", "count", Lower),
    m("alloc.agg_pick_free_frac", "ratio", Higher),
    m("alloc.vol_pick_free_frac", "ratio", Higher),
    m("alloc.steal_rate", "ratio", Lower),
    // wafl-core caches
    m("heap.sift_swaps_per_cp", "count", Lower),
    m("heap.rebalance_updates_per_cp", "count", Lower),
    m("hbps.bin_moves_per_cp", "count", Lower),
    m("hbps.list_refills", "count", Lower),
    m("alloc.replenish_pages_per_cp", "count", Lower),
    m("mem.heap_bytes", "B", Lower),
    m("mem.hbps_bytes", "B", Lower),
    // wafl-bitmap
    m("bitmap.metafile_pages_per_kop", "count", Lower),
    m("bitmap.all_scores_us", "us", Lower),
    m("bitmap.first_free_ns", "ns", Lower),
    // wafl-raid + wafl-media (the cost model)
    m("raid.full_stripe_frac", "ratio", Higher),
    m("raid.parity_reads_per_kblock", "count", Lower),
    m("model.media_us_per_op", "us", Lower),
    m("model.cpu_us_per_op", "us", Lower),
    // fs::delayed_free + fs::snapshot
    m("snapshot.create_ms", "ms", Lower),
    m("snapshot.delete_ms", "ms", Lower),
    m("snapshot.blocks_released_per_delete", "count", Higher),
    m("free_log.backlog_blocks", "count", Lower),
    m("free_log.applied_per_cp", "count", Higher),
    m("mem.free_log_ranking_bytes", "B", Lower),
    // fs::mount + core::topaa
    m("mount.save_topaa_us", "us", Lower),
    m("mount.auto_us", "us", Lower),
    m("mount.first_cp_ms", "ms", Lower),
    m("mount.background_rebuild_ms", "ms", Lower),
    m("mount.metafile_blocks_read", "count", Lower),
    m("mount.degraded_frac", "ratio", Lower),
    // self time of the benchmark's spans (span minus its children)
    m("span.round_self_us", "us", Lower),
    m("span.run_cp_self_us", "us", Lower),
    m("span.cp_self_us", "us", Lower),
    // host and tracer
    m("host.nproc", "count", Higher),
    m("host.write_shards", "count", Higher),
    m("host.steal_frac", "ratio", Lower),
    m("trace.overhead_frac", "ratio", Lower),
    m("trace.dropped_events", "count", Lower),
    m("trace.cps", "count", Higher),
];

/// The catalogue a run prints: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Measured values, in catalogue order once complete.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name` (must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not catalogued"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The catalogue entries that have no value yet.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    /// The `"metrics"` object of the result line, in catalogue order.
    /// Non-finite values (which a correct run never produces) print as 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "duplicate {}",
                d.name
            );
        }
    }

    #[test]
    fn json_keeps_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
