//! Per-layer accumulators of the traced run and the one place that
//! names the per-layer metrics. Every traced run emits every metric;
//! a layer the workload never calls reports 0.

use std::time::Instant;

use crate::{Outcome, Samples};

/// Wall time and call count of one timed public call site.
#[derive(Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Mean time per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ms() * 1e3
    }
}

/// Times `f`, charging its wall time to `span` and to the running
/// stage sum of the verdict being replayed.
pub fn timed<T>(span: &mut Span, staged: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    let ns = start.elapsed().as_nanos() as u64;
    span.add(ns);
    *staged += ns;
    value
}

/// Nanoseconds since `start`.
pub fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Everything the traced run measures, layer by layer.
#[derive(Default)]
pub struct Layers {
    // converter + health
    pub capture: Span,
    pub captured_samples: u64,
    pub calibrate: Span,
    pub health: Span,
    // cost + lms
    pub cost_build: Span,
    pub cost_eval: Span,
    pub lms: Span,
    pub lms_iterations: u64,
    pub skew_err_ps_max: f64,
    // gridplan
    pub plan_build: Span,
    pub recon: Span,
    pub recon_points: u64,
    // scan + mask
    pub scan_build: Span,
    pub probed_bins: u64,
    pub push: Span,
    pub pushed_samples: u64,
    pub segments: u64,
    pub fold: Span,
    pub mask_fail_inputs: u64,
    // wire (per job)
    pub decode: Span,
    pub handle: Span,
    pub encode: Span,
    pub wire_bytes: u64,
    pub wire_frames: u64,
    pub partial_reports: u64,
    // service
    pub verdicts_per_s: f64,
    pub service_overhead_ms: f64,
    pub parallel_efficiency: f64,
    pub retries: u64,
    pub recovered_panics: u64,
    // signal as golden reference
    pub delta_eps_ms: f64,
    // campaign
    pub campaign_s: f64,
    pub cell_s: Samples,
    pub calibrate_skew: Span,
    pub campaign_runs: u64,
    pub campaign_errored: u64,
    pub detection_rate: f64,
    pub false_alarms: u64,
    // bist orchestration: replayed verdicts against untraced ones
    pub staged_ns: u64,
    pub untraced: Span,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Sum of stage times ÷ untraced verdict time over the replayed
    /// verdicts (0 when none were replayed).
    pub fn stage_coverage(&self) -> f64 {
        ratio(self.staged_ns as f64, self.untraced.ns as f64)
    }

    /// Flags a replica whose stages no longer account for the verdict.
    pub fn check_coverage(&self, out: &mut Outcome) {
        let c = self.stage_coverage();
        if !(0.9..=1.1).contains(&c) {
            out.faults.push(format!(
                "bist.stage_coverage {c:.3} outside 0.9-1.1: the replica no longer \
                 matches the engine's orchestration"
            ));
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        let n = |s: &Span| s.calls as usize;
        let per = |count: u64, s: &Span| ratio(count as f64, s.calls as f64);
        let c = &self.capture;
        out.metric("converter.capture_ms", c.mean_ms(), "ms", n(c));
        out.metric(
            "converter.samples",
            per(self.captured_samples, c),
            "count",
            n(c),
        );
        out.metric(
            "converter.calibrate_us",
            self.calibrate.mean_us(),
            "us",
            n(&self.calibrate),
        );
        out.metric(
            "health.scan_us",
            self.health.mean_us(),
            "us",
            n(&self.health),
        );

        out.metric(
            "cost.build_us",
            self.cost_build.mean_us(),
            "us",
            n(&self.cost_build),
        );
        out.metric(
            "cost.eval_ms",
            self.cost_eval.mean_ms(),
            "ms",
            n(&self.cost_eval),
        );
        out.metric("lms.ms", self.lms.mean_ms(), "ms", n(&self.lms));
        out.metric(
            "lms.iterations",
            per(self.lms_iterations, &self.lms),
            "count",
            n(&self.lms),
        );
        out.metric(
            "lms.evals_equiv",
            ratio(self.lms.mean_ms(), self.cost_eval.mean_ms()),
            "count",
            n(&self.lms),
        );
        out.metric(
            "lms.skew_err_ps_max",
            self.skew_err_ps_max,
            "ps",
            n(&self.lms),
        );

        let r = &self.recon;
        out.metric(
            "gridplan.build_us",
            self.plan_build.mean_us(),
            "us",
            n(&self.plan_build),
        );
        out.metric("gridplan.recon_ms", r.mean_ms(), "ms", n(r));
        out.metric(
            "gridplan.ns_per_point",
            ratio(r.ns as f64, self.recon_points as f64),
            "ns",
            n(r),
        );
        out.metric("gridplan.points", per(self.recon_points, r), "count", n(r));

        let p = &self.push;
        out.metric(
            "scan.build_us",
            self.scan_build.mean_us(),
            "us",
            n(&self.scan_build),
        );
        out.metric(
            "scan.builds_per_scan",
            per(self.scan_build.calls, p),
            "ratio",
            n(p),
        );
        out.metric(
            "scan.probed_bins",
            per(self.probed_bins, &self.scan_build),
            "count",
            n(&self.scan_build),
        );
        out.metric("scan.push_ms", p.mean_ms(), "ms", n(p));
        out.metric(
            "scan.ns_per_sample",
            ratio(p.ns as f64, self.pushed_samples as f64),
            "ns",
            n(p),
        );
        out.metric("scan.segments", per(self.segments, p), "count", n(p));
        out.metric("mask.fold_us", self.fold.mean_us(), "us", n(&self.fold));
        out.metric(
            "mask.fail_verdicts",
            self.mask_fail_inputs as f64,
            "count",
            n(p),
        );

        let d = &self.decode;
        out.metric("wire.decode_ms", d.mean_ms(), "ms", n(d));
        out.metric(
            "wire.handle_ms",
            self.handle.mean_ms(),
            "ms",
            n(&self.handle),
        );
        out.metric(
            "wire.encode_us",
            self.encode.mean_us(),
            "us",
            n(&self.encode),
        );
        out.metric("wire.bytes", per(self.wire_bytes, d), "count", n(d));
        out.metric("wire.frames", per(self.wire_frames, d), "count", n(d));
        out.metric(
            "wire.partial_reports",
            per(self.partial_reports, d),
            "count",
            n(d),
        );
        out.metric(
            "wire.decode_mb_per_s",
            ratio(self.wire_bytes as f64 / 1e6, d.ns as f64 / 1e9),
            "MB/s",
            n(d),
        );

        out.metric("service.verdicts_per_s", self.verdicts_per_s, "1/s", 1);
        out.metric("service.overhead_ms", self.service_overhead_ms, "ms", 1);
        out.metric(
            "service.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
            1,
        );
        out.metric("service.retries", self.retries as f64, "count", 1);
        out.metric(
            "service.recovered_panics",
            self.recovered_panics as f64,
            "count",
            1,
        );

        out.metric("bist.delta_eps_ms", self.delta_eps_ms, "ms", 1);

        let cells = self.cell_s.len();
        out.metric("campaign.total_s", self.campaign_s, "s", cells);
        out.metric("campaign.cell_s_p50", self.cell_s.median(), "s", cells);
        out.metric("campaign.cell_s_max", self.cell_s.max(), "s", cells);
        out.metric(
            "campaign.calibrate_ms",
            self.calibrate_skew.mean_ms(),
            "ms",
            n(&self.calibrate_skew),
        );
        out.metric("campaign.runs", self.campaign_runs as f64, "count", cells);
        out.metric(
            "campaign.errored_runs",
            self.campaign_errored as f64,
            "count",
            cells,
        );
        out.metric(
            "campaign.detection_rate",
            self.detection_rate,
            "ratio",
            cells,
        );
        out.metric(
            "campaign.false_alarms",
            self.false_alarms as f64,
            "count",
            cells,
        );

        let u = &self.untraced;
        out.metric("bist.untraced_ms", u.mean_ms(), "ms", n(u));
        out.metric(
            "bist.glue_ms",
            ratio(u.ns as f64 - self.staged_ns as f64, u.calls as f64) / 1e6,
            "ms",
            n(u),
        );
        out.metric("bist.stage_coverage", self.stage_coverage(), "ratio", n(u));
    }
}
