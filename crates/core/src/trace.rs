//! The opt-in stage ledger of a verdict: per-stage wall time and the
//! LMS trajectory, reported to a [`VerdictTrace`] sink while
//! [`BistEngine::try_run_traced`](crate::bist::BistEngine::try_run_traced)
//! or [`try_calibrate_skew_traced`](crate::bist::BistEngine::try_calibrate_skew_traced)
//! runs. The sink sits outside [`BistReport`](crate::report::BistReport),
//! so a traced verdict's report equals the untraced one's, and the
//! untraced entry points feed [`NoTrace`], which never reads the clock.

use crate::lms::LmsResult;
use std::time::{Duration, Instant};

/// The stages of a verdict, in the order it runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictStage {
    /// A capture through the front-end model, its health scan and its
    /// offset/gain calibration; reported once per capture.
    Capture,
    /// The dual-rate cost: both captures' probe sums.
    CostBuild,
    /// The LMS descent (paper Algorithm 1).
    Lms,
    /// The analysis grid: its plan and every block the feed produces
    /// (and, with a reference, the Δε sums over the block).
    Reconstruction,
    /// The mask scan: the scanner (cached across verdicts) and every
    /// block it is pushed.
    Scan,
    /// The fold of the scan into the report: the mask verdict, the
    /// noise figure and the gates.
    Fold,
}

impl VerdictStage {
    /// Every stage, in verdict order.
    pub const ALL: [VerdictStage; 6] = [
        VerdictStage::Capture,
        VerdictStage::CostBuild,
        VerdictStage::Lms,
        VerdictStage::Reconstruction,
        VerdictStage::Scan,
        VerdictStage::Fold,
    ];

    /// The stage's machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            VerdictStage::Capture => "capture",
            VerdictStage::CostBuild => "cost_build",
            VerdictStage::Lms => "lms",
            VerdictStage::Reconstruction => "reconstruction",
            VerdictStage::Scan => "scan",
            VerdictStage::Fold => "fold",
        }
    }
}

/// A sink for a verdict's stage ledger, passed as `&mut dyn
/// VerdictTrace`. Every method has a no-op default.
pub trait VerdictTrace {
    /// Whether the engine reads the clock for this sink.
    fn enabled(&self) -> bool {
        true
    }

    /// `stage` ran for `elapsed`. A stage that runs in pieces (two
    /// captures, a streamed grid) reports each piece.
    fn stage(&mut self, stage: VerdictStage, elapsed: Duration) {
        let _ = (stage, elapsed);
    }

    /// The LMS descent finished: its evaluation count and its
    /// per-iteration trajectory (`result.trace`, the paper's Fig. 6).
    fn lms(&mut self, result: &LmsResult) {
        let _ = result;
    }
}

/// The no-op sink the untraced entry points feed: it asks for no clock
/// reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl VerdictTrace for NoTrace {
    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that sums each stage's wall time and keeps the last LMS
/// result.
#[derive(Clone, Debug, Default)]
pub struct StageLedger {
    totals: [Duration; 6],
    lms: Option<LmsResult>,
}

impl StageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The total wall time reported for `stage`.
    pub fn total(&self, stage: VerdictStage) -> Duration {
        self.totals[stage as usize]
    }

    /// The total over every stage.
    pub fn sum(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// The last LMS descent reported, if any.
    pub fn lms(&self) -> Option<&LmsResult> {
        self.lms.as_ref()
    }
}

impl VerdictTrace for StageLedger {
    fn stage(&mut self, stage: VerdictStage, elapsed: Duration) {
        self.totals[stage as usize] += elapsed;
    }

    fn lms(&mut self, result: &LmsResult) {
        self.lms = Some(result.clone());
    }
}

/// The engine's view of a sink: reads the clock only when the sink is
/// enabled.
pub(crate) struct StageClock<'a> {
    sink: &'a mut dyn VerdictTrace,
    on: bool,
}

impl<'a> StageClock<'a> {
    pub(crate) fn new(sink: &'a mut dyn VerdictTrace) -> Self {
        let on = sink.enabled();
        StageClock { sink, on }
    }

    /// The start of a timed piece, when the sink is enabled.
    pub(crate) fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Reports the piece of `stage` begun at `start`.
    pub(crate) fn stop(&mut self, stage: VerdictStage, start: Option<Instant>) {
        if let Some(start) = start {
            self.sink.stage(stage, start.elapsed());
        }
    }

    /// Runs `f` as one piece of `stage`.
    pub(crate) fn time<T>(&mut self, stage: VerdictStage, f: impl FnOnce() -> T) -> T {
        let start = self.start();
        let out = f();
        self.stop(stage, start);
        out
    }

    pub(crate) fn lms(&mut self, result: &LmsResult) {
        self.sink.lms(result);
    }
}
