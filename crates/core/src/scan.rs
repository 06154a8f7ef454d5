//! Banked-Goertzel spectral-mask scanning.
//!
//! The FFT-Welch verdict path estimates the full one-sided PSD of the
//! reconstructed waveform — thousands of bins — and then checks the
//! few dozen bins a [`SpectralMask`] actually constrains. The
//! [`MaskScanEngine`] inverts that: it enumerates, once, exactly the
//! Welch bins that fall inside a mask segment or the 0 dBc reference
//! region, and evaluates *only those* with a
//! [`GoertzelBank`] — one windowed
//! recurrence pass per Welch segment, the same window coefficients,
//! hop and density normalization as [`rfbist_dsp::psd::welch`], and a
//! shared accumulator for the segment average. There is one segment
//! loop, the push-style [`StreamingMaskScan`]; the batched
//! [`MaskScanEngine::try_scan`] is a single push of the whole capture
//! through it, so a streamed verdict in any chunking is bit-identical
//! to the batched one.
//!
//! Because the probed frequencies are the *same* bin centers the FFT
//! would produce and Goertzel evaluates the same DFT sum, the two
//! paths agree to numerical noise (≪ 0.5 dB; in practice ~1e-9 dB) —
//! `tests/mask_scan_equivalence.rs` pins this on the Section V
//! fixtures. The win is arithmetic volume: for the paper's 4 GHz
//! analysis grid the mask constrains ~170 of 4097 bins, so the banked
//! scan skips ~96 % of the spectrum the FFT must compute. The FFT
//! still wins when most bins are needed; the break-even against this
//! workspace's radix-2 FFT sits near `N/8` probed bins
//! (`BENCH_recon.json`, `mask_scan` section).

use crate::error::BistError;
use crate::mask::{report_from_margins, MaskReport, SpectralMask};
use rfbist_dsp::goertzel::{GoertzelBank, GoertzelState};
use rfbist_dsp::window::Window;

/// One probed Welch bin and its verdict role.
#[derive(Clone, Copy, Debug)]
struct ScanBin {
    /// Absolute bin center frequency, Hz.
    freq: f64,
    /// Binding mask limit in dBc (tightest covering segment), `None`
    /// for bins probed only for the 0 dBc reference.
    limit_dbc: Option<f64>,
    /// Whether the bin lies inside the reference region.
    in_reference: bool,
    /// Whether the bin lies inside the noise-figure measurement band.
    in_noise: bool,
    /// One-sided density factor: 2 for interior bins, 1 for DC/Nyquist.
    one_sided: f64,
}

/// A prepared spectral-mask compliance scanner: mask bin table,
/// Goertzel coefficient bank and window coefficients for one
/// (mask, carrier, sample rate, Welch segmentation) configuration.
///
/// Mirrors the `PnbsGridPlan` split: everything that does not depend on
/// the waveform — bin selection, `2cos ω` tables, window, density
/// normalization — is computed once here; [`try_scan`](Self::try_scan)
/// then runs one banked recurrence pass per Welch segment, through the
/// same [`StreamingMaskScan`] a block feed pushes into.
///
/// # Example
///
/// ```
/// use rfbist_core::error::BistError;
/// use rfbist_core::mask::{MaskSegment, SpectralMask};
/// use rfbist_core::scan::MaskScanEngine;
/// use rfbist_dsp::window::Window;
/// use std::f64::consts::PI;
///
/// let fs = 400e6;
/// let fc = 100e6;
/// let x: Vec<f64> = (0..8192)
///     .map(|i| (2.0 * PI * fc * i as f64 / fs).sin())
///     .collect();
/// let segment = MaskSegment {
///     offset_lo: 8e6,
///     offset_hi: 40e6,
///     limit_dbc: -30.0,
/// };
/// let mask = SpectralMask::try_new("doc", 5e6, vec![segment])?;
/// let window = Window::BlackmanHarris;
/// let engine = MaskScanEngine::try_build(&mask, fc, fs, 4096, 2048, window, None)?;
/// let report = engine.try_scan(&x)?;
/// assert!(report.passed);
/// # Ok::<(), BistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MaskScanEngine {
    mask_name: String,
    carrier_hz: f64,
    segment_len: usize,
    hop: usize,
    window: Vec<f64>,
    /// `1/(fs·Σw²)` — the Welch density normalization shared by every
    /// probed bin.
    scale: f64,
    bank: GoertzelBank,
    bins: Vec<ScanBin>,
}

impl MaskScanEngine {
    /// Prepares a scanner for `mask` around `carrier_hz` on waveforms
    /// sampled at `fs` (both in Hz), Welch-averaged over
    /// `segment_len`-sample segments overlapping by `overlap` samples
    /// under `window`.
    ///
    /// The probed bins are exactly the `k·fs/segment_len` centers of
    /// the equivalent [`rfbist_dsp::psd::welch`] estimate that fall
    /// inside the reference region or a mask segment. A violation of
    /// `welch`'s parameter contract (`segment_len > 0`,
    /// `overlap < segment_len`, `fs > 0`) is
    /// [`BistError::InvalidConfig`]. A bin grid with no bin inside the
    /// reference region, or none inside any mask segment, is
    /// [`BistError::NoMaskCoverage`], as for
    /// [`SpectralMask::try_check`] on an equivalent PSD: a scan that
    /// could never fail must not be constructible.
    ///
    /// `noise_band` adds a noise-figure measurement band, given as
    /// absolute carrier offsets `(offset_lo, offset_hi)` in Hz: bins
    /// with `offset_lo ≤ |f − carrier| ≤ offset_hi` (both sidebands)
    /// are probed alongside the mask bins, and their mean density is
    /// reported by [`StreamingMaskScan::noise_density_dbhz`]. Probing
    /// them rides the same banked Goertzel pass — the NF measurement is
    /// close to free on top of the mask verdict. A malformed band
    /// (`offset_lo < 0` or `offset_hi ≤ offset_lo`) is
    /// [`BistError::InvalidConfig`], and one that puts no bin on the
    /// scan grid [`BistError::NoMaskCoverage`].
    pub fn try_build(
        mask: &SpectralMask,
        carrier_hz: f64,
        fs: f64,
        segment_len: usize,
        overlap: usize,
        window: Window,
        noise_band: Option<(f64, f64)>,
    ) -> Result<Self, BistError> {
        let invalid = |reason: &str| {
            Err(BistError::InvalidConfig {
                reason: reason.into(),
            })
        };
        if segment_len == 0 {
            return invalid("segment length must be positive");
        }
        if overlap >= segment_len {
            return invalid("overlap must be smaller than the segment");
        }
        if fs.is_nan() || fs <= 0.0 {
            return invalid("sample rate must be positive");
        }
        if let Some((lo, hi)) = noise_band {
            if !(lo >= 0.0 && hi > lo) {
                return invalid("noise band offsets must satisfy 0 <= lo < hi");
            }
        }

        let nbins = segment_len / 2 + 1;
        let mut bins = Vec::new();
        let mut freqs = Vec::new();
        let mut masked_bins = 0usize;
        let mut reference_bins = 0usize;
        let mut noise_bins = 0usize;
        for k in 0..nbins {
            // same expression as the PSD estimator's bin centers, so
            // boundary decisions cannot diverge by an ulp
            let freq = k as f64 * fs / segment_len as f64;
            let offset = (freq - carrier_hz).abs();
            let in_reference = offset <= mask.reference_half_width();
            let limit_dbc = mask.limit_at(offset);
            let in_noise = noise_band.is_some_and(|(lo, hi)| offset >= lo && offset <= hi);
            if !in_reference && limit_dbc.is_none() && !in_noise {
                continue;
            }
            masked_bins += usize::from(limit_dbc.is_some());
            reference_bins += usize::from(in_reference);
            noise_bins += usize::from(in_noise);
            let is_nyquist = segment_len.is_multiple_of(2) && k == nbins - 1;
            bins.push(ScanBin {
                freq,
                limit_dbc,
                in_reference,
                in_noise,
                one_sided: if k == 0 || is_nyquist { 1.0 } else { 2.0 },
            });
            freqs.push(k as f64 / segment_len as f64);
        }
        let no_coverage = |reason: &str| {
            Err(BistError::NoMaskCoverage {
                reason: reason.into(),
            })
        };
        if reference_bins == 0 {
            return no_coverage("scan grid has no bins within the mask reference region");
        }
        if masked_bins == 0 {
            return no_coverage(
                "scan grid has no bins within any mask segment — cannot produce a verdict",
            );
        }
        if noise_band.is_some() && noise_bins == 0 {
            return no_coverage("scan grid has no bins within the noise-figure band");
        }

        let window = window.coefficients(segment_len);
        let u: f64 = window.iter().map(|&v| v * v).sum();
        Ok(MaskScanEngine {
            mask_name: mask.name().to_string(),
            carrier_hz,
            segment_len,
            hop: segment_len - overlap,
            window,
            scale: 1.0 / (fs * u),
            bank: GoertzelBank::new(&freqs),
            bins,
        })
    }

    /// Number of probed bins (mask + reference + noise band).
    pub fn probed_bins(&self) -> usize {
        self.bins.len()
    }

    /// Number of bins inside the noise-figure measurement band (zero
    /// when the scanner was built without one).
    pub fn noise_bins(&self) -> usize {
        self.bins.iter().filter(|b| b.in_noise).count()
    }

    /// The carrier frequency the mask is centered on, Hz.
    pub fn carrier_hz(&self) -> f64 {
        self.carrier_hz
    }

    /// Scans `wave` and returns the mask verdict, allocating fresh
    /// scratch; use [`try_scan_with`](Self::try_scan_with) in sweeps.
    /// A waveform shorter than one Welch segment is
    /// [`BistError::CaptureTooShort`].
    pub fn try_scan(&self, wave: &[f64]) -> Result<MaskReport, BistError> {
        self.try_scan_with(wave, &mut StreamScratch::new())
    }

    /// [`try_scan`](Self::try_scan) with caller-owned scratch buffers
    /// (the streaming scan's: the batched scan is one push of the whole
    /// waveform through [`stream`](Self::stream)), so repeated scans
    /// (fault sweeps, benches) allocate nothing.
    pub fn try_scan_with(
        &self,
        wave: &[f64],
        scratch: &mut StreamScratch,
    ) -> Result<MaskReport, BistError> {
        if wave.len() < self.segment_len {
            return Err(BistError::CaptureTooShort {
                reason: format!(
                    "waveform shorter ({}) than one scan segment ({})",
                    wave.len(),
                    self.segment_len
                ),
            });
        }
        // one push of the whole capture: the declared length keeps the
        // stream from starting a segment that cannot complete, so it
        // advances exactly the complete segments, in start order
        let mut stream = self.stream(scratch, None).with_capture_len(wave.len());
        stream.push(wave);
        stream.try_finish()
    }

    /// Folds per-bin accumulated segment powers (`count` completed
    /// Welch segments) into the mask verdict — the single definition
    /// behind every [`StreamingMaskScan`] report, final or provisional,
    /// and so behind the batched [`try_scan_with`](Self::try_scan_with),
    /// which is one push through that stream.
    fn report_from_acc(&self, acc: &[f64], count: usize) -> MaskReport {
        // Per-bin one-sided density in dB, matching `PsdEstimate::psd_db`
        // (including its 1e-30 floor).
        let norm = self.scale / count as f64;
        let db = |acc: f64, one_sided: f64| 10.0 * (acc * norm * one_sided).max(1e-30).log10();

        let reference_db = self
            .bins
            .iter()
            .zip(acc)
            .filter(|(b, _)| b.in_reference)
            .map(|(b, &a)| db(a, b.one_sided))
            .fold(f64::NEG_INFINITY, f64::max);
        debug_assert!(reference_db.is_finite(), "pinned by try_build");

        // same verdict fold as `SpectralMask::try_check` — one definition,
        // so the banked scan and an FFT-Welch check cannot drift
        let (report, _) = report_from_margins(
            self.mask_name.clone(),
            self.carrier_hz,
            reference_db,
            self.bins.iter().zip(acc).filter_map(|(bin, &acc)| {
                bin.limit_dbc
                    .map(|limit| (bin.freq, limit, db(acc, bin.one_sided) - reference_db))
            }),
        );
        report
    }

    /// Mean one-sided density over the noise-band bins in dB/Hz, from
    /// per-bin accumulated segment powers — the same normalization as
    /// [`report_from_acc`](Self::report_from_acc), so the NF
    /// measurement and the mask verdict read the same estimator.
    fn noise_density_from_acc(&self, acc: &[f64], count: usize) -> Option<f64> {
        let norm = self.scale / count as f64;
        let (mut sum, mut n) = (0.0f64, 0usize);
        for (bin, &a) in self.bins.iter().zip(acc) {
            if bin.in_noise {
                sum += a * norm * bin.one_sided;
                n += 1;
            }
        }
        (n > 0).then(|| 10.0 * (sum / n as f64).max(1e-30).log10())
    }

    /// Starts a push-style streaming scan over this engine's
    /// configuration, accumulating into `scratch` (reusable across
    /// captures, so sweep loops allocate nothing per verdict). Pass an
    /// [`EarlyVerdict`] policy to stop the feed as soon as a violation
    /// exceeds its limit by the guard margin.
    pub fn stream<'a>(
        &'a self,
        scratch: &'a mut StreamScratch,
        early: Option<EarlyVerdict>,
    ) -> StreamingMaskScan<'a> {
        scratch.acc.clear();
        scratch.acc.resize(self.bins.len(), 0.0);
        // One carried Goertzel state per concurrently open segment: a
        // sample at index i lies in at most ceil(seg/hop) segments, and
        // slot s % cap is always retired before segment s + cap opens.
        let concurrent = self.segment_len.div_ceil(self.hop);
        scratch.states.resize_with(concurrent, GoertzelState::new);
        StreamingMaskScan {
            engine: self,
            scratch,
            early,
            pushed: 0,
            segments: 0,
            early_stopped: false,
            capture_len: None,
        }
    }
}

/// Early-verdict policy for [`StreamingMaskScan`]: stop the capture as
/// soon as a *provisional* verdict (from the Welch segments completed
/// so far) shows a violation exceeding its limit by more than
/// `guard_db`. The guard absorbs the drift between a partial segment
/// average and the full-capture estimate, so marginal units still get
/// the complete measurement while gross failures stop reconstruction
/// early — the low-cost streaming-BIST trade of Negreiros et al.
/// (arXiv:0710.4718).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyVerdict {
    /// How many dB past the limit a provisional violation must be
    /// before the feed stops.
    pub guard_db: f64,
}

impl EarlyVerdict {
    /// A policy with the given guard margin; a negative or non-finite
    /// `guard_db` is [`BistError::InvalidConfig`].
    pub fn try_with_guard(guard_db: f64) -> Result<Self, BistError> {
        if !(guard_db.is_finite() && guard_db >= 0.0) {
            return Err(BistError::InvalidConfig {
                reason: "guard margin must be a non-negative dB value".into(),
            });
        }
        Ok(EarlyVerdict { guard_db })
    }

    /// The default 6 dB guard: one-segment Welch estimates of the
    /// Section V fixtures scatter well under 3 dB around the full
    /// average, so 6 dB keeps passing and marginal units on the full
    /// measurement while gross regrowth (tens of dB over the limit)
    /// stops at the first completed segment.
    pub fn paper_default() -> Self {
        EarlyVerdict { guard_db: 6.0 }
    }
}

impl Default for EarlyVerdict {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Reusable buffers for [`MaskScanEngine::stream`] and
/// [`MaskScanEngine::try_scan_with`] (which streams): per-segment Goertzel
/// states and the running per-bin power accumulator. Memory is bounded
/// by `ceil(segment/hop)` states of `2·probed_bins` values (the bins
/// rounded up to a multiple of eight) —
/// independent of the capture length, which is the point of the
/// streaming scan. (Window products are folded inside the banked pass,
/// so no per-chunk staging buffer exists.)
#[derive(Clone, Debug, Default)]
pub struct StreamScratch {
    states: Vec<GoertzelState>,
    acc: Vec<f64>,
}

impl StreamScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Feedback from one [`StreamingMaskScan::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanFeed {
    /// Keep feeding samples.
    Continue,
    /// The early-verdict policy fired: the verdict is already decided
    /// (failing), further samples are ignored — stop producing them.
    EarlyStop,
}

/// A push-style spectral-mask scan: feed reconstruction blocks (or any
/// sample chunks) as they are produced, and Welch segments are
/// windowed, banked through the Goertzel recurrences and folded into
/// the verdict *as they complete* — segment overlap across chunk
/// boundaries is carried in per-segment recurrence states, so no
/// segment (let alone the full capture) ever materializes.
///
/// Feeding the same samples in any chunking yields a verdict
/// bit-identical to [`MaskScanEngine::try_scan`] on the concatenated
/// capture (pinned by `tests/stream_scan_equivalence.rs`): the
/// windowed products, the per-bin recurrences and the segment fold all
/// perform the same operations in the same order.
#[derive(Debug)]
pub struct StreamingMaskScan<'a> {
    engine: &'a MaskScanEngine,
    scratch: &'a mut StreamScratch,
    early: Option<EarlyVerdict>,
    pushed: usize,
    segments: usize,
    early_stopped: bool,
    /// The capture's total length, when the feed declared it.
    capture_len: Option<usize>,
}

impl StreamingMaskScan<'_> {
    /// Declares that the feed will push `len` samples in all: a Welch
    /// segment that cannot complete inside them is then never started.
    /// The verdict does not change (a trailing partial segment is
    /// discarded either way); the recurrences just skip its samples —
    /// on a 12288-point grid segmented 8192/4096, 4096 of 20,480
    /// sample-advances. Push at most `len` samples.
    #[must_use]
    pub fn with_capture_len(mut self, len: usize) -> Self {
        self.capture_len = Some(len);
        self
    }

    /// Feeds the next chunk of the capture. Returns
    /// [`ScanFeed::EarlyStop`] once the early-verdict policy has fired
    /// (subsequent pushes are ignored no-ops).
    pub fn push(&mut self, samples: &[f64]) -> ScanFeed {
        if self.early_stopped {
            return ScanFeed::EarlyStop;
        }
        let engine = self.engine;
        let seg = engine.segment_len;
        let hop = engine.hop;
        let StreamScratch { states, acc } = &mut *self.scratch;
        let cap = states.len();
        let start_idx = self.pushed;
        let end_idx = start_idx + samples.len();
        self.pushed = end_idx;
        let capture_len = self.capture_len.unwrap_or(usize::MAX);
        debug_assert!(
            end_idx <= capture_len,
            "pushed past the declared capture length"
        );
        // Welch segments intersecting [start_idx, end_idx): segment s
        // covers [s·hop, s·hop + seg).
        let s_lo = if start_idx < seg {
            0
        } else {
            (start_idx - seg) / hop + 1
        };
        let s_hi = end_idx.saturating_sub(1) / hop;
        for s in s_lo..=s_hi {
            let seg_start = s * hop;
            // later segments start later: none of them completes either
            if seg_start >= end_idx || seg_start + seg > capture_len {
                break;
            }
            let a = seg_start.max(start_idx);
            let b = (seg_start + seg).min(end_idx);
            if a >= b {
                continue;
            }
            let state = &mut states[s % cap];
            if a == seg_start {
                engine.bank.reset_state(state);
            }
            // Window the chunk at its position inside the segment,
            // folded into the banked pass itself — the same products
            // whatever the chunking, with no staging copy between the
            // block feed and the recurrences.
            let wpos = a - seg_start;
            engine.bank.advance_state_windowed(
                state,
                &samples[a - start_idx..b - start_idx],
                &engine.window[wpos..wpos + (b - a)],
            );
            if b == seg_start + seg {
                // segment complete: fold its powers into the Welch
                // average (segments complete in start order, whatever
                // the chunking)
                engine.bank.accumulate_powers(state, acc);
                self.segments += 1;
                if let Some(policy) = self.early {
                    let provisional = engine.report_from_acc(acc, self.segments);
                    if provisional.worst_margin_db < -policy.guard_db {
                        self.early_stopped = true;
                        return ScanFeed::EarlyStop;
                    }
                }
            }
        }
        ScanFeed::Continue
    }

    /// Samples pushed so far (including any ignored after an early
    /// stop).
    pub fn samples_pushed(&self) -> usize {
        self.pushed
    }

    /// Welch segments folded into the verdict so far.
    pub fn segments_completed(&self) -> usize {
        self.segments
    }

    /// Whether the early-verdict policy fired.
    pub fn early_stopped(&self) -> bool {
        self.early_stopped
    }

    /// Mean density over the noise-figure band in dB/Hz across the
    /// segments completed so far, or `None` before the first segment
    /// completes or when the scanner carries no noise band.
    pub fn noise_density_dbhz(&self) -> Option<f64> {
        (self.segments > 0)
            .then(|| {
                self.engine
                    .noise_density_from_acc(&self.scratch.acc, self.segments)
            })
            .flatten()
    }

    /// The provisional verdict over the segments completed so far, or
    /// `None` before the first segment completes. Mid-capture reports
    /// carry the full violation machinery of a final report — including
    /// the truncation flag, so a partial report cannot silently drop
    /// violations.
    pub fn partial_report(&self) -> Option<MaskReport> {
        (self.segments > 0).then(|| {
            self.engine
                .report_from_acc(&self.scratch.acc, self.segments)
        })
    }

    /// Final verdict over every completed segment (a trailing partial
    /// segment is discarded, exactly as the batched scan and `welch`
    /// discard it). A streamed capture shorter than one Welch segment
    /// is [`BistError::CaptureTooShort`], as for
    /// [`MaskScanEngine::try_scan`].
    pub fn try_finish(self) -> Result<MaskReport, BistError> {
        if self.segments == 0 {
            return Err(BistError::CaptureTooShort {
                reason: format!(
                    "streamed capture shorter ({}) than one scan segment ({})",
                    self.pushed, self.engine.segment_len
                ),
            });
        }
        Ok(self
            .engine
            .report_from_acc(&self.scratch.acc, self.segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_dsp::psd::welch;
    use std::f64::consts::PI;

    const FS: f64 = 400e6;
    const FC: f64 = 100e6;

    fn spur_wave(n: usize, spur_offset: f64, spur_dbc: f64) -> Vec<f64> {
        let amp = 10f64.powf(spur_dbc / 20.0);
        (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * PI * FC * t).sin() + amp * (2.0 * PI * (FC + spur_offset) * t).sin()
            })
            .collect()
    }

    fn test_mask() -> SpectralMask {
        SpectralMask::try_new(
            "scan-test",
            5e6,
            vec![
                crate::mask::MaskSegment {
                    offset_lo: 8e6,
                    offset_hi: 20e6,
                    limit_dbc: -30.0,
                },
                crate::mask::MaskSegment {
                    offset_lo: 20e6,
                    offset_hi: 40e6,
                    limit_dbc: -50.0,
                },
            ],
        )
        .unwrap()
    }

    fn engines() -> (MaskScanEngine, impl Fn(&[f64]) -> MaskReport) {
        let mask = test_mask();
        let scan =
            MaskScanEngine::try_build(&mask, FC, FS, 4096, 2048, Window::BlackmanHarris, None)
                .unwrap();
        let fft = move |wave: &[f64]| {
            let psd = welch(wave, FS, 4096, 2048, Window::BlackmanHarris);
            mask.try_check(&psd, FC).unwrap()
        };
        (scan, fft)
    }

    #[test]
    fn scan_matches_fft_welch_verdict_bit_for_bit_in_db() {
        let (scan, fft) = engines();
        for (offset, level) in [(15e6, -80.0), (15e6, -20.0), (30e6, -45.0), (12e6, -29.0)] {
            let wave = spur_wave(12288, offset, level);
            let a = scan.try_scan(&wave).unwrap();
            let b = fft(&wave);
            assert_eq!(a.passed, b.passed, "spur {offset:e} @ {level} dBc");
            assert!(
                (a.worst_margin_db - b.worst_margin_db).abs() < 1e-6,
                "margins {} vs {}",
                a.worst_margin_db,
                b.worst_margin_db
            );
            assert_eq!(a.worst_frequency_hz, b.worst_frequency_hz);
            assert!((a.reference_db - b.reference_db).abs() < 1e-6);
            assert_eq!(a.violation_count, b.violation_count);
            assert_eq!(a.violations.len(), b.violations.len());
            for (va, vb) in a.violations.iter().zip(&b.violations) {
                assert_eq!(va.frequency, vb.frequency);
                assert_eq!(va.limit_dbc, vb.limit_dbc);
                assert!((va.measured_dbc - vb.measured_dbc).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn probed_bins_are_a_small_fraction_of_the_spectrum() {
        let (scan, _) = engines();
        // 4096-sample segments ⇒ 2049 one-sided bins; the mask +
        // reference regions cover ~(2·32 + 10) MHz of the 200 MHz span
        let nbins = 4096 / 2 + 1;
        assert!(scan.probed_bins() * 2 < nbins, "{}", scan.probed_bins());
        assert!(scan.probed_bins() > 50, "{}", scan.probed_bins());
        assert_eq!(scan.carrier_hz(), FC);
    }

    #[test]
    fn scratch_reuse_is_exact() {
        let (scan, _) = engines();
        let clean = spur_wave(12288, 15e6, -70.0);
        let dirty = spur_wave(12288, 15e6, -10.0);
        let mut scratch = StreamScratch::new();
        let a1 = scan.try_scan_with(&clean, &mut scratch).unwrap();
        let b1 = scan.try_scan_with(&dirty, &mut scratch).unwrap();
        assert_eq!(
            a1,
            scan.try_scan(&clean).unwrap(),
            "scratch must not leak state"
        );
        assert_eq!(b1, scan.try_scan(&dirty).unwrap());
        assert!(a1.passed && !b1.passed);
    }

    #[test]
    fn uneven_trailing_segment_is_discarded_like_welch() {
        let (scan, fft) = engines();
        // 9000 samples: one full 4096 segment at 0, one at 2048; the
        // tail past 6144 is dropped by both paths
        let wave = spur_wave(9000, 25e6, -44.0);
        let a = scan.try_scan(&wave).unwrap();
        let b = fft(&wave);
        assert_eq!(a.passed, b.passed);
        assert!((a.worst_margin_db - b.worst_margin_db).abs() < 1e-6);
    }

    fn stream_in_chunks(
        scan: &MaskScanEngine,
        wave: &[f64],
        chunk: usize,
        early: Option<EarlyVerdict>,
    ) -> (MaskReport, bool) {
        let mut scratch = StreamScratch::new();
        let mut stream = scan.stream(&mut scratch, early);
        for piece in wave.chunks(chunk) {
            if stream.push(piece) == ScanFeed::EarlyStop {
                break;
            }
        }
        let stopped = stream.early_stopped();
        (stream.try_finish().unwrap(), stopped)
    }

    #[test]
    fn streamed_scan_is_bit_identical_to_batched_scan() {
        let (scan, _) = engines();
        for (offset, level) in [(15e6, -80.0), (15e6, -20.0), (30e6, -45.0)] {
            let wave = spur_wave(12288, offset, level);
            let batched = scan.try_scan(&wave).unwrap();
            // chunk sizes off the segment, hop and 4-sample-unroll
            // boundaries must all reproduce the batched verdict exactly
            for chunk in [256usize, 4096, 12288, 1000, 7, 2049] {
                let (streamed, _) = stream_in_chunks(&scan, &wave, chunk, None);
                assert_eq!(streamed, batched, "chunk {chunk} @ spur {offset:e}/{level}");
            }
        }
    }

    #[test]
    fn streamed_trailing_tail_is_discarded_like_welch() {
        let (scan, _) = engines();
        let wave = spur_wave(9000, 25e6, -44.0);
        let batched = scan.try_scan(&wave).unwrap();
        let (streamed, _) = stream_in_chunks(&scan, &wave, 333, None);
        assert_eq!(streamed, batched);
    }

    #[test]
    fn streaming_progress_and_partial_reports() {
        let (scan, _) = engines();
        let wave = spur_wave(12288, 15e6, -70.0);
        let mut scratch = StreamScratch::new();
        let mut stream = scan.stream(&mut scratch, None);
        assert!(stream.partial_report().is_none(), "no segment complete yet");
        stream.push(&wave[..4000]);
        assert_eq!(stream.segments_completed(), 0);
        stream.push(&wave[4000..5000]);
        assert_eq!(stream.segments_completed(), 1, "first 4096-segment done");
        let partial = stream.partial_report().expect("one segment complete");
        assert!(partial.passed);
        stream.push(&wave[5000..]);
        assert_eq!(stream.samples_pushed(), 12288);
        // 12288 samples, seg 4096, hop 2048 ⇒ 5 complete segments
        assert_eq!(stream.segments_completed(), 5);
        assert!(!stream.early_stopped());
        assert_eq!(stream.try_finish().unwrap(), scan.try_scan(&wave).unwrap());
    }

    #[test]
    fn early_verdict_fires_on_gross_violation_only() {
        let (scan, _) = engines();
        // passing fixture: the policy must never fire
        let clean = spur_wave(12288, 15e6, -70.0);
        let (report, stopped) =
            stream_in_chunks(&scan, &clean, 256, Some(EarlyVerdict::paper_default()));
        assert!(!stopped && report.passed);
        // marginal violation (−2 dB margin): inside the 6 dB guard,
        // the full capture must still be measured
        let marginal = spur_wave(12288, 15e6, -28.0);
        let (report, stopped) =
            stream_in_chunks(&scan, &marginal, 256, Some(EarlyVerdict::paper_default()));
        assert!(!stopped, "guard must absorb marginal violations");
        assert!(!report.passed);
        // gross violation: stops at the first completed segment
        let gross = spur_wave(12288, 15e6, -10.0);
        let mut scratch = StreamScratch::new();
        let mut stream = scan.stream(&mut scratch, Some(EarlyVerdict::paper_default()));
        let mut fed = 0;
        for piece in gross.chunks(256) {
            fed += piece.len();
            if stream.push(piece) == ScanFeed::EarlyStop {
                break;
            }
        }
        assert!(stream.early_stopped());
        assert_eq!(fed, 4096, "stopped at the first completed segment");
        // pushes after the stop are ignored no-ops
        let mut stream2 = stream;
        assert_eq!(stream2.push(&gross[..256]), ScanFeed::EarlyStop);
        assert!(!stream2.try_finish().unwrap().passed);
    }

    #[test]
    fn stream_scratch_reuse_is_exact() {
        let (scan, _) = engines();
        let clean = spur_wave(12288, 15e6, -70.0);
        let dirty = spur_wave(12288, 15e6, -10.0);
        let mut scratch = StreamScratch::new();
        let mut reports = Vec::new();
        for wave in [&clean, &dirty, &clean] {
            let mut stream = scan.stream(&mut scratch, None);
            for piece in wave.chunks(512) {
                stream.push(piece);
            }
            reports.push(stream.try_finish().unwrap());
        }
        assert_eq!(reports[0], reports[2], "scratch must not leak state");
        assert_eq!(reports[0], scan.try_scan(&clean).unwrap());
        assert_eq!(reports[1], scan.try_scan(&dirty).unwrap());
    }

    #[test]
    fn declared_capture_len_leaves_every_verdict_unchanged() {
        // 12288 samples in 4096-sample segments at 2048 hop: the last
        // segment to start, at 10240, cannot complete and is skipped
        let (scan, _) = engines();
        let mut scratch = StreamScratch::new();
        for wave in [spur_wave(12288, 15e6, -70.0), spur_wave(12288, 15e6, -10.0)] {
            for (chunk, early) in [
                (256, None),
                (1000, None),
                (256, Some(EarlyVerdict::paper_default())),
            ] {
                let run = |scratch: &mut StreamScratch, len: Option<usize>| {
                    let mut stream = scan.stream(scratch, early);
                    if let Some(len) = len {
                        stream = stream.with_capture_len(len);
                    }
                    for piece in wave.chunks(chunk) {
                        if stream.push(piece) == ScanFeed::EarlyStop {
                            break;
                        }
                    }
                    let segments = stream.segments_completed();
                    (stream.try_finish().unwrap(), segments)
                };
                let declared = run(&mut scratch, Some(wave.len()));
                assert_eq!(
                    declared,
                    run(&mut scratch, None),
                    "chunk {chunk}, {early:?}"
                );
                if early.is_none() {
                    assert_eq!(declared.0, scan.try_scan(&wave).unwrap());
                }
            }
        }
    }

    /// The typed error `result` must carry: `variant` matches it, and
    /// its `Display` text is `message`.
    fn assert_error<T: std::fmt::Debug>(
        result: Result<T, BistError>,
        variant: fn(&BistError) -> bool,
        message: &str,
    ) {
        let err = result.expect_err("a typed error");
        assert!(variant(&err), "unexpected variant {err:?}");
        assert_eq!(err.to_string(), message);
    }

    fn too_short(e: &BistError) -> bool {
        matches!(e, BistError::CaptureTooShort { .. })
    }

    fn no_coverage(e: &BistError) -> bool {
        matches!(e, BistError::NoMaskCoverage { .. })
    }

    #[test]
    fn streamed_short_capture_is_rejected_at_finish() {
        let (scan, _) = engines();
        let wave = spur_wave(1000, 15e6, -40.0);
        let mut scratch = StreamScratch::new();
        let mut stream = scan.stream(&mut scratch, None);
        stream.push(&wave);
        assert_error(
            stream.try_finish(),
            too_short,
            "streamed capture shorter (1000) than one scan segment (4096)",
        );
    }

    #[test]
    fn negative_guard_is_rejected() {
        for guard_db in [-1.0, f64::NAN, f64::INFINITY] {
            assert_error(
                EarlyVerdict::try_with_guard(guard_db),
                |e| matches!(e, BistError::InvalidConfig { .. }),
                "guard margin must be a non-negative dB value",
            );
        }
        assert_eq!(EarlyVerdict::try_with_guard(0.0).unwrap().guard_db, 0.0);
    }

    #[test]
    fn short_waveform_is_rejected() {
        let (scan, _) = engines();
        assert_error(
            scan.try_scan(&spur_wave(1000, 15e6, -40.0)),
            too_short,
            "waveform shorter (1000) than one scan segment (4096)",
        );
    }

    #[test]
    fn unresolvable_mask_is_rejected_at_construction() {
        // 16-sample segments ⇒ 25 MHz bins; the carrier sits on bin 4
        // (reference resolved) but every bin offset is a multiple of
        // 25 MHz, all outside the 8–20 MHz mask segment
        let mask = SpectralMask::try_new(
            "narrow",
            5e6,
            vec![crate::mask::MaskSegment {
                offset_lo: 8e6,
                offset_hi: 20e6,
                limit_dbc: -30.0,
            }],
        )
        .unwrap();
        assert_error(
            MaskScanEngine::try_build(&mask, FC, FS, 16, 8, Window::BlackmanHarris, None),
            no_coverage,
            "scan grid has no bins within any mask segment — cannot produce a verdict",
        );
    }

    #[test]
    fn unresolvable_reference_is_rejected_at_construction() {
        // carrier far off the bin grid relative to a tiny reference
        let mask = SpectralMask::try_new(
            "ref",
            1e3,
            vec![crate::mask::MaskSegment {
                offset_lo: 8e6,
                offset_hi: 40e6,
                limit_dbc: -30.0,
            }],
        )
        .unwrap();
        let window = Window::BlackmanHarris;
        assert_error(
            MaskScanEngine::try_build(&mask, FC + 40e3, FS, 4096, 2048, window, None),
            no_coverage,
            "scan grid has no bins within the mask reference region",
        );
    }
}
