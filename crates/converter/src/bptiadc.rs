//! The nonuniform bandpass time-interleaved ADC (paper Fig. 4).
//!
//! Two ADC channels driven by the same clock generator; the second
//! channel's sampling instants are shifted by the DCDE-programmed delay
//! `D`. Captures come back as [`NonuniformCapture`]s ready for PNBS
//! reconstruction. The capture records the *true* physical delay
//! (including DCDE quantization), which the estimation algorithms must
//! recover — they never read it.

use crate::adc::AdcChannel;
use crate::clock::{ClockGenerator, Dcde, JitterModel};
use crate::quantizer::Quantizer;
use rfbist_sampling::NonuniformCapture;
use rfbist_signal::traits::ContinuousSignal;

/// Where the clock jitter physically originates (paper Fig. 4 shows one
/// clock generator feeding both sample-and-holds, the second through
/// the DCDE — either element can dominate the jitter budget).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JitterPlacement {
    /// The DCDE's delay jitters: only the delayed channel's edges
    /// wander relative to the clean reference channel ("time-skew
    /// jitter", the paper's wording). The inter-channel skew itself is
    /// noisy.
    #[default]
    DcdeOnly,
    /// The shared clock generator jitters: each edge pair moves
    /// together, so the skew stays exact while absolute sampling
    /// instants wander.
    CommonMode,
}

/// Configuration of a BP-TIADC.
#[derive(Clone, Copy, Debug)]
pub struct BpTiadcConfig {
    /// Per-channel sample rate in Hz (the reconstruction bandwidth `B`).
    pub sample_rate: f64,
    /// Target DCDE delay in seconds.
    pub delay_target: f64,
    /// DCDE step resolution in seconds.
    pub dcde_resolution: f64,
    /// Clock jitter model.
    pub jitter: JitterModel,
    /// Which element the jitter originates from.
    pub jitter_placement: JitterPlacement,
    /// Converter resolution in bits.
    pub bits: u32,
    /// Full-scale amplitude.
    pub full_scale: f64,
    /// Channel-0 DC offset.
    pub offset_even: f64,
    /// Channel-1 DC offset.
    pub offset_odd: f64,
    /// Channel-0 relative gain error.
    pub gain_error_even: f64,
    /// Channel-1 relative gain error.
    pub gain_error_odd: f64,
    /// Jitter seed (captures are deterministic given the seed).
    pub seed: u64,
}

impl BpTiadcConfig {
    /// The paper's Section V configuration: two 10-bit ADCs at
    /// `B = 90 MHz`, 3 ps rms clock jitter, no offset/gain mismatch,
    /// and the given DCDE delay target.
    pub fn paper_section_v(delay_target: f64) -> Self {
        BpTiadcConfig {
            sample_rate: 90e6,
            delay_target,
            dcde_resolution: 1e-12,
            jitter: JitterModel::paper_default(),
            jitter_placement: JitterPlacement::DcdeOnly,
            bits: 10,
            full_scale: 2.0,
            offset_even: 0.0,
            offset_odd: 0.0,
            gain_error_even: 0.0,
            gain_error_odd: 0.0,
            seed: 0x5EED,
        }
    }

    /// Same as [`paper_section_v`](Self::paper_section_v) but with ideal
    /// clocks and effectively unquantized converters — for isolating
    /// algorithmic error from front-end error.
    pub fn ideal(sample_rate: f64, delay_target: f64) -> Self {
        BpTiadcConfig {
            sample_rate,
            delay_target,
            dcde_resolution: 1e-15,
            jitter: JitterModel::None,
            jitter_placement: JitterPlacement::DcdeOnly,
            bits: 24,
            full_scale: 8.0,
            offset_even: 0.0,
            offset_odd: 0.0,
            gain_error_even: 0.0,
            gain_error_odd: 0.0,
            seed: 0,
        }
    }

    /// Builder-style: set the per-channel sample rate.
    pub fn with_sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Builder-style: set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the jitter placement.
    pub fn with_jitter_placement(mut self, placement: JitterPlacement) -> Self {
        self.jitter_placement = placement;
        self
    }

    /// Builder-style: set channel mismatches.
    pub fn with_mismatch(
        mut self,
        offset_even: f64,
        offset_odd: f64,
        gain_error_even: f64,
        gain_error_odd: f64,
    ) -> Self {
        self.offset_even = offset_even;
        self.offset_odd = offset_odd;
        self.gain_error_even = gain_error_even;
        self.gain_error_odd = gain_error_odd;
        self
    }
}

/// The assembled two-channel nonuniform sampler.
#[derive(Clone, Debug)]
pub struct BpTiadc {
    config: BpTiadcConfig,
    dcde: Dcde,
    even: AdcChannel,
    odd: AdcChannel,
}

impl BpTiadc {
    /// Builds the converter from a configuration.
    ///
    /// The DCDE is sized to cover one clock period at the configured
    /// step resolution. Its code register is 32-bit, so for slow-rate /
    /// fine-resolution configurations where `period / resolution`
    /// exceeds `u32::MAX` (≈ 4.3e9 steps — e.g. rates below ~233 Hz at
    /// 1 ps resolution, where the period tops 4.3 ms)
    /// the range saturates: the largest programmable delay clamps at
    /// `u32::MAX · resolution` instead of the full period. Every
    /// realistic converter clock sits many orders of magnitude inside
    /// the bound; `dcde_range_saturates_for_slow_fine_configs` pins the
    /// clamping behavior.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate <= 0` or the delay target is negative.
    pub fn new(config: BpTiadcConfig) -> Self {
        assert!(config.sample_rate > 0.0, "sample rate must be positive");
        assert!(
            config.delay_target >= 0.0,
            "delay target must be non-negative"
        );
        let period = 1.0 / config.sample_rate;
        // float→u32 `as` saturates, bounding the range documented above
        let mut dcde = Dcde::new(
            config.dcde_resolution,
            ((1.0 / config.sample_rate) / config.dcde_resolution).ceil() as u32,
        );
        let actual_delay = dcde.set_delay(config.delay_target);
        let quant = Quantizer::new(config.bits, config.full_scale);
        let (clk_even, clk_odd) = Self::clocks(&config, period, actual_delay);
        BpTiadc {
            config,
            dcde,
            even: AdcChannel::new(clk_even, quant)
                .with_offset(config.offset_even)
                .with_gain_error(config.gain_error_even),
            odd: AdcChannel::new(clk_odd, quant)
                .with_offset(config.offset_odd)
                .with_gain_error(config.gain_error_odd),
        }
    }

    /// The configuration this converter was built from.
    pub fn config(&self) -> &BpTiadcConfig {
        &self.config
    }

    /// Builds the channel clocks for the configured jitter placement.
    ///
    /// `DcdeOnly`: the reference channel is clean and the delayed
    /// channel carries the skew jitter. `CommonMode`: both channels use
    /// the *same* seed, so each edge pair shares one jitter draw and
    /// the skew stays exact.
    fn clocks(
        config: &BpTiadcConfig,
        period: f64,
        actual_delay: f64,
    ) -> (ClockGenerator, ClockGenerator) {
        match config.jitter_placement {
            JitterPlacement::DcdeOnly => (
                ClockGenerator::new(period, JitterModel::None, config.seed),
                ClockGenerator::new(period, config.jitter, config.seed ^ 0xABCD_EF01)
                    .with_phase_offset(actual_delay),
            ),
            JitterPlacement::CommonMode => (
                ClockGenerator::new(period, config.jitter, config.seed),
                ClockGenerator::new(period, config.jitter, config.seed)
                    .with_phase_offset(actual_delay),
            ),
        }
    }

    /// The true physical delay produced by the DCDE (test code may read
    /// this as ground truth; BIST algorithms must not).
    pub fn true_delay(&self) -> f64 {
        self.dcde.delay()
    }

    /// Reprograms the DCDE, returning the new physical delay.
    pub fn set_delay(&mut self, target: f64) -> f64 {
        let d = self.dcde.set_delay(target);
        let period = 1.0 / self.config.sample_rate;
        let (_, clk_odd) = Self::clocks(&self.config, period, d);
        self.odd = AdcChannel::new(clk_odd, *self.odd.quantizer())
            .with_offset(self.config.offset_odd)
            .with_gain_error(self.config.gain_error_odd);
        d
    }

    /// Captures `count` sample pairs starting at edge `n_start`.
    pub fn capture<S: ContinuousSignal>(
        &mut self,
        signal: &S,
        n_start: i64,
        count: usize,
    ) -> NonuniformCapture {
        let even = self.even.capture(signal, n_start, count);
        let odd = self.odd.capture(signal, n_start, count);
        NonuniformCapture::from_streams(
            1.0 / self.config.sample_rate,
            self.true_delay(),
            n_start,
            even,
            odd,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::rng::Randomizer;
    use rfbist_math::stats::nrmse;
    use rfbist_sampling::band::BandSpec;
    use rfbist_sampling::gridplan::GridScratch;
    use rfbist_sampling::reconstruct::PnbsReconstructor;
    use rfbist_signal::tone::Tone;

    #[test]
    fn paper_config_values() {
        let cfg = BpTiadcConfig::paper_section_v(180e-12);
        assert_eq!(cfg.sample_rate, 90e6);
        assert_eq!(cfg.bits, 10);
        assert!(matches!(cfg.jitter, JitterModel::Gaussian { rms } if rms == 3e-12));
    }

    #[test]
    fn dcde_sets_true_delay() {
        let adc = BpTiadc::new(BpTiadcConfig::paper_section_v(180.4e-12));
        assert!((adc.true_delay() - 180e-12).abs() < 1e-18);
    }

    #[test]
    fn capture_is_deterministic() {
        let tone = Tone::unit(0.99e9);
        let mut a = BpTiadc::new(BpTiadcConfig::paper_section_v(180e-12));
        let mut b = BpTiadc::new(BpTiadcConfig::paper_section_v(180e-12));
        assert_eq!(a.capture(&tone, 0, 50), b.capture(&tone, 0, 50));
        // different seed differs
        let mut c = BpTiadc::new(BpTiadcConfig::paper_section_v(180e-12).with_seed(99));
        assert_ne!(a.capture(&tone, 0, 50), c.capture(&tone, 0, 50));
    }

    #[test]
    fn ideal_capture_matches_analytic_sampling() {
        let tone = Tone::unit(0.99e9);
        let mut adc = BpTiadc::new(BpTiadcConfig::ideal(90e6, 180e-12));
        let cap = adc.capture(&tone, -5, 20);
        let t_s = 1.0 / 90e6;
        for i in 0..20 {
            let n = -5 + i as i64;
            let te = n as f64 * t_s;
            assert!((cap.even()[i] - tone.eval(te)).abs() < 1e-6, "even {i}");
            assert!(
                (cap.odd()[i] - tone.eval(te + 180e-12)).abs() < 1e-6,
                "odd {i}"
            );
        }
    }

    #[test]
    fn paper_frontend_reconstruction_error_is_subpercent() {
        // With 10 bits + 3 ps jitter, reconstruction error should land
        // near the paper's Δε ≈ 0.84 % (Table I), certainly < 3 %.
        let tone = Tone::new(0.99e9, 0.9, 0.2);
        let mut adc = BpTiadc::new(BpTiadcConfig::paper_section_v(180e-12));
        let cap = adc.capture(&tone, -60, 400);
        let band = BandSpec::centered(1e9, 90e6);
        let rec = PnbsReconstructor::paper_default(band, adc.true_delay()).unwrap();
        let mut rng = Randomizer::from_seed(4);
        let times: Vec<f64> = (0..300).map(|_| rng.uniform(0.5e-6, 2.5e-6)).collect();
        let mut scratch = GridScratch::new();
        let got = rec
            .grid_plan()
            .try_reconstruct_instants(&cap, &times, &mut scratch)
            .unwrap();
        let err = nrmse(got, &tone.sample(&times));
        assert!(err < 0.03, "nrmse {err}");
        assert!(
            err > 0.001,
            "suspiciously clean for a 10-bit jittery front-end: {err}"
        );
    }

    #[test]
    fn channel_mismatch_is_applied() {
        // 987.1 MHz is deliberately incoherent with the 90 MHz clock so
        // the per-channel means converge to the offsets.
        let tone = Tone::unit(0.9871e9);
        let cfg = BpTiadcConfig::ideal(90e6, 180e-12).with_mismatch(0.1, -0.1, 0.01, -0.01);
        let mut adc = BpTiadc::new(cfg);
        let cap = adc.capture(&tone, 0, 2000);
        let mean_even: f64 = cap.even().iter().sum::<f64>() / 2000.0;
        let mean_odd: f64 = cap.odd().iter().sum::<f64>() / 2000.0;
        assert!((mean_even - 0.1).abs() < 0.05, "even offset {mean_even}");
        assert!((mean_odd + 0.1).abs() < 0.05, "odd offset {mean_odd}");
    }

    #[test]
    fn set_delay_reprograms_odd_channel() {
        let tone = Tone::unit(0.99e9);
        let mut adc = BpTiadc::new(BpTiadcConfig::ideal(90e6, 100e-12));
        let cap_before = adc.capture(&tone, 0, 10);
        let new_d = adc.set_delay(300e-12);
        assert!((new_d - 300e-12).abs() < 1e-15);
        let cap_after = adc.capture(&tone, 0, 10);
        assert_eq!(
            cap_before.even(),
            cap_after.even(),
            "even channel unchanged"
        );
        assert_ne!(cap_before.odd(), cap_after.odd(), "odd channel must move");
        assert_eq!(cap_after.delay(), new_d);
    }

    #[test]
    fn common_mode_jitter_preserves_skew_exactly() {
        // Under CommonMode, each pair shares one jitter draw, so
        // odd_time − even_time is exactly D even though both wander.
        // Probe via a linear "signal" whose value IS the sample time.
        use rfbist_signal::traits::FnSignal;
        // steep ramp: 0.1 ps of timing resolves to one 24-bit LSB
        let ramp = FnSignal(|t: f64| t * 1e7);
        let mut cfg = BpTiadcConfig::paper_section_v(180e-12)
            .with_jitter_placement(JitterPlacement::CommonMode);
        cfg.bits = 24;
        cfg.full_scale = 8.0;
        let mut adc = BpTiadc::new(cfg);
        let cap = adc.capture(&ramp, 0, 50);
        for i in 0..50 {
            let dt = (cap.odd()[i] - cap.even()[i]) / 1e7;
            assert!(
                (dt - 180e-12).abs() < 0.5e-12,
                "pair {i}: spacing {} ps",
                dt * 1e12
            );
        }
        // whereas under DcdeOnly the spacing wanders by the jitter
        let mut cfg2 = BpTiadcConfig::paper_section_v(180e-12);
        cfg2.bits = 24;
        cfg2.full_scale = 8.0;
        let mut adc2 = BpTiadc::new(cfg2);
        let cap2 = adc2.capture(&ramp, 0, 50);
        let wander = (0..50)
            .map(|i| ((cap2.odd()[i] - cap2.even()[i]) / 1e7 - 180e-12).abs())
            .fold(0.0f64, f64::max);
        assert!(wander > 3e-12, "DcdeOnly spacing should wander: {wander}");
    }

    #[test]
    fn dcde_range_saturates_for_slow_fine_configs() {
        // period / resolution = 10 s / 1 ps = 1e13 steps overflows the
        // 32-bit code register; the float→u32 cast saturates, so the
        // programmable range clamps at u32::MAX steps (≈ 4.295 ms)
        // instead of covering the full period
        let mut cfg = BpTiadcConfig::ideal(0.1, 0.0);
        cfg.dcde_resolution = 1e-12;
        let mut adc = BpTiadc::new(cfg);
        let got = adc.set_delay(5.0); // ask for half the 10 s period
        let clamp = u32::MAX as f64 * 1e-12;
        assert_eq!(got, clamp, "range must clamp at u32::MAX steps");
        assert!(got < 1.0 / cfg.sample_rate, "clamp is below the period");
        // a fast-clock config is far inside the bound: the full period
        // remains addressable
        let mut paper = BpTiadc::new(BpTiadcConfig::paper_section_v(180e-12));
        let period = 1.0 / 90e6;
        assert!((paper.set_delay(period) - period).abs() <= 1e-12);
    }

    #[test]
    fn capture_matches_per_edge_conversion() {
        // the batched capture path (edges + sample + one-pass
        // mismatch/quantize) must be sample-identical to the scalar
        // per-edge path, jitter and mismatches included
        let tone = Tone::new(0.99e9, 0.9, 0.3);
        let cfg = BpTiadcConfig::paper_section_v(180e-12).with_mismatch(0.05, -0.02, 0.01, -0.03);
        let adc = BpTiadc::new(cfg);
        let batched = adc.even.capture(&tone, -7, 64);
        for (i, &v) in batched.iter().enumerate() {
            assert_eq!(v, adc.even.convert_at_edge(&tone, -7 + i as i64), "i {i}");
        }
        let odd = adc.odd.capture(&tone, -7, 64);
        for (i, &v) in odd.iter().enumerate() {
            assert_eq!(
                v,
                adc.odd.convert_at_edge(&tone, -7 + i as i64),
                "odd i {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let _ = BpTiadc::new(BpTiadcConfig::paper_section_v(-1e-12));
    }
}
