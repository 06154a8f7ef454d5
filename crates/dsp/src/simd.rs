//! Runtime SIMD dispatch shared by the workspace's kernels: the
//! kernel [`Arm`] a dispatcher selects, the [`Kernel`] trait
//! [`Arm::run`] enters every kernel through, and the eight-lane `f64`
//! multiply-add accumulator ([`F64x8`]) the kernels run on.
//!
//! # One dispatcher
//!
//! [`Arm::run`] enters every kernel through one of two generic
//! `#[target_feature]` trampolines (on [`Fma512`] or [`Fma256`] lanes)
//! or runs it on [`Portable`] lanes. They are the workspace's only
//! `#[target_feature]` functions, and this module its only `unsafe`
//! code: every other package forbids it. Kernels that do not
//! accumulate on lanes (the Goertzel bank, `perf_report`'s divide peak)
//! take the lanes only for the recompilation and the
//! [`F64x8::FUSED`] rounding. A kernel must not reach its arithmetic
//! through a closure (`array::map`, iterator adapters taking one): a
//! closure is not inlined into the trampoline, so off it `f64::mul_add`
//! is a libm call, and each lane sum of an `array::map` reduction
//! became a call that spilled every accumulator to the stack.
//!
//! # Why an explicit lane type
//!
//! The grid-plan dot product and the probe sums used to accumulate on
//! loop-carried `[f64; 8]` arrays inside `#[target_feature]`
//! recompilations, trusting LLVM to hold each array in one 512-bit
//! register (or two 256-bit ones). It did not: in the AVX-512
//! instantiations the grid dot came out as 2-wide xmm FMAs with
//! `vunpcklpd`/`vunpckhpd` shuffles, and the probe sums as scalar
//! `vfmadd231sd` chains, six-accumulator ones spilled to the stack.
//! [`F64x8`] states the register form instead: [`Portable`] keeps the
//! array, [`Fma256`] holds two `__m256d` and [`Fma512`] one `__m512d`,
//! each multiply-add one instruction per register.
//!
//! # The lane order
//!
//! Every form computes the same function of its inputs, so a kernel on
//! it is bit-for-bit the array kernel it replaced. Lane `i` is its own
//! chain: [`F64x8::mul_add`] sets it to `a[i]·b[i] + lane[i]`, fused
//! in the FMA forms and `*` then `+` in the portable one, in call
//! order. [`F64x8::sum`] reduces pairwise,
//! `((l₀ + l₄) + (l₁ + l₅)) + ((l₂ + l₆) + (l₃ + l₇))`. A kernel's
//! scalar tail follows [`F64x8::mad`]. The workspace's
//! `tests/lane_model.rs` checks the kernels built on it against a
//! scalar model of exactly this order, on every arm the host can run.

/// `true` when `RFBIST_FORCE_SCALAR` is set (to anything but `0` or
/// empty): [`Arm::detect`] then picks [`Arm::Portable`]. `RUSTFLAGS`
/// cannot reach the trampolines, so CI's scalar job uses this to run
/// the portable kernels on SIMD-capable runners. Read once and cached.
fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("RFBIST_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// A kernel instantiation [`Arm::run`] can enter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Plain `*`/`+` on [`Portable`] lanes: every target, and every
    /// host under `RFBIST_FORCE_SCALAR`.
    Portable,
    /// The `#[target_feature(enable = "avx2,fma")]` recompilation, on
    /// [`Fma256`] lanes.
    Avx2,
    /// The `#[target_feature(enable = "avx512f,fma")]` recompilation,
    /// on [`Fma512`] lanes.
    Avx512,
}

impl Arm {
    /// The arm the kernels run on: the widest this CPU supports, or
    /// [`Arm::Portable`] under `RFBIST_FORCE_SCALAR`.
    pub fn detect() -> Arm {
        if force_scalar() {
            return Arm::Portable;
        }
        [Arm::Avx512, Arm::Avx2]
            .into_iter()
            .find(|arm| arm.supported())
            .unwrap_or(Arm::Portable)
    }

    /// Whether this CPU can run the arm (regardless of
    /// `RFBIST_FORCE_SCALAR`).
    pub fn supported(self) -> bool {
        match self {
            Arm::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 | Arm::Avx512 => false,
        }
    }

    /// Runs `kernel` on this arm where this CPU supports it, and on
    /// [`Portable`] lanes otherwise: the workspace's only dispatcher.
    /// It does not read `RFBIST_FORCE_SCALAR`; [`Arm::detect`] does.
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            if self == Arm::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F and FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                return unsafe { run_avx512(kernel) };
            }
            if self == Arm::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 and FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                return unsafe { run_avx2(kernel) };
            }
        }
        kernel.run(Portable::ZERO)
    }
}

/// A kernel body [`Arm::run`] recompiles for each arm: a struct of its
/// arguments whose [`run`](Kernel::run) is generic over the lane form.
/// Implement `run` `#[inline(always)]`, so that its body (and every
/// `#[inline(always)]` helper it calls) is compiled inside the arm's
/// trampoline.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel with its accumulators on `lanes`' form and its
    /// scalar multiply-adds rounded as [`F64x8::mad`] says.
    fn run<L: F64x8>(self, lanes: L) -> Self::Output;
}

/// `kernel` compiled with AVX-512F and FMA, on [`Fma512`] lanes.
///
/// # Safety
///
/// The running CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    // SAFETY: this function's own contract.
    kernel.run(unsafe { Fma512::new() })
}

/// `kernel` compiled with AVX2 and FMA, on [`Fma256`] lanes.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    // SAFETY: this function's own contract.
    kernel.run(unsafe { Fma256::new() })
}

/// Eight `f64` multiply-add accumulator lanes in the order set out in
/// the module docs. A value also vouches for its form's CPU features:
/// the x86-64 forms are only made by [`Arm::run`]'s trampolines, after
/// it checked them, so kernels take one and make their accumulators
/// with [`zero`](Self::zero).
pub trait F64x8: Copy {
    /// Whether the form's multiply-adds are fused.
    const FUSED: bool;

    /// Eight zero lanes of this form.
    fn zero(self) -> Self;

    /// Lane `i` becomes `a[i]·b[i] + self[i]`.
    fn mul_add(self, a: &[f64; 8], b: &[f64; 8]) -> Self;

    /// The pairwise lane sum
    /// `((l₀ + l₄) + (l₁ + l₅)) + ((l₂ + l₆) + (l₃ + l₇))`.
    fn sum(self) -> f64;

    /// The scalar `a·b + c` rounded like the lanes: one fused
    /// multiply-add, or `*` then `+`.
    #[inline(always)]
    fn mad(a: f64, b: f64, c: f64) -> f64 {
        if Self::FUSED {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }
}

/// The pairwise sum of eight lanes,
/// `((l₀ + l₄) + (l₁ + l₅)) + ((l₂ + l₆) + (l₃ + l₇))`.
#[inline(always)]
fn lane_sum(lanes: [f64; 8]) -> f64 {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    ((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))
}

/// The portable form: an `[f64; 8]` accumulated with `*` then `+`
/// (without hardware FMA, `f64::mul_add` is a libm call).
#[derive(Clone, Copy, Debug)]
pub struct Portable([f64; 8]);

impl Portable {
    /// Eight zero lanes.
    pub const ZERO: Portable = Portable([0.0; 8]);
}

impl F64x8 for Portable {
    const FUSED: bool = false;

    #[inline(always)]
    fn zero(self) -> Self {
        Self::ZERO
    }

    #[inline(always)]
    fn mul_add(self, a: &[f64; 8], b: &[f64; 8]) -> Self {
        let mut lanes = self.0;
        for ((l, &x), &y) in lanes.iter_mut().zip(a).zip(b) {
            *l += x * y;
        }
        Portable(lanes)
    }

    #[inline(always)]
    fn sum(self) -> f64 {
        lane_sum(self.0)
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Fma256, Fma512};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::F64x8;
    use std::arch::x86_64::*;

    /// `(l₀ + l₁) + (l₂ + l₃)` of the four lanes of `v`.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX.
    #[inline(always)]
    unsafe fn pair_sum(v: __m256d) -> f64 {
        // SAFETY: the caller guarantees AVX. `hadd` gives
        // [l₀ + l₁, l₀ + l₁, l₂ + l₃, l₂ + l₃], so the scalar add of
        // its two 128-bit halves' first lanes is (l₀ + l₁) + (l₂ + l₃).
        unsafe {
            let h = _mm256_hadd_pd(v, v);
            _mm_cvtsd_f64(_mm_add_sd(
                _mm256_castpd256_pd128(h),
                _mm256_extractf128_pd::<1>(h),
            ))
        }
    }

    /// The AVX2 + FMA form: lanes 0–3 in one `__m256d`, 4–7 in the
    /// other.
    #[derive(Clone, Copy, Debug)]
    pub struct Fma256(__m256d, __m256d);

    impl Fma256 {
        /// Eight zero lanes.
        ///
        /// # Safety
        ///
        /// The running CPU must support AVX2 and FMA
        /// (`is_x86_feature_detected!`): every value of this type, and
        /// so every method call on one, relies on it.
        #[inline(always)]
        pub(super) unsafe fn new() -> Self {
            // SAFETY: the caller guarantees AVX2 (which implies AVX).
            unsafe { Fma256(_mm256_setzero_pd(), _mm256_setzero_pd()) }
        }
    }

    impl F64x8 for Fma256 {
        const FUSED: bool = true;

        #[inline(always)]
        fn zero(self) -> Self {
            // SAFETY: `self` exists, so `new`'s caller checked AVX2 and
            // FMA on this CPU.
            unsafe { Fma256::new() }
        }

        #[inline(always)]
        fn mul_add(self, a: &[f64; 8], b: &[f64; 8]) -> Self {
            // SAFETY: `self` exists, so `new`'s caller checked AVX2 and
            // FMA on this CPU; `a` and `b` each reference eight
            // contiguous f64, and the unaligned loads read their first
            // and last four.
            unsafe {
                let (a, b) = (a.as_ptr(), b.as_ptr());
                Fma256(
                    _mm256_fmadd_pd(_mm256_loadu_pd(a), _mm256_loadu_pd(b), self.0),
                    _mm256_fmadd_pd(_mm256_loadu_pd(a.add(4)), _mm256_loadu_pd(b.add(4)), self.1),
                )
            }
        }

        #[inline(always)]
        fn sum(self) -> f64 {
            // SAFETY: `self` exists, so `new`'s caller checked AVX2 and
            // FMA on this CPU. The vector add pairs lane i with i + 4.
            unsafe { pair_sum(_mm256_add_pd(self.0, self.1)) }
        }
    }

    /// The AVX-512F + FMA form: all eight lanes in one `__m512d`.
    #[derive(Clone, Copy, Debug)]
    pub struct Fma512(__m512d);

    impl Fma512 {
        /// Eight zero lanes.
        ///
        /// # Safety
        ///
        /// The running CPU must support AVX-512F and FMA
        /// (`is_x86_feature_detected!`): every value of this type, and
        /// so every method call on one, relies on it.
        #[inline(always)]
        pub(super) unsafe fn new() -> Self {
            // SAFETY: the caller guarantees AVX-512F.
            unsafe { Fma512(_mm512_setzero_pd()) }
        }
    }

    impl F64x8 for Fma512 {
        const FUSED: bool = true;

        #[inline(always)]
        fn zero(self) -> Self {
            // SAFETY: `self` exists, so `new`'s caller checked AVX-512F
            // and FMA on this CPU.
            unsafe { Fma512::new() }
        }

        #[inline(always)]
        fn mul_add(self, a: &[f64; 8], b: &[f64; 8]) -> Self {
            // SAFETY: `self` exists, so `new`'s caller checked AVX-512F
            // and FMA on this CPU; `a` and `b` each reference eight
            // contiguous f64, the 64 bytes each unaligned load reads.
            unsafe {
                Fma512(_mm512_fmadd_pd(
                    _mm512_loadu_pd(a.as_ptr()),
                    _mm512_loadu_pd(b.as_ptr()),
                    self.0,
                ))
            }
        }

        #[inline(always)]
        fn sum(self) -> f64 {
            // SAFETY: `self` exists, so `new`'s caller checked AVX-512F
            // and FMA on this CPU. The vector add pairs lane i with
            // i + 4.
            unsafe {
                pair_sum(_mm256_add_pd(
                    _mm512_castpd512_pd256(self.0),
                    _mm512_extractf64x4_pd::<1>(self.0),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs whose lane sums depend on the order: magnitudes spread
    /// over 30 decades, signs mixed.
    fn inputs(seed: u64) -> ([f64; 8], [f64; 8]) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 10f64.powi((state % 31) as i32 - 15)
        };
        (
            std::array::from_fn(|_| next()),
            std::array::from_fn(|_| next()),
        )
    }

    /// Runs three multiply-adds on the lanes and checks the lane sum
    /// against the same arithmetic on an array in the documented order.
    struct Check;

    impl Kernel for Check {
        type Output = ();

        #[inline(always)]
        fn run<L: F64x8>(self, lanes: L) {
            for seed in 0..200 {
                let chunks = [inputs(seed), inputs(seed + 1000), inputs(seed + 2000)];
                let mut acc = lanes.zero();
                let mut model = [0.0f64; 8];
                for (a, b) in &chunks {
                    acc = acc.mul_add(a, b);
                    for i in 0..8 {
                        model[i] = L::mad(a[i], b[i], model[i]);
                    }
                }
                assert_eq!(
                    acc.sum().to_bits(),
                    lane_sum(model).to_bits(),
                    "seed {seed}"
                );
            }
        }
    }

    /// The lanes' form and rounding as a kernel sees them.
    struct Form;

    impl Kernel for Form {
        type Output = (&'static str, bool);

        #[inline(always)]
        fn run<L: F64x8>(self, _lanes: L) -> (&'static str, bool) {
            (std::any::type_name::<L>(), L::FUSED)
        }
    }

    #[test]
    fn every_supported_form_keeps_the_lane_order() {
        for arm in [Arm::Portable, Arm::Avx2, Arm::Avx512] {
            arm.run(Check);
        }
    }

    #[test]
    fn run_enters_the_arm_where_supported_and_portable_otherwise() {
        for (arm, form) in [
            (Arm::Portable, "Portable"),
            (Arm::Avx2, "Fma256"),
            (Arm::Avx512, "Fma512"),
        ] {
            let (name, fused) = arm.run(Form);
            if arm.supported() {
                assert!(name.ends_with(form), "{arm:?} ran on {name}");
                assert_eq!(fused, arm != Arm::Portable);
            } else {
                assert!(name.ends_with("Portable"), "{arm:?} ran on {name}");
                assert!(!fused);
            }
        }
    }

    #[test]
    fn lane_sum_is_pairwise_across_halves() {
        // 1 + 2^-53 is lost unless the tiny lanes pair up first
        let tiny = f64::EPSILON / 2.0;
        let lanes = [1.0, tiny, 0.0, 0.0, 0.0, tiny, 0.0, 0.0];
        assert_eq!(lane_sum(lanes), 1.0 + f64::EPSILON);
    }
}
