//! Runtime SIMD-dispatch helpers shared by the workspace's
//! `#[target_feature]`-recompiled kernels ([`crate::goertzel`]'s
//! banked recurrence, `rfbist_sampling`'s grid-plan producer and probe
//! sums).

/// `true` when `RFBIST_FORCE_SCALAR` is set (to anything but `0` or
/// empty): the runtime SIMD dispatch is skipped and the portable
/// scalar kernels run instead. `RUSTFLAGS`-level feature flags cannot
/// reach the `target_feature`-recompiled kernels (that is the whole
/// point of runtime dispatch), so this is the hook CI's
/// scalar-portability job uses to actually execute the fallback path
/// on SIMD-capable runners. Read once and cached.
pub fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("RFBIST_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}
