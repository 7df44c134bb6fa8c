//! Runtime instruction-set detection, shared by every kernel that compiles
//! one safe body several times under `#[target_feature]` (the GEMM
//! microkernel in [`crate::kernel`], the 1-bit codec loops in
//! [`crate::quantize`]).

/// An instruction-set tier a kernel may be compiled for. The wide tiers exist
/// only where their `#[target_feature]` copies do, so other targets compile
/// with the baseline bodies alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every tier of this target, narrowest first.
    pub(crate) const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether the running CPU executes this tier: the one place a CPU
    /// feature is tested, and what every dispatch site's `unsafe` rests on.
    pub(crate) fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }
}

/// The widest tier the running CPU executes.
pub(crate) fn detect_isa() -> Isa {
    let widest = Isa::ALL.iter().rev().find(|isa| isa.detected());
    *widest.expect("the baseline tier runs everywhere")
}
