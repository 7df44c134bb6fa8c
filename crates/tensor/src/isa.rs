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
    const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether the running CPU executes this tier: the one place a CPU
    /// feature is tested, and what every dispatch site's `unsafe` rests on.
    fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }
}

/// One compiled copy of the dispatched kernels (the GEMM microkernel, the
/// 1-bit codec loops) that the running CPU can execute. Values come only from
/// [`Tier::available`] and the crate's own widest-tier lookup, so holding one
/// is the proof that its instruction set was detected on this CPU.
/// Production code always runs the widest; the differential tests walk all
/// of them against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tier(Isa);

impl Tier {
    /// Every tier this CPU runs, baseline first, widest last.
    pub fn available() -> Vec<Tier> {
        let detected = Isa::ALL.iter().filter(|isa| isa.detected());
        detected.map(|&isa| Tier(isa)).collect()
    }

    /// The widest tier this CPU runs.
    pub(crate) fn widest() -> Tier {
        let widest = Isa::ALL.iter().rev().find(|isa| isa.detected());
        Tier(*widest.expect("the baseline tier runs everywhere"))
    }

    /// The instruction set this tier was compiled for, and was detected.
    pub(crate) fn isa(self) -> Isa {
        self.0
    }

    /// The tier's name, for test failure messages.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}
