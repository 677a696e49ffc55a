//! Runtime selection of a CPU-specific build of a lane-word loop.
//!
//! The workspace's hot loops — the wide simulator's clock cycle
//! ([`WideSim`](crate::wide::WideSim)) and the stimulus generator in
//! `elastic_core::verify` — are plain Rust over `[u64; W]` lane words and
//! 64-lane generator blocks. Built for the baseline x86-64 target they use
//! SSE2; the same source built with AVX2 or AVX-512F enabled runs a
//! `[u64; 8]` operation in one or two instructions. A [`Kernel`] names one
//! such build and runs a closure through it, so one `#[inline(always)]`
//! body yields every build.
//!
//! ```
//! use elastic_netlist::kernel::Kernel;
//!
//! // Doubles every lane word in place, through each build this CPU runs.
//! let double = |k: Kernel| {
//!     let mut words = [0x0F0F_u64; 8];
//!     k.run(&mut words, |w| w.iter_mut().for_each(|x| *x <<= 1));
//!     words
//! };
//! // Every build computes the same words; only the instructions differ.
//! for k in Kernel::available() {
//!     assert_eq!(double(k), [0x1E1E; 8]);
//! }
//! ```

/// A build of a lane-word loop: portable (baseline target), AVX2 or
/// AVX-512F.
///
/// Every build computes the same result; they differ only in the
/// instructions the compiler may use. A feature-enabled `Kernel` is only
/// obtained from [`Kernel::available`] or [`Kernel::best`], which check the
/// CPU first, so holding one means this CPU runs its build (the portable
/// one, from [`Kernel::portable`], runs everywhere). No option, flag or
/// environment variable selects a build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Build);

/// The builds behind [`Kernel`]; private, so only [`Kernel::available`]
/// constructs the feature-enabled ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every build this CPU runs, fastest first; the portable build is
    /// always there, last.
    pub fn available() -> Vec<Kernel> {
        let mut builds = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                builds.push(Kernel(Build::Avx512));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                builds.push(Kernel(Build::Avx2));
            }
        }
        builds.push(Kernel(Build::Portable));
        builds
    }

    /// The fastest build this CPU runs.
    pub fn best() -> Kernel {
        Kernel::available()[0]
    }

    /// The build for the baseline target, which every CPU runs.
    pub const fn portable() -> Kernel {
        Kernel(Build::Portable)
    }

    /// The build's name in report headers: `portable`, `avx2` or
    /// `avx512f`.
    pub fn label(self) -> &'static str {
        match self.0 {
            Build::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => "avx512f",
        }
    }

    /// Runs `body(state)` through this build.
    ///
    /// Mark `body` `#[inline(always)]`, and everything it calls on the hot
    /// path: the build's target features apply to the code inlined into
    /// it, and a call left out of line runs as the portable build. Pass
    /// the loop's mutable working set (the generator states, the lane
    /// value arena) as `state` rather than through a capture: it enters
    /// the build as a `&mut` argument, which tells the compiler that no
    /// other access in `body` aliases it, so it can stay in registers
    /// across iterations while `body` writes elsewhere.
    #[inline(always)]
    pub fn run<S: ?Sized, R>(self, state: &mut S, body: impl FnOnce(&mut S) -> R) -> R {
        match self.0 {
            Build::Portable => body(state),
            // SAFETY: `Build::Avx2` and `Build::Avx512` are private and only
            // constructed by `Kernel::available`, once
            // `is_x86_feature_detected!` has returned true for their target
            // feature, so this CPU executes the build.
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => unsafe { run_avx2(state, body) },
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => unsafe { run_avx512(state, body) },
        }
    }
}

/// `body(state)` built with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<S: ?Sized, R>(state: &mut S, body: impl FnOnce(&mut S) -> R) -> R {
    body(state)
}

/// `body(state)` built with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<S: ?Sized, R>(state: &mut S, body: impl FnOnce(&mut S) -> R) -> R {
    body(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_lists_best_first_and_portable_last() {
        let builds = Kernel::available();
        assert_eq!(builds[0], Kernel::best());
        assert_eq!(builds.last(), Some(&Kernel::portable()));
        let mut unique = builds.clone();
        unique.dedup();
        assert_eq!(builds, unique, "each build listed once");
        // Each build has its own report label, the portable one last.
        let mut labels: Vec<&str> = builds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.last(), Some(&"portable"));
        labels.dedup();
        assert_eq!(labels.len(), builds.len());
    }
}
