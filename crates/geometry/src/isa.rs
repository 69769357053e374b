//! Kernels compiled once per x86-64 vector width, and the one feature
//! check that picks among them.
//!
//! [`multiversion!`](crate::multiversion) defines a function whose body is
//! compiled three times — with AVX-512F, with AVX2, and for the baseline
//! the build targets — and whose first argument, an [`Isa`], says which
//! clone runs. Production passes [`Isa::detected`], the widest clone the
//! CPU has; the per-clone tests pass each of [`Isa::supported`] and hold
//! every clone to the baseline's bits. Rust never fuses a multiply and an
//! add, so every clone performs the same IEEE-754 operations in the same
//! order: only the register width, and with it the speed, differs.
//!
//! The body should call only `#[inline]` code on its hot path: what is
//! inlined into a clone is compiled with the clone's features, what is
//! called is not.

/// A clone of a [`multiversion!`](crate::multiversion) kernel that this
/// CPU runs. [`Isa::detected`] and [`Isa::supported`] are the only ways
/// to name one above the baseline, so holding an `Isa` is the proof a
/// clone's `unsafe` call needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Baseline,
    Avx2,
    Avx512,
}

impl Isa {
    /// The clone every CPU runs.
    pub const BASELINE: Isa = Isa(Level::Baseline);

    /// The widest clone this CPU runs: the workspace's one feature check
    /// (`is_x86_feature_detected!` caches its answer).
    #[inline]
    pub fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa(Level::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa(Level::Avx2);
            }
        }
        Isa::BASELINE
    }

    /// Every clone this CPU runs, narrowest first.
    pub fn supported() -> Vec<Isa> {
        let widest = Isa::detected();
        [Level::Baseline, Level::Avx2, Level::Avx512]
            .map(Isa)
            .into_iter()
            .filter(|&isa| isa <= widest)
            .collect()
    }

    /// The clone's name, for messages.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512f",
        }
    }

    #[doc(hidden)]
    pub fn is_avx512(self) -> bool {
        self.0 == Level::Avx512
    }

    #[doc(hidden)]
    pub fn is_avx2(self) -> bool {
        self.0 == Level::Avx2
    }
}

/// `fn name(isa: Isa, args) { body }`, with `body` compiled for AVX-512F,
/// AVX2 and the baseline; each call runs the clone `isa` names.
#[macro_export]
macro_rules! multiversion {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($isa:ident: Isa, $($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$attr])*
        $vis fn $name($isa: $crate::isa::Isa, $($arg: $ty),*) {
            // The clones take the arguments the caller's signature has.
            #[allow(clippy::too_many_arguments)]
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            /// # Safety
            /// The CPU must support AVX-512F.
            #[allow(clippy::too_many_arguments)]
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                body($($arg),*)
            }

            /// # Safety
            /// The CPU must support AVX2.
            #[allow(clippy::too_many_arguments)]
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            {
                if $isa.is_avx512() {
                    // SAFETY: an `Isa` names a clone this CPU runs.
                    return unsafe { avx512($($arg),*) };
                }
                if $isa.is_avx2() {
                    // SAFETY: an `Isa` names a clone this CPU runs.
                    return unsafe { avx2($($arg),*) };
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = $isa;
            body($($arg),*)
        }
    };
}
