//! Kernels compiled once per x86-64 vector width and picked at run time.
//!
//! `multiversion!` defines a function whose body is compiled three
//! times — with AVX-512F, with AVX2, and for the baseline the build
//! targets — and runs the widest clone the CPU supports, detected on each
//! call (`is_x86_feature_detected!` caches the answer). Rust never fuses a
//! multiply and an add, so every clone performs the same IEEE-754
//! operations in the same order: only the register width, and with it the
//! speed, differs. `taxorec_geometry::batch` dispatches its sweeps the
//! same way.
//!
//! The body should call only `#[inline]` code on its hot path: what is
//! inlined into a clone is compiled with the clone's features, what is
//! called is not.

/// `fn name(args) { body }`, compiled for AVX-512F, AVX2 and the baseline;
/// each call runs the widest clone this CPU supports.
macro_rules! multiversion {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) {
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
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the CPU was just seen to support AVX-512F.
                    return unsafe { avx512($($arg),*) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU was just seen to support AVX2.
                    return unsafe { avx2($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}
