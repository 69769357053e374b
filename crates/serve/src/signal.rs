//! Minimal SIGTERM/SIGINT latching without a signal crate.
//!
//! Orchestrators stop processes with SIGTERM (and operators with
//! Ctrl-C); a serving shard must treat both as *graceful drain*, not
//! sudden death. This module installs handlers via the C `signal(2)`
//! entry point — already linked through `std` — that do the only thing
//! an async-signal-safe handler may do with `std` alone: set a relaxed
//! [`AtomicBool`]. The serving loop polls [`triggered`] and runs its
//! normal drain path (health → `draining`, grace period, shutdown).
//!
//! One static latch per process: handlers have no context argument, so
//! the flag is necessarily global. Installing twice is harmless;
//! non-Unix builds compile to a flag that is simply never set.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on the first SIGTERM/SIGINT; never cleared.
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::TERMINATE;
    use std::sync::atomic::Ordering;

    // POSIX-mandated values on Linux (signal.h).
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one relaxed store.
        TERMINATE.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handlers. Idempotent.
pub fn install() {
    imp::install();
}

/// `true` once the process has received SIGTERM or SIGINT.
pub fn triggered() -> bool {
    TERMINATE.load(Ordering::Relaxed)
}

/// Blocks until stdin reaches EOF *or* a SIGTERM/SIGINT arrives — how
/// both serving binaries wait out their lifetime. Installs the handlers.
///
/// stdin is read on a helper thread — `read_line` on Linux restarts
/// after a handled signal, so the calling thread polls the signal latch
/// instead of waiting inside the blocked read.
pub fn wait_for_exit() {
    install();
    let stdin_done = std::sync::Arc::new(AtomicBool::new(false));
    {
        let stdin_done = std::sync::Arc::clone(&stdin_done);
        std::thread::spawn(move || {
            let mut sink = String::new();
            while std::io::stdin()
                .read_line(&mut sink)
                .map(|n| n > 0)
                .unwrap_or(false)
            {
                sink.clear();
            }
            stdin_done.store(true, Ordering::SeqCst);
        });
    }
    while !triggered() && !stdin_done.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Test-only: arm the latch as if a signal had arrived.
#[doc(hidden)]
pub fn trigger_for_test() {
    TERMINATE.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_starts_clear_and_sticks_once_set() {
        install(); // must not crash, must be idempotent
        install();
        trigger_for_test();
        assert!(triggered());
        assert!(triggered(), "latch never clears");
    }
}
