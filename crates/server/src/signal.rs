//! A process-wide SIGINT latch so `dcnr serve` can drain gracefully on
//! Ctrl-C.
//!
//! The handler does the only thing that is async-signal-safe here: it
//! stores into an `AtomicBool`. The serve loop polls the latch and runs
//! the actual drain on a normal thread. A second Ctrl-C restores the
//! default disposition, so it kills the process if the drain wedges.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGINT: AtomicBool = AtomicBool::new(false);

/// The workspace's one unsafe island outside vendored compat crates: a
/// direct declaration of libc `signal(2)` (we vendor no libc crate).
/// Kept to the smallest possible surface — one FFI call installing a
/// handler that stores one atomic.
#[allow(unsafe_code)]
mod ffi {
    use super::SIGINT;
    use std::sync::atomic::Ordering;

    const SIGINT_NO: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        SIGINT.store(true, Ordering::SeqCst);
        // Restore the default disposition: a second Ctrl-C terminates.
        unsafe {
            signal(SIGINT_NO, SIG_DFL);
        }
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGINT_NO, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// Installs the SIGINT latch. Idempotent; call once before serving.
pub fn install_sigint_latch() {
    ffi::install();
}

/// Whether SIGINT has been received since the latch was installed.
pub fn sigint_received() -> bool {
    SIGINT.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_starts_clear_and_install_is_idempotent() {
        install_sigint_latch();
        install_sigint_latch();
        // We cannot raise SIGINT in-process without killing the test
        // runner under some harnesses; asserting the clear state plus
        // idempotent install is the safe portable check.
        assert!(!sigint_received());
    }
}
