//! Poison-tolerant lock acquisition, shared by every crate in the
//! workspace that guards state with [`std::sync`] primitives.
//!
//! A poisoned mutex means *some* thread panicked while holding the guard.
//! For the structures we protect — cache shards, disk directories, buffer
//! frames — the invariants are re-established on every operation, so the
//! right response is almost never to cascade the panic with `.unwrap()`.
//! Instead callers choose one of two explicit policies:
//!
//! * [`recover_lock`] — take the guard anyway. Use on paths that only
//!   read, or that rewrite the protected state wholesale, where a
//!   half-finished update by the panicking thread cannot be observed as
//!   corruption.
//! * [`checked_lock`] — surface the poisoning as a [`LockPoisoned`] error
//!   so the caller can return a clean failure instead of panicking.
//!
//! The store and server crates deny bare `Mutex::lock` calls via clippy's
//! `disallowed-methods`, funnelling every acquisition through this module,
//! and use no `RwLock` at all.

use std::error::Error;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// A lock was poisoned by a panicking holder and the caller asked for that
/// to be an error rather than recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockPoisoned;

impl fmt::Display for LockPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("lock poisoned by a panicked holder")
    }
}

impl Error for LockPoisoned {}

/// Acquires `mutex`, reporting a poisoned lock as [`LockPoisoned`] instead
/// of panicking.
pub fn checked_lock<T>(mutex: &Mutex<T>) -> Result<MutexGuard<'_, T>, LockPoisoned> {
    mutex.lock().map_err(|_| LockPoisoned)
}

/// Acquires `mutex`, recovering the guard even if a previous holder
/// panicked. The protected value is whatever the panicking thread left
/// behind; callers must tolerate (or overwrite) a mid-operation state.
pub fn recover_lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn poison<T: Send + 'static>(mutex: &Arc<Mutex<T>>) {
        let m = Arc::clone(mutex);
        let _ = std::thread::spawn(move || {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
    }

    #[test]
    fn recover_lock_survives_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        poison(&mutex);
        assert!(mutex.is_poisoned());
        assert_eq!(*recover_lock(&mutex), 7);
        *recover_lock(&mutex) = 8;
        assert_eq!(*recover_lock(&mutex), 8);
    }

    #[test]
    fn checked_lock_reports_poison() {
        let mutex = Arc::new(Mutex::new(0u32));
        assert!(checked_lock(&mutex).is_ok());
        poison(&mutex);
        assert_eq!(checked_lock(&mutex).unwrap_err(), LockPoisoned);
        assert_eq!(
            LockPoisoned.to_string(),
            "lock poisoned by a panicked holder"
        );
    }
}
