//! Offline shim for the `parking_lot` crate.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! tiny API subset it uses: a non-poisoning [`Mutex`] over the std
//! primitive. Not poisoning is what keeps `tpotd`'s shared proof cache
//! usable after a panicked engine run. Swap this path dependency for the
//! real crate when a registry is available — the call sites compile
//! unchanged.

use std::sync;

/// Mutex guard type (re-exported std guard).
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock that, like `parking_lot::Mutex`, does not poison:
/// a panic while holding the lock leaves the data accessible.
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_panic() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: still lockable after a panicking holder.
        assert_eq!(*m.lock(), 0);
    }
}
