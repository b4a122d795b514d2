//! Lock entry that ignores poisoning.
//!
//! Every lock in the workspace guards data that stays valid between any
//! two statements of its holders (a map insert, an `Arc` swap, a ring
//! push), so a holder that panicked leaves nothing half-updated. Turning
//! that one panic into a panic on every later reader of the verdict
//! index or the metrics registry would take the whole serve path down
//! with it; these helpers enter the lock instead.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `m.lock()`, entering a poisoned mutex.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `l.read()`, entering a poisoned lock.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// `l.write()`, entering a poisoned lock.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicked_holder_is_entered() {
        let m = Arc::new(Mutex::new(1));
        let l = Arc::new(RwLock::new(2));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _a = m2.lock().unwrap();
            let _b = l2.write().unwrap();
            panic!("poison both");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*lock(&m), 1);
        assert_eq!(*read(&l), 2);
        *write(&l) = 3;
        assert_eq!(*read(&l), 3);
    }
}
