//! Offline stand-in for `crossbeam` 0.8: `thread::scope` over
//! `std::thread::scope`, with crossbeam's calling convention (spawned
//! closures take the scope; `scope` returns `Err` when a thread panicked).

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Handle passed to [`scope`]'s closure and to every spawned closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before returning.
    /// `std::thread::scope` re-raises a panic after joining every thread; it
    /// is caught here and returned as `Err`, which every caller in the
    /// poseidon crates turns back into a panic with `expect`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
