//! The workspace's one mutex and condvar: `std::sync`'s, with the
//! acquisition order checked at run time in debug builds.
//!
//! Every lock belongs to a **class**: the type it guards names it
//! ([`LockClass`], by convention `Type::field` of the mutex), so all
//! mutexes over one type are one class, the way Linux's lockdep keys a
//! class by its static key. The class lives in the type, not in the
//! mutex, so an `OrderedMutex<T>` is the size of a `Mutex<T>` in every
//! build. Under `debug_assertions`:
//!
//! - each thread keeps the classes it holds in a fixed thread-local
//!   array;
//! - each acquisition sets a held → acquired bit in a fixed global
//!   class table;
//! - an edge that would close a cycle panics before the lock is taken,
//!   naming the acquisition site and the site where each edge of the
//!   opposite path was first taken (`#[track_caller]`);
//! - an [`OrderedCondvar::wait`] releases its class while it sleeps and
//!   re-acquires it on wake-up;
//! - two locks of one class nested on one thread are not an edge;
//! - an edge already recorded costs a scan of the class names, a
//!   thread-local read and an atomic load, and never allocates.
//!
//! So every test run checks the lock order of whatever it executes —
//! generic dispatch, helpers that take or drop guards, condvar waits —
//! and a single thread that takes `A` then `B` once and `B` then `A`
//! later fails, with no deadlock needed. In release builds the types
//! are `std::sync::Mutex` / `Condvar` and cost nothing more.
//!
//! Both types recover from poison: a panic while holding a lock only
//! leaves functional state behind, and callers that must fail stop keep
//! a flag of their own.

#![expect(
    clippy::disallowed_types,
    reason = "the one place the std lock types are named; every other lock goes through the order checker"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The lock class of the mutexes guarding a `Self`.
pub trait LockClass {
    /// The class's name in the recorded order and in cycle reports;
    /// by convention `Type::field` of the mutex.
    const NAME: &'static str;
}

/// A [`std::sync::Mutex`] whose acquisitions feed the lock-order
/// checker in debug builds (see the [module docs](self)).
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
}

// The checker costs no space, in release builds and in the debug
// builds whose allocations `tests/alloc_budget.rs` counts.
const _: () = assert!(
    std::mem::size_of::<OrderedMutex<u64>>() == std::mem::size_of::<Mutex<u64>>()
        && std::mem::size_of::<OrderedMutex<[u8; 40]>>() == std::mem::size_of::<Mutex<[u8; 40]>>()
);

impl<T: LockClass> OrderedMutex<T> {
    /// A mutex of `T`'s lock class holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        OrderedMutex {
            inner: Mutex::new(value),
        }
    }

    /// Blocks until the lock is held. A poisoned lock is recovered.
    ///
    /// # Panics
    ///
    /// In debug builds, if taking this lock while holding the thread's
    /// current locks closes a cycle in the recorded order, or if the
    /// process has more than 64 lock classes.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(order::class_id(T::NAME), std::panic::Location::caller());
        OrderedGuard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            held,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// The guard of an [`OrderedMutex`]; the lock and its class are
/// released when it drops.
pub struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: order::Held,
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`std::sync::Condvar`] that waits on [`OrderedGuard`]s.
#[derive(Default)]
pub struct OrderedCondvar(Condvar);

impl OrderedCondvar {
    /// A condvar with no waiters.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        OrderedCondvar(Condvar::new())
    }

    /// Releases `guard`'s lock (and its class) until notified, then
    /// re-acquires both. A poisoned lock is recovered.
    ///
    /// # Panics
    ///
    /// In debug builds, if re-acquiring closes a lock-order cycle with
    /// a lock still held across the wait.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<'a, T>(&self, guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
        #[cfg(debug_assertions)]
        let class = guard.held.release();
        let guard = self
            .0
            .wait(guard.guard)
            .unwrap_or_else(PoisonError::into_inner);
        OrderedGuard {
            guard,
            #[cfg(debug_assertions)]
            held: order::acquire(class, std::panic::Location::caller()),
        }
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Every held → acquired class edge this process has recorded, by
/// class name, sorted. Debug builds only.
#[cfg(debug_assertions)]
#[must_use]
pub fn recorded_edges() -> Vec<(&'static str, &'static str)> {
    order::edges()
}

#[cfg(debug_assertions)]
mod order {
    use super::{Mutex, PoisonError};
    use std::cell::Cell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    type Site = &'static Location<'static>;

    /// Lock classes per process: one bit each in an edge row.
    const MAX_CLASSES: usize = 64;
    /// Locks one thread may hold at once.
    const MAX_HELD: usize = 8;

    /// Class names by id; a name claims the first free slot once.
    static NAMES: [OnceLock<&'static str>; MAX_CLASSES] = [const { OnceLock::new() }; MAX_CLASSES];
    /// `EDGES[a]` bit `b`: class `b` was taken while `a` was held.
    static EDGES: [AtomicU64; MAX_CLASSES] = [const { AtomicU64::new(0) }; MAX_CLASSES];
    /// Where each edge was first taken: (site of the held lock, site
    /// of the acquisition), by `[held][acquired]` class.
    type SiteTable = [[Option<(Site, Site)>; MAX_CLASSES]; MAX_CLASSES];
    /// The recorded edges' sites. Its lock also serialises new edges.
    static SITES: Mutex<SiteTable> = Mutex::new([[None; MAX_CLASSES]; MAX_CLASSES]);

    thread_local! {
        /// The classes this thread holds, with the sites that took them.
        static HELD: Cell<[Option<(usize, Site)>; MAX_HELD]> = const { Cell::new([None; MAX_HELD]) };
    }

    /// The id of class `name`, registering it on first use.
    pub(super) fn class_id(name: &'static str) -> usize {
        NAMES
            .iter()
            .position(|slot| {
                let claimed = *slot.get_or_init(|| name);
                std::ptr::eq(claimed, name) || claimed == name
            })
            .unwrap_or_else(|| panic!("more than {MAX_CLASSES} lock classes"))
    }

    fn name(class: usize) -> &'static str {
        NAMES[class].get().copied().unwrap_or("?")
    }

    /// One held class, in slot `slot` of the thread's array; dropping
    /// it releases the class.
    pub(crate) struct Held {
        class: usize,
        slot: usize,
    }

    impl Held {
        /// Releases the class and returns it (a condvar wait takes it
        /// again on wake-up).
        pub(super) fn release(self) -> usize {
            self.class
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let mut held = HELD.get();
            held[self.slot] = None;
            HELD.set(held);
        }
    }

    /// Records an edge from every class the thread holds to `class`,
    /// then marks `class` held.
    pub(super) fn acquire(class: usize, site: Site) -> Held {
        let mut held = HELD.get();
        for &(from, from_site) in held.iter().flatten() {
            if from != class {
                add_edge(from, class, (from_site, site));
            }
        }
        let slot = held
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| panic!("more than {MAX_HELD} locks held at {site}"));
        held[slot] = Some((class, site));
        HELD.set(held);
        Held { class, slot }
    }

    fn add_edge(from: usize, to: usize, sites_of_edge: (Site, Site)) {
        let bit = 1u64 << to;
        if EDGES[from].load(Ordering::Acquire) & bit != 0 {
            return;
        }
        let mut sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(path) = path(to, from, &mut 0) {
            let taken = |a: usize, b: usize, (a_site, b_site): (Site, Site)| {
                format!(
                    "`{}` taken at {b_site} while holding `{}` (taken at {a_site})",
                    name(b),
                    name(a)
                )
            };
            let recorded: Vec<String> = path
                .windows(2)
                .filter_map(|w| sites[w[0]][w[1]].map(|s| taken(w[0], w[1], s)))
                .collect();
            drop(sites);
            panic!(
                "lock-order cycle: {}, but the opposite order was recorded: {}",
                taken(from, to, sites_of_edge),
                recorded.join("; ")
            );
        }
        sites[from][to] = Some(sites_of_edge);
        EDGES[from].fetch_or(bit, Ordering::Release);
    }

    /// The classes on a recorded path `from` → … → `to` that avoids the
    /// classes in `seen`, if there is one.
    fn path(from: usize, to: usize, seen: &mut u64) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![to]);
        }
        *seen |= 1 << from;
        let next = EDGES[from].load(Ordering::Acquire) & !*seen;
        (0..MAX_CLASSES)
            .filter(|&c| next & (1 << c) != 0)
            .find_map(|c| {
                let mut rest = path(c, to, seen)?;
                rest.insert(0, from);
                Some(rest)
            })
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        let mut out: Vec<_> = (0..MAX_CLASSES)
            .flat_map(|a| {
                let row = EDGES[a].load(Ordering::Acquire);
                (0..MAX_CLASSES)
                    .filter(move |&b| row & (1 << b) != 0)
                    .map(move |b| (name(a), name(b)))
            })
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Declares test lock classes: a `u32` newtype each.
    macro_rules! classes {
        ($($ty:ident = $name:literal),* $(,)?) => {$(
            struct $ty(u32);
            impl LockClass for $ty {
                const NAME: &'static str = $name;
            }
        )*};
    }

    classes! {
        AbbaA = "sync::tests::abba::a",
        AbbaB = "sync::tests::abba::b",
        WaitOuter = "sync::tests::wait::outer",
        WaitOther = "sync::tests::wait::other",
        Nest = "sync::tests::nest",
        Left = "sync::tests::left",
        Right = "sync::tests::right",
        CallOuter = "sync::tests::call::outer",
        CallInner = "sync::tests::call::inner",
        Dropped = "sync::tests::dropped",
        After = "sync::tests::after",
        Poison = "sync::tests::poison",
    }

    fn has_edge(from: &str, to: &str) -> bool {
        recorded_edges().contains(&(from, to))
    }

    #[test]
    fn abba_order_panics_and_names_both_sites() {
        let a = OrderedMutex::new(AbbaA(0));
        let b = OrderedMutex::new(AbbaB(0));
        let first = {
            let _a = a.lock();
            let site = line!() + 1;
            let _b = b.lock();
            site
        };
        let second = line!() + 3;
        let err = catch_unwind(|| {
            let _b = b.lock();
            let _a = a.lock();
        })
        .expect_err("taking b then a after a then b must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(msg.contains(&format!("sync.rs:{second}:")), "{msg}");
        assert!(msg.contains(&format!("sync.rs:{first}:")), "{msg}");
        // The cycle-closing edge is not recorded, and the recorded
        // order still takes.
        assert!(has_edge("sync::tests::abba::a", "sync::tests::abba::b"));
        assert!(!has_edge("sync::tests::abba::b", "sync::tests::abba::a"));
        assert_eq!(a.lock().0 + b.lock().0, 0);
    }

    #[test]
    fn a_consistent_order_records_its_edge_and_passes() {
        let left = OrderedMutex::new(Left(1));
        let right = OrderedMutex::new(Right(2));
        for _ in 0..3 {
            let l = left.lock();
            let r = right.lock();
            assert_eq!(l.0 + r.0, 3);
        }
        assert!(has_edge("sync::tests::left", "sync::tests::right"));
        assert!(!has_edge("sync::tests::right", "sync::tests::left"));
    }

    #[test]
    fn a_cycle_through_a_call_is_found() {
        let outer = OrderedMutex::new(CallOuter(0));
        let inner = OrderedMutex::new(CallInner(0));
        // Takes `inner` for its caller, whatever the caller holds.
        let bump = |m: &OrderedMutex<CallInner>| m.lock().0 += 1;
        {
            let _o = outer.lock();
            bump(&inner);
        }
        let err = catch_unwind(|| {
            let i = inner.lock();
            let o = outer.lock();
            (i.0, o.0)
        })
        .expect_err("inner then outer after outer then (via bump) inner");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("`sync::tests::call::outer` taken at"), "{msg}");
        assert_eq!(inner.lock().0, 1);
    }

    #[test]
    fn a_dropped_guard_is_not_held_across_the_next_lock() {
        let first = OrderedMutex::new(Dropped(1));
        let second = OrderedMutex::new(After(2));
        let guard = first.lock();
        let value = guard.0;
        drop(guard);
        assert_eq!(value + second.lock().0, 3);
        assert!(!has_edge("sync::tests::dropped", "sync::tests::after"));
    }

    #[test]
    fn a_condvar_wait_does_not_leave_its_class_held() {
        let outer = OrderedMutex::new(WaitOuter(0));
        let other = OrderedMutex::new(WaitOther(0));
        let cv = OrderedCondvar::new();
        let set_outer = || {
            outer.lock().0 = 1;
            cv.notify_all();
        };
        // Wait, wake, drop the guard: `other` is then taken holding
        // nothing.
        let guard = std::thread::scope(|s| {
            let mut guard = outer.lock();
            s.spawn(set_outer);
            while guard.0 == 0 {
                guard = cv.wait(guard);
            }
            guard
        });
        drop(guard);
        assert_eq!(other.lock().0, 0);
        assert!(!has_edge(
            "sync::tests::wait::outer",
            "sync::tests::wait::other"
        ));
        // A guard back from a wait holds its class again.
        let mut guard = outer.lock();
        guard.0 = 0;
        let guard = std::thread::scope(|s| {
            s.spawn(set_outer);
            while guard.0 == 0 {
                guard = cv.wait(guard);
            }
            guard
        });
        assert_eq!(other.lock().0, 0);
        drop(guard);
        assert!(has_edge(
            "sync::tests::wait::outer",
            "sync::tests::wait::other"
        ));
    }

    #[test]
    fn nesting_one_class_is_not_an_edge() {
        let first = OrderedMutex::new(Nest(1));
        let second = OrderedMutex::new(Nest(2));
        let a = first.lock();
        let b = second.lock();
        assert_eq!(a.0 + b.0, 3);
        drop((a, b));
        let b = second.lock();
        let a = first.lock();
        assert_eq!(a.0 + b.0, 3);
        assert!(!has_edge("sync::tests::nest", "sync::tests::nest"));
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let m = OrderedMutex::new(Poison(7));
        let _ = catch_unwind(|| {
            let _g = m.lock();
            panic!("poison it");
        });
        assert_eq!(m.lock().0, 7);
    }
}
