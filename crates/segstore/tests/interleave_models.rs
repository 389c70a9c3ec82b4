//! Interleaving models for the segment store's lock-free refcount retire
//! path (`SegStore::attach` / `release_ref`): attachers bump
//! the refcount under the map lock (existence + resurrection guard),
//! read the mapped segment outside any lock, and decrement with
//! `fetch_sub(Release)`; the last decrementer takes an `Acquire` fence,
//! rechecks under the map lock, and retires the segment to limbo (the
//! "free" the fence orders after every other attacher's reads).
//!
//! The negative model drops the decrement to Relaxed — the seed's
//! original ordering — and must be caught: the retire races another
//! attacher's in-flight segment read, which is precisely the bug the
//! Release/Acquire pair at the refcount-free edge fixes.

use std::sync::Arc;

use interleave::{fence, model, AtomicU32, Config, Data, Mutex, Ordering};

struct Store {
    /// The map lock: guards attachability and the zero-recheck.
    map: Mutex<bool>, // true once retired
    refs: AtomicU32,
    /// The mapped segment bytes; retiring "frees" them by zeroing.
    seg: Data<u32>,
}

impl Store {
    fn new() -> Self {
        Store { map: Mutex::new(false), refs: AtomicU32::new(0), seg: Data::named("segment", 1) }
    }

    /// `attach`: refcount bump under the map lock, like
    /// `Arc::clone` — the lock proves the entry is still attachable.
    fn attach(&self) -> bool {
        let retired = self.map.lock();
        if *retired {
            return false;
        }
        self.refs.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `release_ref`: Release decrement; the zero path takes the Acquire
    /// fence, rechecks under the map lock, and frees.
    fn release(&self, dec: Ordering) {
        if self.refs.fetch_sub(1, dec) != 1 {
            return;
        }
        if dec != Ordering::Relaxed {
            fence(Ordering::Acquire);
        }
        let mut retired = self.map.lock();
        // Resurrection guard: a racing attach under the map lock may have
        // revived the entry between our decrement and this recheck — and
        // may itself have read and released again by now, so the recheck
        // must *Acquire* that holder's Release decrement (our own fence
        // predates it and orders nothing of theirs).
        if !*retired && self.refs.load(Ordering::Acquire) == 0 {
            *retired = true;
            self.seg.set(0); // retire to limbo: the eventual free
        }
    }
}

fn attacher(store: &Store, dec: Ordering) {
    if store.attach() {
        // The mapped read the refcount protects: must complete before
        // any retire becomes possible.
        store.seg.with(|bytes| assert_eq!(*bytes, 1, "read a freed segment"));
        store.release(dec);
    }
}

model! {
    /// Two attachers race reads against the last-reference retire; the
    /// Release decrement + Acquire fence order every read before the
    /// free, and the map-lock recheck stops a revived entry from being
    /// torn down.
    fn refcount_retire_orders_reads_before_free() {
        let store = Arc::new(Store::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s2 = Arc::clone(&store);
                interleave::spawn(move || attacher(&s2, Ordering::Release))
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert!(*store.map.lock(), "last detach must retire the segment");
        assert_eq!(store.seg.get(), 0, "retired segment is freed exactly once");
    }

    /// Detach-under-attach: an attach that lands between the decrement
    /// and the zero-recheck revives the entry, and the recheck must then
    /// leave it alive for the still-active holder.
    fn attach_during_retire_revives_the_entry() {
        let store = Arc::new(Store::new());
        let s2 = Arc::clone(&store);
        let t = interleave::spawn(move || attacher(&s2, Ordering::Release));
        if store.attach() {
            store.seg.with(|bytes| assert_eq!(*bytes, 1, "read a freed segment"));
            store.release(Ordering::Release);
        }
        t.join();
        assert_eq!(store.seg.get(), 0, "the true last holder still retires");
    }
}

/// Pre-fix pin: with a Relaxed decrement (and no fence) the retire does
/// not happen-after the other attacher's segment read — the model must
/// flag the free racing that read. This is the seed's original ordering
/// at the refcount-free edge.
#[test]
fn relaxed_refcount_decrement_races_the_free() {
    let msg = interleave::fails(Config::from_env(), || {
        let store = Arc::new(Store::new());
        let s2 = Arc::clone(&store);
        let t = interleave::spawn(move || attacher(&s2, Ordering::Relaxed));
        attacher(&store, Ordering::Relaxed);
        t.join();
    });
    assert!(msg.contains("data race") || msg.contains("segment"), "{msg}");
}
