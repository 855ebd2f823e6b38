//! One sort's node storage. `Shelf` is `pub` inside this private module,
//! so the public [`crate::Sort`] trait can name it while the type stays
//! out of the crate's API.

use std::collections::BTreeMap;
use std::sync::Arc;

/// One sort's layered node storage: an immutable shared base, a sparse
/// copy-on-write delta over it, and a locally-owned tail for fresh
/// allocations. Ids `0..base.len()` address the base (through the
/// delta), ids past that address the tail — so overlay allocation order
/// matches a deep clone's exactly.
#[derive(Clone, Debug)]
pub struct Shelf<T> {
    base: Arc<Vec<T>>,
    /// Base ids this view re-bound, in id order (deterministic iteration).
    over: BTreeMap<u32, T>,
    local: Vec<T>,
}

impl<T> Default for Shelf<T> {
    fn default() -> Self {
        Shelf { base: Arc::new(Vec::new()), over: BTreeMap::new(), local: Vec::new() }
    }
}

impl<T: Clone + PartialEq> Shelf<T> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.local.len()
    }

    #[inline]
    pub(crate) fn get(&self, i: u32) -> &T {
        let idx = i as usize;
        if idx < self.base.len() {
            match self.over.get(&i) {
                Some(v) => v,
                None => &self.base[idx],
            }
        } else {
            &self.local[idx - self.base.len()]
        }
    }

    /// Writing a base id's original value back removes the delta entry,
    /// so the delta holds exactly the base ids whose node differs from
    /// the frozen base — the property the effect-delta export relies on.
    pub(crate) fn set(&mut self, i: u32, v: T) {
        let idx = i as usize;
        if idx < self.base.len() {
            if self.base[idx] == v {
                self.over.remove(&i);
            } else {
                self.over.insert(i, v);
            }
        } else {
            self.local[idx - self.base.len()] = v;
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: T) -> u32 {
        let id = self.len() as u32;
        self.local.push(v);
        id
    }

    /// Base ids re-bound by this view, ascending.
    pub(crate) fn overlay_keys(&self) -> Vec<u32> {
        self.over.keys().copied().collect()
    }

    pub(crate) fn overlay_len(&self) -> usize {
        self.over.len()
    }

    /// The shared base (all of a frozen shelf).
    pub(crate) fn base(&self) -> &[T] {
        &self.base
    }

    /// Materializes base ∪ delta ∪ tail into a new shared base with an
    /// empty delta and tail.
    pub(crate) fn freeze(&mut self) {
        let Shelf { base, over, local } = std::mem::take(self);
        if base.is_empty() {
            self.base = Arc::new(local);
            return;
        }
        let mut out = Arc::try_unwrap(base).unwrap_or_else(|shared| shared.as_ref().clone());
        for (i, v) in over {
            out[i as usize] = v;
        }
        out.extend(local);
        self.base = Arc::new(out);
    }
}
