//! A slab whose freed entries later insertions reuse, last freed first:
//! it holds as many entries as were ever live at once.

use std::ops::{Index, IndexMut};

#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        let (entries, free) = (Vec::new(), Vec::new());
        Slab { entries, free }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Hold `value` in a free entry, or in a new one; returns its index.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        let idx = self.free.pop().unwrap_or(self.entries.len());
        if idx == self.entries.len() {
            self.entries.push(None);
        }
        self.entries[idx] = Some(value);
        idx
    }

    /// Free entry `idx` and return what it held.
    pub(crate) fn remove(&mut self, idx: usize) -> T {
        self.free.push(idx);
        (self.entries[idx].take()).unwrap_or_else(|| unreachable!("entry {idx} freed twice"))
    }
}

impl<T> Index<usize> for Slab<T> {
    type Output = T;

    fn index(&self, idx: usize) -> &T {
        (self.entries[idx].as_ref()).unwrap_or_else(|| unreachable!("entry {idx} is free"))
    }
}

impl<T> IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, idx: usize) -> &mut T {
        (self.entries[idx].as_mut()).unwrap_or_else(|| unreachable!("entry {idx} is free"))
    }
}

#[cfg(any(test, debug_assertions))]
impl<T> Slab<T> {
    /// The entry at `idx`, if it is live.
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.entries.get(idx)?.as_ref()
    }

    /// The live entries with their indexes, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (self.entries.iter().enumerate()).filter_map(|(idx, e)| Some((idx, e.as_ref()?)))
    }

    /// Entries live and free: as many as were ever live at once.
    pub(crate) fn high_water(&self) -> usize {
        self.entries.len()
    }

    /// Panic unless the free list names each empty entry exactly once.
    pub(crate) fn check(&self) {
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), self.free.len(), "an entry freed twice");
        for (idx, entry) in self.entries.iter().enumerate() {
            assert_eq!(
                entry.is_none(),
                free.binary_search(&idx).is_ok(),
                "entry {idx}"
            );
        }
    }
}
