//! The keyed LRU behind a plan's per-weight caches (FO² weight bindings and
//! γ-acyclic CQ reduction tables). Each entry type gets its own list, so
//! every algebra keeps its own [`CAPACITY`] entries and lane traffic never
//! evicts exact ones. Keys compare through `PartialEq`, so float weights
//! key a cache without a float ever being hashed.

use std::any::Any;
use std::fmt::Debug;

/// Entries kept per entry type: enough that an alternating sweep over a
/// handful of weight functions (the equality-removal sweep, MLN learning
/// loops) never thrashes, few enough that a long-running process does not
/// accumulate entries without bound.
pub(crate) const CAPACITY: usize = 8;

/// A cache key.
pub(crate) trait Key: PartialEq + Debug + Send + 'static {}

impl<K: PartialEq + Debug + Send + 'static> Key for K {}

/// A cached value, with its share of [`KeyedLru::len`].
pub(crate) trait Entry: Debug + Send + 'static {
    fn size(&self) -> usize;
}

/// One entry type's list, most recently used first, behind a type-erased
/// handle so one store holds the lists of every entry type.
trait List: Debug + Send {
    fn as_any(&mut self) -> &mut dyn Any;
    fn size(&self) -> usize;
}

impl<K: Key, V: Entry> List for Vec<(K, V)> {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn size(&self) -> usize {
        self.iter().map(|(_, v)| v.size()).sum()
    }
}

/// Keyed LRU lists, one per `(K, V)` entry type.
#[derive(Debug, Default)]
pub(crate) struct KeyedLru {
    lists: Vec<Box<dyn List>>,
}

impl KeyedLru {
    /// The list of `(K, V)` entries, created empty on first use.
    fn list<K: Key, V: Entry>(&mut self) -> &mut Vec<(K, V)> {
        let found = self
            .lists
            .iter_mut()
            .position(|l| l.as_any().is::<Vec<(K, V)>>());
        let at = found.unwrap_or_else(|| {
            self.lists.push(Box::new(Vec::<(K, V)>::new()));
            self.lists.len() - 1
        });
        self.lists[at]
            .as_any()
            .downcast_mut()
            .expect("a list of this type")
    }

    /// A clone of the value under `key`, marked most recently used.
    pub(crate) fn get<K: Key, V: Entry + Clone>(&mut self, key: &K) -> Option<V> {
        let list = self.list::<K, V>();
        let at = list.iter().position(|(k, _)| k == key)?;
        let entry = list.remove(at);
        let value = entry.1.clone();
        list.insert(0, entry);
        Some(value)
    }

    /// Removes and returns the value under `key`, so its holder can work on
    /// it without the store's lock and [`put`](Self::put) it back.
    pub(crate) fn take<K: Key, V: Entry>(&mut self, key: &K) -> Option<V> {
        let list = self.list::<K, V>();
        let at = list.iter().position(|(k, _)| k == key)?;
        Some(list.remove(at).1)
    }

    /// Inserts `value` under `key` as the most recently used entry,
    /// replacing an entry with an equal key and evicting the least recently
    /// used one beyond [`CAPACITY`].
    pub(crate) fn put<K: Key, V: Entry>(&mut self, key: K, value: V) {
        let list = self.list::<K, V>();
        list.retain(|(k, _)| *k != key);
        list.insert(0, (key, value));
        list.truncate(CAPACITY);
    }

    /// The summed [`Entry::size`] of every cached value, over all lists.
    pub(crate) fn len(&self) -> usize {
        self.lists.iter().map(|l| l.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Entry for u32 {
        fn size(&self) -> usize {
            1
        }
    }

    impl Entry for u64 {
        fn size(&self) -> usize {
            1
        }
    }

    #[test]
    fn each_entry_type_keeps_its_own_capacity() {
        let mut lru = KeyedLru::default();
        lru.put::<i32, u32>(0, 0);
        for key in 0..2 * CAPACITY as i32 {
            lru.put::<i32, u64>(key, key as u64);
        }
        assert_eq!(lru.get::<i32, u32>(&0), Some(0), "other types never evict");
        assert_eq!(lru.len(), 1 + CAPACITY);
        assert_eq!(lru.get::<i32, u64>(&0), None, "the oldest entry is evicted");
        // A hit is most recently used, so it outlives the next insertion.
        let oldest = CAPACITY as i32;
        assert_eq!(lru.get::<i32, u64>(&oldest), Some(oldest as u64));
        lru.put::<i32, u64>(-1, 0);
        assert_eq!(lru.get::<i32, u64>(&oldest), Some(oldest as u64));
        assert_eq!(lru.take::<i32, u64>(&oldest), Some(oldest as u64));
        assert_eq!(lru.get::<i32, u64>(&oldest), None, "taken entries leave");
    }
}
