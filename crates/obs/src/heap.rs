//! Heap-size estimation for memory accounting.
//!
//! The evaluations this repo reconstructs make *memory-shaped* claims —
//! AprioriTid's pass-2 collapse is explained by `C̄_k` outgrowing the
//! raw database, BIRCH is defined by a fixed memory budget. To record
//! those claims as metrics, the big intermediate structures implement
//! [`HeapSize`]: a cheap, allocation-free estimate of the bytes a value
//! holds on the heap (capacity-based for containers, so it reflects
//! what the allocator actually handed out, not just what is in use).
//!
//! The estimate deliberately excludes the `size_of::<Self>()` of the
//! top-level value itself — the convention that makes
//! `vec.heap_bytes()` compose: a `Vec<Vec<u32>>` counts its spine
//! (`capacity * size_of::<Vec<u32>>()`) plus each inner buffer.

/// Estimated heap bytes held by a value (excluding the value's own
/// inline `size_of`). Implementations must be O(structure), cheap, and
/// must not allocate.
pub trait HeapSize {
    /// Estimated bytes on the heap reachable from `self`.
    fn heap_bytes(&self) -> usize;
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for [T] {
    fn heap_bytes(&self) -> usize {
        // A borrowed slice owns no buffer; only the elements' own heap
        // payloads count.
        self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize + ?Sized> HeapSize for &T {
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

impl<T: HeapSize + ?Sized> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<T>(self) + (**self).heap_bytes()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

/// Borrowed counts as its owned copy would, so a trace weighs the same
/// live (static labels) and read back from a file (owned labels).
impl HeapSize for std::borrow::Cow<'_, str> {
    fn heap_bytes(&self) -> usize {
        match self {
            std::borrow::Cow::Borrowed(s) => s.len(),
            std::borrow::Cow::Owned(s) => s.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_hold_nothing() {
        assert_eq!(0u64.heap_bytes(), 0);
        assert_eq!(1.5f64.heap_bytes(), 0);
    }

    #[test]
    fn vec_counts_capacity_not_len() {
        let mut v: Vec<u32> = Vec::with_capacity(100);
        v.push(1);
        assert_eq!(v.heap_bytes(), 400);
    }

    #[test]
    fn nested_vecs_compose() {
        let v: Vec<Vec<u32>> = vec![Vec::with_capacity(4), Vec::with_capacity(6)];
        let spine = v.capacity() * std::mem::size_of::<Vec<u32>>();
        assert_eq!(v.heap_bytes(), spine + 4 * 4 + 6 * 4);
    }

    #[test]
    fn tuples_and_options() {
        let pair = (vec![0u8; 8], 3u64);
        assert_eq!(pair.heap_bytes(), 8);
        let some: Option<Vec<u8>> = Some(vec![0u8; 5]);
        assert_eq!(some.heap_bytes(), 5);
        assert_eq!(None::<Vec<u8>>.heap_bytes(), 0);
    }
}
