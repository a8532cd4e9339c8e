//! A small-buffer vector for message payloads that cross a kernel
//! boundary.
//!
//! A Linux `mq_send` carries its bytes and a seL4 `Call` its message
//! registers from the user program into the kernel, and the delivery
//! carries them back out. The scenario's messages are short, so the two
//! payload types, [`MsgBytes`] and [`MsgWords`], hold the longest of them
//! in place and touch the heap only for a longer payload. The kernels'
//! own size limits (`MQ_MSG_MAX`, `MAX_MSG_WORDS`) are larger and still
//! apply.
//!
//! ```
//! use bas_sim::inline::InlineVec;
//!
//! let mut v = InlineVec::<u8, 4>::from_slice(&[1, 2, 3]);
//! v.push(4);
//! assert!(!v.spilled());
//! v.push(5); // past the inline capacity: moves to the heap
//! assert!(v.spilled());
//! assert_eq!(v[..], [1, 2, 3, 4, 5]); // reads as a slice
//! ```

use std::fmt;
use std::ops::Deref;

/// Bytes a Linux mq payload holds inline: the scenario's mq encoding of a
/// message (`bas_core::proto::MQ_WIRE_LEN`).
pub const MSG_INLINE_BYTES: usize = 24;

/// Data words a seL4 message holds inline: the scenario's longest, a
/// status reply.
pub const MSG_INLINE_WORDS: usize = 4;

/// A Linux mq payload on its way into or out of the kernel.
pub type MsgBytes = InlineVec<u8, MSG_INLINE_BYTES>;

/// A seL4 message's data words on their way into or out of the kernel.
pub type MsgWords = InlineVec<u64, MSG_INLINE_WORDS>;

/// Up to `N` items held inline; a longer sequence spills to a heap `Vec`.
/// Reads as a slice, and compares by its items whatever its storage.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` items are the contents; the rest are `T::default()`.
    Inline { len: u32, items: [T; N] },
    /// More than `N` items.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                items: [T::default(); N],
            },
        }
    }

    /// A copy of `items`, inline when it fits.
    pub fn from_slice(items: &[T]) -> Self {
        if items.len() > N {
            return InlineVec {
                repr: Repr::Heap(items.to_vec()),
            };
        }
        let mut inline = [T::default(); N];
        inline[..items.len()].copy_from_slice(items);
        InlineVec {
            repr: Repr::Inline {
                len: items.len() as u32,
                items: inline,
            },
        }
    }

    /// Appends `item`, spilling to the heap when the inline buffer is
    /// full.
    pub fn push(&mut self, item: T) {
        match &mut self.repr {
            Repr::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N + 1);
                spilled.extend_from_slice(items);
                spilled.push(item);
                self.repr = Repr::Heap(spilled);
            }
            Repr::Heap(v) => v.push(item),
        }
    }

    /// Whether the items live on the heap (more than `N` of them).
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// The items.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        InlineVec::from_slice(items)
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(items: [T; M]) -> Self {
        InlineVec::from_slice(&items)
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Keeps a longer `Vec` as the heap storage rather than copying it.
    fn from(items: Vec<T>) -> Self {
        if items.len() > N {
            InlineVec {
                repr: Repr::Heap(items),
            }
        } else {
            InlineVec::from_slice(&items)
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Small = InlineVec<u64, 2>;

    #[test]
    fn fits_inline_up_to_capacity() {
        let v = Small::from_slice(&[7, 8]);
        assert!(!v.spilled());
        assert_eq!(v[..], [7, 8]);
        assert!(Small::new().is_empty());
        assert!(Small::from_slice(&[1, 2, 3]).spilled());
    }

    #[test]
    fn equal_items_compare_equal_however_built() {
        let mut pushed = Small::new();
        for i in 1..=3 {
            pushed.push(i);
        }
        assert_eq!(pushed, Small::from_slice(&[1, 2, 3]));
        assert_eq!(pushed, Small::from(vec![1, 2, 3]));
        assert_ne!(pushed, Small::from_slice(&[1, 2]));
        assert_eq!(Small::from(vec![5]), vec![5]);
    }

    #[test]
    fn collects_past_capacity() {
        let v: Small = (0..5).collect();
        assert!(v.spilled());
        assert_eq!(v.iter().sum::<u64>(), 10);
        assert_eq!(format!("{:?}", Small::from([4])), "[4]");
    }
}
