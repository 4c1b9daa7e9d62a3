//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the tiny subset of the `bytes` API it actually uses: an
//! immutable, cheaply-cloneable byte container. `Bytes` is a thin wrapper
//! over `Rc<[u8]>` (clone = refcount bump, exactly the property the
//! simulator and the host pump rely on when fanning a payload out to
//! retransmission queues), with a static-slice fast path so
//! `from_static` allocates nothing.
//!
//! ## Single-threaded on purpose
//!
//! Unlike the real crate's `Bytes`, this one is neither `Send` nor
//! `Sync`. Every run in this workspace (one simulation on netsim's one
//! engine, or one real-host transfer through the pump) lives on one
//! thread from its first SDU to its last since the sharded coordinator
//! was retired (commit 377eb0c, "one engine on one thread"); parallel
//! work fans out whole runs, never payloads. So the refcount needs no
//! atomic read-modify-write: a clone is a plain increment and a drop a
//! plain decrement. A lossy 2,000-SDU host transfer makes about 2.2
//! clones and 3.4 drops of a shared buffer per SDU, none of which takes
//! a locked instruction any more.
//!
//! Sending a `Bytes` to another thread does not compile:
//!
//! ```compile_fail
//! let b = bytes::Bytes::from(vec![1u8, 2, 3]);
//! std::thread::spawn(move || b.len());
//! ```
//!
//! Making it `Send` again (back to an atomic refcount) is a deliberate
//! edit of this shim and of that doctest.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// A cheaply cloneable, immutable slice of bytes, confined to the
/// thread that made it (see the crate doc).
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Rc<[u8]>),
}

impl Bytes {
    /// An empty `Bytes`.
    #[inline]
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wrap a `'static` slice without copying.
    #[inline]
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes(Repr::Static(s))
    }

    /// Copy an arbitrary slice into a new shared buffer.
    #[inline]
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes(Repr::Shared(Rc::from(s)))
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// View as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }

    /// Copy a sub-range out into its own `Bytes`.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[start..end])),
            Repr::Shared(a) => Bytes::copy_from_slice(&a[start..end]),
        }
    }

    /// Copy into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes(Repr::Shared(Rc::from(v.into_boxed_slice())))
    }
}

impl From<&'static [u8]> for Bytes {
    #[inline]
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    #[inline]
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    #[inline]
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    #[inline]
    fn from(b: Box<[u8]>) -> Self {
        Bytes(Repr::Shared(Rc::from(b)))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![1u8; 4096]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        let c = Bytes::copy_from_slice(&[7u8; 16]);
        let d = c.clone();
        assert_eq!(c.as_ptr(), d.as_ptr());
        drop(c);
        // The last handle still reads the shared buffer.
        assert_eq!(d, vec![7u8; 16]);
    }

    #[test]
    fn slice_of_a_shared_buffer_copies() {
        let a = Bytes::from(b"abcdef".to_vec());
        let s = a.slice(1..4);
        assert_eq!(s, Bytes::from_static(b"bcd"));
        assert!(
            !a.as_ptr_range().contains(&s.as_ptr()),
            "the slice points into its parent's buffer"
        );
        // Even the whole range is a fresh buffer.
        assert_ne!(a.slice(..).as_ptr(), a.as_ptr());
    }

    #[test]
    fn from_static_allocates_nothing() {
        static DATA: [u8; 5] = *b"hello";
        let a = Bytes::from_static(&DATA);
        assert_eq!(a.as_ptr(), DATA.as_ptr());
        assert_eq!(a.clone().as_ptr(), DATA.as_ptr());
        // A sub-slice of static data still points into it.
        assert_eq!(a.slice(1..).as_ptr(), DATA[1..].as_ptr());
        let s: &'static str = "hi";
        assert_eq!(Bytes::from(s).as_ptr(), s.as_ptr());
    }

    #[test]
    fn slice_ranges() {
        let a = Bytes::from_static(b"abcdef");
        assert_eq!(a.slice(1..4), Bytes::from_static(b"bcd"));
        assert_eq!(a.slice(..), a);
        assert_eq!(a.slice(4..), Bytes::from_static(b"ef"));
    }

    #[test]
    fn deref_gives_slice_ops() {
        let a = Bytes::from_static(b"xyz");
        assert_eq!(&a[1..], b"yz");
        assert_eq!(a.iter().copied().max(), Some(b'z'));
    }
}
