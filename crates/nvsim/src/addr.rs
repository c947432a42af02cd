//! Strongly-typed addresses and identifiers.
//!
//! The simulator models a 48-bit physical address space (as the paper does:
//! "NVOverlay uses the 48-bit physical address as table index"). Addresses
//! come in three granularities, each its own newtype so they cannot be
//! confused:
//!
//! * [`Addr`] — a byte address.
//! * [`LineAddr`] — a 64-byte cache-line address (`Addr >> 6`).
//! * [`PageAddr`] — a 4-KiB page address (`Addr >> 12`).

use std::fmt;

/// Bytes per cache line (fixed at 64 throughout the paper).
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;
/// Bytes per page.
pub const PAGE_BYTES: u64 = 4096;
/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;
/// Cache lines per 4-KiB page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
/// Width of the modeled physical address space in bits.
pub const PHYS_ADDR_BITS: u32 = 48;

/// A byte-granularity physical address.
///
/// ```
/// use nvsim::addr::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line().page().raw(), 0x1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    ///
    /// # Panics
    /// Panics if the address does not fit in the 48-bit physical space.
    #[inline]
    pub fn new(raw: u64) -> Self {
        assert!(
            raw < (1u64 << PHYS_ADDR_BITS),
            "address {raw:#x} exceeds the 48-bit physical space"
        );
        Addr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The cache line containing this byte.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// The page containing this byte.
    #[inline]
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing cache line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<LineAddr> for Addr {
    fn from(l: LineAddr) -> Self {
        Addr(l.0 << LINE_SHIFT)
    }
}

/// A 64-byte cache-line address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw line number (byte address >> 6).
    #[inline]
    pub fn new(raw: u64) -> Self {
        assert!(
            raw < (1u64 << (PHYS_ADDR_BITS - LINE_SHIFT)),
            "line address {raw:#x} exceeds the physical space"
        );
        LineAddr(raw)
    }

    /// The raw line number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// First byte of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// The page containing this line.
    #[inline]
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }

    /// Index of this line within its page (0..64).
    #[inline]
    pub fn index_in_page(self) -> usize {
        (self.0 & (LINES_PER_PAGE - 1)) as usize
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A 4-KiB page address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from its raw page number (byte address >> 12).
    #[inline]
    pub fn new(raw: u64) -> Self {
        assert!(
            raw < (1u64 << (PHYS_ADDR_BITS - PAGE_SHIFT)),
            "page address {raw:#x} exceeds the physical space"
        );
        PageAddr(raw)
    }

    /// The raw page number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// First byte of the page.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << PAGE_SHIFT)
    }

    /// The `idx`-th line of the page.
    ///
    /// # Panics
    /// Panics if `idx >= 64`.
    #[inline]
    pub fn line(self, idx: usize) -> LineAddr {
        assert!(
            idx < LINES_PER_PAGE as usize,
            "line index {idx} out of page"
        );
        LineAddr((self.0 << (PAGE_SHIFT - LINE_SHIFT)) | idx as u64)
    }
}

impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageAddr({:#x})", self.0)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

/// Identifies a simulated core (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The core's index, usable directly for `Vec` indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies a Versioned Domain — a set of cores sharing an inclusive L2.
///
/// In the paper's Fig. 2, two cores plus their shared L2 form one VD. With
/// the baselines' (unversioned) lines this is simply "an L2 cluster".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VdId(pub u16);

impl VdId {
    /// The VD's index, usable directly for `Vec` indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vd{}", self.0)
    }
}

/// Identifies a logical workload thread. Threads map 1:1 onto cores.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(pub u16);

impl ThreadId {
    /// The thread's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A line's 64-bit *content token*.
///
/// Instead of carrying 64 bytes of payload per line, the simulator carries
/// one unique token per store. Snapshot correctness (crash recovery,
/// time-travel reads) is verified by token equality; byte accounting still
/// charges the full 64 bytes per line. See DESIGN.md §2.
pub type Token = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trips_through_line_and_page() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.line().base().raw(), 0xdead_beef & !(LINE_BYTES - 1));
        assert_eq!(a.page().base().raw(), 0xdead_beef & !(PAGE_BYTES - 1));
        assert_eq!(a.line_offset(), 0xdead_beef & 63);
    }

    #[test]
    fn line_index_in_page_covers_all_slots() {
        let p = PageAddr::new(7);
        for i in 0..LINES_PER_PAGE as usize {
            let l = p.line(i);
            assert_eq!(l.page(), p);
            assert_eq!(l.index_in_page(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 48-bit")]
    fn addr_rejects_out_of_space() {
        let _ = Addr::new(1u64 << PHYS_ADDR_BITS);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn page_line_rejects_large_index() {
        let _ = PageAddr::new(0).line(64);
    }

    #[test]
    fn line_from_addr_conversion() {
        let l = LineAddr::new(42);
        let a: Addr = l.into();
        assert_eq!(a.raw(), 42 * LINE_BYTES);
        assert_eq!(a.line(), l);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", CoreId(3)), "core3");
        assert_eq!(format!("{}", VdId(1)), "vd1");
        assert_eq!(format!("{}", ThreadId(9)), "t9");
        assert_eq!(format!("{}", LineAddr::new(0x10)), "L0x10");
        assert_eq!(format!("{}", PageAddr::new(0x10)), "P0x10");
        assert_eq!(format!("{:?}", Addr::new(0)), "Addr(0x0)");
    }
}
