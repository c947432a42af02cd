//! The MESI coherence state lattice.
//!
//! The paper assumes directory-based MESI as the baseline protocol
//! (§IV: "We assume directory-based MESI as the baseline protocol") and
//! emphasises that NVOverlay does not modify the state machine. The one
//! coherence engine in [`crate::hierarchy`] therefore runs this lattice
//! for the baselines and for NVOverlay's versioned lines alike.

use std::fmt;

/// A MESI / MOESI coherence state.
///
/// The `O` (Owned) state only occurs when the hierarchy runs the MOESI
/// protocol variant ([`crate::config::Protocol::Moesi`]): a dirty copy
/// that other caches share — the owner supplies data and remains
/// responsible for the eventual write-back, so downgrades avoid touching
/// the LLC/memory (the paper's §IV-E protocol-compatibility claim).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MesiState {
    /// Modified: this cache holds the only, dirty copy.
    M,
    /// Owned (MOESI only): dirty, but shared — this cache owns the
    /// write-back responsibility.
    O,
    /// Exclusive: this cache holds the only, clean copy.
    E,
    /// Shared: possibly one of several clean copies.
    S,
    /// Invalid: not present.
    #[default]
    I,
}

impl MesiState {
    /// Whether a store may complete locally in this state.
    #[inline]
    pub fn is_writable(self) -> bool {
        matches!(self, MesiState::M | MesiState::E)
    }

    /// Whether this copy owns the write-back responsibility (M, E or O).
    #[inline]
    pub fn is_ownerlike(self) -> bool {
        matches!(self, MesiState::M | MesiState::E | MesiState::O)
    }

    /// Whether a load may complete locally in this state.
    #[inline]
    pub fn is_readable(self) -> bool {
        !matches!(self, MesiState::I)
    }

    /// Whether this state implies the copy differs from memory.
    ///
    /// In MESI only `M` lines are dirty; `S`/`E` are clean (paper §IV-A:
    /// "M state lines are dirty, while S and E state are clean"). MOESI
    /// adds `O`, which is dirty *and* shared.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, MesiState::M | MesiState::O)
    }

    /// The state after an external downgrade (another sharer wants to
    /// read) under plain MESI: everything readable becomes `S`.
    #[inline]
    pub fn downgraded(self) -> MesiState {
        match self {
            MesiState::M | MesiState::O | MesiState::E | MesiState::S => MesiState::S,
            MesiState::I => MesiState::I,
        }
    }

    /// The state after an external downgrade under MOESI: dirty copies
    /// keep their data-supply/write-back responsibility as `O`.
    #[inline]
    pub fn downgraded_moesi(self) -> MesiState {
        match self {
            MesiState::M | MesiState::O => MesiState::O,
            MesiState::E | MesiState::S => MesiState::S,
            MesiState::I => MesiState::I,
        }
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MesiState::M => "M",
            MesiState::O => "O",
            MesiState::E => "E",
            MesiState::S => "S",
            MesiState::I => "I",
        };
        f.write_str(s)
    }
}

/// The kind of permission an access needs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Permission {
    /// Read permission (any of M/E/S suffices).
    Read,
    /// Write permission (M or E required).
    Write,
}

impl Permission {
    /// Whether `state` satisfies this permission.
    #[inline]
    pub fn satisfied_by(self, state: MesiState) -> bool {
        match self {
            Permission::Read => state.is_readable(),
            Permission::Write => state.is_writable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writable_states_are_m_and_e() {
        assert!(MesiState::M.is_writable());
        assert!(MesiState::E.is_writable());
        assert!(!MesiState::S.is_writable());
        assert!(!MesiState::I.is_writable());
    }

    #[test]
    fn only_m_and_o_are_dirty() {
        assert!(MesiState::M.is_dirty());
        assert!(MesiState::O.is_dirty());
        for s in [MesiState::E, MesiState::S, MesiState::I] {
            assert!(!s.is_dirty());
        }
    }

    #[test]
    fn o_is_readable_not_writable() {
        assert!(MesiState::O.is_readable());
        assert!(!MesiState::O.is_writable());
        assert!(MesiState::O.is_ownerlike());
        assert!(!MesiState::S.is_ownerlike());
    }

    #[test]
    fn downgrade_lattice() {
        assert_eq!(MesiState::M.downgraded(), MesiState::S);
        assert_eq!(MesiState::E.downgraded(), MesiState::S);
        assert_eq!(MesiState::S.downgraded(), MesiState::S);
        assert_eq!(MesiState::I.downgraded(), MesiState::I);
        assert_eq!(MesiState::M.downgraded_moesi(), MesiState::O);
        assert_eq!(MesiState::O.downgraded_moesi(), MesiState::O);
        assert_eq!(MesiState::E.downgraded_moesi(), MesiState::S);
    }

    #[test]
    fn permission_satisfaction() {
        assert!(Permission::Read.satisfied_by(MesiState::S));
        assert!(!Permission::Write.satisfied_by(MesiState::S));
        assert!(Permission::Write.satisfied_by(MesiState::E));
        assert!(!Permission::Read.satisfied_by(MesiState::I));
    }

    #[test]
    fn display_is_single_letter() {
        assert_eq!(MesiState::M.to_string(), "M");
        assert_eq!(MesiState::I.to_string(), "I");
    }
}
