//! Register files and register references of the Power ISA.

use std::fmt;

/// Architectural register files of the Power ISA as implemented by POWER7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegisterFile {
    /// General purpose registers (`r0`–`r31`), 64 bits.
    Gpr,
    /// Floating point registers (`f0`–`f31`), 64 bits.  On POWER7 these are aliased to
    /// the low half of the VSX register file.
    Fpr,
    /// Vector-scalar registers (`vs0`–`vs63`), 128 bits.
    Vsr,
    /// Vector registers (`v0`–`v31`), 128 bits; aliased to the high half of the VSRs.
    Vr,
    /// Condition register fields (`cr0`–`cr7`), 4 bits each.
    Cr,
    /// Fixed point exception register.
    Xer,
    /// Link register.
    Lr,
    /// Count register.
    Ctr,
    /// Floating point status and control register.
    Fpscr,
    /// Special purpose registers other than the ones listed above.
    Spr,
}

impl RegisterFile {
    /// Number of architected registers in the file.
    pub const fn count(self) -> u16 {
        match self {
            RegisterFile::Gpr => 32,
            RegisterFile::Fpr => 32,
            RegisterFile::Vsr => 64,
            RegisterFile::Vr => 32,
            RegisterFile::Cr => 8,
            RegisterFile::Xer | RegisterFile::Lr | RegisterFile::Ctr | RegisterFile::Fpscr => 1,
            RegisterFile::Spr => 1024,
        }
    }

    /// Width of each register in bits.
    pub const fn width_bits(self) -> u16 {
        match self {
            RegisterFile::Gpr | RegisterFile::Fpr => 64,
            RegisterFile::Vsr | RegisterFile::Vr => 128,
            RegisterFile::Cr => 4,
            RegisterFile::Xer | RegisterFile::Fpscr => 32,
            RegisterFile::Lr | RegisterFile::Ctr => 64,
            RegisterFile::Spr => 64,
        }
    }

    /// Assembly prefix used when printing a register of this file.
    pub const fn prefix(self) -> &'static str {
        match self {
            RegisterFile::Gpr => "r",
            RegisterFile::Fpr => "f",
            RegisterFile::Vsr => "vs",
            RegisterFile::Vr => "v",
            RegisterFile::Cr => "cr",
            RegisterFile::Xer => "xer",
            RegisterFile::Lr => "lr",
            RegisterFile::Ctr => "ctr",
            RegisterFile::Fpscr => "fpscr",
            RegisterFile::Spr => "spr",
        }
    }

    /// All register files, in a stable order: a file's position is its number in the
    /// runtime's kernel encoding, which job keys hash and the wire carries.
    pub const ALL: [RegisterFile; 10] = [
        RegisterFile::Gpr,
        RegisterFile::Fpr,
        RegisterFile::Vsr,
        RegisterFile::Vr,
        RegisterFile::Cr,
        RegisterFile::Xer,
        RegisterFile::Lr,
        RegisterFile::Ctr,
        RegisterFile::Fpscr,
        RegisterFile::Spr,
    ];
}

impl fmt::Display for RegisterFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegisterFile::Gpr => "GPR",
            RegisterFile::Fpr => "FPR",
            RegisterFile::Vsr => "VSR",
            RegisterFile::Vr => "VR",
            RegisterFile::Cr => "CR",
            RegisterFile::Xer => "XER",
            RegisterFile::Lr => "LR",
            RegisterFile::Ctr => "CTR",
            RegisterFile::Fpscr => "FPSCR",
            RegisterFile::Spr => "SPR",
        })
    }
}

/// How an instruction operand accesses a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegAccess {
    /// The register is only read.
    Read,
    /// The register is only written.
    Write,
    /// The register is both read and written (e.g. update-form loads).
    ReadWrite,
}

impl RegAccess {
    /// Returns `true` if the access reads the register.
    pub const fn reads(self) -> bool {
        matches!(self, RegAccess::Read | RegAccess::ReadWrite)
    }

    /// Returns `true` if the access writes the register.
    pub const fn writes(self) -> bool {
        matches!(self, RegAccess::Write | RegAccess::ReadWrite)
    }
}

/// A reference to a concrete architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegRef {
    /// The register file the register belongs to.
    pub file: RegisterFile,
    /// Index within the file.
    pub index: u16,
}

impl RegRef {
    /// Creates a register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the register file.
    pub fn new(file: RegisterFile, index: u16) -> Self {
        assert!(
            index < file.count(),
            "register index {index} out of range for {file} (count {})",
            file.count()
        );
        Self { file, index }
    }

    /// A general purpose register.
    pub fn gpr(index: u16) -> Self {
        Self::new(RegisterFile::Gpr, index)
    }

    /// A floating point register.
    pub fn fpr(index: u16) -> Self {
        Self::new(RegisterFile::Fpr, index)
    }

    /// A vector-scalar register.
    pub fn vsr(index: u16) -> Self {
        Self::new(RegisterFile::Vsr, index)
    }

    /// A vector register.
    pub fn vr(index: u16) -> Self {
        Self::new(RegisterFile::Vr, index)
    }

    /// A condition register field.
    pub fn cr(index: u16) -> Self {
        Self::new(RegisterFile::Cr, index)
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.file {
            RegisterFile::Xer | RegisterFile::Lr | RegisterFile::Ctr | RegisterFile::Fpscr => {
                f.write_str(self.file.prefix())
            }
            _ => write!(f, "{}{}", self.file.prefix(), self.index),
        }
    }
}

/// Assigns small dense indices (`0, 1, 2, …` in first-seen order) to the register
/// references of one instruction sequence.
///
/// A kernel body references a handful of architectural registers out of the ~1200 the
/// ISA defines; pre-decoders intern each reference once and then represent register
/// read/write sets as bitmasks over the dense index and ready-times as flat arrays —
/// the representations cycle-level hot loops need.
#[derive(Debug, Clone, Default)]
pub struct RegDenseMap {
    ids: std::collections::HashMap<RegRef, u16>,
}

impl RegDenseMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the dense index of `reg`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct registers are interned (more than the
    /// whole ISA defines).
    pub fn intern(&mut self, reg: RegRef) -> u16 {
        let next =
            u16::try_from(self.ids.len()).expect("more dense registers than the ISA defines");
        *self.ids.entry(reg).or_insert(next)
    }

    /// The dense index of `reg`, if it has been interned.
    pub fn get(&self, reg: RegRef) -> Option<u16> {
        self.ids.get(&reg).copied()
    }

    /// Number of distinct registers interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_counts_and_widths() {
        assert_eq!(RegisterFile::Gpr.count(), 32);
        assert_eq!(RegisterFile::Vsr.count(), 64);
        assert_eq!(RegisterFile::Vsr.width_bits(), 128);
        assert_eq!(RegisterFile::Cr.width_bits(), 4);
    }

    #[test]
    fn regref_display_uses_prefix() {
        assert_eq!(RegRef::gpr(3).to_string(), "r3");
        assert_eq!(RegRef::fpr(31).to_string(), "f31");
        assert_eq!(RegRef::vsr(63).to_string(), "vs63");
        assert_eq!(RegRef::new(RegisterFile::Lr, 0).to_string(), "lr");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn regref_rejects_out_of_range_index() {
        let _ = RegRef::gpr(32);
    }

    #[test]
    fn access_read_write_queries() {
        assert!(RegAccess::Read.reads());
        assert!(!RegAccess::Read.writes());
        assert!(RegAccess::ReadWrite.reads());
        assert!(RegAccess::ReadWrite.writes());
        assert!(RegAccess::Write.writes());
    }

    #[test]
    fn dense_map_assigns_first_seen_indices() {
        let mut map = RegDenseMap::new();
        assert!(map.is_empty());
        assert_eq!(map.intern(RegRef::gpr(7)), 0);
        assert_eq!(map.intern(RegRef::fpr(7)), 1, "same index in another file is distinct");
        assert_eq!(map.intern(RegRef::gpr(7)), 0, "re-interning returns the same id");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(RegRef::gpr(7)), Some(0));
        assert_eq!(map.get(RegRef::gpr(8)), None);
    }

    #[test]
    fn all_register_files_listed_once() {
        let mut files = RegisterFile::ALL.to_vec();
        files.sort();
        files.dedup();
        assert_eq!(files.len(), RegisterFile::ALL.len());
    }
}
