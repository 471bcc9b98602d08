//! Power ISA v2.06B subset definition for the MicroProbe reproduction.
//!
//! This crate plays the role of the *ISA definition module* of the MicroProbe framework
//! (Section 2.1.1 of the paper): it describes, for every instruction of the target ISA,
//! its format, operands, semantic attributes (load/store/branch/vector/float/decimal,
//! operand length, privilege level, prefetch, conditional execution, registers
//! used/defined) and a binary encoding.  The information is exposed through a query API
//! ([`Isa`]) so that generation policies can *select* instructions by their properties,
//! exactly like the `Select ins in arch.isa() if ins.load()` filter of the paper's
//! example script (Figure 2).
//!
//! The paper supplies the ISA to MicroProbe as readable text files transcribed from the
//! Power ISA v2.06B manual.  So does this crate: the definition is the declarative
//! spec file `specs/power7.isa`, read by the crate's own [`spec`] parser and exposed
//! through [`power_isa::power_isa_v206b`].  [`spec::spec_digest`] fingerprints spec
//! text with the workspace's one hash, [`fnv`].
//!
//! # Example
//!
//! ```
//! use mp_isa::power_isa::power_isa_v206b;
//!
//! let isa = power_isa_v206b();
//! // Select the vector loads, as in Figure 2 of the paper.
//! let vector_loads: Vec<_> = isa
//!     .instructions()
//!     .filter(|i| i.is_load() && i.is_vector())
//!     .collect();
//! assert!(vector_loads.iter().any(|i| i.mnemonic() == "lxvw4x"));
//! ```

pub mod asm;
pub mod def;
pub mod encoding;
pub mod flags;
pub mod fnv;
pub mod instruction;
pub mod isa;
pub mod operand;
pub mod power_isa;
#[cfg(test)]
mod power_isa_handcoded;
pub mod register;
pub mod spec;

pub use def::{Format, InstructionDef, IssueClass, LatencyClass, OperandWidth, Unit};
pub use flags::InstrFlags;
pub use instruction::{Instruction, MemAccess};
pub use isa::{Isa, IsaError, OpcodeId};
pub use operand::{Operand, OperandKind};
pub use register::{RegAccess, RegDenseMap, RegRef, RegisterFile};
pub use spec::SpecError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Isa>();
        assert_send_sync::<InstructionDef>();
        assert_send_sync::<Instruction>();
        assert_send_sync::<OpcodeId>();
    }
}
