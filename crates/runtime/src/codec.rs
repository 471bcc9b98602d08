//! The workspace's one byte codec: little-endian writers, a bounds-checked reader, and
//! the canonical encodings of a [`Measurement`] and of a [`Kernel`]'s content.
//!
//! Every byte format shares these pieces.  The persistent [`store`](crate::store)
//! wraps an encoded measurement in its record header; the `MPSVC1` wire protocol
//! (`mp_service::protocol`) carries encoded measurements and kernels inside its
//! frames; and the session's job key is a hash over the kernel encoding.  A kernel
//! or measurement therefore has exactly one byte form, whether it is persisted,
//! served remotely or identified.
//!
//! Fixed-width little-endian fields throughout; floats as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`), so encode → decode is the identity for every value
//! including negative zero and the RNG-noise extremes.  The encodings are versioned
//! by the magic of the format that carries them, not self-describing: a change here
//! is a format change of the store and the wire alike.
//!
//! Kernel instructions are encoded by raw [`OpcodeId`](mp_isa::OpcodeId) index.
//! That is only meaningful under one ISA text, which the machine-spec digest covers:
//! job keys hash the digest in front of the kernel bytes, and wire peers agree on
//! the digest in their handshake.  The decoder still re-validates everything
//! (bounds-checked reads, ISA-checked operands via [`Instruction::new`]), so
//! truncated or corrupt bytes yield a clean error, never a panic.

use mp_isa::{Instruction, Isa, MemAccess, Operand, RegRef, RegisterFile};
use mp_sim::{DataProfile, EnergyBreakdown, Kernel, Measurement, PowerTrace};
use mp_uarch::{CmpSmtConfig, CounterValues, SmtMode};

/// Hard cap on decoded measurement vector lengths: no legitimate measurement exceeds
/// it, and it bounds the allocation a corrupt length field could otherwise request.
const MAX_VEC_LEN: u64 = 1 << 24;

/// Hard cap on a decoded kernel's instruction count.
const MAX_KERNEL_LEN: u32 = 1 << 20;

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u128`.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32` length prefix, then the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader; every accessor fails cleanly past the end,
/// so decoding truncated bytes can only ever yield a "corrupt" verdict, not a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let slice = self.bytes.get(self.pos..end).ok_or("truncated payload")?;
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, String> {
        self.array().map(u128::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a [`put_bytes`] field whose length must not exceed `cap`.
    pub fn bytes(&mut self, cap: usize) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(format!("length {len} exceeds cap {cap}"));
        }
        self.take(len)
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.bytes.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

/// The counter fields of one [`CounterValues`], in encoding order.  Kept as an explicit
/// list so adding a PMC is a compile-visible format change (bump the store and wire
/// magics alongside).
fn counter_fields(c: &CounterValues) -> [u64; 18] {
    [
        c.cycles,
        c.instr_completed,
        c.fxu_ops,
        c.lsu_ops,
        c.vsu_ops,
        c.dfu_ops,
        c.bru_ops,
        c.loads,
        c.stores,
        c.prefetches,
        c.l1_hits,
        c.l2_hits,
        c.l3_hits,
        c.mem_accesses,
        c.l3_accesses,
        c.l3_misses,
        c.bw_stalls,
        0, // reserved (keeps the stride stable for one future counter)
    ]
}

fn counters_from_fields(f: &[u64; 18]) -> CounterValues {
    CounterValues {
        cycles: f[0],
        instr_completed: f[1],
        fxu_ops: f[2],
        lsu_ops: f[3],
        vsu_ops: f[4],
        dfu_ops: f[5],
        bru_ops: f[6],
        loads: f[7],
        stores: f[8],
        prefetches: f[9],
        l1_hits: f[10],
        l2_hits: f[11],
        l3_hits: f[12],
        mem_accesses: f[13],
        l3_accesses: f[14],
        l3_misses: f[15],
        bw_stalls: f[16],
    }
}

/// Encodes a [`Measurement`]: the store's record payload and the wire's result body.
pub fn encode_measurement(m: &Measurement) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(64 + m.per_thread().len() * 18 * 8 + m.trace().samples().len() * 8);
    put_u32(&mut out, m.config().cores);
    put_u32(&mut out, m.config().smt.threads_per_core());
    put_u64(&mut out, m.cycles());
    put_u64(&mut out, m.per_thread().len() as u64);
    for counters in m.per_thread() {
        for field in counter_fields(counters) {
            put_u64(&mut out, field);
        }
    }
    put_f64(&mut out, m.average_power());
    put_u64(&mut out, m.trace().cycles_per_sample());
    put_u64(&mut out, m.trace().samples().len() as u64);
    for &sample in m.trace().samples() {
        put_f64(&mut out, sample);
    }
    let gt = m.ground_truth();
    for component in [gt.idle, gt.uncore, gt.cmp, gt.smt, gt.dynamic_compute, gt.dynamic_memory] {
        put_f64(&mut out, component);
    }
    out
}

/// Decodes an [`encode_measurement`] payload; `None` on truncation or corruption
/// (never a panic).
pub fn decode_measurement(bytes: &[u8]) -> Option<Measurement> {
    let mut cur = Cursor::new(bytes);
    let measurement = read_measurement(&mut cur).ok()?;
    cur.finish().ok()?;
    Some(measurement)
}

fn read_measurement(cur: &mut Cursor<'_>) -> Result<Measurement, String> {
    let cores = cur.u32()?;
    let smt = SmtMode::from_threads(cur.u32()?).ok_or("invalid SMT thread count")?;
    if cores == 0 {
        return Err("zero cores".to_owned());
    }
    let config = CmpSmtConfig::new(cores, smt);
    let cycles = cur.u64()?;
    let thread_count = cur.u64()?;
    // `Measurement::new` asserts this invariant; check it here so a corrupt count is a
    // clean error, not a panic.
    if thread_count != u64::from(config.threads()) || thread_count > MAX_VEC_LEN {
        return Err(format!("thread count {thread_count} does not match {config}"));
    }
    let mut per_thread = Vec::with_capacity(thread_count as usize);
    for _ in 0..thread_count {
        let mut fields = [0u64; 18];
        for field in &mut fields {
            *field = cur.u64()?;
        }
        per_thread.push(counters_from_fields(&fields));
    }
    let avg_power = cur.f64()?;
    let cycles_per_sample = cur.u64()?;
    let sample_count = cur.u64()?;
    if sample_count > MAX_VEC_LEN {
        return Err(format!("sample count {sample_count} exceeds {MAX_VEC_LEN}"));
    }
    let mut samples = Vec::with_capacity(sample_count as usize);
    for _ in 0..sample_count {
        samples.push(cur.f64()?);
    }
    let ground_truth = EnergyBreakdown {
        idle: cur.f64()?,
        uncore: cur.f64()?,
        cmp: cur.f64()?,
        smt: cur.f64()?,
        dynamic_compute: cur.f64()?,
        dynamic_memory: cur.f64()?,
    };
    Ok(Measurement::new(
        config,
        cycles,
        per_thread,
        avg_power,
        PowerTrace::new(samples, cycles_per_sample),
        ground_truth,
    ))
}

// ---------------------------------------------------------------------------
// Kernel content.
// ---------------------------------------------------------------------------

/// Data profiles by wire number.
const PROFILES: [DataProfile; 3] = [DataProfile::Random, DataProfile::Constant, DataProfile::Zeros];

fn encode_operand(out: &mut Vec<u8>, operand: &Operand) {
    match operand {
        Operand::Reg(reg) => {
            put_u8(out, 0);
            // The file's position in `RegisterFile::ALL` is its wire number.
            let file = RegisterFile::ALL.iter().position(|&file| file == reg.file);
            put_u8(out, file.expect("RegisterFile::ALL lists every file") as u8);
            put_u16(out, reg.index);
        }
        Operand::Imm(v) => {
            put_u8(out, 1);
            put_i64(out, *v);
        }
        Operand::Displacement(v) => {
            put_u8(out, 2);
            put_i64(out, *v);
        }
        Operand::BranchTarget(v) => {
            put_u8(out, 3);
            put_i64(out, *v);
        }
        Operand::CrField(v) => {
            put_u8(out, 4);
            put_u8(out, *v);
        }
    }
}

fn decode_operand(cur: &mut Cursor<'_>) -> Result<Operand, String> {
    Ok(match cur.u8()? {
        0 => {
            let number = cur.u8()?;
            let file = *RegisterFile::ALL
                .get(usize::from(number))
                .ok_or_else(|| format!("unknown register file {number}"))?;
            let index = cur.u16()?;
            if index >= file.count() {
                return Err(format!("register index {index} out of range for {file:?}"));
            }
            Operand::Reg(RegRef { file, index })
        }
        1 => Operand::Imm(cur.i64()?),
        2 => Operand::Displacement(cur.i64()?),
        3 => Operand::BranchTarget(cur.i64()?),
        4 => Operand::CrField(cur.u8()?),
        tag => return Err(format!("unknown operand tag {tag}")),
    })
}

/// Appends a kernel's content: data profile, misprediction rate, body length, then per
/// instruction its opcode index, memory access and operands.  The name is not part of
/// the content: renamed copies of one kernel encode identically.
pub fn encode_kernel(out: &mut Vec<u8>, kernel: &Kernel) {
    let profile = PROFILES.iter().position(|&profile| profile == kernel.data_profile());
    put_u8(out, profile.expect("PROFILES lists every data profile") as u8);
    put_f64(out, kernel.mispredict_rate());
    put_u32(out, kernel.len() as u32);
    for instruction in kernel.body() {
        put_u32(out, instruction.opcode().index() as u32);
        match instruction.mem() {
            Some(mem) => {
                put_u8(out, 1);
                put_u64(out, mem.address);
                put_u8(out, mem.bytes);
                put_u8(out, u8::from(mem.is_store));
            }
            None => put_u8(out, 0),
        }
        put_u8(out, instruction.operands().len() as u8);
        for operand in instruction.operands() {
            encode_operand(out, operand);
        }
    }
}

/// Reads an [`encode_kernel`] content against `isa` and names the kernel `name`.
///
/// # Errors
///
/// Returns a description of the first structural or semantic violation.
pub fn decode_kernel(cur: &mut Cursor<'_>, isa: &Isa, name: String) -> Result<Kernel, String> {
    let number = cur.u8()?;
    let profile = *PROFILES
        .get(usize::from(number))
        .ok_or_else(|| format!("unknown data profile {number}"))?;
    let mispredict = cur.f64()?;
    if !(0.0..=1.0).contains(&mispredict) {
        return Err(format!("misprediction rate {mispredict} out of [0,1]"));
    }
    let count = cur.u32()?;
    if count == 0 || count > MAX_KERNEL_LEN {
        return Err(format!("kernel length {count} out of range"));
    }
    let mut body = Vec::with_capacity(count as usize);
    for slot in 0..count {
        let opcode_index = cur.u32()? as usize;
        // The ISA owns opcode numbering, and this bound check keeps a corrupt index a
        // clean error rather than a panic.
        let (opcode, _) = isa
            .entries()
            .nth(opcode_index)
            .ok_or_else(|| format!("slot {slot}: opcode index {opcode_index} out of range"))?;
        let mem = match cur.u8()? {
            0 => None,
            1 => {
                Some(MemAccess { address: cur.u64()?, bytes: cur.u8()?, is_store: cur.u8()? != 0 })
            }
            flag => return Err(format!("slot {slot}: bad memory flag {flag}")),
        };
        let operand_count = cur.u8()?;
        let mut operands = Vec::with_capacity(usize::from(operand_count));
        for _ in 0..operand_count {
            operands.push(decode_operand(cur)?);
        }
        let instruction = Instruction::new(isa, opcode, operands, mem)
            .map_err(|error| format!("slot {slot}: {error}"))?;
        body.push(instruction);
    }
    Ok(Kernel::new(name, body).with_data_profile(profile).with_mispredict_rate(mispredict))
}
