//! The correctness gate: a running hash of every answer, compared with pinned values.
//!
//! Measurements are hashed through the store's byte codec
//! (`mp_runtime::store::encode_measurement`), so the digest covers every counter, power
//! sample and energy figure bit for bit.  The derived answers (model errors, bootstrap
//! records, stressmark results) are hashed through their exact `Debug` form, which
//! prints every `f64` so that it parses back to the same bits.

use mp_sim::Measurement;

/// The seed a run uses when none is asked for, and the held-out seed kept back to
/// confirm later performance claims.  Both are pinned below.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// `(workload, seed, digest)` recorded at the commit that added this benchmark.
/// `replay-warm` answers the same questions as `characterize-cold`, so it is checked
/// against the cold pin.  `canary` is the first submission of the default seed's
/// inputs, which every run re-measures whatever its seed.  `service-mixed/<client>` pins
/// that client's results in the first round.
const PINS: &[(&str, u64, u64)] = &[
    ("canary", DEFAULT_SEED, 0xc5f7_a278_1d47_cc00),
    ("characterize-cold", DEFAULT_SEED, 0x6533_2502_838b_a3d1),
    ("characterize-cold", HELD_OUT_SEED, 0x968e_db86_b31e_4bf7),
    ("service-mixed/0", DEFAULT_SEED, 0x43a8_0835_e32a_c809),
    ("service-mixed/1", DEFAULT_SEED, 0xd475_b844_4c5a_fc24),
    ("service-mixed/0", HELD_OUT_SEED, 0xfc55_45ec_6446_ac3d),
    ("service-mixed/1", HELD_OUT_SEED, 0xae34_0c7e_0a6c_5e7b),
];

/// FNV-1a over length-prefixed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn measurement(&mut self, measurement: &Measurement) {
        self.bytes(&mp_runtime::store::encode_measurement(measurement));
    }

    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The pinned digest for a workload and seed, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINS.iter().find(|(w, s, _)| *w == workload && *s == seed).map(|&(_, _, d)| d)
}

/// Checks `digest` against the pin, reporting a mismatch on stderr.  Seeds without a pin,
/// and the self-tests' tiny inputs, pass: their gate is agreement between passes and
/// paths.
pub fn matches_pin(config: &crate::Config, workload: &str, digest: u64) -> bool {
    let seed = config.seed;
    match pinned(workload, seed).filter(|_| !config.tiny) {
        Some(pin) if pin != digest => {
            eprintln!("# digest {digest:016x} != pinned {pin:016x} ({workload}, seed {seed})");
            false
        }
        _ => true,
    }
}
