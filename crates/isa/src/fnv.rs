//! FNV-1a: the workspace's one hash for checksums, spec digests and job keys.
//!
//! FNV-1a is deterministic across processes, platforms and toolchains (unlike
//! `std`'s `DefaultHasher`), so its values may name persistent records and cross the
//! wire.  It is an integrity and identity hash, not an adversarial MAC.

const OFFSET_64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME_64: u64 = 0x0000_0100_0000_01b3;
const OFFSET_128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME_128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 64-bit FNV-1a over `bytes`: the checksum of store records and wire frames.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET_64, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME_64))
}

/// A streaming 128-bit FNV-1a hasher: feeding bytes in pieces gives the same value
/// as feeding their concatenation at once.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    /// A hasher over the empty input.
    fn default() -> Self {
        Self(OFFSET_128)
    }
}

impl Fnv128 {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(PRIME_128);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv128::default().finish(), OFFSET_128);
        let mut a = Fnv128::default();
        a.write(b"a");
        assert_eq!(a.finish(), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }
}
