//! SHA-3 (FIPS 202) built on the Keccak-f\[1600\] permutation.
//!
//! LO-FAT computes its cumulative path authenticator `A` with a SHA-3-512 core whose
//! rate is 576 bits (72 bytes).  [`Sha3_512`] is the incremental software equivalent;
//! [`Sha3_256`] is provided for the smaller metadata digests used in tests and the
//! Lamport one-time signature.

use crate::keccak::KeccakState;

/// Domain-separation/padding byte for SHA-3 (the `01` suffix plus first pad bit).
pub(crate) const SHA3_PAD: u8 = 0x06;
/// Final padding byte (last bit of the pad10*1 rule).
pub(crate) const FINAL_PAD: u8 = 0x80;

/// A finalized hash digest.
///
/// The digest length depends on the producing hash function (64 bytes for
/// [`Sha3_512`], 32 bytes for [`Sha3_256`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    /// Creates a digest from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Returns the digest length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the digest is empty (never the case for SHA-3 outputs).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Renders the digest as a lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        self.bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Constant-time-ish equality check (not constant time in the strict sense, but
    /// it always compares every byte).
    pub fn ct_eq(&self, other: &Digest) -> bool {
        self.ct_eq_bytes(&other.bytes)
    }

    /// [`Digest::ct_eq`] against a raw byte slice (lets callers compare a
    /// computed tag to wire bytes without allocating a `Digest`).
    pub fn ct_eq_bytes(&self, other: &[u8]) -> bool {
        if self.bytes.len() != other.len() {
            return false;
        }
        let mut acc = 0u8;
        for (a, b) in self.bytes.iter().zip(other.iter()) {
            acc |= a ^ b;
        }
        acc == 0
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Generic Keccak sponge in absorbing phase with a fixed rate and output length.
///
/// Crate-visible so the multi-lane batch layer ([`crate::multilane`]) can pack
/// sponge states into [`crate::keccak4::KeccakState4`] groups and hand them back.
#[derive(Debug, Clone)]
pub(crate) struct Sponge {
    pub(crate) state: KeccakState,
    pub(crate) rate_bytes: usize,
    pub(crate) output_bytes: usize,
    /// Number of bytes absorbed into the current rate block.
    pub(crate) offset: usize,
}

impl Sponge {
    pub(crate) fn new(rate_bytes: usize, output_bytes: usize) -> Self {
        // The word-aligned absorb path in `update` relies on full lanes never
        // straddling the rate boundary.
        debug_assert!(rate_bytes.is_multiple_of(8), "rate must be a whole number of lanes");
        Self { state: KeccakState::new(), rate_bytes, output_bytes, offset: 0 }
    }

    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        let mut data = data;
        // Head: absorb byte-wise until the write position is lane-aligned.
        while !data.is_empty() && !self.offset.is_multiple_of(8) {
            self.absorb_byte(data[0]);
            data = &data[1..];
        }
        // Body: XOR whole little-endian u64 lanes.  Both supported rates (72 and
        // 136 bytes) are lane multiples, so a full lane never straddles the rate
        // boundary and the permutation fires at exactly the same input positions
        // as the byte-wise path.
        while data.len() >= 8 {
            let (lane_bytes, rest) = data.split_at(8);
            let word = u64::from_le_bytes(lane_bytes.try_into().expect("8 bytes"));
            self.state.xor_lane(self.offset / 8, word);
            self.offset += 8;
            if self.offset == self.rate_bytes {
                self.state.permute();
                self.offset = 0;
            }
            data = rest;
        }
        // Tail: remaining bytes of a partial lane.
        for &byte in data {
            self.absorb_byte(byte);
        }
    }

    /// Absorbs one little-endian 64-bit word: a single lane XOR when the
    /// write position is lane-aligned (always, for a word-only stream), the
    /// byte path otherwise.  Same state as `update(&word.to_le_bytes())`.
    #[inline]
    pub(crate) fn absorb_word(&mut self, word: u64) {
        if !self.offset.is_multiple_of(8) {
            self.update(&word.to_le_bytes());
            return;
        }
        self.state.xor_lane(self.offset / 8, word);
        self.offset += 8;
        if self.offset == self.rate_bytes {
            self.state.permute();
            self.offset = 0;
        }
    }

    #[inline]
    fn absorb_byte(&mut self, byte: u8) {
        self.state.xor_byte(self.offset, byte);
        self.offset += 1;
        if self.offset == self.rate_bytes {
            self.state.permute();
            self.offset = 0;
        }
    }

    pub(crate) fn finalize(mut self) -> Digest {
        // pad10*1 with SHA-3 domain separation.
        self.state.xor_byte(self.offset, SHA3_PAD);
        self.state.xor_byte(self.rate_bytes - 1, FINAL_PAD);
        self.state.permute();

        let mut out = Vec::with_capacity(self.output_bytes);
        let mut produced = 0;
        loop {
            let take = (self.output_bytes - produced).min(self.rate_bytes);
            for i in 0..take {
                out.push(self.state.byte(i));
            }
            produced += take;
            if produced == self.output_bytes {
                break;
            }
            self.state.permute();
        }
        Digest::from_bytes(out)
    }
}

/// Incremental SHA-3-512 hasher (rate 576 bits, 64-byte digest).
///
/// # Example
///
/// ```
/// use lofat_crypto::Sha3_512;
///
/// let digest = Sha3_512::digest(b"");
/// assert!(digest.to_hex().starts_with("a69f73cc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha3_512 {
    pub(crate) sponge: Sponge,
}

impl Sha3_512 {
    /// Rate of SHA-3-512 in bytes (576 bits).
    pub const RATE_BYTES: usize = 72;
    /// Digest length in bytes.
    pub const DIGEST_BYTES: usize = 64;

    /// Creates a new, empty hasher.
    pub fn new() -> Self {
        Self { sponge: Sponge::new(Self::RATE_BYTES, Self::DIGEST_BYTES) }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        self.sponge.update(data.as_ref());
    }

    /// Absorbs one 64-bit word as its 8 little-endian bytes; equivalent to
    /// `update(word.to_le_bytes())`, without the byte-slice round trip.
    #[inline]
    pub fn update_word(&mut self, word: u64) {
        self.sponge.absorb_word(word);
    }

    /// Finalizes the hash and returns the 64-byte digest.
    pub fn finalize(self) -> Digest {
        self.sponge.finalize()
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: impl AsRef<[u8]>) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes many independent messages, running full groups of four through
    /// the 4-way packed permutation ([`crate::keccak4`]) and any ragged tail
    /// through the scalar sponge.  Digests are bit-identical to
    /// [`Sha3_512::digest`] per message.
    ///
    /// # Example
    ///
    /// ```
    /// use lofat_crypto::Sha3_512;
    ///
    /// let msgs: Vec<&[u8]> = vec![b"a", b"bb", b"ccc", b"dddd", b"eeeee"];
    /// let batched = Sha3_512::digest_many(&msgs);
    /// for (msg, digest) in msgs.iter().zip(&batched) {
    ///     assert_eq!(digest, &Sha3_512::digest(msg));
    /// }
    /// ```
    pub fn digest_many<T: AsRef<[u8]>>(messages: &[T]) -> Vec<Digest> {
        crate::multilane::digest_each(&Sponge::new(Self::RATE_BYTES, Self::DIGEST_BYTES), messages)
    }

    /// Finalizes many in-flight hashers at once, draining full groups of four
    /// through one packed final permutation each (the hashers may be at
    /// arbitrary, unrelated absorb offsets).  Results are bit-identical to
    /// calling [`Sha3_512::finalize`] on each hasher.
    pub fn finalize_many(hashers: Vec<Sha3_512>) -> Vec<Digest> {
        crate::multilane::finalize_each(hashers.into_iter().map(|h| h.sponge).collect())
    }
}

impl Default for Sha3_512 {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental SHA-3-256 hasher (rate 1088 bits, 32-byte digest).
#[derive(Debug, Clone)]
pub struct Sha3_256 {
    pub(crate) sponge: Sponge,
}

impl Sha3_256 {
    /// Rate of SHA-3-256 in bytes (1088 bits).
    pub const RATE_BYTES: usize = 136;
    /// Digest length in bytes.
    pub const DIGEST_BYTES: usize = 32;

    /// Creates a new, empty hasher.
    pub fn new() -> Self {
        Self { sponge: Sponge::new(Self::RATE_BYTES, Self::DIGEST_BYTES) }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        self.sponge.update(data.as_ref());
    }

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> Digest {
        self.sponge.finalize()
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: impl AsRef<[u8]>) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes many independent messages through the 4-way packed permutation
    /// (groups of four; scalar tail).  See [`Sha3_512::digest_many`].
    pub fn digest_many<T: AsRef<[u8]>>(messages: &[T]) -> Vec<Digest> {
        crate::multilane::digest_each(&Sponge::new(Self::RATE_BYTES, Self::DIGEST_BYTES), messages)
    }
}

impl Default for Sha3_256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha3_512_empty_vector() {
        let d = Sha3_512::digest(b"");
        assert_eq!(
            d.to_hex(),
            "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
             15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"
        );
    }

    #[test]
    fn sha3_512_abc_vector() {
        let d = Sha3_512::digest(b"abc");
        assert_eq!(
            d.to_hex(),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
             10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
        );
    }

    #[test]
    fn sha3_256_empty_vector() {
        let d = Sha3_256::digest(b"");
        assert_eq!(d.to_hex(), "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
    }

    #[test]
    fn sha3_256_abc_vector() {
        let d = Sha3_256::digest(b"abc");
        assert_eq!(d.to_hex(), "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog repeatedly and then some more";
        let mut h = Sha3_512::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha3_512::digest(data));
    }

    /// Word absorption equals absorbing the word's little-endian bytes, from a
    /// lane-aligned start (the hash path's case) and from every unaligned one.
    #[test]
    fn update_word_matches_byte_update() {
        let words: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for head in 0..9usize {
            let mut by_word = Sha3_512::new();
            let mut by_bytes = Sha3_512::new();
            by_word.update(&b"unaligned"[..head]);
            by_bytes.update(&b"unaligned"[..head]);
            for &word in &words {
                by_word.update_word(word);
                by_bytes.update(word.to_le_bytes());
            }
            assert_eq!(by_word.finalize(), by_bytes.finalize(), "head {head}");
        }
    }

    /// Every chunking of the same input must produce the same digest, exercising
    /// the lane-aligned fast path against the byte-wise head/tail paths at all
    /// offsets relative to the 8-byte lane and the 72-byte rate boundaries.
    #[test]
    fn chunked_updates_hit_aligned_and_unaligned_paths() {
        let data: Vec<u8> = (0..640u32).map(|i| (i * 31 + 7) as u8).collect();
        let oneshot = Sha3_512::digest(&data);
        for chunk_size in [1, 3, 5, 8, 9, 16, 64, 71, 72, 73, 144, 640] {
            let mut h = Sha3_512::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn rate_boundary_inputs() {
        // Inputs of exactly rate-1, rate and rate+1 bytes exercise the padding edges.
        for len in [Sha3_512::RATE_BYTES - 1, Sha3_512::RATE_BYTES, Sha3_512::RATE_BYTES + 1] {
            let data = vec![0x5Au8; len];
            let mut h = Sha3_512::new();
            h.update(&data);
            let one = h.finalize();
            let two = Sha3_512::digest(&data);
            assert_eq!(one, two, "length {len}");
            assert_eq!(one.len(), 64);
        }
    }

    #[test]
    fn digests_differ_for_different_inputs() {
        assert_ne!(Sha3_512::digest(b"a"), Sha3_512::digest(b"b"));
        assert_ne!(Sha3_512::digest(b""), Sha3_512::digest(b"\0"));
    }

    #[test]
    fn digest_display_and_hex() {
        let d = Sha3_256::digest(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
        assert_eq!(d.to_hex().len(), 64);
    }

    #[test]
    fn ct_eq_behaviour() {
        let a = Sha3_256::digest(b"x");
        let b = Sha3_256::digest(b"x");
        let c = Sha3_256::digest(b"y");
        assert!(a.ct_eq(&b));
        assert!(!a.ct_eq(&c));
        assert!(!a.ct_eq(&Digest::from_bytes(vec![0u8; 5])));
    }
}
