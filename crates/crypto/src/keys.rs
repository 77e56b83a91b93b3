//! Device keys and the hardware-protected key register.
//!
//! The paper stores the prover's signing key `sk` in "hardware-protected secure
//! memory, e.g. a register that is accessible only to LO-FAT" (§3).  [`KeyRegister`]
//! models that register: application software running on the simulated core has no
//! API to read it, only the attestation engine (which owns the register) can ask it
//! to sign.

use crate::error::CryptoError;
use crate::hmac::Hmac;
use crate::sha3::{Digest, Sha3_512};

/// Length of a device key in bytes.
pub const DEVICE_KEY_BYTES: usize = 32;

/// A symmetric device key provisioned into the prover at manufacturing time.
///
/// The verifier holds the corresponding [`VerificationKey`].  With the HMAC-based
/// signature substitution the two wrap the same bytes; the distinct types keep the
/// prover/verifier roles from being mixed up in the protocol code.
#[derive(Clone, PartialEq, Eq)]
pub struct DeviceKey {
    bytes: [u8; DEVICE_KEY_BYTES],
}

impl DeviceKey {
    /// Creates a key from exactly [`DEVICE_KEY_BYTES`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] if `bytes` has the wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != DEVICE_KEY_BYTES {
            return Err(CryptoError::InvalidKeyLength {
                expected: DEVICE_KEY_BYTES,
                actual: bytes.len(),
            });
        }
        let mut key = [0u8; DEVICE_KEY_BYTES];
        key.copy_from_slice(bytes);
        Ok(Self { bytes: key })
    }

    /// Derives a deterministic key from a seed string (useful for tests and examples).
    pub fn from_seed(seed: &str) -> Self {
        let digest = Sha3_512::digest(seed.as_bytes());
        let mut key = [0u8; DEVICE_KEY_BYTES];
        key.copy_from_slice(&digest.as_bytes()[..DEVICE_KEY_BYTES]);
        Self { bytes: key }
    }

    /// Returns the corresponding verification key for the verifier.
    pub fn verification_key(&self) -> VerificationKey {
        VerificationKey { bytes: self.bytes }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Debug for DeviceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("DeviceKey").field("bytes", &"<redacted>").finish()
    }
}

/// The verifier-side key used to check attestation reports.
#[derive(Clone, PartialEq, Eq)]
pub struct VerificationKey {
    bytes: [u8; DEVICE_KEY_BYTES],
}

impl VerificationKey {
    /// Verifies that `tag` authenticates `message`.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        Hmac::verify(&self.bytes, message, tag)
    }

    /// Returns a keyed-but-empty [`Hmac`] instance for this key.
    ///
    /// Cloning the returned base and absorbing a message is equivalent to
    /// [`Hmac::new`] + update, minus the two key-schedule permutations — the
    /// verifier service keeps one base per fleet key and clones it per report.
    pub fn mac_base(&self) -> Hmac {
        Hmac::new(&self.bytes)
    }
}

impl std::fmt::Debug for VerificationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerificationKey").field("bytes", &"<redacted>").finish()
    }
}

/// Hardware-protected key register owned by the attestation engine.
///
/// Only the engine can invoke [`KeyRegister::sign`]; there is deliberately no getter
/// for the key bytes, mirroring the paper's assumption that the software adversary
/// cannot compromise the signing key.
#[derive(Clone)]
pub struct KeyRegister {
    /// Keyed-but-empty MAC under the device key: cloning it per report skips
    /// the two key-schedule permutations of [`Hmac::new`].  Its sponge state is
    /// key-equivalent material, so `Debug` never shows it.
    base: Hmac,
    /// Number of signatures produced (useful for audit/testing).
    signatures_issued: u64,
}

impl KeyRegister {
    /// Provisions the register with a device key.
    pub fn provision(key: DeviceKey) -> Self {
        Self { base: Hmac::new(key.as_bytes()), signatures_issued: 0 }
    }

    /// Signs `message` with the protected key; the tag equals
    /// `Hmac::mac(key, message)`.
    pub fn sign(&mut self, message: &[u8]) -> Digest {
        self.signatures_issued += 1;
        let mut mac = self.base.clone();
        mac.update(message);
        mac.finalize()
    }

    /// Number of signatures issued so far.
    pub fn signatures_issued(&self) -> u64 {
        self.signatures_issued
    }
}

impl std::fmt::Debug for KeyRegister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyRegister")
            .field("key", &"<redacted>")
            .field("signatures_issued", &self.signatures_issued)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_length_is_validated() {
        assert!(DeviceKey::from_bytes(&[0u8; 32]).is_ok());
        let err = DeviceKey::from_bytes(&[0u8; 16]).unwrap_err();
        assert!(matches!(err, CryptoError::InvalidKeyLength { expected: 32, actual: 16 }));
    }

    #[test]
    fn seed_derivation_is_deterministic() {
        assert_eq!(DeviceKey::from_seed("dev-1"), DeviceKey::from_seed("dev-1"));
        assert_ne!(DeviceKey::from_seed("dev-1"), DeviceKey::from_seed("dev-2"));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = DeviceKey::from_seed("prover");
        let vk = key.verification_key();
        let mut reg = KeyRegister::provision(key);
        let tag = reg.sign(b"report");
        assert!(vk.verify(b"report", &tag));
        assert!(!vk.verify(b"forged", &tag));
        assert_eq!(reg.signatures_issued(), 1);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = DeviceKey::from_seed("secret");
        let debug = format!("{key:?}");
        assert!(debug.contains("redacted"));
        let vk = key.verification_key();
        assert!(format!("{vk:?}").contains("redacted"));
        // The register's keyed MAC state is never printed either: only the
        // redaction marker and the audit counter appear.
        let register = KeyRegister::provision(key);
        assert_eq!(
            format!("{register:?}"),
            "KeyRegister { key: \"<redacted>\", signatures_issued: 0 }"
        );
    }

    #[test]
    fn register_tags_equal_one_shot_macs() {
        let key = DeviceKey::from_seed("prover");
        let mut register = KeyRegister::provision(key.clone());
        for message in [&b""[..], b"report", &[0xa5; 200][..]] {
            assert_eq!(register.sign(message), Hmac::mac(key.as_bytes(), message));
        }
        assert_eq!(register.signatures_issued(), 3);
    }
}
