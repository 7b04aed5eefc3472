//! RSA over [`crate::bignum`], including Chaum blind signatures.
//!
//! Built for the §5 pseudonym proposal ("investigate how pseudonyms could
//! be used as a way to protect user privacy and anonymity, e.g. through
//! the use of idemix"): the reputation server blind-signs pseudonym
//! tokens for verified members, so a redeemed token proves membership
//! without revealing *which* member — the unlinkability idemix provides,
//! realised with the classic Chaum construction.
//!
//! Signing uses the full-domain-hash style `SHA-256(message)` as the RSA
//! input (adequate for the 32-byte random tokens this scheme signs;
//! general-purpose RSA-PSS padding is out of scope and documented as
//! such).

use rand::Rng;

use crate::bignum::BigUint;
use crate::sha256::Sha256;

/// The public (verification) half of an RSA key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// Public exponent (65537).
    pub e: BigUint,
}

/// A full RSA keypair.
#[derive(Debug, Clone)]
pub struct RsaKeypair {
    public: RsaPublicKey,
    d: BigUint,
}

/// An RSA signature (the value `s = m^d mod n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub BigUint);

impl RsaKeypair {
    /// Generate a keypair with a modulus of `bits` bits (two `bits/2`
    /// primes). 1024 is the experiment default; tests use smaller keys.
    pub fn generate(bits: u32, rng: &mut impl Rng) -> Self {
        assert!(bits >= 64, "modulus below 64 bits is meaningless");
        let e = BigUint::from_u64(65_537);
        loop {
            let p = BigUint::gen_prime(bits / 2, rng);
            let q = BigUint::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.mod_inverse(&phi) else { continue };
            return RsaKeypair { public: RsaPublicKey { n, e }, d };
        }
    }

    /// The verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `message` (hashed internally).
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let m = hash_to_group(message, &self.public.n);
        RsaSignature(m.mod_exp(&self.d, &self.public.n))
    }

    /// Apply the private exponent to a raw group element — the server-side
    /// step of blind signing (the server never sees the message).
    pub fn sign_raw(&self, blinded: &BigUint) -> BigUint {
        blinded.rem(&self.public.n).mod_exp(&self.d, &self.public.n)
    }
}

impl RsaPublicKey {
    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        if signature.0.cmp_ref(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let expected = hash_to_group(message, &self.n);
        signature.0.mod_exp(&self.e, &self.n) == expected
    }
}

/// Map a message into Z_n via SHA-256 (full-domain-hash style, single
/// block — sufficient for ≥512-bit moduli over 256-bit digests).
fn hash_to_group(message: &[u8], n: &BigUint) -> BigUint {
    BigUint::from_bytes_be(&Sha256::digest(message)).rem(n)
}

/// Client-side state of one blind-signing exchange.
pub struct BlindingSession {
    r: BigUint,
    message: Vec<u8>,
    public: RsaPublicKey,
}

impl BlindingSession {
    /// Blind `message` under `public`: returns the session (keep private)
    /// and the blinded element to send to the signer.
    ///
    /// Blinding: `m' = m · r^e mod n` for random invertible `r` — the
    /// signer sees a uniformly random group element.
    pub fn blind(message: &[u8], public: &RsaPublicKey, rng: &mut impl Rng) -> (Self, BigUint) {
        let m = hash_to_group(message, &public.n);
        let r = loop {
            let candidate = BigUint::random_below(&public.n, rng);
            if !candidate.is_zero() && candidate.gcd(&public.n) == BigUint::one() {
                break candidate;
            }
        };
        let blinded = m.mul_mod(&r.mod_exp(&public.e, &public.n), &public.n);
        (BlindingSession { r, message: message.to_vec(), public: public.clone() }, blinded)
    }

    /// Unblind the signer's response: `s = s' · r⁻¹ mod n` is a valid
    /// signature on the original message. Returns `None` when the signer
    /// responded with garbage (the unblinded value fails verification).
    pub fn unblind(self, blind_signature: &BigUint) -> Option<RsaSignature> {
        let r_inv = self.r.mod_inverse(&self.public.n)?;
        let signature = RsaSignature(blind_signature.mul_mod(&r_inv, &self.public.n));
        self.public.verify(&self.message, &signature).then_some(signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeypair {
        // 256-bit keys keep debug-mode tests fast; the scheme is
        // size-agnostic and the experiments use 1024.
        let mut rng = StdRng::seed_from_u64(1);
        RsaKeypair::generate(256, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"pseudonym token 42");
        assert!(kp.public_key().verify(b"pseudonym token 42", &sig));
        assert!(!kp.public_key().verify(b"pseudonym token 43", &sig));
    }

    #[test]
    fn signatures_do_not_transfer_between_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp1 = RsaKeypair::generate(256, &mut rng);
        let kp2 = RsaKeypair::generate(256, &mut rng);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn oversized_signature_values_are_rejected() {
        let kp = keypair();
        let huge = RsaSignature(kp.public_key().n.add(&BigUint::one()));
        assert!(!kp.public_key().verify(b"msg", &huge));
    }

    #[test]
    fn blind_signature_roundtrip_and_unlinkability_shape() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(3);

        let token = b"random-pseudonym-token-bytes";
        let (session, blinded) = BlindingSession::blind(token, kp.public_key(), &mut rng);

        // What the signer sees is not the hashed message…
        let m = hash_to_group(token, &kp.public_key().n);
        assert_ne!(blinded, m, "blinding must hide the message");

        // …yet the unblinded result verifies as a plain signature.
        let blind_sig = kp.sign_raw(&blinded);
        let signature = session.unblind(&blind_sig).expect("valid signature");
        assert!(kp.public_key().verify(token, &signature));
        // And equals the signature the signer would have produced directly
        // (determinism of RSA: s = m^d).
        assert_eq!(signature, kp.sign(token));
    }

    #[test]
    fn two_blindings_of_the_same_token_look_unrelated() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(4);
        let (_, blinded1) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        let (_, blinded2) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        assert_ne!(blinded1, blinded2, "fresh randomness per blinding");
    }

    /// Seeded 1024-bit keys and one raw signature, pinned byte for byte:
    /// a change to the arithmetic or to the RNG draws of the key search
    /// (Miller–Rabin bases, candidates, trial division) shows here.
    #[test]
    fn seeded_1024_bit_keys_are_pinned() {
        const MODULI: [(u64, &str); 3] = [
            (
                0x5EED_0F5E,
                concat!(
                    "57cd7389ed46934b29bb0c32a4a62e9da0967b0ec52aa01078cf751de81a0f56",
                    "4b26a6d5f19e3879c5ec6f3e8ce954db0a13439a803e08729c44d389a94b0630",
                    "37563f221a25719717e2a3d024507850f5f27424e2d75f62cda9b4451e04f5ec",
                    "3ce22fb54ef2c850fe89f58e362dbe541016a874fbf281d40dc42a512ca21f13",
                ),
            ),
            (
                1,
                concat!(
                    "a0c18b7515c4b061d3e8d7ea4e01c22c255a56db7397d85deed028d28cc72d28",
                    "e2f9d7db324d644f7b5e0f262cd655da9e0f881c41d5399d01d3958f351f318e",
                    "5db68a4bfabe5a6987494c728f6b9447778cd32c68357ddfacf2bc4f62134d65",
                    "0f4c88cf6ee1e93c9c1ee7bd19572a179a28a78cea7c8544c5ecaf664f80c819",
                ),
            ),
            (
                2,
                concat!(
                    "86dadce7a79cd54b814eda615c3eb2c2ec4a6cb24da45693fc1fbe416dd6686c",
                    "364af769479d1a24523a239fc5b87f3f4e7a62ba5939b85e197b5cd569fc499e",
                    "56dda7d144e318607e345ae3cc511cb24e47da4e48b6ca1f6a7aa0e24a657f02",
                    "7b644f947c5779edff7afaebc678a9c4e95aeb9658d5fe41e1d38da7e95dd9d7",
                ),
            ),
        ];
        const SIGN_RAW: &str = concat!(
            "400936a4cc23c3cdfb316abc6ba05c09c31b42c5d4b4c933628d5c82f9c9cef8",
            "9c98fbbfcfaca9b34e8ccec7b431a31d6d99db79153b082a15d728320c4d3817",
            "81049ecf047ba6db17cec176b3c51a9681fdd5232441c7da4e740c7d56335788",
            "7038faa38a2c7b027bc270943b75ff41bf0c97ea0b333e280179adc5176c6412",
        );
        let keys: Vec<RsaKeypair> = MODULI
            .iter()
            .map(|&(seed, modulus)| {
                let kp = RsaKeypair::generate(1024, &mut StdRng::seed_from_u64(seed));
                assert_eq!(kp.public_key().n.to_hex(), modulus, "modulus for seed {seed:#x}");
                assert_eq!(kp.public_key().e, BigUint::from_u64(65_537));
                kp
            })
            .collect();
        let element = BigUint::from_hex("0123456789abcdeffedcba9876543210").unwrap();
        assert_eq!(keys[0].sign_raw(&element).to_hex(), SIGN_RAW);
    }

    #[test]
    fn garbage_blind_response_is_rejected() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        let (session, _) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        assert!(session.unblind(&BigUint::from_u64(12_345)).is_none());
    }
}
