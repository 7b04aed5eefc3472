//! Arbitrary-precision unsigned integers, from scratch.
//!
//! The substrate for [`crate::rsa`] (and through it the blind-signature
//! pseudonym scheme of §5). Little-endian `u64` limbs, no leading zero
//! limbs (so the representation is canonical and `==` is structural).
//!
//! The operation set is exactly what modular crypto needs: comparison,
//! add/sub, schoolbook multiplication, limb division (Knuth's Algorithm
//! D, one 64-bit quotient limb per step), modular exponentiation
//! (square-and-multiply; Montgomery multiplication on reused buffers for
//! odd moduli), modular inverse (extended Euclid), gcd, random sampling
//! and Miller–Rabin primality with single-limb trial division.
//! Everything is safe Rust with `u128` intermediates. A seeded 1024-bit
//! key search takes ~15–20 ms in a release build (it took ~3.4 s with
//! bit-serial division), and one 1024-bit private-exponent operation
//! ~1.5 ms.

use rand::Rng;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing (most-significant) zeros.
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// To big-endian bytes (minimal; empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Is this an even number?
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() as u32 * 64 - top.leading_zeros(),
        }
    }

    /// The value of bit `i` (0 = least significant).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        self.limbs.get(limb).is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    fn normalise(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Comparison.
    pub fn cmp_ref(&self, other: &BigUint) -> std::cmp::Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            if a != b {
                return a.cmp(b);
            }
        }
        std::cmp::Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u128;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u128::from(self.limbs.get(i).copied().unwrap_or(0));
            let b = u128::from(other.limbs.get(i).copied().unwrap_or(0));
            let sum = a + b + carry;
            limbs.push(sum as u64);
            carry = sum >> 64;
        }
        if carry > 0 {
            limbs.push(carry as u64);
        }
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// `self - other`; panics on underflow (callers compare first).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self.cmp_ref(other) != std::cmp::Ordering::Less, "BigUint subtraction underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = i128::from(self.limbs[i]);
            let b = i128::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u64);
        }
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = u128::from(limbs[idx]) + u128::from(a) * u128::from(b) + carry;
                limbs[idx] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(limbs[idx]) + carry;
                limbs[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u32) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// `(self / divisor, self % divisor)` by limb division (Knuth, TAOCP
    /// vol. 2 §4.3.1, Algorithm D), with a single-limb fast path.
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_ref(divisor) == std::cmp::Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if let [d] = divisor.limbs[..] {
            let mut q = BigUint { limbs: vec![0; self.limbs.len()] };
            let mut r = 0u64;
            for (qi, &ui) in q.limbs.iter_mut().zip(&self.limbs).rev() {
                let cur = (u128::from(r) << 64) | u128::from(ui);
                *qi = (cur / u128::from(d)) as u64;
                r = (cur % u128::from(d)) as u64;
            }
            q.normalise();
            return (q, BigUint::from_u64(r));
        }
        div_rem_knuth(self, divisor)
    }

    /// `self mod d` for a single-limb `d` (no allocation). Panics on zero.
    fn rem_limb(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.limbs
            .iter()
            .rev()
            .fold(0u64, |r, &l| (((u128::from(r) << 64) | u128::from(l)) % u128::from(d)) as u64)
    }

    /// Right shift by one bit.
    pub fn shr1(&self) -> BigUint {
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut carry = 0u64;
        for &l in self.limbs.iter().rev() {
            limbs.push((l >> 1) | (carry << 63));
            carry = l & 1;
        }
        limbs.reverse();
        let mut n = BigUint { limbs };
        n.normalise();
        n
    }

    /// `self mod n`.
    pub fn rem(&self, n: &BigUint) -> BigUint {
        self.div_rem(n).1
    }

    /// `self * other mod n`.
    pub fn mul_mod(&self, other: &BigUint, n: &BigUint) -> BigUint {
        self.mul(other).rem(n)
    }

    /// `self ^ exp mod n`, left-to-right square-and-multiply. An odd
    /// modulus (every RSA and Miller–Rabin one) multiplies in Montgomery
    /// form on reused limb buffers; an even one reduces by division.
    pub fn mod_exp(&self, exp: &BigUint, n: &BigUint) -> BigUint {
        assert!(!n.is_zero(), "modulus must be positive");
        if n == &BigUint::one() {
            return BigUint::zero();
        }
        let base = self.rem(n);
        if !n.is_even() {
            return Montgomery::new(n).pow(&base, exp);
        }
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, n);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, n);
            }
        }
        acc
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: the `x` with `self·x ≡ 1 (mod n)`, or `None` when
    /// `gcd(self, n) ≠ 1`. Extended Euclid with signed coefficients.
    pub fn mod_inverse(&self, n: &BigUint) -> Option<BigUint> {
        if n.is_zero() {
            return None;
        }
        // (old_r, r) remainders; (old_s, s) Bézout coefficients as
        // (magnitude, is_negative).
        let mut old_r = self.rem(n);
        let mut r = n.clone();
        let mut old_s = (BigUint::one(), false);
        let mut s = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            // new_s = old_s - q*s (signed).
            let qs = q.mul(&s.0);
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_r = std::mem::replace(&mut r, rem);
            old_s = std::mem::replace(&mut s, new_s);
        }
        if old_r != BigUint::one() {
            return None;
        }
        // Reduce old_s into [0, n).
        let (mag, neg) = old_s;
        let mag = mag.rem(n);
        Some(if neg && !mag.is_zero() { n.sub(&mag) } else { mag })
    }

    /// Uniform random value in `[0, bound)`. Panics on a zero bound.
    pub fn random_below(bound: &BigUint, rng: &mut impl Rng) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        let bytes = bits.div_ceil(8) as usize;
        loop {
            let mut buf = vec![0u8; bytes];
            rng.fill(&mut buf[..]);
            // Mask excess high bits so rejection sampling terminates fast.
            let excess = (bytes as u32 * 8) - bits;
            if excess > 0 {
                buf[0] &= 0xFF >> excess;
            }
            let candidate = BigUint::from_bytes_be(&buf);
            if candidate.cmp_ref(bound) == std::cmp::Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random integer with exactly `bits` bits (top bit set).
    pub fn random_bits(bits: u32, rng: &mut impl Rng) -> BigUint {
        assert!(bits > 0);
        let bytes = bits.div_ceil(8) as usize;
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf[..]);
        let excess = (bytes as u32 * 8) - bits;
        buf[0] &= 0xFF >> excess;
        buf[0] |= 0x80 >> excess; // force the top bit
        BigUint::from_bytes_be(&buf)
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random
    /// bases (error probability ≤ 4^-rounds).
    pub fn is_probable_prime(&self, rounds: u32, rng: &mut impl Rng) -> bool {
        let two = BigUint::from_u64(2);
        if self.cmp_ref(&two) == std::cmp::Ordering::Less {
            return false;
        }
        if self == &two {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Quick trial division by small primes.
        for p in SMALL_PRIMES {
            if self.limbs[..] == [p] {
                return true;
            }
            if self.rem_limb(p) == 0 {
                return false;
            }
        }

        // n - 1 = d · 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0u32;
        while d.is_even() {
            d = d.shr1();
            s += 1;
        }

        'witness: for _ in 0..rounds {
            // a in [2, n-2].
            let a = loop {
                let candidate = BigUint::random_below(&n_minus_1, rng);
                if candidate.cmp_ref(&two) != std::cmp::Ordering::Less {
                    break candidate;
                }
            };
            let mut x = a.mod_exp(&d, self);
            if x == BigUint::one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mul_mod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime(bits: u32, rng: &mut impl Rng) -> BigUint {
        assert!(bits >= 8, "prime sizes below 8 bits are pointless");
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            // Force odd.
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.bits() == bits && candidate.is_probable_prime(20, rng) {
                return candidate;
            }
        }
    }

    /// Hex rendering (lowercase, no prefix, "0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        crate::hex::encode(&self.to_bytes_be()).trim_start_matches('0').to_string()
    }

    /// Parse from hex.
    pub fn from_hex(s: &str) -> Option<BigUint> {
        let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s.to_string() };
        crate::hex::decode(&padded).map(|b| BigUint::from_bytes_be(&b))
    }
}

/// Signed subtraction on (magnitude, is_negative) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0.cmp_ref(&b.0) != std::cmp::Ordering::Less {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // -a - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
        // -a - (-b) = b - a.
        (true, true) => {
            if b.0.cmp_ref(&a.0) != std::cmp::Ordering::Less {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How often Algorithm D's add-back step (D6) ran on this thread.
    static ADD_BACKS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Knuth's Algorithm D for `u ≥ v` with `v` of at least two limbs:
/// one quotient limb per step, estimated from the top limbs.
fn div_rem_knuth(u: &BigUint, v: &BigUint) -> (BigUint, BigUint) {
    // D1: shift so the divisor's top bit is set; the dividend gains a limb.
    let shift = v.limbs.last().map_or(0, |top| top.leading_zeros());
    let vn = v.shl(shift).limbs;
    let mut un = u.shl(shift).limbs;
    un.resize(u.limbs.len() + 1, 0);
    let n = vn.len();
    let mut q = vec![0u64; u.limbs.len() - n + 1];
    let (v1, v2) = (u128::from(vn[n - 1]), u128::from(vn[n - 2]));
    let base = 1u128 << 64;
    for j in (0..q.len()).rev() {
        // D3: estimate the quotient limb from the top two limbs and refine
        // it with the third, which leaves it at most one too large.
        let top = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = top / v1;
        let mut rhat = top % v1;
        while qhat >= base || qhat * v2 > (rhat << 64) | u128::from(un[j + n - 2]) {
            qhat -= 1;
            rhat += v1;
            if rhat >= base {
                break;
            }
        }
        // D4–D6: subtract q̂·v; on a borrow q̂ was one too large, so add v
        // back (the carry out cancels the borrow).
        let window = &mut un[j..=j + n];
        if mul_sub(window, &vn, qhat as u64) {
            qhat -= 1;
            add_into(window, &vn);
            #[cfg(test)]
            ADD_BACKS.with(|c| c.set(c.get() + 1));
        }
        q[j] = qhat as u64;
    }
    // D8: the remainder is the low `n` limbs, shifted back.
    un.truncate(n);
    if shift > 0 {
        for i in 0..n {
            let high = un.get(i + 1).copied().unwrap_or(0);
            un[i] = (un[i] >> shift) | (high << (64 - shift));
        }
    }
    let (mut q, mut r) = (BigUint { limbs: q }, BigUint { limbs: un });
    q.normalise();
    r.normalise();
    (q, r)
}

/// `w -= k·v` in place, where `w` has one limb more than `v`; returns
/// whether the result went negative (wrapped).
fn mul_sub(w: &mut [u64], v: &[u64], k: u64) -> bool {
    let mut carry = 0u64;
    let mut borrow = false;
    for (wi, &vi) in w.iter_mut().zip(v) {
        let p = u128::from(k) * u128::from(vi) + u128::from(carry);
        carry = (p >> 64) as u64;
        let (d, b1) = wi.overflowing_sub(p as u64);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *wi = d;
        borrow = b1 || b2;
    }
    let top = &mut w[v.len()];
    let (d, b1) = top.overflowing_sub(carry);
    let (d, b2) = d.overflowing_sub(u64::from(borrow));
    *top = d;
    b1 || b2
}

/// `w += v` in place, dropping the carry out of `w`'s top limb.
fn add_into(w: &mut [u64], v: &[u64]) {
    let mut carry = false;
    for (i, wi) in w.iter_mut().enumerate() {
        let (s, c1) = wi.overflowing_add(v.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *wi = s;
        carry = c1 || c2;
    }
}

/// Montgomery arithmetic modulo an odd `n` of `k` limbs, `R = 2^(64k)`.
/// Residues are `k`-limb slices holding `x·R mod n`.
struct Montgomery<'a> {
    n: &'a BigUint,
    /// `-n⁻¹ mod 2^64`.
    n_prime: u64,
}

impl<'a> Montgomery<'a> {
    fn new(n: &'a BigUint) -> Self {
        let n0 = n.limbs[0];
        // Newton's iteration for n0⁻¹ mod 2^64: an odd n0 is its own
        // inverse mod 8, and each step doubles the correct low bits.
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        Montgomery { n, n_prime: inv.wrapping_neg() }
    }

    /// `x·R mod n` as exactly `k` limbs.
    fn to_residue(&self, x: &BigUint) -> Vec<u64> {
        let k = self.n.limbs.len();
        let mut limbs = x.shl(64 * k as u32).rem(self.n).limbs;
        limbs.resize(k, 0);
        limbs
    }

    /// `t[..k] = a·b·R⁻¹ mod n` for residues `a`, `b` < n, by coarsely
    /// integrated operand scanning (CIOS); `t` is `k + 2` limbs of scratch.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n.limbs;
        let k = n.len();
        t.fill(0);
        for &bi in b {
            // t += a·b[i]
            let mut carry = 0u64;
            for (tj, &aj) in t.iter_mut().zip(a) {
                let s = u128::from(*tj) + u128::from(aj) * u128::from(bi) + u128::from(carry);
                *tj = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(carry);
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // t = (t + m·n) / 2^64, with m chosen to zero the low limb.
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = ((u128::from(t[0]) + u128::from(m) * u128::from(n[0])) >> 64) as u64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(carry);
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
        }
        // t < 2n here, so one subtraction brings it below n.
        if t[k] != 0 || t[..k].iter().rev().cmp(n.iter().rev()) != std::cmp::Ordering::Less {
            mul_sub(&mut t[..=k], n, 1);
        }
    }

    /// `base^exp mod n` for `base < n`.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.n.limbs.len();
        let base = self.to_residue(base);
        let mut acc = self.to_residue(&BigUint::one());
        let mut t = vec![0u64; k + 2];
        for i in (0..exp.bits()).rev() {
            self.mul(&acc, &acc, &mut t);
            acc.copy_from_slice(&t[..k]);
            if exp.bit(i) {
                self.mul(&acc, &base, &mut t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        // Leave Montgomery form: acc·1·R⁻¹.
        let mut one = vec![0u64; k];
        one[0] = 1;
        self.mul(&acc, &one, &mut t);
        let mut out = BigUint { limbs: t[..k].to_vec() };
        out.normalise();
        out
    }
}

const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(Ord::cmp(self, other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_ref(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_arithmetic_matches_u128() {
        let a = n(0xFFFF_FFFF_FFFF_FFFF);
        let b = n(2);
        assert_eq!(a.add(&b).to_hex(), "10000000000000001");
        assert_eq!(a.mul(&b).to_hex(), "1fffffffffffffffe");
        assert_eq!(a.sub(&n(1)).to_hex(), "fffffffffffffffe");
        let (q, r) = a.div_rem(&n(10));
        assert_eq!(q.to_hex(), "1999999999999999");
        assert_eq!(r, n(5));
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x01],
            vec![0xFF; 9],
            vec![0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        ];
        for bytes in cases {
            let v = BigUint::from_bytes_be(&bytes);
            let back = v.to_bytes_be();
            // Leading zeros are canonicalised away.
            let expected: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, expected);
        }
    }

    #[test]
    fn bit_accessors() {
        let v = BigUint::from_hex("8000000000000001").unwrap();
        assert_eq!(v.bits(), 64);
        assert!(v.bit(0));
        assert!(v.bit(63));
        assert!(!v.bit(1));
        assert!(!v.bit(64));
        assert_eq!(BigUint::zero().bits(), 0);
    }

    #[test]
    fn mod_exp_known_values() {
        // 5^117 mod 19 = 1 (Fermat: 5^18 ≡ 1, 117 = 6*18+9; 5^9 mod 19 = 1).
        assert_eq!(n(5).mod_exp(&n(117), &n(19)), n(1));
        // 2^10 mod 1000 = 24.
        assert_eq!(n(2).mod_exp(&n(10), &n(1000)), n(24));
        // x^0 = 1.
        assert_eq!(n(7).mod_exp(&BigUint::zero(), &n(13)), n(1));
        // mod 1 = 0.
        assert_eq!(n(7).mod_exp(&n(3), &n(1)), BigUint::zero());
    }

    #[test]
    fn mod_inverse_known_values() {
        // 3 * 5 = 15 ≡ 1 (mod 7).
        assert_eq!(n(3).mod_inverse(&n(7)).unwrap(), n(5));
        // gcd(6, 9) = 3: no inverse.
        assert!(n(6).mod_inverse(&n(9)).is_none());
        // Inverse of 1 is 1.
        assert_eq!(n(1).mod_inverse(&n(97)).unwrap(), n(1));
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 97, 7919, 104_729] {
            assert!(n(p).is_probable_prime(20, &mut rng), "{p} is prime");
        }
        for c in [0u64, 1, 4, 100, 7917, 104_730, 341, 561, 645, 1105] {
            // 341/561/645/1105 are base-2 pseudoprimes / Carmichael numbers.
            assert!(!n(c).is_probable_prime(20, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn gen_prime_produces_primes_of_requested_size() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [16u32, 64, 128] {
            let p = BigUint::gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_probable_prime(20, &mut rng));
        }
    }

    #[test]
    fn hex_roundtrip() {
        for hex in ["1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"] {
            assert_eq!(BigUint::from_hex(hex).unwrap().to_hex(), hex);
        }
        assert_eq!(BigUint::zero().to_hex(), "0");
    }

    fn from_limbs(limbs: &[u64]) -> BigUint {
        let mut v = BigUint { limbs: limbs.to_vec() };
        v.normalise();
        v
    }

    /// `a.div_rem(d)`, checked against `q·d + r == a` and `r < d`.
    fn checked_div_rem(a: &BigUint, d: &BigUint) -> (BigUint, BigUint) {
        let (q, r) = a.div_rem(d);
        assert!(r < *d, "remainder {r:?} not below divisor {d:?}");
        assert_eq!(q.mul(d).add(&r), *a, "q·d + r != a for {a:?} / {d:?}");
        (q, r)
    }

    fn add_backs() -> u32 {
        ADD_BACKS.with(|c| c.get())
    }

    #[test]
    fn div_rem_add_back_vectors() {
        const TOP: u64 = 1 << 63;
        // Hacker's Delight's add-back cases (divmnu64), with 32-bit digits
        // widened to 64-bit limbs: (dividend, divisor, quotient).
        let cases: [(&[u64], &[u64], &[u64]); 3] = [
            (&[3, 0, TOP], &[1, 0, TOP >> 2], &[3]),
            (&[3, 0, 1 << 15], &[1, 0, 1 << 13], &[3]),
            (&[0, 0, TOP, TOP - 1], &[1, 0, TOP], &[u64::MAX - 1]),
        ];
        for (a, d, q) in cases {
            let before = add_backs();
            let (quotient, _) = checked_div_rem(&from_limbs(a), &from_limbs(d));
            assert_eq!(quotient, from_limbs(q));
            assert_eq!(add_backs(), before + 1, "{a:x?} / {d:x?} must take the add-back step");
        }
    }

    #[test]
    fn div_rem_edge_vectors() {
        let max = u64::MAX;
        let cases: [(&[u64], &[u64]); 10] = [
            // Single-limb divisors.
            (&[max, max, max, max], &[max]),
            (&[5, 0, 0, 7], &[1]),
            (&[0, 0, 1], &[3]),
            // A top divisor limb of 1: normalisation shifts by 63.
            (&[max, max, max, max, max], &[max, 1]),
            (&[0, 0, 0, 1], &[0, 1]),
            (&[7, 8, 9, 10, 11], &[12, 13, 1]),
            // All-ones limbs, including divisor == dividend and q̂ = b − 1.
            (&[max; 8], &[max; 3]),
            (&[max; 4], &[max; 4]),
            (&[max - 1, max, max], &[max, max]),
            (&[0, 0, 0, max], &[1, max]),
        ];
        for (a, d) in cases {
            checked_div_rem(&from_limbs(a), &from_limbs(d));
        }
        // a = d − 1 and a = d: the quotient is 0 and 1.
        let d = from_limbs(&[max, 1, max]);
        assert_eq!(checked_div_rem(&d.sub(&n(1)), &d).0, BigUint::zero());
        assert_eq!(checked_div_rem(&d, &d), (n(1), BigUint::zero()));
    }

    #[test]
    fn trial_division_remainder_matches_div_rem() {
        let a = from_limbs(&[0x0123_4567_89ab_cdef, u64::MAX, 42, 1 << 63]);
        for p in SMALL_PRIMES {
            assert_eq!(n(a.rem_limb(p)), a.rem(&n(p)));
        }
    }

    /// Square-and-multiply by division only: the reference the Montgomery
    /// path of `mod_exp` is checked against.
    fn mod_exp_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let base = base.rem(m);
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    #[test]
    fn montgomery_edge_cases() {
        let m = from_limbs(&[u64::MAX, u64::MAX, 5]);
        let big_base = m.mul(&n(3)).add(&n(17));
        for (base, exp, modulus) in [
            (n(12_345), n(678), n(1)),                       // modulus 1
            (big_base.clone(), n(0), m.clone()),             // exponent 0
            (big_base.clone(), n(65_537), m.clone()),        // base ≥ n
            (m.clone(), n(3), m.clone()),                    // base == n
            (m.sub(&n(1)), n(2), m.clone()),                 // (−1)² = 1
            (n(2), from_limbs(&[u64::MAX; 3]), n(u64::MAX)), // one-limb modulus
        ] {
            assert_eq!(
                base.mod_exp(&exp, &modulus),
                mod_exp_reference(&base, &exp, &modulus),
                "{base:?}^{exp:?} mod {modulus:?}"
            );
        }
        assert_eq!(m.sub(&n(1)).mod_exp(&n(2), &m), n(1));
    }

    /// Limbs biased towards the values that stress carries and estimates.
    fn arb_limbs(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = BigUint> {
        let limb = prop_oneof![
            4 => any::<u64>(),
            1 => Just(0u64),
            1 => Just(1u64),
            1 => Just(u64::MAX),
            1 => Just(1u64 << 63),
        ];
        proptest::collection::vec(limb, len).prop_map(|limbs| from_limbs(&limbs))
    }

    fn arb_biguint() -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(|b| BigUint::from_bytes_be(&b))
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(a in arb_biguint(), b in arb_biguint()) {
            let sum = a.add(&b);
            prop_assert_eq!(sum.sub(&b), a.clone());
            prop_assert_eq!(sum.sub(&a), b);
        }

        #[test]
        fn mul_div_roundtrip(a in arb_biguint(), b in arb_biguint()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r.cmp_ref(&b) == std::cmp::Ordering::Less);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn div_rem_multi_limb(a in arb_limbs(1..=32), d in arb_limbs(1..=32)) {
            prop_assume!(!d.is_zero());
            let (q, r) = a.div_rem(&d);
            prop_assert!(r < d);
            prop_assert_eq!(q.mul(&d).add(&r), a);
        }

        #[test]
        fn montgomery_mod_exp_matches_reference(
            base in arb_limbs(0..=20),
            exp in arb_limbs(0..=3),
            modulus in arb_limbs(1..=16),
        ) {
            let odd = modulus.add(&BigUint::from_u64(u64::from(modulus.is_even())));
            prop_assert_eq!(base.mod_exp(&exp, &odd), mod_exp_reference(&base, &exp, &odd));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let product = n(a).mul(&n(b));
            let expected = u128::from(a) * u128::from(b);
            let mut bytes = [0u8; 16];
            bytes.copy_from_slice(&expected.to_be_bytes());
            prop_assert_eq!(product, BigUint::from_bytes_be(&bytes));
        }

        #[test]
        fn mod_exp_matches_naive(base in 0u64..1000, exp in 0u64..24, modulus in 2u64..1000) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * u128::from(base) % u128::from(modulus);
                }
                acc as u64
            };
            prop_assert_eq!(n(base).mod_exp(&n(exp), &n(modulus)), n(expected));
        }

        #[test]
        fn mod_inverse_is_an_inverse(a in 1u64..10_000, m in 2u64..10_000) {
            if let Some(inv) = n(a).mod_inverse(&n(m)) {
                prop_assert_eq!(n(a).mul_mod(&inv, &n(m)), n(1 % m));
            } else {
                prop_assert!(n(a).gcd(&n(m)) != n(1));
            }
        }

        #[test]
        fn shifts_are_consistent(a in arb_biguint(), bits in 0u32..100) {
            let shifted = a.shl(bits);
            let mut back = shifted;
            for _ in 0..bits {
                back = back.shr1();
            }
            prop_assert_eq!(back, a);
        }

        #[test]
        fn random_below_respects_bound(seed: u64, bound_bytes in proptest::collection::vec(any::<u8>(), 1..16)) {
            let bound = BigUint::from_bytes_be(&bound_bytes);
            prop_assume!(!bound.is_zero());
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..5 {
                let v = BigUint::random_below(&bound, &mut rng);
                prop_assert!(v.cmp_ref(&bound) == std::cmp::Ordering::Less);
            }
        }
    }
}
