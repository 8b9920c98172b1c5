//! Machine speed, measured by a fixed kernel that no change to the
//! workspace can move.
//!
//! The kernel is written here and calls nothing from the crates under
//! test: SHA-256 over a 1 KiB block, a chain of 512-bit Montgomery
//! multiplications, read-modify-writes at pseudo-random places in an
//! 8 MiB table, and short-lived heap blocks of assorted sizes — the mix
//! of integer arithmetic, cache misses and allocation the workloads are
//! made of. Its inputs never depend on the seed.
//!
//! A slice of the kernel runs between rounds (and between set-up
//! builds), and each round's figures are scaled by the machine's speed
//! around it relative to [`REFERENCE_LOOPS_PER_S`]. A shared host whose
//! speed drifts — clock frequency, neighbours in the caches and the
//! memory system — slows the kernel with the workload, so scaling takes
//! most of that drift out of the figures (measurements in the package
//! README). Each slice first reads the whole table in order, so the
//! cache state a round leaves behind does not carry into the slice.

use std::hint::black_box;

use crate::clock;

/// Kernel loops per CPU second on the reference machine: the median
/// between rounds on a 2-vCPU Xeon VM.
pub const REFERENCE_LOOPS_PER_S: f64 = 27_500.0;

/// Timed loops per slice, about 15 ms on the reference machine, after
/// a few untimed ones.
const SLICE_LOOPS: u32 = 400;
const WARM_LOOPS: u32 = 20;

/// Slices behind the score printed at the start of a run.
const SCORE_SLICES: usize = 15;

const TABLE_WORDS: usize = 1 << 20;
/// Resident size of the kernel's table, which the run's peak RSS leaves
/// out.
pub const TABLE_BYTES: usize = TABLE_WORDS * 8;
const TOUCHES_PER_LOOP: usize = 256;
const MULS_PER_LOOP: usize = 16;
const ALLOCS_PER_LOOP: usize = 8;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 compression of `block` into `h`.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *x = x.wrapping_add(y);
    }
}

/// SHA-256 of a message whose length is a multiple of 64 bytes or not.
fn sha256(msg: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let mut tail = msg.chunks_exact(64);
    for block in &mut tail {
        compress(&mut h, block);
    }
    let rest = tail.remainder();
    let mut last = [0u8; 128];
    last[..rest.len()].copy_from_slice(rest);
    last[rest.len()] = 0x80;
    let blocks = if rest.len() < 56 { 1 } else { 2 };
    let bits = (msg.len() as u64) * 8;
    last[blocks * 64 - 8..blocks * 64].copy_from_slice(&bits.to_be_bytes());
    for block in last[..blocks * 64].chunks_exact(64) {
        compress(&mut h, block);
    }
    let mut out = [0u8; 32];
    for (o, x) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&x.to_be_bytes());
    }
    out
}

type Limbs = [u64; 8];

/// `a * b / 2^512 mod m` (Montgomery, operand scanning), for odd `m`
/// and `n0 = -m^-1 mod 2^64`.
fn mont_mul(a: &Limbs, b: &Limbs, m: &Limbs, n0: u64) -> Limbs {
    let mut t = [0u64; 10];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..8 {
            let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[8]) + carry;
        t[8] = s as u64;
        t[9] = (s >> 64) as u64;

        let u = t[0].wrapping_mul(n0);
        let mut carry = (u128::from(t[0]) + u128::from(u) * u128::from(m[0])) >> 64;
        for j in 1..8 {
            let s = u128::from(t[j]) + u128::from(u) * u128::from(m[j]) + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[8]) + carry;
        t[7] = s as u64;
        t[8] = t[9] + (s >> 64) as u64;
        t[9] = 0;
    }
    let mut out = [0u64; 8];
    out.copy_from_slice(&t[..8]);
    let ge = t[8] != 0
        || (0..8)
            .rev()
            .find(|&i| out[i] != m[i])
            .is_none_or(|i| out[i] > m[i]);
    if ge {
        let mut borrow = 0u64;
        for j in 0..8 {
            let (d, b1) = out[j].overflowing_sub(m[j]);
            let (d, b2) = d.overflowing_sub(borrow);
            out[j] = d;
            borrow = u64::from(b1 || b2);
        }
    }
    out
}

/// The calibration kernel and its working set.
pub struct Meter {
    block: Vec<u8>,
    modulus: Limbs,
    n0: u64,
    acc: Limbs,
    table: Vec<u64>,
    at: usize,
}

impl Meter {
    pub fn new() -> Self {
        let mut block = vec![0u8; 1024];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i * 131 % 251) as u8;
        }
        let mut modulus = [0u64; 8];
        for (i, limb) in modulus.iter_mut().enumerate() {
            let d = sha256(&[b'm', i as u8]);
            *limb = u64::from_le_bytes(d[..8].try_into().expect("8 bytes"));
        }
        modulus[7] |= 1 << 63;
        modulus[0] |= 1;
        // Newton's iteration for m^-1 mod 2^64 doubles the correct bits.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(modulus[0].wrapping_mul(inv)));
        }
        let table = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Meter {
            block,
            modulus,
            n0: inv.wrapping_neg(),
            acc: [1; 8],
            table,
            at: 0,
        }
    }

    fn step(&mut self) {
        let digest = sha256(black_box(&self.block));
        let mut x = [0u64; 8];
        for (limb, bytes) in x.iter_mut().zip(digest.chunks_exact(8).cycle()) {
            *limb = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        }
        for _ in 0..MULS_PER_LOOP {
            self.acc = mont_mul(&self.acc, &x, &self.modulus, self.n0);
        }
        let mut at = self.at ^ self.acc[0] as usize;
        for _ in 0..TOUCHES_PER_LOOP {
            at = (self.table[at % TABLE_WORDS] as usize ^ at.wrapping_mul(0x9e37_79b1))
                % TABLE_WORDS;
            self.table[at] = self.table[at].wrapping_add(1);
        }
        self.at = at;
        let mut sum = 0u8;
        for i in 0..ALLOCS_PER_LOOP {
            let len = 32 << ((self.acc[i] as usize + at) % 7);
            let heap = black_box(vec![i as u8; len]);
            sum = sum.wrapping_add(heap[len - 1]);
        }
        self.block[at % 1024] ^= sum;
    }

    /// Kernel loops per CPU second over one slice.
    pub fn loops_per_s(&mut self) -> f64 {
        let mut sum = 0u64;
        for line in self.table.chunks_exact(8) {
            sum = sum.wrapping_add(line[0]);
        }
        self.at ^= black_box(sum) as usize & 1;
        for _ in 0..WARM_LOOPS {
            self.step();
        }
        let t = clock::now();
        for _ in 0..SLICE_LOOPS {
            self.step();
        }
        f64::from(SLICE_LOOPS) / t.elapsed().as_secs_f64()
    }

    /// The machine's speed over one slice, relative to the reference
    /// machine (1.0 = as fast, 0.5 = half as fast).
    pub fn speed(&mut self) -> f64 {
        self.loops_per_s() / REFERENCE_LOOPS_PER_S
    }
}

/// Calibration score: median kernel loops per CPU second over a few
/// slices, after one untimed slice.
pub fn score(meter: &mut Meter) -> f64 {
    meter.loops_per_s();
    let rates: Vec<f64> = (0..SCORE_SLICES).map(|_| meter.loops_per_s()).collect();
    crate::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_the_workspace_sha256() {
        for len in [0usize, 3, 55, 56, 64, 100, 1024] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            assert_eq!(
                sha256(&msg),
                gridsec_crypto::sha256::sha256(&msg),
                "length {len}"
            );
        }
    }

    #[test]
    fn montgomery_multiplication_by_r_is_the_identity() {
        let m = Meter::new();
        // R mod m = 2^512 - m, as m > 2^511; x * R / R = x for x < m.
        let mut r = m.modulus.map(|limb| !limb);
        for limb in &mut r {
            let (sum, carry) = limb.overflowing_add(1);
            *limb = sum;
            if !carry {
                break;
            }
        }
        let mut x = [0u64; 8];
        x[0] = 12_345;
        x[3] = 678;
        x[7] = 9;
        assert_eq!(mont_mul(&x, &r, &m.modulus, m.n0), x);
    }
}
