//! GF(2^8) arithmetic — the symbol field of the Chipkill code.
//!
//! Uses the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D) with
//! generator α = 2, the conventional choice for RS codes over bytes.
//! Log/antilog tables are built once at first use.

/// The primitive polynomial 0x11D reduced to 8 bits (0x1D) after the x^8 term.
const POLY: u16 = 0x11D;

/// Precomputed exp/log tables for GF(2^8).
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate the table so exp[(a+b) mod 255] lookups need no modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Raises the generator α (=2) to the power `e`.
#[inline]
pub fn alpha_pow(e: usize) -> u8 {
    tables().exp[e % 255]
}

/// Discrete log base α of a nonzero element.
///
/// # Panics
///
/// Panics if `a == 0`.
#[inline]
pub fn log(a: u8) -> usize {
    assert!(a != 0, "log of zero is undefined");
    tables().log[a as usize] as usize
}

/// Builds the 256-entry multiplication row for a fixed coefficient:
/// `row[x] = coeff · x`. One log lookup for the coefficient plus one
/// exp lookup per entry — after which multiplying *any* byte by `coeff`
/// is a single indexed load. This is what the Chipkill encoder and
/// syndrome tables use to avoid the double-log-lookup of [`mul`] per byte.
pub fn mul_row(coeff: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    if coeff == 0 {
        return row;
    }
    let t = tables();
    let lc = t.log[coeff as usize] as usize;
    for (x, r) in row.iter_mut().enumerate().skip(1) {
        *r = t.exp[lc + t.log[x] as usize];
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
        }
    }

    #[test]
    fn mul_commutative() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn mul_associative() {
        for a in (1..=255u8).step_by(17) {
            for b in (1..=255u8).step_by(23) {
                for c in (1..=255u8).step_by(29) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    /// The linearity `Chipkill`'s check and syndrome tables rest on.
    #[test]
    fn mul_distributes_over_xor() {
        for a in (0..=255u8).step_by(13) {
            for b in (0..=255u8).step_by(19) {
                for c in (0..=255u8).step_by(31) {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn alpha_has_order_255() {
        assert_eq!(alpha_pow(0), 1);
        assert_eq!(alpha_pow(255), 1);
        // No smaller power returns to 1 (α is primitive).
        for e in 1..255 {
            assert_ne!(alpha_pow(e), 1, "alpha^{e} == 1");
        }
    }

    #[test]
    fn log_inverts_alpha_pow() {
        for e in 0..255 {
            assert_eq!(log(alpha_pow(e)), e);
        }
    }

    #[test]
    fn mul_row_matches_mul_exhaustively() {
        for coeff in 0..=255u8 {
            let row = mul_row(coeff);
            for x in 0..=255u8 {
                assert_eq!(row[x as usize], mul(coeff, x), "coeff={coeff} x={x}");
            }
        }
    }
}
