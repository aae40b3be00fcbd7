//! Lane ALU semantics.
//!
//! The scalar lane functions ([`ibin`], [`fbin`], [`fun`], [`cmp`] and
//! the unary [`ineg`], [`iabs`], [`not`], [`cvt_if`], [`cvt_fi`]) are the
//! single definition of what each opcode computes for one lane. The
//! `*_lanes` kernels lift them to whole 32-lane register rows, the form
//! `Sm::issue` executes: the opcode `match` runs once per
//! warp-instruction, outside the lane loop, and each arm is its own
//! monomorphic loop in which the lane function's inner `match` folds to
//! the one opcode — a straight-line loop the compiler can vectorize.
//!
//! Every lane function is total (integer division guards zero, float ops
//! never trap), so a kernel computes all 32 lanes without branching and
//! the active mask is applied once, at the register write
//! ([`write_masked`]).

use crate::bytecode::{CmpOp, FBinOp, FUnOp, IBinOp};

/// One register across the 32 lanes of a warp.
pub(crate) type Row = [u32; 32];

/// Expand `$body` once per listed variant with `$o` bound to that
/// variant, so every arm instantiates its own lane loop.
macro_rules! per_variant {
    ($op:expr, $ty:ident { $($v:ident),+ $(,)? }, $o:ident => $body:expr) => {
        match $op {
            $($ty::$v => {
                let $o = $ty::$v;
                $body
            })+
        }
    };
}

#[inline(always)]
pub(crate) fn map1(a: &Row, f: impl Fn(u32) -> u32) -> Row {
    let mut out = [0u32; 32];
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
    out
}

#[inline(always)]
fn map2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) -> Row {
    let mut out = [0u32; 32];
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
    out
}

/// Integer binary op over a row pair.
pub(crate) fn ibin_lanes(op: IBinOp, a: &Row, b: &Row) -> Row {
    per_variant!(
        op,
        IBinOp { Add, Sub, Mul, Div, Rem, Min, Max, Shl, Shr, And, Or, Xor },
        o => map2(a, b, |x, y| ibin(o, x, y))
    )
}

/// Float binary op over a row pair.
pub(crate) fn fbin_lanes(op: FBinOp, a: &Row, b: &Row) -> Row {
    per_variant!(
        op,
        FBinOp { Add, Sub, Mul, Div, Min, Max, Pow },
        o => map2(a, b, |x, y| fbin(o, x, y))
    )
}

/// Float unary op over a row.
pub(crate) fn fun_lanes(op: FUnOp, a: &Row) -> Row {
    per_variant!(
        op,
        FUnOp { Neg, Sqrt, Exp, Log, Abs, Sin, Cos },
        o => map1(a, |x| fun(o, x))
    )
}

/// Comparison over a row pair: 1 where it holds, 0 elsewhere.
pub(crate) fn cmp_lanes(op: CmpOp, float: bool, a: &Row, b: &Row) -> Row {
    if float {
        per_variant!(
            op,
            CmpOp { Lt, Le, Gt, Ge, Eq, Ne },
            o => map2(a, b, |x, y| cmp(o, true, x, y) as u32)
        )
    } else {
        per_variant!(
            op,
            CmpOp { Lt, Le, Gt, Ge, Eq, Ne },
            o => map2(a, b, |x, y| cmp(o, false, x, y) as u32)
        )
    }
}

/// Per-lane select: `a` where `c` is non-zero, `b` elsewhere.
pub(crate) fn sel_lanes(c: &Row, a: &Row, b: &Row) -> Row {
    let mut out = [0u32; 32];
    for (l, o) in out.iter_mut().enumerate() {
        *o = if c[l] != 0 { a[l] } else { b[l] };
    }
    out
}

/// Write `vals` into `dst` on the `active` lanes only: inactive lanes
/// (diverged, loop-finished, or returned) keep their registers, exactly
/// as predicated execution works in hardware. A fully-active warp — the
/// common case — takes one array store.
#[inline]
pub(crate) fn write_masked(dst: &mut Row, vals: &Row, active: u32) {
    if active == u32::MAX {
        *dst = *vals;
    } else {
        for (l, (d, &v)) in dst.iter_mut().zip(vals).enumerate() {
            if active & (1 << l) != 0 {
                *d = v;
            }
        }
    }
}

// ----- scalar lane semantics -------------------------------------------------

#[inline(always)]
pub(crate) fn ibin(op: IBinOp, a: u32, b: u32) -> u32 {
    let (ia, ib) = (a as i32, b as i32);
    match op {
        IBinOp::Add => ia.wrapping_add(ib) as u32,
        IBinOp::Sub => ia.wrapping_sub(ib) as u32,
        IBinOp::Mul => ia.wrapping_mul(ib) as u32,
        IBinOp::Div => {
            if ib == 0 {
                0
            } else {
                ia.wrapping_div(ib) as u32
            }
        }
        IBinOp::Rem => {
            if ib == 0 {
                0
            } else {
                ia.wrapping_rem(ib) as u32
            }
        }
        IBinOp::Min => ia.min(ib) as u32,
        IBinOp::Max => ia.max(ib) as u32,
        IBinOp::Shl => ia.wrapping_shl(b & 31) as u32,
        IBinOp::Shr => ia.wrapping_shr(b & 31) as u32,
        IBinOp::And => a & b,
        IBinOp::Or => a | b,
        IBinOp::Xor => a ^ b,
    }
}

#[inline(always)]
pub(crate) fn fbin(op: FBinOp, a: u32, b: u32) -> u32 {
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FBinOp::Add => fa + fb,
        FBinOp::Sub => fa - fb,
        FBinOp::Mul => fa * fb,
        FBinOp::Div => fa / fb,
        FBinOp::Min => fa.min(fb),
        FBinOp::Max => fa.max(fb),
        FBinOp::Pow => fa.powf(fb),
    };
    r.to_bits()
}

#[inline(always)]
pub(crate) fn fun(op: FUnOp, a: u32) -> u32 {
    let fa = f32::from_bits(a);
    let r = match op {
        FUnOp::Neg => -fa,
        FUnOp::Sqrt => fa.sqrt(),
        FUnOp::Exp => fa.exp(),
        FUnOp::Log => fa.ln(),
        FUnOp::Abs => fa.abs(),
        FUnOp::Sin => fa.sin(),
        FUnOp::Cos => fa.cos(),
    };
    r.to_bits()
}

#[inline(always)]
pub(crate) fn cmp(op: CmpOp, float: bool, a: u32, b: u32) -> bool {
    if float {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        match op {
            CmpOp::Lt => fa < fb,
            CmpOp::Le => fa <= fb,
            CmpOp::Gt => fa > fb,
            CmpOp::Ge => fa >= fb,
            CmpOp::Eq => fa == fb,
            CmpOp::Ne => fa != fb,
        }
    } else {
        let (ia, ib) = (a as i32, b as i32);
        match op {
            CmpOp::Lt => ia < ib,
            CmpOp::Le => ia <= ib,
            CmpOp::Gt => ia > ib,
            CmpOp::Ge => ia >= ib,
            CmpOp::Eq => ia == ib,
            CmpOp::Ne => ia != ib,
        }
    }
}

#[inline(always)]
pub(crate) fn ineg(a: u32) -> u32 {
    (a as i32).wrapping_neg() as u32
}

#[inline(always)]
pub(crate) fn iabs(a: u32) -> u32 {
    (a as i32).wrapping_abs() as u32
}

/// Logical not: 1 for zero, 0 otherwise.
#[inline(always)]
pub(crate) fn not(a: u32) -> u32 {
    u32::from(a == 0)
}

/// Signed integer to float (round to nearest).
#[inline(always)]
pub(crate) fn cvt_if(a: u32) -> u32 {
    (a as i32 as f32).to_bits()
}

/// Float to signed integer (truncating; saturating, NaN to 0).
#[inline(always)]
pub(crate) fn cvt_fi(a: u32) -> u32 {
    f32::from_bits(a) as i32 as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_prng::Rng;

    const IBIN: [IBinOp; 12] = [
        IBinOp::Add,
        IBinOp::Sub,
        IBinOp::Mul,
        IBinOp::Div,
        IBinOp::Rem,
        IBinOp::Min,
        IBinOp::Max,
        IBinOp::Shl,
        IBinOp::Shr,
        IBinOp::And,
        IBinOp::Or,
        IBinOp::Xor,
    ];
    const FBIN: [FBinOp; 7] = [
        FBinOp::Add,
        FBinOp::Sub,
        FBinOp::Mul,
        FBinOp::Div,
        FBinOp::Min,
        FBinOp::Max,
        FBinOp::Pow,
    ];
    const FUN: [FUnOp; 7] = [
        FUnOp::Neg,
        FUnOp::Sqrt,
        FUnOp::Exp,
        FUnOp::Log,
        FUnOp::Abs,
        FUnOp::Sin,
        FUnOp::Cos,
    ];
    const CMP: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    /// Integer lane values that hit every guarded or wrapping edge:
    /// zero divisors, `i32::MIN / -1`, shift amounts at and past 32.
    const INT_EDGES: [u32; 12] = [
        0,
        1,
        2,
        7,
        31,
        32,
        33,
        255,
        u32::MAX,        // -1
        i32::MIN as u32, // with -1: the one overflowing division
        i32::MAX as u32,
        (-7i32) as u32,
    ];

    /// Float lane values: signed zeros, infinities, NaNs (quiet, with a
    /// payload, negative), subnormals and ordinary numbers.
    fn float_edges() -> Vec<u32> {
        let mut v: Vec<u32> = [
            0.0f32,
            -0.0,
            1.0,
            -2.5,
            0.5,
            3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            100.0,
        ]
        .iter()
        .map(|f| f.to_bits())
        .collect();
        v.push(0x7fc0_1234); // quiet NaN with a payload
        v.push(0xffc0_0000); // negative NaN
        v
    }

    /// Rows pairing every edge value with every other one (spread over
    /// as many rows as needed), plus random rows.
    fn row_pairs(edges: &[u32], rng: &mut Rng) -> Vec<(Row, Row)> {
        let pairs: Vec<(u32, u32)> = edges
            .iter()
            .flat_map(|&x| edges.iter().map(move |&y| (x, y)))
            .collect();
        let mut rows: Vec<(Row, Row)> = pairs
            .chunks(32)
            .map(|c| {
                let (mut a, mut b) = ([0u32; 32], [0u32; 32]);
                for (l, &(x, y)) in c.iter().enumerate() {
                    a[l] = x;
                    b[l] = y;
                }
                (a, b)
            })
            .collect();
        for _ in 0..16 {
            let mut a = [0u32; 32];
            let mut b = [0u32; 32];
            for l in 0..32 {
                a[l] = rng.next_u32();
                b[l] = if rng.bool(0.25) {
                    *rng.choose(edges)
                } else {
                    rng.next_u32()
                };
            }
            rows.push((a, b));
        }
        rows
    }

    #[test]
    fn ibin_lanes_match_the_lane_function() {
        let mut rng = Rng::seed(0x1b1);
        for (a, b) in row_pairs(&INT_EDGES, &mut rng) {
            for op in IBIN {
                let got = ibin_lanes(op, &a, &b);
                for l in 0..32 {
                    assert_eq!(got[l], ibin(op, a[l], b[l]), "{op:?} lane {l}");
                }
            }
        }
    }

    /// Bit equality, except that any two NaNs match: Rust leaves the
    /// payload of a NaN *result* unspecified (with two NaN operands the
    /// generated code may return either one's), so it can differ between
    /// two compilations of the same expression.
    fn same_float_bits(x: u32, y: u32) -> bool {
        x == y || (f32::from_bits(x).is_nan() && f32::from_bits(y).is_nan())
    }

    #[test]
    fn fbin_and_fun_lanes_match_the_lane_functions_bit_for_bit() {
        let mut rng = Rng::seed(0xf10);
        for (a, b) in row_pairs(&float_edges(), &mut rng) {
            for op in FBIN {
                let got = fbin_lanes(op, &a, &b);
                for l in 0..32 {
                    let want = fbin(op, a[l], b[l]);
                    assert!(
                        same_float_bits(got[l], want),
                        "{op:?} lane {l}: {:#x} vs {want:#x}",
                        got[l]
                    );
                }
            }
            for op in FUN {
                let got = fun_lanes(op, &a);
                for l in 0..32 {
                    let want = fun(op, a[l]);
                    assert!(
                        same_float_bits(got[l], want),
                        "{op:?} lane {l}: {:#x} vs {want:#x}",
                        got[l]
                    );
                }
            }
        }
    }

    #[test]
    fn unary_lanes_match_the_lane_functions() {
        let mut rng = Rng::seed(0x0e6);
        let mut edges = float_edges();
        edges.extend_from_slice(&INT_EDGES);
        type Lane = fn(u32) -> u32;
        let unary: [(&str, Lane); 5] = [
            ("ineg", ineg),
            ("iabs", iabs),
            ("not", not),
            ("cvt_if", cvt_if),
            ("cvt_fi", cvt_fi),
        ];
        for (a, _) in row_pairs(&edges, &mut rng) {
            for (name, f) in unary {
                let got = map1(&a, f);
                for l in 0..32 {
                    assert_eq!(got[l], f(a[l]), "{name} lane {l}");
                }
            }
        }
        assert_eq!(ineg(i32::MIN as u32), i32::MIN as u32, "negation wraps");
        assert_eq!(iabs(i32::MIN as u32), i32::MIN as u32, "abs wraps");
        assert_eq!(cvt_fi(f32::NAN.to_bits()), 0);
        assert_eq!(cvt_fi(f32::INFINITY.to_bits()), i32::MAX as u32);
    }

    #[test]
    fn cmp_and_sel_lanes_match_the_lane_functions() {
        let mut rng = Rng::seed(0xc3b);
        let mut edges = float_edges();
        edges.extend_from_slice(&INT_EDGES);
        for (a, b) in row_pairs(&edges, &mut rng) {
            for float in [false, true] {
                for op in CMP {
                    let got = cmp_lanes(op, float, &a, &b);
                    for l in 0..32 {
                        assert_eq!(got[l], cmp(op, float, a[l], b[l]) as u32, "{op:?}");
                    }
                }
            }
            let c = cmp_lanes(CmpOp::Lt, false, &a, &b);
            let got = sel_lanes(&c, &a, &b);
            for l in 0..32 {
                assert_eq!(got[l], if c[l] != 0 { a[l] } else { b[l] });
            }
        }
    }

    #[test]
    fn write_masked_touches_only_active_lanes() {
        let vals: Row = std::array::from_fn(|l| 100 + l as u32);
        for active in [0u32, u32::MAX, 0x8000_0001, 0x0f0f_0f0f] {
            let mut d: Row = [7; 32];
            write_masked(&mut d, &vals, active);
            for l in 0..32 {
                let want = if active & (1 << l) != 0 { vals[l] } else { 7 };
                assert_eq!(d[l], want, "mask {active:#x} lane {l}");
            }
        }
    }

    #[test]
    fn integer_division_by_zero_is_zero() {
        assert_eq!(ibin(IBinOp::Div, 7, 0), 0);
        assert_eq!(ibin(IBinOp::Rem, 7, 0), 0);
    }

    #[test]
    fn signed_semantics() {
        assert_eq!(ibin(IBinOp::Div, (-7i32) as u32, 2) as i32, -3);
        assert_eq!(ibin(IBinOp::Min, (-1i32) as u32, 1) as i32, -1);
        assert_eq!(ibin(IBinOp::Shr, (-8i32) as u32, 1) as i32, -4);
        assert_eq!(
            ibin(IBinOp::Div, i32::MIN as u32, u32::MAX),
            i32::MIN as u32
        );
        assert_eq!(ibin(IBinOp::Rem, i32::MIN as u32, u32::MAX), 0);
        assert_eq!(ibin(IBinOp::Shl, 1, 33), 2, "shift amounts wrap mod 32");
    }

    #[test]
    fn float_bit_roundtrip() {
        let r = fbin(FBinOp::Mul, 2.5f32.to_bits(), 4.0f32.to_bits());
        assert_eq!(f32::from_bits(r), 10.0);
        let r = fun(FUnOp::Sqrt, 9.0f32.to_bits());
        assert_eq!(f32::from_bits(r), 3.0);
    }

    #[test]
    fn nan_semantics() {
        let (nan, one) = (f32::NAN.to_bits(), 1.0f32.to_bits());
        // min/max return the non-NaN operand; every compare but `!=` fails.
        assert_eq!(fbin(FBinOp::Min, nan, one), one);
        assert_eq!(fbin(FBinOp::Max, one, nan), one);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
            assert!(!cmp(op, true, nan, one), "{op:?}");
        }
        assert!(cmp(CmpOp::Ne, true, nan, nan));
    }

    #[test]
    fn comparisons() {
        assert!(cmp(CmpOp::Lt, false, (-1i32) as u32, 0));
        assert!(!cmp(CmpOp::Lt, true, 1.0f32.to_bits(), (-2.0f32).to_bits()));
        assert!(cmp(CmpOp::Ne, true, 1.0f32.to_bits(), 2.0f32.to_bits()));
    }
}
