//! Two's-complement bit-vector arithmetic over circuit edges.
//!
//! This is how Alloy-style integers (`Int`, cardinality, `sum`) are
//! bit-blasted into the boolean circuit — the machinery whose cost the
//! paper's "Abstractions Efficiency" section measures and then avoids by
//! introducing the `value` signature.

use crate::circuit::{Circuit, B};

/// A signed (two's complement) bit vector, least-significant bit first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    bits: Vec<B>,
}

impl BitVec {
    /// Builds a constant of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not representable in `width` signed bits.
    pub fn constant(c: &Circuit, value: i64, width: usize) -> BitVec {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        let lo = -(1i64 << (width - 1));
        let hi = (1i64 << (width - 1)) - 1;
        assert!(
            (lo..=hi).contains(&value),
            "constant {value} not representable in {width} signed bits"
        );
        let bits = (0..width)
            .map(|i| c.constant(value >> i & 1 == 1))
            .collect();
        BitVec { bits }
    }

    /// Builds a bit vector from raw edges (LSB first).
    pub fn from_bits(bits: Vec<B>) -> BitVec {
        assert!(!bits.is_empty(), "bit vectors must be non-empty");
        BitVec { bits }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The raw edges, LSB first.
    pub fn bits(&self) -> &[B] {
        &self.bits
    }

    /// The sign bit (MSB).
    pub fn sign(&self) -> B {
        *self.bits.last().expect("non-empty")
    }

    /// Sign-extends (or keeps) to `width` bits.
    pub fn sign_extend(&self, width: usize) -> BitVec {
        assert!(width >= self.width(), "cannot shrink via sign_extend");
        let mut bits = self.bits.clone();
        let s = self.sign();
        bits.resize(width, s);
        BitVec { bits }
    }

    /// Evaluates to a concrete integer under an input assignment.
    pub fn eval(&self, c: &Circuit, inputs: &dyn Fn(u32) -> bool) -> i64 {
        let mut v: i64 = 0;
        for (i, &b) in self.bits.iter().enumerate() {
            if c.eval(b, inputs) {
                v |= 1 << i;
            }
        }
        // Sign extension of the MSB.
        let w = self.width();
        if v >> (w - 1) & 1 == 1 {
            v |= !0i64 << w;
        }
        v
    }
}

/// Arithmetic constructors; free functions because they need `&mut Circuit`.
impl Circuit {
    /// Adds two bit vectors (ripple carry). Operands are sign-extended to a
    /// common width plus one bit, so the result never overflows.
    pub fn bv_add(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let w = a.width().max(b.width()) + 1;
        let a = a.sign_extend(w);
        let b = b.sign_extend(w);
        let mut bits = Vec::with_capacity(w);
        let mut carry = self.fls();
        for i in 0..w {
            let (x, y) = (a.bits[i], b.bits[i]);
            let xy = self.xor2(x, y);
            bits.push(self.xor2(xy, carry));
            let both = self.and2(x, y);
            let cprop = self.and2(xy, carry);
            carry = self.or2(both, cprop);
        }
        BitVec { bits }
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: &BitVec) -> BitVec {
        // -a = ~a + 1, widened one bit to represent -MIN.
        let w = a.width() + 1;
        let a = a.sign_extend(w);
        let inverted = BitVec {
            bits: a.bits.iter().map(|&b| !b).collect(),
        };
        let one = BitVec::constant(self, 1, w);
        self.bv_add(&inverted, &one)
    }

    /// Subtraction `a - b`.
    pub fn bv_sub(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let nb = self.bv_neg(b);
        self.bv_add(a, &nb)
    }

    /// Bit-vector equality.
    pub fn bv_eq(&mut self, a: &BitVec, b: &BitVec) -> B {
        let w = a.width().max(b.width());
        let a = a.sign_extend(w);
        let b = b.sign_extend(w);
        let eqs: Vec<B> = (0..w).map(|i| self.iff2(a.bits[i], b.bits[i])).collect();
        self.and_many(w, eqs.into_iter().enumerate())
    }

    /// Signed `a < b`.
    pub fn bv_lt(&mut self, a: &BitVec, b: &BitVec) -> B {
        let w = a.width().max(b.width());
        let a = a.sign_extend(w);
        let b = b.sign_extend(w);
        // Lexicographic compare from MSB down, with the sign bit inverted
        // (for signed order, 1 < 0 at the sign position).
        let mut lt = self.fls();
        let mut eq_so_far = self.tru();
        for i in (0..w).rev() {
            let (x, y) = (a.bits[i], b.bits[i]);
            let bit_lt = if i == w - 1 {
                self.and2(x, !y) // sign: negative < non-negative
            } else {
                self.and2(!x, y)
            };
            let contrib = self.and2(eq_so_far, bit_lt);
            lt = self.or2(lt, contrib);
            let bit_eq = self.iff2(x, y);
            eq_so_far = self.and2(eq_so_far, bit_eq);
        }
        lt
    }

    /// Signed `a <= b`.
    pub fn bv_le(&mut self, a: &BitVec, b: &BitVec) -> B {
        let gt = self.bv_lt(b, a);
        !gt
    }

    /// Multiplexer over bit vectors.
    pub fn bv_ite(&mut self, cond: B, t: &BitVec, e: &BitVec) -> BitVec {
        let w = t.width().max(e.width());
        let t = t.sign_extend(w);
        let e = e.sign_extend(w);
        let bits = (0..w)
            .map(|i| self.ite(cond, t.bits[i], e.bits[i]))
            .collect();
        BitVec { bits }
    }

    /// Sums a collection of bit vectors with a balanced adder tree.
    /// Returns the zero constant (width 1) for an empty collection.
    pub fn bv_sum(&mut self, terms: Vec<BitVec>) -> BitVec {
        let mut layer = terms;
        if layer.is_empty() {
            return BitVec::constant(self, 0, 1);
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(self.bv_add(&a, &b)),
                    None => next.push(a),
                }
            }
            layer = next;
        }
        layer.pop().expect("non-empty")
    }

    /// Counts true edges: the cardinality circuit. Each edge becomes the
    /// one-bit vector `0b0?` (two bits so the value is non-negative).
    pub fn bv_count(&mut self, edges: &[B]) -> BitVec {
        let terms: Vec<BitVec> = edges
            .iter()
            .map(|&e| BitVec::from_bits(vec![e, self.fls()]))
            .collect();
        self.bv_sum(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a binary i64 operation against its circuit.
    fn check_binop(
        lo: i64,
        hi: i64,
        width: usize,
        circuit_op: impl Fn(&mut Circuit, &BitVec, &BitVec) -> BitVec,
        reference: impl Fn(i64, i64) -> i64,
    ) {
        for a in lo..=hi {
            for b in lo..=hi {
                let mut c = Circuit::new();
                let av = BitVec::constant(&c, a, width);
                let bv = BitVec::constant(&c, b, width);
                let r = circuit_op(&mut c, &av, &bv);
                assert_eq!(r.eval(&c, &|_| false), reference(a, b), "op({a},{b})");
            }
        }
    }

    #[test]
    fn constant_roundtrip() {
        let c = Circuit::new();
        for v in -8..=7 {
            let bv = BitVec::constant(&c, v, 4);
            assert_eq!(bv.eval(&c, &|_| false), v);
        }
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn constant_overflow_panics() {
        let c = Circuit::new();
        BitVec::constant(&c, 8, 4);
    }

    #[test]
    fn add_exhaustive_4bit() {
        check_binop(-8, 7, 4, |c, a, b| c.bv_add(a, b), |a, b| a + b);
    }

    #[test]
    fn sub_exhaustive_4bit() {
        check_binop(-8, 7, 4, |c, a, b| c.bv_sub(a, b), |a, b| a - b);
    }

    #[test]
    fn neg_exhaustive() {
        for a in -8..=7 {
            let mut c = Circuit::new();
            let av = BitVec::constant(&c, a, 4);
            let r = c.bv_neg(&av);
            assert_eq!(r.eval(&c, &|_| false), -a);
        }
    }

    #[test]
    fn comparisons_exhaustive() {
        for a in -4..=3 {
            for b in -4..=3 {
                let mut c = Circuit::new();
                let av = BitVec::constant(&c, a, 3);
                let bv = BitVec::constant(&c, b, 3);
                let lt = c.bv_lt(&av, &bv);
                let le = c.bv_le(&av, &bv);
                let eq = c.bv_eq(&av, &bv);
                assert_eq!(c.eval(lt, &|_| false), a < b, "{a} < {b}");
                assert_eq!(c.eval(le, &|_| false), a <= b, "{a} <= {b}");
                assert_eq!(c.eval(eq, &|_| false), a == b, "{a} == {b}");
            }
        }
    }

    #[test]
    fn mixed_width_comparison() {
        let mut c = Circuit::new();
        let a = BitVec::constant(&c, -3, 3);
        let b = BitVec::constant(&c, 5, 6);
        let lt = c.bv_lt(&a, &b);
        assert!(c.eval(lt, &|_| false));
    }

    #[test]
    fn ite_selects() {
        let mut c = Circuit::new();
        let s = c.input();
        let t = BitVec::constant(&c, 5, 5);
        let e = BitVec::constant(&c, -3, 5);
        let r = c.bv_ite(s, &t, &e);
        assert_eq!(r.eval(&c, &|_| true), 5);
        assert_eq!(r.eval(&c, &|_| false), -3);
    }

    #[test]
    fn sum_of_constants() {
        let mut c = Circuit::new();
        let terms: Vec<BitVec> = [1, 2, 3, 4, 5]
            .iter()
            .map(|&v| BitVec::constant(&c, v, 4))
            .collect();
        let s = c.bv_sum(terms);
        assert_eq!(s.eval(&c, &|_| false), 15);
    }

    #[test]
    fn empty_sum_is_zero() {
        let mut c = Circuit::new();
        let s = c.bv_sum(Vec::new());
        assert_eq!(s.eval(&c, &|_| false), 0);
    }

    #[test]
    fn count_matches_popcount() {
        for bits in 0..32u32 {
            let mut c = Circuit::new();
            let edges: Vec<B> = (0..5).map(|_| c.input()).collect();
            let cnt = c.bv_count(&edges);
            let env = move |i: u32| bits >> i & 1 == 1;
            assert_eq!(cnt.eval(&c, &env), bits.count_ones() as i64);
        }
    }

    #[test]
    fn sum_with_inputs_via_cnf() {
        // sum of ite(x_i, i+1, 0) for 3 inputs must equal 6 iff all inputs set.
        let mut c = Circuit::new();
        let xs: Vec<B> = (0..3).map(|_| c.input()).collect();
        let zero = BitVec::constant(&c, 0, 4);
        let terms: Vec<BitVec> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let v = BitVec::constant(&c, i as i64 + 1, 4);
                c.bv_ite(x, &v, &zero)
            })
            .collect();
        let s = c.bv_sum(terms);
        let six = BitVec::constant(&c, 6, 4);
        let is_six = c.bv_eq(&s, &six);
        let (cnf, input_vars) = c.to_cnf(&[is_six]);
        let mut solver = cnf.to_solver();
        assert!(solver.solve().is_sat());
        let m = solver.model().unwrap();
        assert!(input_vars.iter().all(|&v| m.value(v)));
    }
}
