//! A hash-consed And-Inverter Graph with bit-vector helpers.
//!
//! The self-composition encoder lowers both copies of a netlist into one
//! shared AIG: structural hashing makes the two copies of every
//! secret-independent cone collapse to the *same* nodes, so the miter
//! over an untainted signal folds to constant false without any SAT
//! work, and only secret-influenced logic is ever duplicated.
//!
//! Literals are `u32`s: `node << 1 | negated`. Node 0 is the constant
//! TRUE, so [`TRUE`]` == 0` and [`FALSE`]` == 1`. Construction folds
//! constants and idempotent/contradictory operand pairs eagerly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hdl::Value;

/// A deterministic multiply-rotate hasher for small integer keys (the
/// AIG's operand pairs, the encoder's `(cycle, copy, node)` triples).
/// SipHash's DoS resistance buys nothing here: every key is derived
/// from the netlist, and the hot lookups dominate encode time.
#[derive(Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` keyed by small integers under [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// An AIG literal: `node << 1 | negated`.
pub type Lit = u32;

/// The constant-true literal.
pub const TRUE: Lit = 0;
/// The constant-false literal.
pub const FALSE: Lit = 1;

/// Complements a literal.
#[must_use]
pub const fn not(a: Lit) -> Lit {
    a ^ 1
}

/// The node index behind a literal.
#[must_use]
pub const fn node_of(a: Lit) -> u32 {
    a >> 1
}

/// Whether the literal is negated.
#[must_use]
pub const fn is_neg(a: Lit) -> bool {
    a & 1 == 1
}

/// Sentinel operand marking a free input node.
const INPUT: Lit = u32::MAX;

/// Rounds of [`Aig::simulate`], each evaluating 64 patterns at once.
/// About one pattern in 1,200 sets the miter of a debug-port leak in
/// the accelerator, so 4,096 patterns find such a leak ~97% of the
/// time. A miss costs 64 passes, under 0.1 s over that cone's 315k
/// nodes (2-core Xeon): a tenth of the SAT search that follows.
const SIM_ROUNDS: u32 = 64;

/// Seed of the simulation's input stream: every run draws the same
/// patterns, so a simulation-found counterexample repeats exactly.
const SIM_SEED: u64 = 0x5eed_0a16_5eed_0a16;

/// One SplitMix64 step: a full-period 64-bit generator with well-mixed
/// output bits, so every input bit of a pattern is a fair coin.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A little-endian bit vector of AIG literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bv(pub Vec<Lit>);

impl Bv {
    /// Width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The bit at `i`, or FALSE beyond the width (zero extension).
    #[must_use]
    pub fn bit(&self, i: usize) -> Lit {
        self.0.get(i).copied().unwrap_or(FALSE)
    }
}

/// The shared AIG arena.
pub struct Aig {
    /// `(a, b)` operand pairs; `(INPUT, INPUT)` marks a free variable,
    /// node 0 is the constant TRUE.
    nodes: Vec<(Lit, Lit)>,
    cons: IntMap<(Lit, Lit), u32>,
    node_limit: usize,
    overflowed: bool,
}

impl Aig {
    /// An empty graph holding only the constant node.
    #[must_use]
    pub fn new(node_limit: usize) -> Aig {
        Aig {
            nodes: vec![(0, 0)],
            cons: IntMap::default(),
            node_limit,
            overflowed: false,
        }
    }

    /// Number of nodes (constant and inputs included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds only the constant node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Whether the node budget was exhausted. Once set, every literal the
    /// graph hands out is unreliable and the encoding must be abandoned.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Marks the encoding as failed (e.g. an address decoder too wide to
    /// enumerate); the prover reports `Unknown` instead of mis-encoding.
    pub fn mark_overflow(&mut self) {
        self.overflowed = true;
    }

    /// A fresh free variable.
    pub fn var(&mut self) -> Lit {
        let id = self.push((INPUT, INPUT));
        id << 1
    }

    fn push(&mut self, ops: (Lit, Lit)) -> u32 {
        if self.nodes.len() >= self.node_limit {
            self.overflowed = true;
            return 0;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(ops);
        id
    }

    /// Whether a node is a free variable.
    #[must_use]
    pub fn is_input(&self, node: u32) -> bool {
        self.nodes[node as usize] == (INPUT, INPUT)
    }

    /// The operand pair of an AND node (`None` for inputs and the
    /// constant).
    #[must_use]
    pub fn and_operands(&self, node: u32) -> Option<(Lit, Lit)> {
        if node == 0 || self.is_input(node) {
            return None;
        }
        Some(self.nodes[node as usize])
    }

    /// `a ∧ b` with constant folding and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == FALSE || b == FALSE || a == not(b) {
            return FALSE;
        }
        if a == TRUE || a == b {
            return b;
        }
        if b == TRUE {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&id) = self.cons.get(&key) {
            return id << 1;
        }
        let id = self.push(key);
        if !self.overflowed {
            self.cons.insert(key, id);
        }
        id << 1
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        not(self.and(not(a), not(b)))
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let l = self.and(a, not(b));
        let r = self.and(not(a), b);
        self.or(l, r)
    }

    /// `if s { t } else { f }`.
    pub fn mux(&mut self, s: Lit, t: Lit, f: Lit) -> Lit {
        if t == f {
            return t;
        }
        let l = self.and(s, t);
        let r = self.and(not(s), f);
        self.or(l, r)
    }

    /// `a == b` for single bits (XNOR).
    pub fn eq_bit(&mut self, a: Lit, b: Lit) -> Lit {
        not(self.xor(a, b))
    }

    // ---- bit-vector helpers -----------------------------------------

    /// A constant vector.
    #[must_use]
    pub fn bv_const(&self, value: Value, width: usize) -> Bv {
        Bv((0..width)
            .map(|i| if (value >> i) & 1 == 1 { TRUE } else { FALSE })
            .collect())
    }

    /// A vector of fresh variables.
    pub fn bv_var(&mut self, width: usize) -> Bv {
        Bv((0..width).map(|_| self.var()).collect())
    }

    /// Zero-extends or truncates to `width`.
    #[must_use]
    pub fn bv_resize(&self, a: &Bv, width: usize) -> Bv {
        Bv((0..width).map(|i| a.bit(i)).collect())
    }

    /// Bitwise map over two vectors at the width of the result.
    fn bv_zip(&mut self, a: &Bv, b: &Bv, width: usize, f: fn(&mut Aig, Lit, Lit) -> Lit) -> Bv {
        Bv((0..width).map(|i| f(self, a.bit(i), b.bit(i))).collect())
    }

    /// Bitwise AND at `width`.
    pub fn bv_and(&mut self, a: &Bv, b: &Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::and)
    }

    /// Bitwise OR at `width`.
    pub fn bv_or(&mut self, a: &Bv, b: &Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::or)
    }

    /// Bitwise XOR at `width`.
    pub fn bv_xor(&mut self, a: &Bv, b: &Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::xor)
    }

    /// Bitwise complement at `width`.
    pub fn bv_not(&mut self, a: &Bv, width: usize) -> Bv {
        Bv((0..width).map(|i| not(a.bit(i))).collect())
    }

    /// Per-bit mux at the widths of the arms (zero-extending the short
    /// one).
    pub fn bv_mux(&mut self, s: Lit, t: &Bv, f: &Bv, width: usize) -> Bv {
        Bv((0..width)
            .map(|i| self.mux(s, t.bit(i), f.bit(i)))
            .collect())
    }

    /// Ripple-carry adder, result truncated to `width` (wrapping, as the
    /// simulator's `wrapping_add` + mask).
    pub fn bv_add(&mut self, a: &Bv, b: &Bv, width: usize) -> Bv {
        let mut carry = FALSE;
        let mut out = Vec::with_capacity(width);
        for i in 0..width {
            let (x, y) = (a.bit(i), b.bit(i));
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let g = self.and(x, y);
            let p = self.and(xy, carry);
            carry = self.or(g, p);
        }
        Bv(out)
    }

    /// Ripple-borrow subtractor (`a - b`), truncated to `width`.
    pub fn bv_sub(&mut self, a: &Bv, b: &Bv, width: usize) -> Bv {
        let nb = self.bv_not(b, width);
        // a + ~b + 1.
        let mut carry = TRUE;
        let mut out = Vec::with_capacity(width);
        for i in 0..width {
            let (x, y) = (a.bit(i), nb.bit(i));
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let g = self.and(x, y);
            let p = self.and(xy, carry);
            carry = self.or(g, p);
        }
        Bv(out)
    }

    /// `a == b` over `width` bits (zero-extended full-value equality).
    pub fn bv_eq(&mut self, a: &Bv, b: &Bv, width: usize) -> Lit {
        let mut acc = TRUE;
        for i in 0..width {
            let e = self.eq_bit(a.bit(i), b.bit(i));
            acc = self.and(acc, e);
        }
        acc
    }

    /// Unsigned `a < b` over `width` bits.
    pub fn bv_ult(&mut self, a: &Bv, b: &Bv, width: usize) -> Lit {
        // MSB-first compare: lt = (¬a_i ∧ b_i) ∨ ((a_i == b_i) ∧ lt_below).
        let mut lt = FALSE;
        for i in 0..width {
            let (x, y) = (a.bit(i), b.bit(i));
            let here = self.and(not(x), y);
            let same = self.eq_bit(x, y);
            let below = self.and(same, lt);
            lt = self.or(here, below);
        }
        lt
    }

    /// OR-reduce over `width` bits.
    pub fn bv_reduce_or(&mut self, a: &Bv, width: usize) -> Lit {
        let mut acc = FALSE;
        for i in 0..width {
            acc = self.or(acc, a.bit(i));
        }
        acc
    }

    /// AND-reduce over `width` bits.
    pub fn bv_reduce_and(&mut self, a: &Bv, width: usize) -> Lit {
        let mut acc = TRUE;
        for i in 0..width {
            acc = self.and(acc, a.bit(i));
        }
        acc
    }

    /// XOR-reduce (parity) over `width` bits.
    pub fn bv_reduce_xor(&mut self, a: &Bv, width: usize) -> Lit {
        let mut acc = FALSE;
        for i in 0..width {
            acc = self.xor(acc, a.bit(i));
        }
        acc
    }

    /// Binary mux tree: selects `entries[addr]`. The entry list must have
    /// exactly `2^addr_bits.len()` members.
    pub fn bv_select(&mut self, entries: &[Bv], addr_bits: &[Lit], width: usize) -> Bv {
        assert_eq!(entries.len(), 1 << addr_bits.len(), "select shape");
        self.select_window(entries, 0, 1, addr_bits, width)
    }

    /// The mux tree over `entries[start], entries[start + stride], ...`:
    /// splitting on the low address bit halves the window into its even
    /// and odd members without copying them.
    fn select_window(
        &mut self,
        entries: &[Bv],
        start: usize,
        stride: usize,
        addr_bits: &[Lit],
        width: usize,
    ) -> Bv {
        let Some((&low, rest)) = addr_bits.split_first() else {
            return self.bv_resize(&entries[start], width);
        };
        let f = self.select_window(entries, start, stride * 2, rest, width);
        let t = self.select_window(entries, start + stride, stride * 2, rest, width);
        self.bv_mux(low, &t, &f, width)
    }

    /// Evaluates a literal under a model that assigns the *input nodes*
    /// (missing inputs default to false). `memo` must be sized to
    /// [`Aig::len`] and is reusable across calls with the same model.
    #[must_use]
    pub fn eval_lit(
        &self,
        lit: Lit,
        model: &dyn Fn(u32) -> bool,
        memo: &mut [Option<bool>],
    ) -> bool {
        let mut stack = vec![node_of(lit)];
        while let Some(&n) = stack.last() {
            if memo[n as usize].is_some() {
                stack.pop();
                continue;
            }
            if n == 0 {
                memo[0] = Some(true);
                stack.pop();
                continue;
            }
            if self.is_input(n) {
                memo[n as usize] = Some(model(n));
                stack.pop();
                continue;
            }
            let (a, b) = self.nodes[n as usize];
            let (na, nb) = (node_of(a), node_of(b));
            let (va, vb) = (memo[na as usize], memo[nb as usize]);
            match (va, vb) {
                (Some(x), Some(y)) => {
                    let value = (x ^ is_neg(a)) & (y ^ is_neg(b));
                    memo[n as usize] = Some(value);
                    stack.pop();
                }
                _ => {
                    if va.is_none() {
                        stack.push(na);
                    }
                    if vb.is_none() {
                        stack.push(nb);
                    }
                }
            }
        }
        memo[node_of(lit) as usize].expect("evaluated") ^ is_neg(lit)
    }

    /// Evaluates a bit vector under a model into an integer value.
    #[must_use]
    pub fn eval_bv(
        &self,
        bv: &Bv,
        model: &dyn Fn(u32) -> bool,
        memo: &mut [Option<bool>],
    ) -> Value {
        let mut v: Value = 0;
        for (i, &lit) in bv.0.iter().enumerate() {
            if self.eval_lit(lit, model, memo) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Looks for an input pattern that sets one of `diffs`, the
    /// per-cycle difference literals whose disjunction is a prover
    /// miter, by bit-parallel random simulation. Each round draws a
    /// fresh random word per input node and evaluates every node up to
    /// the highest of `diffs` in one forward pass (node order is
    /// topological), 64 patterns per `u64`.
    ///
    /// Returns the hit of the first round that sets any diff: a pattern
    /// whose first true diff comes earliest, and that diff's index. The
    /// pattern is indexed by node and holds the input values of the
    /// diffs' cones; every other node reads `false`, as it does in a
    /// SAT model of the miter's Tseitin encoding. `None` leaves the
    /// query undecided, never proved.
    #[must_use]
    pub fn simulate(&self, diffs: &[Lit]) -> Option<(Vec<bool>, u32)> {
        let roots = || diffs.iter().map(|&l| node_of(l) as usize);
        let top = roots().max().unwrap_or(0);
        let word = |words: &[u64], l: Lit| {
            let w = words[node_of(l) as usize];
            if is_neg(l) {
                !w
            } else {
                w
            }
        };
        let mut words = vec![0u64; top + 1];
        words[0] = !0;
        let mut rng = SIM_SEED;
        for _ in 0..SIM_ROUNDS {
            for n in 1..=top {
                let (a, b) = self.nodes[n];
                words[n] = if a == INPUT {
                    splitmix64(&mut rng)
                } else {
                    word(&words, a) & word(&words, b)
                };
            }
            for (cycle, &d) in diffs.iter().enumerate() {
                let lanes = word(&words, d);
                if lanes != 0 {
                    let pattern = self.cone_inputs(roots(), &words, lanes.trailing_zeros());
                    return Some((pattern, cycle as u32));
                }
            }
        }
        None
    }

    /// The input values of pattern `lane` of `words` inside the cones of
    /// `roots`, indexed by node; `false` everywhere else.
    fn cone_inputs(
        &self,
        roots: impl Iterator<Item = usize>,
        words: &[u64],
        lane: u32,
    ) -> Vec<bool> {
        let mut in_cone = vec![false; words.len()];
        roots.for_each(|n| in_cone[n] = true);
        let mut pattern = vec![false; words.len()];
        for n in (1..words.len()).rev() {
            if !in_cone[n] {
                continue;
            }
            let (a, b) = self.nodes[n];
            if a == INPUT {
                pattern[n] = words[n] >> lane & 1 == 1;
            } else {
                in_cone[node_of(a) as usize] = true;
                in_cone[node_of(b) as usize] = true;
            }
        }
        pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_and_hashing() {
        let mut g = Aig::new(1 << 20);
        let a = g.var();
        let b = g.var();
        assert_eq!(g.and(a, FALSE), FALSE);
        assert_eq!(g.and(a, TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, not(a)), FALSE);
        let ab = g.and(a, b);
        assert_eq!(g.and(b, a), ab, "structural hashing is commutative");
    }

    #[test]
    fn arithmetic_matches_u64() {
        let mut g = Aig::new(1 << 20);
        let w = 8;
        for (x, y) in [(3u128, 5u128), (200, 77), (255, 1), (0, 0), (128, 128)] {
            let a = g.bv_const(x, w);
            let b = g.bv_const(y, w);
            let model = |_: u32| false;
            let add = g.bv_add(&a, &b, w);
            let sub = g.bv_sub(&a, &b, w);
            let lt = g.bv_ult(&a, &b, w);
            let mut memo = vec![None; g.len()];
            assert_eq!(g.eval_bv(&add, &model, &mut memo), (x + y) & 0xff);
            assert_eq!(g.eval_bv(&sub, &model, &mut memo), x.wrapping_sub(y) & 0xff);
            assert_eq!(g.eval_lit(lt, &model, &mut memo), x < y);
        }
    }

    #[test]
    fn select_walks_the_table() {
        let mut g = Aig::new(1 << 20);
        let entries: Vec<Bv> = (0..8u128).map(|v| g.bv_const(v * 3, 8)).collect();
        let addr = g.bv_var(3);
        let base = node_of(addr.0[0]);
        for want in 0..8u128 {
            let sel = g.bv_select(&entries, &addr.0, 8);
            // addr bits are inputs; recover their index by node id order.
            let model = move |n: u32| (want >> (n - base)) & 1 == 1;
            let mut memo = vec![None; g.len()];
            assert_eq!(g.eval_bv(&sel, &model, &mut memo), want * 3);
        }
    }

    #[test]
    fn node_budget_sets_overflow() {
        let mut g = Aig::new(4);
        let a = g.var();
        let b = g.var();
        let c = g.var();
        let ab = g.and(a, b);
        let _ = g.and(ab, c);
        assert!(g.overflowed());
    }
}
