//! Context Tree Weighting (Willems, Shtarkov & Tjalkens 1995 — paper
//! ref \[25\]).
//!
//! CTW maintains a binary context tree of depth `D`. Every node holds a
//! Krichevsky–Trofimov estimator; the weighted probability of a node
//! mixes its own KT estimate with the product of its children's weighted
//! probabilities:
//!
//! ```text
//! Pw(s) = ½·Pe(s) + ½·Pw(0s)·Pw(1s)      (internal nodes)
//! Pw(s) = Pe(s)                          (depth-D leaves)
//! ```
//!
//! This implementation uses the standard *beta* trick: each node stores
//! `β(s) = Pe(s) / (Pw(0s)·Pw(1s))` (in log space), which turns the mix
//! into a one-pass walk along the current context path. Nodes are pooled
//! and created lazily; the pool is capped so the compressor's memory
//! stays bounded (when the cap is hit, deeper context is simply ignored —
//! both encoder and decoder hit the cap identically, so streams stay
//! decodable).
//!
//! The node pool is a chunked, index-linked arena ([`NodeArena`]): nodes
//! are addressed by `u32` index but stored in fixed-size preallocated
//! chunks that never move once created. A flat `Vec` pool doubles and
//! memcpys the entire live tree on every growth step — at the default
//! 4M-node cap that is ~hundreds of MB of copying over an encode — while
//! the arena's growth cost is one bounded chunk allocation, keeping the
//! per-bit tree walk free of reallocation churn.
//!
//! The paper evaluates CTW as one of its four algorithms and observes it
//! achieves a good ratio but high RAM and the worst decompression time —
//! both emerge naturally from this structure (decode performs the same
//! full tree walk per bit as encode, unlike DNAX's table decode).

use crate::models::KtEstimator;

const NO_CHILD: u32 = u32::MAX;

/// Probability denominator used when quantising the weighted probability
/// for the arithmetic coder.
pub const CTW_PROB_DEN: u32 = 1 << 16;

#[derive(Clone, Debug)]
struct Node {
    kt: KtEstimator,
    /// log β(s); 0 at creation (β = 1).
    log_beta: f64,
    children: [u32; 2],
}

impl Node {
    fn new() -> Self {
        Node {
            kt: KtEstimator::new(),
            log_beta: 0.0,
            children: [NO_CHILD, NO_CHILD],
        }
    }
}

/// log2 of the arena chunk size; 2^15 nodes ≈ 1.3 MB per chunk.
const ARENA_CHUNK_BITS: usize = 15;
/// Nodes per arena chunk.
const ARENA_CHUNK: usize = 1 << ARENA_CHUNK_BITS;

/// Chunked node arena: `u32`-indexed like a flat pool, but backed by
/// fixed-size chunks whose storage never moves after allocation, so
/// growing the tree never copies existing nodes.
#[derive(Clone, Debug)]
struct NodeArena<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> NodeArena<T> {
    fn new() -> Self {
        NodeArena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Append a node, returning its stable index.
    fn push(&mut self, node: T) -> u32 {
        if self.len >> ARENA_CHUNK_BITS == self.chunks.len() {
            let mut chunk = Vec::new();
            chunk.reserve_exact(ARENA_CHUNK);
            self.chunks.push(chunk);
        }
        let idx = self.len;
        self.chunks[idx >> ARENA_CHUNK_BITS].push(node);
        self.len += 1;
        idx as u32
    }

    #[inline]
    fn get(&self, idx: u32) -> &T {
        let idx = idx as usize;
        &self.chunks[idx >> ARENA_CHUNK_BITS][idx & (ARENA_CHUNK - 1)]
    }

    #[inline]
    fn get_mut(&mut self, idx: u32) -> &mut T {
        let idx = idx as usize;
        &mut self.chunks[idx >> ARENA_CHUNK_BITS][idx & (ARENA_CHUNK - 1)]
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Vec<T>>()
            + self
                .chunks
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<T>())
                .sum::<usize>()
    }
}

/// A depth-`D` CTW tree over a binary alphabet.
///
/// Protocol per bit: call [`CtwTree::predict`] with the context, feed the
/// returned probability to the arithmetic coder, then call
/// [`CtwTree::commit`] with the actual bit. `predict` caches the context
/// path, so the two calls must alternate strictly.
#[derive(Clone, Debug)]
pub struct CtwTree {
    depth: usize,
    nodes: NodeArena<Node>,
    max_nodes: usize,
    /// Scratch: the node path of the last `predict`, leaf-ward order,
    /// with each node's KT p0 and weighted p0 at prediction time.
    path: Vec<PathEntry>,
}

#[derive(Clone, Copy, Debug)]
struct PathEntry {
    node: u32,
    p0_kt: f64,
    p0_w: f64,
}

impl CtwTree {
    /// Tree of context depth `depth` (bits) with the default 4M-node cap.
    pub fn new(depth: usize) -> Self {
        Self::with_capacity(depth, 4 << 20)
    }

    /// Tree with an explicit node-pool cap (≥ 1).
    pub fn with_capacity(depth: usize, max_nodes: usize) -> Self {
        assert!(max_nodes >= 1);
        let mut nodes = NodeArena::new();
        nodes.push(Node::new()); // root
        CtwTree {
            depth,
            nodes,
            max_nodes,
            path: Vec::with_capacity(depth + 1),
        }
    }

    /// Context depth in bits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nodes currently allocated.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap usage in bytes (for the RAM meter).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes() + self.path.capacity() * std::mem::size_of::<PathEntry>()
    }

    /// Predict `P(next bit = 0)` given `history`, whose bit `i` is the
    /// i-th most recent bit (bit 0 = previous bit). Returns `(num, den)`
    /// with `0 < num < den = CTW_PROB_DEN`.
    pub fn predict(&mut self, history: u64) -> (u32, u32) {
        self.walk_path(history);
        // Mix bottom-up: leaf-ward entry last.
        let mut p0: f64 = {
            let leaf = self.path.last().expect("path non-empty");
            leaf.p0_kt
        };
        // Record weighted p0 at the leaf.
        let last = self.path.len() - 1;
        self.path[last].p0_w = p0;
        if self.path.len() >= 2 {
            for i in (0..self.path.len() - 1).rev() {
                let node = self.nodes.get(self.path[i].node);
                let b = node.log_beta.exp();
                let p0_kt = self.path[i].p0_kt;
                // Conditional weighted probability: the off-path child's
                // block probability cancels out of the conditional.
                p0 = (b * p0_kt + p0) / (b + 1.0);
                self.path[i].p0_w = p0;
            }
        }
        quantise_p0(p0)
    }

    /// Record the actual `bit` for the context passed to the immediately
    /// preceding [`CtwTree::predict`] call.
    pub fn commit(&mut self, bit: bool) {
        assert!(!self.path.is_empty(), "commit without predict");
        // Update β bottom-up using the *pre-update* conditionals cached by
        // predict, then bump the KT counts.
        for i in 0..self.path.len() {
            let entry = self.path[i];
            let node = self.nodes.get_mut(entry.node);
            let is_leaf_of_path = i == self.path.len() - 1;
            if !is_leaf_of_path {
                let p_kt = if bit { 1.0 - entry.p0_kt } else { entry.p0_kt };
                let child = self.path[i + 1];
                let p_child = if bit { 1.0 - child.p0_w } else { child.p0_w };
                node.log_beta += p_kt.ln() - p_child.ln();
                // Keep β bounded to avoid drift to ±inf on long streams.
                node.log_beta = node.log_beta.clamp(-50.0, 50.0);
            }
            node.kt.update(bit);
        }
        self.path.clear();
    }

    /// Walk (and lazily build) the context path, filling `self.path` with
    /// each node's KT p0. Entry 0 is the root; deeper entries follow the
    /// most-recent-bit-first context.
    fn walk_path(&mut self, history: u64) {
        self.path.clear();
        let mut cur = 0u32;
        for d in 0..=self.depth {
            let node = self.nodes.get(cur);
            let (num, den) = node.kt.prob_zero();
            self.path.push(PathEntry {
                node: cur,
                p0_kt: num as f64 / den as f64,
                p0_w: 0.0,
            });
            if d == self.depth {
                break;
            }
            let bit = ((history >> d) & 1) as usize;
            let child = self.nodes.get(cur).children[bit];
            if child != NO_CHILD {
                cur = child;
            } else if self.nodes.len() < self.max_nodes {
                let idx = self.nodes.push(Node::new());
                self.nodes.get_mut(cur).children[bit] = idx;
                cur = idx;
            } else {
                // Pool exhausted: truncate the context here. Encoder and
                // decoder exhaust identically, so this stays symmetric.
                break;
            }
        }
    }
}

/// Lower clamp on the mixing weight `w = β/(β+1)`; matches the log
/// tree's `β ≥ e^-50 ≈ 2·10^-22` floor (so a node can always recover).
const W_MIN: f32 = 1e-22;
/// Upper clamp on `w`, the largest value safely below 1.0 in f32. The
/// log tree allows β up to e^50, i.e. `w` within 10^-22 of 1 — beyond
/// f32 resolution, but the off-path mass it would add back is ~10^-7,
/// two orders below the coder's quantisation step (2^-16), so the
/// tighter cap is invisible in the output.
const W_MAX: f32 = 0.999_999_9;

/// One node of the 4-ary fast tree: 28 bytes — u16 symbol counts
/// (KT-style, halving at the u16 horizon), the f32 mixing weight, and
/// four child indices.
#[derive(Clone, Debug)]
struct FastNode4 {
    counts: [u16; 4],
    /// Mixing weight `β / (β + 1)`; 0.5 (β = 1) at creation.
    w: f32,
    children: [u32; 4],
}

impl FastNode4 {
    fn new() -> Self {
        FastNode4 {
            counts: [0; 4],
            w: 0.5,
            children: [NO_CHILD; 4],
        }
    }

    /// KT probabilities for all four symbols: `(n_s + ½) / (N + 2)`.
    /// One division (the shared reciprocal), four multiplies.
    #[inline]
    fn p_kt(&self) -> [f64; 4] {
        let total: u32 = self.counts.iter().map(|&c| c as u32).sum();
        let inv = 1.0 / (total as f64 + 2.0);
        let mut p = [0.0; 4];
        for (pr, &c) in p.iter_mut().zip(&self.counts) {
            *pr = (c as f64 + 0.5) * inv;
        }
        p
    }

    /// Record an observation of `sym`, halving all counts when the
    /// observed one approaches the u16 ceiling.
    #[inline]
    fn update(&mut self, sym: usize) {
        if self.counts[sym] == u16::MAX {
            for c in &mut self.counts {
                *c /= 2;
            }
        }
        self.counts[sym] += 1;
    }
}

/// Walk scratch for [`FastCtwTree4`]: the node, its KT vector, its
/// mixing weight, and (after the mix pass) the weighted probability
/// vector at this level.
#[derive(Clone, Copy, Debug)]
struct Path4Entry {
    node: u32,
    w: f64,
    p_kt: [f64; 4],
    p_w: [f64; 4],
}

/// Longest supported 4-ary context path (root + 31 context bases — the
/// packed 2-bit history word holds 32 bases).
const MAX_FAST_PATH4: usize = 32;

/// The speed tier's production CTW: a **4-ary** context tree that walks
/// once per DNA base instead of twice (binary decomposition), mixes all
/// four symbol probabilities in independent lanes (so the serial
/// per-level latency chain is no longer four times deeper than the
/// information it produces), and emits exactly one rANS symbol per
/// base. Contexts are whole bases, so depth `d` here spans the same
/// window as a binary tree of depth `2d`. The same KT + β-weighting
/// mathematics as [`CtwTree`] applies per node, with each node keeping
/// its mixing weight `w = β/(β+1)` instead of log β; the estimator is
/// the 4-symbol KT `(n_s + ½)/(N + 2)` and the weight update divides by
/// the node's own mixed probability of the observed symbol, cached by
/// the preceding predict. This tree backs **v2** blobs only; encoder
/// and decoder run identical code, so f32/f64 rounding choices are
/// self-consistent.
#[derive(Clone, Debug)]
pub struct FastCtwTree4 {
    depth: usize,
    /// Flat node pool; index 0 is the root. Stable indices (push-only).
    nodes: Vec<FastNode4>,
    max_nodes: usize,
    path: [Path4Entry; MAX_FAST_PATH4],
    path_len: usize,
}

impl FastCtwTree4 {
    /// Tree of context depth `depth` (in **bases**) with the default
    /// 4M-node cap.
    pub fn new(depth: usize) -> Self {
        Self::with_capacity(depth, 4 << 20)
    }

    /// Tree with an explicit node-pool cap (≥ 1). `depth` is counted in
    /// bases and must fit the packed 2-bit history word (`depth < 32`).
    pub fn with_capacity(depth: usize, max_nodes: usize) -> Self {
        assert!(max_nodes >= 1);
        assert!(depth < MAX_FAST_PATH4, "context depth {depth} exceeds the history word");
        FastCtwTree4 {
            depth,
            nodes: vec![FastNode4::new()], // root
            max_nodes,
            path: [Path4Entry {
                node: 0,
                w: 0.0,
                p_kt: [0.0; 4],
                p_w: [0.0; 4],
            }; MAX_FAST_PATH4],
            path_len: 0,
        }
    }

    /// Context depth in bases.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nodes currently allocated.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap usage in bytes (for the RAM meter).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<FastNode4>()
    }

    /// Predict the next base's distribution given `history` (packed
    /// 2-bit symbols, most recent base in the low bits). Returns
    /// cumulative bounds `[c0, c1, c2, c3, 2^16]` ready for
    /// `encode_cum16`/`decode_cum16`, every symbol's width ≥ 1.
    pub fn predict4(&mut self, history: u64) -> [u32; 5] {
        self.walk_path(history);
        let path = &mut self.path[..self.path_len];
        let (deeper, leaf) = path.split_at_mut(self.path_len - 1);
        let mut p = leaf[0].p_kt;
        leaf[0].p_w = p;
        for e in deeper.iter_mut().rev() {
            let w = e.w;
            // Four independent lanes: same chain latency as one scalar
            // mix, four probabilities out.
            for (pr, &kt) in p.iter_mut().zip(&e.p_kt) {
                *pr += w * (kt - *pr);
            }
            e.p_w = p;
        }
        // Quantise to a 2^16 cumulative table; the last symbol absorbs
        // the rounding remainder and every width stays ≥ 1 (the first
        // three take at most (2^16 − 4) + 3 between them).
        let mut cum = [0u32; 5];
        let mut acc = 0u32;
        for s in 0..3 {
            let f = ((p[s] * (CTW_PROB_DEN - 4) as f64) as u32) + 1;
            cum[s] = acc;
            acc += f;
        }
        cum[3] = acc;
        cum[4] = CTW_PROB_DEN;
        debug_assert!(acc < CTW_PROB_DEN);
        cum
    }

    /// Record the actual `sym` (0..4) for the immediately preceding
    /// [`FastCtwTree4::predict4`]. Weight update per non-leaf node:
    /// `w' = w·P_kt(sym) / P_w(sym)` — the β recursion in `w` form,
    /// dividing by the node's own mixed probability of the observed
    /// symbol (cached by predict). One division per node.
    pub fn commit4(&mut self, sym: usize) {
        assert!(self.path_len > 0, "commit without predict");
        debug_assert!(sym < 4);
        let last = self.path_len - 1;
        for (i, entry) in self.path[..self.path_len].iter().enumerate() {
            let node = &mut self.nodes[entry.node as usize];
            if i != last {
                let w = node.w as f64;
                node.w = ((w * entry.p_kt[sym] / entry.p_w[sym]) as f32).clamp(W_MIN, W_MAX);
            }
            node.update(sym);
        }
        self.path_len = 0;
    }

    fn walk_path(&mut self, history: u64) {
        let mut len = 0usize;
        let mut cur = 0u32;
        for d in 0..=self.depth {
            let node = &self.nodes[cur as usize];
            let p_kt = node.p_kt();
            let w = node.w as f64;
            let child = node.children[(history >> (2 * d)) as usize & 3];
            self.path[len] = Path4Entry {
                node: cur,
                w,
                p_kt,
                p_w: [0.0; 4],
            };
            len += 1;
            if d == self.depth {
                break;
            }
            if child != NO_CHILD {
                cur = child;
            } else if self.nodes.len() < self.max_nodes {
                let idx = self.nodes.len() as u32;
                self.nodes.push(FastNode4::new());
                let sym = (history >> (2 * d)) as usize & 3;
                self.nodes[cur as usize].children[sym] = idx;
                cur = idx;
            } else {
                break;
            }
        }
        self.path_len = len;
    }
}

/// Quantise a weighted probability into the arithmetic coder's integer
/// domain, clamped so neither symbol gets a zero-width interval.
fn quantise_p0(p0: f64) -> (u32, u32) {
    let den = CTW_PROB_DEN;
    let num = (p0 * den as f64).round() as i64;
    let num = num.clamp(1, (den - 1) as i64) as u32;
    (num, den)
}

/// Rolling bit history for CTW contexts: bit 0 is the most recent bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitHistory(u64);

impl BitHistory {
    /// Empty history (all zeros — CTW's conventional initial context).
    pub fn new() -> Self {
        Self::default()
    }

    /// The packed history word.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Shift in a new most-recent bit.
    pub fn push(&mut self, bit: bool) {
        self.0 = (self.0 << 1) | bit as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{ArithDecoder, ArithEncoder};
    use proptest::prelude::*;

    /// Encode a bit string with CTW + arithmetic coding; return bytes.
    fn ctw_encode(bits: &[bool], depth: usize) -> Vec<u8> {
        let mut tree = CtwTree::new(depth);
        let mut hist = BitHistory::new();
        let mut enc = ArithEncoder::new();
        for &b in bits {
            let (num, den) = tree.predict(hist.value());
            enc.encode_bit(b, num, den);
            tree.commit(b);
            hist.push(b);
        }
        enc.finish()
    }

    fn ctw_decode(bytes: &[u8], n: usize, depth: usize) -> Vec<bool> {
        let mut tree = CtwTree::new(depth);
        let mut hist = BitHistory::new();
        let mut dec = ArithDecoder::new(bytes);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (num, den) = tree.predict(hist.value());
            let b = dec.decode_bit(num, den);
            tree.commit(b);
            hist.push(b);
            out.push(b);
        }
        out
    }

    #[test]
    fn roundtrip_simple() {
        let bits: Vec<bool> = (0..500).map(|i| i % 3 == 0).collect();
        let bytes = ctw_encode(&bits, 8);
        assert_eq!(ctw_decode(&bytes, bits.len(), 8), bits);
    }

    #[test]
    fn compresses_periodic_sequence_well() {
        // Period-7 pattern: with depth ≥ 7 CTW should approach 0 bits/bit.
        let pattern = [true, false, false, true, true, false, true];
        let bits: Vec<bool> = (0..7000).map(|i| pattern[i % 7]).collect();
        let bytes = ctw_encode(&bits, 10);
        let ratio = bytes.len() as f64 * 8.0 / bits.len() as f64;
        assert!(ratio < 0.15, "bits/bit = {ratio}");
    }

    #[test]
    fn random_bits_cost_about_one_bit() {
        // Pseudo-random bits are incompressible; CTW must not expand them
        // by more than a few percent.
        let mut x = 0x12345678u64;
        let bits: Vec<bool> = (0..8000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect();
        let bytes = ctw_encode(&bits, 8);
        let ratio = bytes.len() as f64 * 8.0 / bits.len() as f64;
        assert!(ratio < 1.1, "bits/bit = {ratio}");
        assert!(ratio > 0.9, "suspiciously good: {ratio}");
    }

    #[test]
    fn depth_zero_is_plain_kt() {
        let bits: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let bytes = ctw_encode(&bits, 0);
        assert_eq!(ctw_decode(&bytes, bits.len(), 0), bits);
    }

    #[test]
    fn node_pool_cap_is_symmetric() {
        let mut x = 1u64;
        let bits: Vec<bool> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) & 1 == 1
            })
            .collect();
        // Tiny cap forces constant pool exhaustion.
        let encode = |bits: &[bool]| {
            let mut tree = CtwTree::with_capacity(12, 64);
            let mut hist = BitHistory::new();
            let mut enc = ArithEncoder::new();
            for &b in bits {
                let (num, den) = tree.predict(hist.value());
                enc.encode_bit(b, num, den);
                tree.commit(b);
                hist.push(b);
            }
            enc.finish()
        };
        let bytes = encode(&bits);
        let mut tree = CtwTree::with_capacity(12, 64);
        let mut hist = BitHistory::new();
        let mut dec = ArithDecoder::new(&bytes);
        for &b in &bits {
            let (num, den) = tree.predict(hist.value());
            assert_eq!(dec.decode_bit(num, den), b);
            tree.commit(b);
            hist.push(b);
        }
        assert_eq!(tree.node_count(), 64);
    }

    #[test]
    fn arena_indices_stable_across_chunk_boundaries() {
        let mut arena = NodeArena::new();
        let n = ARENA_CHUNK + 17;
        for i in 0..n {
            let mut node = Node::new();
            node.log_beta = i as f64;
            let idx = arena.push(node);
            assert_eq!(idx as usize, i);
        }
        assert_eq!(arena.len(), n);
        assert_eq!(arena.get(0).log_beta, 0.0);
        assert_eq!(arena.get(ARENA_CHUNK as u32 - 1).log_beta, (ARENA_CHUNK - 1) as f64);
        assert_eq!(arena.get(ARENA_CHUNK as u32).log_beta, ARENA_CHUNK as f64);
        arena.get_mut(ARENA_CHUNK as u32 + 5).log_beta = -1.0;
        assert_eq!(arena.get(ARENA_CHUNK as u32 + 5).log_beta, -1.0);
        // Growth preallocates whole chunks, never reallocating old ones.
        assert!(arena.heap_bytes() >= 2 * ARENA_CHUNK * std::mem::size_of::<Node>());
    }

    #[test]
    fn tree_grows_across_arena_chunks_and_still_roundtrips() {
        // Enough random context bits to allocate > one chunk of nodes.
        let mut x = 99u64;
        let bits: Vec<bool> = (0..6000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect();
        let depth = 20;
        let bytes = ctw_encode(&bits, depth);
        assert_eq!(ctw_decode(&bytes, bits.len(), depth), bits);
        let mut tree = CtwTree::new(depth);
        let mut hist = BitHistory::new();
        for &b in &bits {
            tree.predict(hist.value());
            tree.commit(b);
            hist.push(b);
        }
        assert!(tree.node_count() > ARENA_CHUNK, "{}", tree.node_count());
    }

    #[test]
    #[should_panic(expected = "commit without predict")]
    fn commit_without_predict_panics() {
        let mut tree = CtwTree::new(4);
        tree.commit(true);
    }

    #[test]
    fn predictions_are_proper_probabilities() {
        let mut tree = CtwTree::new(6);
        let mut hist = BitHistory::new();
        for i in 0..200 {
            let (num, den) = tree.predict(hist.value());
            assert!(num > 0 && num < den);
            let b = i % 5 == 0;
            tree.commit(b);
            hist.push(b);
        }
    }

    #[test]
    fn learns_biased_source() {
        // 90% zeros: after warm-up, P(0) should exceed 0.8.
        let mut tree = CtwTree::new(4);
        let mut hist = BitHistory::new();
        for i in 0..1000 {
            let b = i % 10 == 0;
            tree.predict(hist.value());
            tree.commit(b);
            hist.push(b);
        }
        let (num, den) = tree.predict(hist.value());
        tree.commit(false);
        assert!(num as f64 / den as f64 > 0.8);
    }

    #[test]
    fn heap_usage_grows_with_depth() {
        let make = |depth| {
            let mut tree = CtwTree::new(depth);
            let mut hist = BitHistory::new();
            let mut x = 7u64;
            for _ in 0..2000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                let b = (x >> 40) & 1 == 1;
                tree.predict(hist.value());
                tree.commit(b);
                hist.push(b);
            }
            tree.node_count()
        };
        assert!(make(16) > make(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn roundtrip_arbitrary(bits in prop::collection::vec(any::<bool>(), 0..600), depth in 0usize..12) {
            let bytes = ctw_encode(&bits, depth);
            prop_assert_eq!(ctw_decode(&bytes, bits.len(), depth), bits);
        }
    }
}
