//! Problem generation. Every input the program sees is made here from the
//! workload seed; no program code generates benchmark inputs.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use uov::isg::{IVec, RectDomain, Stencil};
use uov::service::{ObjectiveSpec, PlanRequest};

use crate::stats::Rng;

/// One planning problem: lex-positive stencil vectors and, for the
/// known-bounds objective, the extents of the box `[0, n)` it spans.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Problem {
    pub vectors: Vec<Vec<i64>>,
    pub extents: Option<Vec<i64>>,
}

impl Problem {
    pub fn sv(vectors: &[&[i64]]) -> Problem {
        Problem {
            vectors: vectors.iter().map(|v| v.to_vec()).collect(),
            extents: None,
        }
    }

    pub fn dim(&self) -> usize {
        self.vectors[0].len()
    }

    pub fn stencil(&self) -> Stencil {
        Stencil::new(self.vectors.iter().map(|v| IVec::from(v.clone())).collect())
            .expect("generated stencils are lex-positive and non-empty")
    }

    pub fn domain(&self) -> Option<RectDomain> {
        self.extents.as_ref().map(|n| {
            RectDomain::new(
                IVec::from(vec![0; n.len()]),
                IVec::from(n.iter().map(|x| x - 1).collect::<Vec<i64>>()),
            )
        })
    }

    pub fn spec(&self) -> ObjectiveSpec {
        match self.domain() {
            Some(d) => ObjectiveSpec::KnownBounds(d),
            None => ObjectiveSpec::ShortestVector,
        }
    }

    pub fn request(&self) -> PlanRequest {
        PlanRequest {
            stencil: self.stencil(),
            objective: self.spec(),
            deadline_ms: 0,
            flags: 0,
        }
    }

    /// The problem with its axes permuted (`out[i] = in[perm[i]]`), if
    /// every permuted vector is still lex-positive.
    pub fn permuted(&self, perm: &[usize]) -> Option<Problem> {
        let apply = |v: &Vec<i64>| perm.iter().map(|&p| v[p]).collect::<Vec<i64>>();
        let vectors: Vec<Vec<i64>> = self.vectors.iter().map(apply).collect();
        if !vectors.iter().all(|v| lex_positive(v)) {
            return None;
        }
        Some(Problem {
            vectors,
            extents: self.extents.as_ref().map(apply),
        })
    }

    /// A hash of the problem's identity up to vector order and the valid
    /// axis swap of a 2-D problem: the benchmark's own notion of "the
    /// same problem", used to keep cold requests distinct. A collision
    /// only skips a problem; the hasher has fixed keys, so runs repeat.
    pub fn key(&self) -> u64 {
        let norm = |p: &Problem| {
            let mut v = p.vectors.clone();
            v.sort();
            (v, p.extents.clone())
        };
        let mut best = norm(self);
        if self.dim() == 2 {
            if let Some(sw) = self.permuted(&[1, 0]) {
                best = best.min(norm(&sw));
            }
        }
        let mut h = std::hash::DefaultHasher::new();
        best.hash(&mut h);
        h.finish()
    }
}

pub fn lex_positive(v: &[i64]) -> bool {
    v.iter().find(|&&c| c != 0).is_some_and(|&c| c > 0)
}

/// Draw `k` distinct vectors from `pool`.
fn pick(rng: &mut Rng, pool: &[Vec<i64>], k: usize) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::with_capacity(k);
    while out.len() < k {
        let v = &pool[(rng.next_u64() % pool.len() as u64) as usize];
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

fn pool_2d(amax: i64, bmax: i64, nonneg: bool) -> Vec<Vec<i64>> {
    let mut pool = Vec::new();
    for a in 0..=amax {
        for b in -bmax..=bmax {
            if (nonneg && b < 0) || !lex_positive(&[a, b]) {
                continue;
            }
            pool.push(vec![a, b]);
        }
    }
    pool
}

/// Vectors of known-bounds problems: `(0,1)` and `(1,b)`. Known-bounds
/// searches over vectors such as `(0,2)`, `(1,3)` or `(2,b)`, or on boxes
/// narrower than 6, reach 10 ms–1 s on some draws, which would take them
/// out of the fixed-cost regime the small family stands for.
fn pool_bounded(nonneg: bool) -> Vec<Vec<i64>> {
    let lo = if nonneg { 0 } else { -2 };
    let mut pool = vec![vec![0, 1]];
    pool.extend((lo..=2).map(|b| vec![1, b]));
    pool
}

fn extents(rng: &mut Rng) -> Option<Vec<i64>> {
    Some(vec![rng.range(6, 40), rng.range(6, 40)])
}

/// `n` problems of the small 2-D family, none of whose keys are in
/// `seen`: four fifths shortest-vector problems with 3 (a quarter of
/// them) or 4 vectors from `[0,6]×[-6,6]`, one fifth known-bounds problems
/// with 2–4 vectors from [`pool_bounded`] on a box with extents in
/// `6..=40`. The kind and vector count are drawn first and only the rest
/// is redrawn until unseen, so the mix stays fixed however many problems
/// a run takes. The smallest kind, known-bounds problems with two
/// vectors, holds 16,555 distinct problems and gets one op in fifteen;
/// `serve_cold`'s cap of 2^17 ops a run draws about half of it.
pub fn small(rng: &mut Rng, n: usize, seen: &mut impl KeySet) -> Vec<Problem> {
    let (sv_pool, kb_pool) = (pool_2d(6, 6, false), pool_bounded(false));
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let bounded = rng.next_u64().is_multiple_of(5);
        let k = if bounded {
            rng.range(2, 4) as usize
        } else if rng.next_u64().is_multiple_of(4) {
            3
        } else {
            4
        };
        let draw = |rng: &mut Rng| match bounded {
            true => Problem {
                vectors: pick(rng, &kb_pool, k),
                extents: extents(rng),
            },
            false => Problem {
                vectors: pick(rng, &sv_pool, k),
                extents: None,
            },
        };
        out.push(unseen(rng, seen, draw));
    }
    out
}

/// Problem keys already drawn.
pub trait KeySet {
    /// Add `key`; false if it is (or may be) already there.
    fn insert(&mut self, key: u64) -> bool;
}

impl KeySet for HashSet<u64> {
    fn insert(&mut self, key: u64) -> bool {
        HashSet::insert(self, key)
    }
}

/// A [`KeySet`] of fixed size: one bit per value of a key's low 24 bits,
/// 2 MiB, touched when made. A key whose bit is set counts as drawn, so
/// a collision only skips a problem, as a collision of whole keys does.
/// `serve_cold` draws over a hundred thousand problems a run; a hash set
/// of their keys would grow with the op count.
pub struct KeyBits(Vec<u64>);

impl KeyBits {
    const BITS: usize = 1 << 24;

    pub fn new() -> KeyBits {
        // Non-zero first, so the pages are written rather than mapped
        // lazily as zero pages.
        let mut words = vec![u64::MAX; Self::BITS / 64];
        std::hint::black_box(&mut words);
        words.fill(0);
        KeyBits(words)
    }
}

impl KeySet for KeyBits {
    fn insert(&mut self, key: u64) -> bool {
        let bit = key as usize % Self::BITS;
        let (word, mask) = (&mut self.0[bit / 64], 1u64 << (bit % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

/// Draw from `gen` until a problem whose key is not in `seen` comes up.
fn unseen(rng: &mut Rng, seen: &mut impl KeySet, gen: impl Fn(&mut Rng) -> Problem) -> Problem {
    for _ in 0..1_000_000 {
        let p = gen(rng);
        if seen.insert(p.key()) {
            return p;
        }
    }
    panic!("problem family exhausted")
}

/// A constant list drawn from the small family: `plan_cold` uses it in
/// every run, so its op percentiles compare like with like across seeds.
pub fn small_set(n: usize) -> Vec<Problem> {
    small(&mut Rng::new(0x51A11), n, &mut HashSet::new())
}

/// 3-D shortest-vector problems whose searches take roughly 40–400 ms at
/// one thread on the reference host (`(1,0,0) (0,1,0) (0,0,1) (1,a,b)`).
pub fn hard_set() -> Vec<Problem> {
    [[2, 4], [4, 4], [2, 5], [4, 5]]
        .iter()
        .map(|&[a, b]| Problem::sv(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1], &[1, a, b]]))
        .collect()
}

/// The warm set of `serve_warm`: 40 2-D problems whose vectors are
/// non-negative (so the axis swap is a valid, distinct request) and
/// eight cheap 3-D shortest-vector problems, all of whose axis
/// permutations are valid.
pub fn warm_set() -> Vec<Problem> {
    let mut rng = Rng::new(0x3A4B);
    let gen2: fn(&mut Rng) -> Problem = |rng| {
        let k = rng.range(2, 3) as usize;
        if rng.next_u64() % 2 == 0 {
            let vectors = pick(rng, &pool_2d(3, 3, true), k);
            Problem {
                vectors,
                extents: None,
            }
        } else {
            let vectors = pick(rng, &pool_bounded(true), k);
            Problem {
                vectors,
                extents: extents(rng),
            }
        }
    };
    let mut seen = HashSet::new();
    let mut set: Vec<Problem> = (0..200)
        .map(|_| unseen(&mut rng, &mut seen, gen2))
        .filter(|p| {
            let sorted = |p: &Problem| {
                let mut v = p.vectors.clone();
                v.sort();
                (v, p.extents.clone())
            };
            p.permuted(&[1, 0]).is_some_and(|q| sorted(&q) != sorted(p))
        })
        .take(40)
        .collect();
    // (1,a,b) with distinct multisets {1,a,b}: no two are axis permutations
    // of each other, so each is its own cache entry.
    for (a, b) in [
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 2),
        (0, 3),
        (1, 3),
        (2, 3),
        (3, 3),
    ] {
        set.push(Problem::sv(&[
            &[1, 0, 0],
            &[0, 1, 0],
            &[0, 0, 1],
            &[1, a, b],
        ]));
    }
    set
}

pub const PERMS_3D: [[usize; 3]; 5] = [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
