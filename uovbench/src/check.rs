//! Correctness checks that do not use the program's search or oracle:
//! universality by the benchmark's own exact cone search, costs from
//! their definitions, and optimality of shortest-vector answers.

use crate::problems::Problem;

/// Work cap of one cone search; hitting it fails the check as undecided.
const CONE_STEPS: u64 = 20_000_000;

/// Whether `t` is a non-negative integer combination of `vectors`.
///
/// Exact for lex-positive vectors: group them by their leading non-zero
/// coordinate. Vectors led at coordinate `k` are the only ones still
/// able to change coordinate `k` once earlier coordinates are zero, and
/// their leading entries are positive, so their counts at level `k` are
/// bounded by the residual there. The search enumerates those counts
/// level by level.
pub fn in_cone(vectors: &[Vec<i64>], t: &[i64]) -> Result<bool, String> {
    let d = t.len();
    let mut levels: Vec<Vec<&Vec<i64>>> = vec![Vec::new(); d];
    for v in vectors {
        let lead = v
            .iter()
            .position(|&c| c != 0)
            .ok_or("zero stencil vector")?;
        if v[lead] < 0 {
            return Err("stencil vector is not lex-positive".into());
        }
        levels[lead].push(v);
    }
    let mut steps = 0u64;
    let mut r = t.to_vec();
    let found = level(&levels, 0, 0, &mut r, &mut steps);
    if steps > CONE_STEPS {
        return Err(format!("cone search undecided after {CONE_STEPS} steps"));
    }
    Ok(found)
}

/// Choose counts for vector `j` of level `k`, then the rest.
fn level(levels: &[Vec<&Vec<i64>>], k: usize, j: usize, r: &mut [i64], steps: &mut u64) -> bool {
    *steps += 1;
    if *steps > CONE_STEPS {
        return false;
    }
    let d = r.len();
    if k == d {
        return r.iter().all(|&c| c == 0);
    }
    if j == levels[k].len() {
        return r[k] == 0 && level(levels, k + 1, 0, r, steps);
    }
    if r[k] < 0 {
        return false;
    }
    let v = levels[k][j];
    let max = r[k] / v[k];
    let mut found = false;
    let mut c = 0;
    loop {
        if level(levels, k, j + 1, r, steps) {
            found = true;
            break;
        }
        if c == max {
            break;
        }
        for (ri, vi) in r.iter_mut().zip(v.iter()) {
            *ri -= vi;
        }
        c += 1;
    }
    for (ri, vi) in r.iter_mut().zip(v.iter()) {
        *ri += c * vi;
    }
    found
}

/// Universality: every `w − vᵢ` lies in the cone of the stencil.
pub fn universal(p: &Problem, w: &[i64]) -> Result<bool, String> {
    for v in &p.vectors {
        let t: Vec<i64> = w.iter().zip(v).map(|(a, b)| a - b).collect();
        if !in_cone(&p.vectors, &t)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// The cost from its definition: the squared length for the
/// shortest-vector objective; for known bounds on a 2-D box, the cells a
/// one-dimensional OV mapping allocates — `g` residues along each line
/// parallel to `w`, times the range of the form `u₁p₀ − u₀p₁`
/// (`u = w/g`) over the box, capped at the box size.
pub fn cost(p: &Problem, w: &[i64]) -> Result<u128, String> {
    match &p.extents {
        None => Ok(w.iter().map(|&c| (c * c) as u128).sum()),
        Some(n) if n.len() == 2 => {
            let g = gcd(w[0], w[1]);
            if g == 0 {
                return Err("zero occupancy vector".into());
            }
            let (u0, u1) = (w[0] / g, w[1] / g);
            let span = u1.abs() * (n[0] - 1) + u0.abs() * (n[1] - 1) + 1;
            Ok(((g * span).min(n[0] * n[1])) as u128)
        }
        Some(_) => Err("known-bounds cost is checked for 2-D boxes only".into()),
    }
}

/// Optimality of a shortest-vector answer: no non-zero vector that is
/// shorter, or as short and lex-smaller, is universal.
pub fn sv_optimal(p: &Problem, w: &[i64], cost: u128) -> Result<bool, String> {
    let d = p.dim();
    let r = (cost as f64).sqrt().floor() as i64 + 1;
    let mut x = vec![-r; d];
    loop {
        let n: u128 = x.iter().map(|&c| (c * c) as u128).sum();
        let better = n < cost || (n == cost && x.as_slice() < w);
        if n > 0 && better && crate::problems::lex_positive(&x) && universal(p, &x)? {
            return Ok(false);
        }
        let mut k = d;
        loop {
            if k == 0 {
                return Ok(true);
            }
            k -= 1;
            if x[k] < r {
                x[k] += 1;
                break;
            }
            x[k] = -r;
        }
    }
}

/// All checks on one answer: universality, cost, and, when `optimal` is
/// set, optimality of shortest-vector answers.
pub fn answer(p: &Problem, w: &[i64], claimed: u128, optimal: bool) -> Result<(), String> {
    if !universal(p, w)? {
        return Err(format!("{w:?} is not universal for {:?}", p.vectors));
    }
    let c = cost(p, w)?;
    if c != claimed {
        return Err(format!(
            "{w:?} for {:?}: cost {claimed}, definition gives {c}",
            p.vectors
        ));
    }
    if optimal && p.extents.is_none() && !sv_optimal(p, w, c)? {
        return Err(format!("{w:?} is not the optimal UOV of {:?}", p.vectors));
    }
    Ok(())
}
