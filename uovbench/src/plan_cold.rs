//! `plan_cold`: in-process, cold, certified planning on one thread.

use uov::core::certify::certify;
use uov::core::search::{find_best_uov, SearchConfig};
use uov::driver::{plan_with, PlanConfig};
use uov::kernels::zoo;
use uov::loopir::LoopNest;

use crate::check;
use crate::problems::{self, Problem};
use crate::stats::{Recorder, Rng};
use crate::trace::{next_op, span};
use crate::Workload;

/// Small problems per pass. With four hard problems and four zoo nests
/// this makes 25 ops a pass: the hard share (16%) is above a tenth, and
/// the 90th percentile falls in the middle of the second-fastest hard
/// problem's cluster rather than on the edge between two clusters.
const SMALL_PER_PASS: usize = 17;

/// Passes rotate through this many slices of the small pool, so a run
/// times about 170 distinct small problems and its median does not sit
/// on the gap between two of a few problems' clusters.
const SMALL_SLICES: usize = 10;

/// The paper's published UOVs for the zoo nests, per statement.
pub const ZOO_UOVS: [(&str, &[[i64; 2]]); 4] = [
    ("fig1", &[[1, 1]]),
    ("stencil5", &[[2, 0]]),
    ("deep8", &[[8, 0]]),
    ("psm", &[[1, 1], [1, 0]]),
];

enum Op {
    /// Slot `j` of the current pass's slice of the small pool.
    Small(usize),
    Hard(usize),
    Zoo(usize),
}

/// One answer: the UOV per statement, the cost per statement, and the
/// certificate hash per statement.
type Answer = Vec<(Vec<i64>, u128, u64)>;

pub struct PlanCold {
    /// The small pool followed by the hard set.
    problems: Vec<Problem>,
    pass: usize,
    zoo: Vec<(&'static str, LoopNest)>,
    order: Vec<Op>,
    answers: Vec<Option<Answer>>,
    mismatches: u64,
}

/// `find_best_uov` then `certify` on one problem.
pub fn search_and_certify(p: &Problem) -> Result<(Vec<i64>, u128, u64), String> {
    let stencil = p.stencil();
    let spec = p.spec();
    let objective = spec.as_objective();
    let result = span("core.search", || {
        find_best_uov(&stencil, objective, &SearchConfig::default())
    })
    .map_err(|e| e.to_string())?;
    let cert = span("core.certify", || certify(&stencil, &objective, &result))
        .map_err(|e| e.to_string())?;
    Ok((
        result.uov.as_slice().to_vec(),
        result.cost,
        cert.transcript_hash,
    ))
}

fn plan_zoo(nest: &LoopNest) -> Result<Answer, String> {
    let plan = span("driver.plan_with", || {
        plan_with(nest, &PlanConfig::default())
    })
    .map_err(|e| e.to_string())?;
    plan.statements
        .iter()
        .map(|s| {
            let s = s.as_ref().map_err(|e| e.to_string())?;
            let hash = s.certificate.as_ref().map_or(0, |c| c.transcript_hash);
            Ok((s.uov.as_slice().to_vec(), s.mapped_cells as u128, hash))
        })
        .collect()
}

impl PlanCold {
    fn run(&mut self, rec: &mut Recorder) {
        let slice = (self.pass % SMALL_SLICES) * SMALL_PER_PASS;
        self.pass += 1;
        for i in 0..self.order.len() {
            next_op();
            let slot = match self.order[i] {
                Op::Small(j) => slice + j,
                Op::Hard(h) => SMALL_PER_PASS * SMALL_SLICES + h,
                Op::Zoo(z) => self.problems.len() + z,
            };
            let res = match self.problems.get(slot) {
                Some(p) => rec.op(|| search_and_certify(p).map(|a| vec![a])),
                None => {
                    let nest = &self.zoo[slot - self.problems.len()].1;
                    rec.op(|| plan_zoo(nest))
                }
            };
            if let Some(ans) = res {
                match &self.answers[slot] {
                    None => self.answers[slot] = Some(ans),
                    Some(first) if *first != ans => self.mismatches += 1,
                    Some(_) => {}
                }
            }
        }
    }
}

impl Workload for PlanCold {
    /// A 30-second run here completes about 1000 ops.
    const MAX_OPS: usize = 1 << 14;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut problems = problems::small_set(SMALL_PER_PASS * SMALL_SLICES);
        let hard = problems::hard_set();
        let mut order: Vec<Op> = (0..SMALL_PER_PASS).map(Op::Small).collect();
        order.extend((0..hard.len()).map(Op::Hard));
        problems.extend(hard);
        let zoo: Vec<(&'static str, LoopNest)> = zoo::all_small()
            .into_iter()
            .map(|e| (e.name, e.nest))
            .collect();
        order.extend((0..zoo.len()).map(Op::Zoo));
        Rng::new(seed).shuffle(&mut order);
        let answers = vec![None; problems.len() + zoo.len()];
        let mut w = PlanCold {
            problems,
            pass: 0,
            zoo,
            order,
            answers,
            mismatches: 0,
        };
        w.run(&mut Recorder::default());
        Ok(w)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.run(rec);
    }

    fn check(&mut self) -> Result<(), String> {
        if self.mismatches > 0 {
            return Err(format!(
                "{} answers differed between passes",
                self.mismatches
            ));
        }
        for (p, ans) in self.problems.iter().zip(&self.answers) {
            if let Some(ans) = ans {
                let (w, cost, _) = &ans[0];
                check::answer(p, w, *cost, true)?;
            }
        }
        for (z, (name, _)) in self.zoo.iter().enumerate() {
            let ans = self.answers[self.problems.len() + z]
                .as_ref()
                .ok_or("a zoo nest was never planned")?;
            let expect = ZOO_UOVS
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u.iter().map(|w| w.to_vec()).collect::<Vec<_>>())
                .ok_or_else(|| format!("no published UOV for {name}"))?;
            let got: Vec<Vec<i64>> = ans.iter().map(|a| a.0.clone()).collect();
            if got != expect {
                return Err(format!("{name}: UOVs {got:?}, paper gives {expect:?}"));
            }
        }
        Ok(())
    }
}
