//! `serve_warm` and `serve_cold`: one closed-loop client connection to an
//! in-process server on 127.0.0.1 whose compute pool has `nproc` workers.
//!
//! The whole process runs on one CPU (see [`Workload::ONE_CPU`]): in a
//! closed loop with one connection only one thread is runnable at a time,
//! so the hand-offs between client, event loop and worker become context
//! switches on that CPU instead of wake-ups of an idle virtual CPU, whose
//! cost is set by the host's load rather than by the server.

use std::hash::{DefaultHasher, Hash, Hasher};

use uov::core::certify::certify;
use uov::core::search::{find_best_uov, SearchConfig, SearchResult, SearchStats};
use uov::isg::IVec;
use uov::service::{
    serve, CacheOutcome, Client, PlanRequest, PlanResponse, ServerConfig, ServerHandle,
};

use crate::check;
use crate::host::nproc;
use crate::problems::{self, KeyBits, Problem, PERMS_3D};
use crate::stats::{Recorder, Rng};
use crate::trace::{next_op, span};
use crate::Workload;

/// Requests per pass. A pass this short (about 1–2 ms here) usually
/// misses the host's scheduling stalls, so the median pass time behind
/// `ops_per_s` measures the server rather than how often a stall hits.
const PER_PASS: usize = 16;

pub struct Server {
    handle: Option<ServerHandle>,
    client: Option<Client>,
    /// Plan requests sent, in every phase.
    pub sent: u64,
}

impl Server {
    pub fn start() -> Result<Server, String> {
        let config = ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        };
        let handle =
            span("service.serve", || serve("127.0.0.1:0", config)).map_err(|e| e.to_string())?;
        let client = Client::connect(handle.endpoint()).map_err(|e| e.to_string())?;
        Ok(Server {
            handle: Some(handle),
            client: Some(client),
            sent: 0,
        })
    }

    pub fn plan(&mut self, req: &PlanRequest) -> Result<PlanResponse, String> {
        let client = self.client.as_mut().ok_or("client closed")?;
        self.sent += 1;
        span("service.client.plan", || client.plan(req)).map_err(|e| e.to_string())
    }

    pub fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until dropped")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// What a served answer must be: `(uov, cost)` from an in-process
/// search and the certificate hash of a local `certify`, after the
/// benchmark's own universality and cost checks on that answer.
fn local_answer(p: &Problem) -> Result<(IVec, u128, u64), String> {
    let stencil = p.stencil();
    let spec = p.spec();
    let objective = spec.as_objective();
    let local =
        find_best_uov(&stencil, objective, &SearchConfig::default()).map_err(|e| e.to_string())?;
    check::answer(p, local.uov.as_slice(), local.cost, false)?;
    let answer = SearchResult {
        uov: local.uov,
        cost: local.cost,
        stats: SearchStats::default(),
        degradation: None,
        checkpoint_error: None,
    };
    let cert = certify(&stencil, &objective, &answer).map_err(|e| e.to_string())?;
    Ok((answer.uov, answer.cost, cert.transcript_hash))
}

/// The checks every served answer must pass: the same `(uov, cost)` as
/// an in-process search, the same certificate hash as a local `certify`,
/// and the benchmark's own universality and cost checks.
pub fn check_response(p: &Problem, r: &PlanResponse) -> Result<(), String> {
    let (uov, cost, hash) = local_answer(p)?;
    if uov != r.uov || cost != r.cost {
        return Err(format!(
            "{:?}: served ({}, {}), local search ({uov}, {cost})",
            p.vectors, r.uov, r.cost
        ));
    }
    if hash != r.certificate_hash {
        return Err(format!(
            "{:?}: certificate hash differs from a local certify",
            p.vectors
        ));
    }
    Ok(())
}

fn outcome_name(c: CacheOutcome) -> &'static str {
    match c {
        CacheOutcome::Hit => "Hit",
        CacheOutcome::Miss => "Miss",
        CacheOutcome::Coalesced => "Coalesced",
    }
}

pub struct ServeWarm {
    server: Server,
    warm: usize,
    /// Passes so far; pass `k` sends slice `k` (cyclically) of `requests`.
    pass: usize,
    requests: Vec<Problem>,
    reqs: Vec<PlanRequest>,
    answers: Vec<Option<PlanResponse>>,
    wrong_outcome: Vec<String>,
    mismatches: u64,
    hits_expected: u64,
}

/// An axis-permuted variant of a warm problem that is a different
/// request; for 3-D problems the seed picks the permutation.
fn variant(p: &Problem, rng: &mut Rng) -> Option<Problem> {
    let sorted = |p: &Problem| {
        let mut v = p.vectors.clone();
        v.sort();
        v
    };
    if p.dim() == 2 {
        return p.permuted(&[1, 0]);
    }
    let start = rng.next_u64() as usize;
    (0..PERMS_3D.len())
        .filter_map(|k| p.permuted(&PERMS_3D[(start + k) % PERMS_3D.len()]))
        .find(|q| sorted(q) != sorted(p))
}

impl ServeWarm {
    fn run(&mut self, rec: &mut Recorder) {
        let slices = self.requests.len().div_ceil(PER_PASS);
        let start = (self.pass % slices) * PER_PASS;
        self.pass += 1;
        for i in start..(start + PER_PASS).min(self.requests.len()) {
            next_op();
            let req = &self.reqs[i];
            let server = &mut self.server;
            let Some(r) = rec.op(|| server.plan(req)) else {
                continue;
            };
            self.hits_expected += 1;
            if r.cache != CacheOutcome::Hit && self.wrong_outcome.len() < 4 {
                self.wrong_outcome.push(outcome_name(r.cache).to_string());
            }
            match &self.answers[i] {
                None => self.answers[i] = Some(r),
                Some(first) if *first != r => self.mismatches += 1,
                Some(_) => {}
            }
        }
    }
}

impl Workload for ServeWarm {
    const ONE_CPU: bool = true;
    /// A set-up takes about 0.07 s, so more of them steady its median.
    const SETUPS: usize = 15;
    /// A 30-second run here completes about 600k ops on one CPU.
    const MAX_OPS: usize = 1 << 20;
    /// 960 ops, about 45 ms here.
    const WINDOW_PASSES: Option<usize> = Some(60);

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let warm = problems::warm_set();
        let mut server = Server::start()?;
        for p in &warm {
            server.plan(&p.request())?;
        }
        let mut requests = warm.clone();
        for p in &warm {
            requests.push(variant(p, &mut rng).ok_or("warm problem without a permuted variant")?);
        }
        rng.shuffle(&mut requests);
        let answers = vec![None; requests.len()];
        let reqs = requests.iter().map(Problem::request).collect();
        let mut w = ServeWarm {
            server,
            warm: warm.len(),
            pass: 0,
            requests,
            reqs,
            answers,
            wrong_outcome: Vec::new(),
            mismatches: 0,
            hits_expected: 0,
        };
        // Warm-up: every request once.
        let mut warm_up = Recorder::default();
        while w.pass * PER_PASS < w.requests.len() {
            w.run(&mut warm_up);
        }
        Ok(w)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.run(rec);
    }

    fn check(&mut self) -> Result<(), String> {
        if !self.wrong_outcome.is_empty() {
            return Err(format!(
                "warm requests answered {:?}, not Hit",
                self.wrong_outcome
            ));
        }
        if self.mismatches > 0 {
            return Err(format!(
                "{} responses differed between passes",
                self.mismatches
            ));
        }
        for (p, r) in self.requests.iter().zip(&self.answers) {
            check_response(p, r.as_ref().ok_or("a request was never answered")?)?;
        }
        let stats = self.server.handle().stats();
        let cache = self.server.handle().cache_stats();
        if stats.requests != self.server.sent {
            return Err(format!(
                "server counted {} requests, {} sent",
                stats.requests, self.server.sent
            ));
        }
        if cache.misses != self.warm as u64 || cache.hits != self.hits_expected {
            return Err(format!(
                "cache counted {} misses and {} hits; expected {} and {}",
                cache.misses, cache.hits, self.warm, self.hits_expected
            ));
        }
        Ok(())
    }
}

/// The served answers of one pass, in order, folded into a digest; a
/// failed op folds in as `None`. The check folds the local answers of the
/// same problems the same way, so a run keeps eight bytes per pass
/// rather than one answer per op.
fn digest<'a>(answers: impl IntoIterator<Item = Option<(&'a [i64], u128, u64)>>) -> u64 {
    let mut h = DefaultHasher::new();
    for a in answers {
        a.hash(&mut h);
    }
    h.finish()
}

pub struct ServeCold {
    server: Server,
    seed: u64,
    rng: Rng,
    seen: KeyBits,
    /// One digest per pass, the set-up's warm-up passes first.
    digests: Vec<u64>,
    wrong_outcome: Vec<String>,
}

impl ServeCold {
    fn run(&mut self, rec: &mut Recorder) {
        let fresh = problems::small(&mut self.rng, PER_PASS, &mut self.seen);
        let reqs: Vec<PlanRequest> = fresh.iter().map(Problem::request).collect();
        let mut answers = Vec::with_capacity(reqs.len());
        for req in &reqs {
            next_op();
            let server = &mut self.server;
            let r = rec.op(|| server.plan(req));
            if let Some(r) = &r {
                if r.cache != CacheOutcome::Miss && self.wrong_outcome.len() < 4 {
                    self.wrong_outcome.push(format!(
                        "{} {} {}",
                        outcome_name(r.cache),
                        r.uov,
                        r.cost
                    ));
                }
            }
            answers.push(r);
        }
        self.digests.push(digest(answers.iter().map(|r| {
            r.as_ref()
                .map(|r| (r.uov.as_slice(), r.cost, r.certificate_hash))
        })));
    }
}

impl Workload for ServeCold {
    const ONE_CPU: bool = true;
    /// A set-up takes about 0.05 s, so more of them steady its median.
    const SETUPS: usize = 9;
    /// A 20-second run here completes 50k–160k ops. The cap keeps each
    /// kind of cold problem at most about half drawn (see
    /// [`problems::small`]).
    const MAX_OPS: usize = 1 << 17;
    /// 1024 ops, about 130 ms here.
    const WINDOW_PASSES: Option<usize> = Some(64);

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = ServeCold {
            server: Server::start()?,
            seed,
            rng: Rng::new(seed),
            seen: KeyBits::new(),
            digests: Vec::with_capacity(Self::MAX_OPS / PER_PASS + 2),
            wrong_outcome: Vec::new(),
        };
        // Warm-up: 256 fresh requests, enough to make the set-up time
        // more than a server start.
        let mut warm_up = Recorder::default();
        for _ in 0..16 {
            w.run(&mut warm_up);
        }
        Ok(w)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.run(rec);
    }

    fn check(&mut self) -> Result<(), String> {
        if !self.wrong_outcome.is_empty() {
            return Err(format!(
                "cold requests answered {:?}, not Miss",
                self.wrong_outcome
            ));
        }
        let (mut rng, mut seen) = (Rng::new(self.seed), KeyBits::new());
        for (pass, &served) in self.digests.iter().enumerate() {
            let fresh = problems::small(&mut rng, PER_PASS, &mut seen);
            let local = fresh
                .iter()
                .map(local_answer)
                .collect::<Result<Vec<_>, String>>()?;
            let want = digest(
                local
                    .iter()
                    .map(|(uov, cost, hash)| Some((uov.as_slice(), *cost, *hash))),
            );
            if served != want {
                return Err(format!(
                    "pass {pass}: served answers differ from a local search and certify"
                ));
            }
        }
        let stats = self.server.handle().stats();
        let cache = self.server.handle().cache_stats();
        let sent = self.server.sent;
        if stats.requests != sent || cache.misses != sent || cache.hits != 0 || cache.coalesced != 0
        {
            return Err(format!(
                "server counted {} requests, {} misses, {} hits, {} coalesced; {sent} sent",
                stats.requests, cache.misses, cache.hits, cache.coalesced
            ));
        }
        Ok(())
    }
}

/// Frame sizes of one 2-D plan round trip, for the echo calibration.
pub fn frame_sizes() -> (usize, usize) {
    use uov::service::proto::{encode_frame, kind};
    let p = &problems::warm_set()[0];
    let req = encode_frame(kind::REQ_PLAN, &p.request().encode()).len();
    let resp = PlanResponse {
        uov: IVec::from(vec![1, 1]),
        cost: 2,
        certificate_hash: 0,
        degradation: uov::service::DegradationCode::None,
        cache: CacheOutcome::Hit,
    };
    (req, encode_frame(kind::RESP_PLAN, &resp.encode()).len())
}
