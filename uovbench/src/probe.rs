//! Per-layer metrics for the traced run: each layer call from the table
//! in the README, timed in isolation from the benchmark's own code.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

use uov::codegen::{autotune, AutotuneConfig};
use uov::core::certify::certify;
use uov::core::search::{find_best_uov, SearchConfig, SearchResult};
use uov::core::DoneOracle;
use uov::isg::IVec;
use uov::loopir::analysis::flow_stencil;
use uov::service::canon::canonicalize;
use uov::service::proto::{encode_frame, kind, read_frame};
use uov::service::{PlanCache, PlanRequest, PlanResponse};
use uov::storage::{Layout, OvMap, StorageMap as _};

use crate::kernel;
use crate::plan_cold::ZOO_UOVS;
use crate::problems::{self, Problem};
use crate::serve::Server;
use crate::stats::{median, Recorder, Rng};
use crate::trace::span;

const REPS: usize = 5;

pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Measure every per-layer metric except the host and trace ones, which
/// the runner adds. `echo_rtt_us` feeds the server residual.
pub fn run(seed: u64, echo_rtt_us: f64) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    core(&mut m)?;
    layers_2d(&mut m)?;
    service(&mut m, seed, echo_rtt_us)?;
    codegen(&mut m)?;
    Ok(m)
}

fn core(m: &mut Metrics) -> Result<(), String> {
    let cfg = SearchConfig::default();
    let small = problems::small_set(17);
    let hard = problems::hard_set();
    let (mut nodes, mut pushed, mut hard_nodes) = (0u64, 0u64, 0u64);
    let mut small_us = Vec::new();
    let mut answers: Vec<(Problem, SearchResult)> = Vec::new();
    for rep in 0..REPS {
        for p in &small {
            let (s, spec) = (p.stencil(), p.spec());
            let (r, t) = timed(|| {
                span("core.search", || {
                    find_best_uov(&s, spec.as_objective(), &cfg)
                })
            });
            let r = r.map_err(err)?;
            small_us.push(t);
            if rep == 0 {
                nodes += r.stats.visited;
                pushed += r.stats.pushed;
                answers.push((p.clone(), r));
            }
        }
    }
    let mut hard_us = 0.0;
    for p in &hard {
        let s = p.stencil();
        let mut times = Vec::new();
        for rep in 0..3 {
            let (r, t) = timed(|| {
                span("core.search", || {
                    find_best_uov(&s, p.spec().as_objective(), &cfg)
                })
            });
            let r = r.map_err(err)?;
            times.push(t);
            if rep == 0 {
                nodes += r.stats.visited;
                pushed += r.stats.pushed;
                hard_nodes += r.stats.visited;
                answers.push((p.clone(), r));
            }
        }
        hard_us += median(&times);
    }
    let (mut oracle_us, mut certify_us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (p, r) in &answers {
            let (s, spec) = (p.stencil(), p.spec());
            let (ok, t) = timed(|| {
                span("core.oracle", || {
                    DoneOracle::try_new(&s).map(|o| o.is_uov(&r.uov))
                })
            });
            if !ok.map_err(err)? {
                return Err(format!(
                    "oracle rejects the answer {} of {:?}",
                    r.uov, p.vectors
                ));
            }
            oracle_us.push(t);
            let (c, t) = timed(|| span("core.certify", || certify(&s, &spec.as_objective(), r)));
            c.map_err(err)?;
            certify_us.push(t);
        }
    }
    m.insert("core.search.small_us", (median(&small_us), "us"));
    m.insert("core.search.hard_us", (hard_us, "us"));
    m.insert("core.search.nodes", (nodes as f64, "count"));
    m.insert("core.search.pushed", (pushed as f64, "count"));
    m.insert(
        "core.search.nodes_per_s",
        (hard_nodes as f64 / (hard_us / 1e6), "1/s"),
    );
    m.insert("core.oracle.is_uov_us", (median(&oracle_us), "us"));
    m.insert("core.certify_us", (median(&certify_us), "us"));
    Ok(())
}

/// Analysis and mapping on the zoo nests, and mapped cells at kernel scale.
fn layers_2d(m: &mut Metrics) -> Result<(), String> {
    let (mut analysis_us, mut map_us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for e in uov::kernels::zoo::all_small() {
            let uovs = ZOO_UOVS
                .iter()
                .find(|(n, _)| *n == e.name)
                .map(|(_, u)| *u)
                .ok_or("zoo nest without a UOV")?;
            for (s, w) in uovs.iter().enumerate() {
                let (st, t) = timed(|| span("loopir.flow_stencil", || flow_stencil(&e.nest, s)));
                st.map_err(err)?;
                analysis_us.push(t);
                let w = IVec::from(w.to_vec());
                let (map, t) = timed(|| {
                    span("storage.ov_map", || {
                        OvMap::try_new(e.nest.domain(), w, Layout::Interleaved)
                    })
                });
                map.map_err(err)?;
                map_us.push(t);
            }
        }
    }
    let mut cells = 0usize;
    for (e, _) in kernel::kernels() {
        let uovs = ZOO_UOVS
            .iter()
            .find(|(n, _)| *n == e.name)
            .map(|(_, u)| *u)
            .ok_or("kernel without a UOV")?;
        for w in uovs {
            cells += OvMap::try_new(e.nest.domain(), IVec::from(w.to_vec()), Layout::Interleaved)
                .map_err(err)?
                .size();
        }
    }
    m.insert("loopir.analysis_us", (median(&analysis_us), "us"));
    m.insert("storage.map_us", (median(&map_us), "us"));
    m.insert("storage.mapped_cells", (cells as f64, "count"));
    Ok(())
}

fn service(m: &mut Metrics, seed: u64, echo_rtt_us: f64) -> Result<(), String> {
    let cfg = SearchConfig::default();
    let warm = problems::warm_set();
    let mut requests: Vec<Problem> = warm.clone();
    requests.extend(warm.iter().filter_map(|p| {
        if p.dim() == 2 {
            p.permuted(&[1, 0])
        } else {
            p.permuted(&[2, 1, 0])
        }
    }));

    // Codec: request and response frames through encode and decode.
    let (mut codec_us, mut bytes) = (Vec::new(), Vec::new());
    let mut responses = Vec::new();
    for p in &requests {
        let r = find_best_uov(&p.stencil(), p.spec().as_objective(), &cfg).map_err(err)?;
        responses.push(PlanResponse {
            uov: r.uov,
            cost: r.cost,
            certificate_hash: 0,
            degradation: uov::service::DegradationCode::None,
            cache: uov::service::CacheOutcome::Hit,
        });
    }
    for _ in 0..REPS {
        for (p, resp) in requests.iter().zip(&responses) {
            let req = p.request();
            let (n, t) = timed(|| {
                span("service.proto", || -> Result<usize, String> {
                    let qf = encode_frame(kind::REQ_PLAN, &req.encode());
                    let (_, qp) = read_frame(&mut &qf[..])
                        .map_err(err)?
                        .ok_or("empty frame")?;
                    PlanRequest::decode(&qp).map_err(err)?;
                    let rf = encode_frame(kind::RESP_PLAN, &resp.encode());
                    let (_, rp) = read_frame(&mut &rf[..])
                        .map_err(err)?
                        .ok_or("empty frame")?;
                    PlanResponse::decode(&rp).map_err(err)?;
                    Ok(qf.len() + rf.len())
                })
            });
            bytes.push(n? as f64);
            codec_us.push(t);
        }
    }

    // Canonicalization, and plan-cache hits on a warmed local cache.
    let mut canon_us = Vec::new();
    let cache = PlanCache::new(uov::service::plan_cache::DEFAULT_CACHE_CAPACITY);
    let solve = |s: &uov::isg::Stencil, o: &uov::service::ObjectiveSpec| {
        find_best_uov(s, o.as_objective(), &SearchConfig::default()).map_err(err)
    };
    for p in &warm {
        cache.plan(&p.stencil(), &p.spec(), solve)?;
    }
    let mut hit_us = Vec::new();
    for _ in 0..REPS {
        for p in &requests {
            let (s, spec) = (p.stencil(), p.spec());
            let (_, t) = timed(|| span("service.canon", || canonicalize(&s, &spec)));
            canon_us.push(t);
            let (r, t) = timed(|| span("service.plan_cache", || cache.plan(&s, &spec, solve)));
            if r?.cache != uov::service::CacheOutcome::Hit {
                return Err("warm local cache missed".into());
            }
            hit_us.push(t);
        }
    }

    // Misses on fresh keys whose solve is precomputed.
    let mut seen = HashSet::new();
    for p in &warm {
        seen.insert(p.key());
    }
    let fresh = problems::small(&mut Rng::new(seed ^ 0xC01D), 64, &mut seen);
    let mut miss_us = Vec::new();
    for p in &fresh {
        let (s, spec) = (p.stencil(), p.spec());
        let canon = canonicalize(&s, &spec);
        let pre =
            find_best_uov(&canon.stencil, canon.objective.as_objective(), &cfg).map_err(err)?;
        let (r, t) = timed(|| {
            span("service.plan_cache", || {
                cache.plan(&s, &spec, |_, _| Ok(pre.clone()))
            })
        });
        if r?.cache != uov::service::CacheOutcome::Miss {
            return Err("fresh key did not miss".into());
        }
        miss_us.push(t);
    }

    // A short warm closed loop through a real server, for the residual.
    let mut server = Server::start()?;
    let reqs: Vec<PlanRequest> = requests.iter().map(Problem::request).collect();
    for p in &warm {
        server.plan(&p.request())?;
    }
    let mut rec = Recorder::default();
    for _ in 0..REPS * 4 {
        for req in &reqs {
            rec.op(|| server.plan(req));
        }
    }
    let served = server.handle().stats().requests;
    if served != server.sent || rec.failed > 0 {
        return Err(format!(
            "server counted {served} requests, {} sent, {} failed",
            server.sent, rec.failed
        ));
    }
    let (codec, hit) = (median(&codec_us), median(&hit_us));
    let certify = m.get("core.certify_us").map_or(0.0, |v| v.0);
    m.insert("service.proto.codec_us", (codec, "us"));
    m.insert("service.proto.frame_bytes", (median(&bytes), "bytes"));
    m.insert("service.canon_us", (median(&canon_us), "us"));
    m.insert("service.plan_cache.hit_us", (hit, "us"));
    m.insert("service.plan_cache.miss_us", (median(&miss_us), "us"));
    m.insert(
        "service.server.residual_us",
        (
            rec.quantile(0.5, None) - echo_rtt_us - codec - hit - certify,
            "us",
        ),
    );
    m.insert("service.server.requests", (served as f64, "count"));
    Ok(())
}

fn codegen(m: &mut Metrics) -> Result<(), String> {
    let set = kernel::kernels();
    let dir = kernel::out_dir("probe");
    let built = kernel::build(&set, &dir, true);
    let result = built.and_then(|built| {
        let emit: Vec<f64> = built.iter().flat_map(|b| b.emit_us.clone()).collect();
        let compile: Vec<f64> = built.iter().flat_map(|b| b.compile_s.clone()).collect();
        let bytes: usize = built.iter().map(|b| b.source_bytes).sum();
        let (mut untiled, mut tiled) = (0.0, 0.0);
        for b in &built {
            let (mut u, mut t) = (Vec::new(), Vec::new());
            for _ in 0..REPS {
                t.push(kernel::run(&b.tiled, 1)?.1);
                u.push(kernel::run(&b.untiled, 1)?.1);
            }
            untiled += median(&u);
            tiled += median(&t);
        }
        m.insert("codegen.emit_us", (median(&emit), "us"));
        m.insert("codegen.source_bytes", (bytes as f64, "bytes"));
        m.insert("codegen.compile_s", (median(&compile), "s"));
        m.insert("kernel.untiled_us", (untiled, "us"));
        m.insert("kernel.tiled_speedup", (untiled / tiled, "ratio"));
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    // Memsim-only autotune ranking: a missing compiler path stops the
    // tuner after its simulated ranking of the one candidate tile.
    let (mut cyc_tiled, mut cyc_untiled) = (0.0, 0.0);
    for (e, tile) in &set {
        let maps = e.maps(Layout::Interleaved);
        let refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
        let d = e.nest.domain();
        let (e0, e1) = (d.hi()[0] - d.lo()[0] + 1, d.hi()[1] - d.lo()[1] + 1);
        let whole = [e0, e.skew_f.abs() * (e0 - 1) + e1];
        for (t, acc) in [(*tile, &mut cyc_tiled), (whole, &mut cyc_untiled)] {
            let cfg = AutotuneConfig {
                tiles0: vec![t[0]],
                tiles1: vec![t[1]],
                rustc: Some(PathBuf::from(".bench_out/no-rustc")),
                ..AutotuneConfig::default()
            };
            let r = span("codegen.autotune", || {
                autotune(e.name, &e.nest, &refs, e.skew_f, &cfg)
            })
            .map_err(err)?;
            *acc += r
                .candidates
                .first()
                .ok_or("autotune ranked no candidate")?
                .memsim_cycles as f64;
        }
    }
    m.insert("memsim.cycles_tiled", (cyc_tiled, "cycles"));
    m.insert("memsim.cycles_untiled", (cyc_untiled, "cycles"));
    Ok(())
}
