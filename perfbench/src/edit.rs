//! `edit-loop`: the interactive path through an in-process tpotd.
//!
//! Untimed prefill cold-verifies the edit set into a fresh cache directory.
//! Set-up restarts tpotd on that directory and waits until `/v1/status`
//! answers. The timed phase is a closed loop of one client sending a
//! seeded stream of edits, reverts and unchanged resubmits to
//! `/v1/verify`, timing each from send to full response.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tpot_api::{http, CacheProvenance, PotStatusWire, VerifyRequest, VerifyResponse};
use tpot_daemon::{DaemonConfig, DaemonHandle};
use tpot_engine::{EngineConfig, PotStatus};
use tpot_obs::json::{self, Value};
use tpot_targets::Target;

use crate::measure::{self, counts_json, Counts, REPEAT_COUNTS};
use crate::plan::{self, Kind, EDIT_SET};
use crate::{ci, ledger, RunResult};

/// Set-up passes per untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 1001;

/// Requests per second of `--seconds`.
const REQUESTS_PER_SECOND: u64 = 5;

/// One component of the edit set and the versions the stream made of it.
struct Component {
    id: &'static str,
    target: Target,
    pots: Vec<String>,
    /// Byte offsets in the implementation source where ` + 0` may go.
    sites: Vec<usize>,
    /// Every version so far, as a count of ` + 0` per site; the last is the
    /// newest and the first is the unedited base.
    versions: Vec<Vec<u32>>,
}

impl Component {
    fn new(id: &'static str, pots: &[&str]) -> Component {
        let target = plan::target(id);
        let module = target.module().expect("bundled targets compile");
        let pots: Vec<String> = pots.iter().map(|p| p.to_string()).collect();
        let cone: std::collections::BTreeSet<String> = pots
            .iter()
            .flat_map(|p| tpot_ir::diff::pot_cone(&module, p))
            .collect();
        let digests = |m: &tpot_ir::Module, pots: &[String]| -> Vec<u64> {
            pots.iter()
                .map(|p| tpot_ir::diff::cone_digest(m, p))
                .collect()
        };
        let base = digests(&module, &pots);
        let mut c = Component {
            id,
            target,
            pots,
            sites: Vec::new(),
            versions: Vec::new(),
        };
        // Keep a site only if a single edit there compiles and changes the
        // cone of a requested POT, so every edit makes the engine run.
        for (func, at) in plan::return_sites(c.target.impl_src) {
            if !cone.contains(&func) {
                continue;
            }
            c.sites.push(at);
            let mut one = vec![0; c.sites.len()];
            one[c.sites.len() - 1] = 1;
            let changes = tpot_cfront::compile(&c.source(&one))
                .ok()
                .and_then(|ck| tpot_ir::lower(&ck).ok())
                .is_some_and(|m| digests(&m, &c.pots) != base);
            if !changes {
                c.sites.pop();
            }
        }
        assert!(
            !c.sites.is_empty(),
            "{id}: no edit site in the edit set's cones"
        );
        c.versions.push(vec![0; c.sites.len()]);
        c
    }

    /// The translation unit of a version.
    fn source(&self, version: &[u32]) -> String {
        let src = self.target.impl_src;
        let mut out = String::with_capacity(src.len() + 64);
        let mut last = 0;
        let mut edits: Vec<(usize, u32)> = self
            .sites
            .iter()
            .copied()
            .zip(version.iter().copied())
            .collect();
        edits.sort_unstable();
        for (at, n) in edits {
            out.push_str(&src[last..at]);
            for _ in 0..n {
                out.push_str(" + 0");
            }
            last = at;
        }
        out.push_str(&src[last..]);
        plan::full_source(&self.target, &out)
    }

    fn request(&self, version: &[u32]) -> VerifyRequest {
        VerifyRequest::for_source(self.source(version))
            .with_pots(self.pots.clone())
            .with_label(self.id)
    }
}

/// A request of the stream, prepared before the timed phase.
struct Prepared {
    comp: usize,
    kind: Kind,
    body: String,
    /// The benchmark's own timing of the module and cone digests the
    /// daemon computes for this request, in ms.
    digest_ms: f64,
}

fn start(dir: &Path) -> DaemonHandle {
    let _s = tpot_obs::span("bench", "daemon_start");
    tpot_daemon::start(
        DaemonConfig::new()
            .addr("127.0.0.1:0")
            .cache_dir(dir)
            .default_jobs(1),
    )
    .expect("tpotd starts on loopback")
}

fn wait_ready(addr: &str) {
    loop {
        let _s = tpot_obs::span("bench", "status");
        if matches!(http::get(addr, "/v1/status"), Ok((200, _))) {
            return;
        }
    }
}

fn post(addr: &str, body: &str) -> Result<VerifyResponse, String> {
    let (status, text) = http::post(addr, "/v1/verify", body).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("HTTP {status}: {text}"));
    }
    let resp = json::parse(&text)
        .map_err(|e| format!("bad JSON: {e}"))
        .and_then(|v| VerifyResponse::from_json(&v).map_err(|e| e.to_string()))?;
    match &resp.error {
        Some(e) => Err(format!("API error: {e}")),
        None => Ok(resp),
    }
}

/// Why a response does not match the expected table, or `None` if it does.
fn check(comp: &Component, resp: &VerifyResponse) -> Option<String> {
    if resp.pots.len() != comp.pots.len() {
        return Some(format!(
            "{} of {} POTs answered",
            resp.pots.len(),
            comp.pots.len()
        ));
    }
    resp.pots.iter().find_map(|o| {
        let status = match o.status {
            PotStatusWire::Proved => PotStatus::Proved,
            PotStatusWire::Failed => PotStatus::Failed(Vec::new()),
            PotStatusWire::Error => PotStatus::Error(o.detail.join("; ")),
        };
        ci::check(plan::EXPECTED, comp.id, &o.pot, &status).map(|w| format!("{}: {w}", o.pot))
    })
}

/// One measured edit-loop run of the stream for `seed`, with its cache
/// directory under `work`.
pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path) -> RunResult {
    let mut out = RunResult {
        engine_config: format!("{:?}, tpotd default_jobs 1", EngineConfig::default()),
        ..RunResult::default()
    };
    let dir: PathBuf = work.join(format!("edit-loop-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut comps: Vec<Component> = EDIT_SET
        .iter()
        .map(|(id, pots)| Component::new(id, pots))
        .collect();

    // The stream, rendered up front so that the timed phase only sends.
    let steps = plan::edit_stream(seed, (REQUESTS_PER_SECOND * seconds) as usize);
    let mut prepared = Vec::with_capacity(steps.len());
    for s in &steps {
        let c = &mut comps[s.comp];
        let newest = c.versions.len() - 1;
        let v = match s.kind {
            Kind::Edit => {
                let mut v = c.versions[newest].clone();
                let site = (s.pick % v.len() as u64) as usize;
                v[site] += 1;
                c.versions.push(v);
                newest + 1
            }
            Kind::Revert if newest > 0 => (s.pick % newest as u64) as usize,
            Kind::Revert | Kind::Resubmit => newest,
        };
        let req = c.request(&c.versions[v]);
        let module = tpot_cfront::compile(req.source.as_deref().unwrap_or_default())
            .ok()
            .and_then(|ck| tpot_ir::lower(&ck).ok())
            .expect("edited sources compile");
        let t0 = Instant::now();
        std::hint::black_box(tpot_ir::diff::module_digest(&module));
        for p in &c.pots {
            std::hint::black_box(tpot_ir::diff::cone_digest(&module, p));
        }
        prepared.push(Prepared {
            comp: s.comp,
            kind: s.kind,
            body: req.to_json().render(),
            digest_ms: measure::ms(t0.elapsed()),
        });
    }

    // Untimed prefill: cold runs of the edit set fill the cache directory.
    let daemon = start(&dir);
    let addr = daemon.addr_string();
    for c in &comps {
        let resp = post(&addr, &c.request(&c.versions[0]).to_json().render());
        if let Some(why) = resp.map_or_else(Some, |r| check(c, &r)) {
            out.failures.push(format!("prefill {}: {why}", c.id));
        }
    }
    daemon.shutdown();

    let run_span = tpot_obs::span("bench", "run");
    let mut daemon = None;
    let passes = if traced { 1 } else { SETUP_PASSES };
    for i in 0..passes {
        let t0 = Instant::now();
        let d = start(&dir);
        wait_ready(&d.addr_string());
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < passes {
            d.shutdown();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up pass");
    let addr = daemon.addr_string();

    let before = measure::counters();
    let cpu0 = measure::cpu_s();
    let t0 = Instant::now();
    let (mut service_ms, mut engine_ms, mut overhead_ms, mut digest_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut provenance = [0u64; 3];
    for (i, p) in prepared.iter().enumerate() {
        let c0 = measure::counters();
        let sent = Instant::now();
        let resp = {
            let _s = tpot_obs::span("bench", "request");
            post(&addr, &p.body)
        };
        let latency_ms = measure::ms(sent.elapsed());
        let counts = measure::delta(&c0, &measure::counters());
        out.attempted += 1;
        out.latencies_ms.push(latency_ms);
        digest_ms += p.digest_ms;
        let comp = &comps[p.comp];
        let why = match &resp {
            Ok(r) => check(comp, r),
            Err(e) => Some(e.clone()),
        };
        if let Some(why) = &why {
            out.failures.push(format!(
                "request {i} ({} {}): {why}",
                p.kind.name(),
                comp.id
            ));
        }
        if let Ok(r) = &resp {
            service_ms += r.duration_ms;
            overhead_ms += (latency_ms - r.duration_ms).max(0.0);
            for o in &r.pots {
                let k = match o.provenance {
                    CacheProvenance::Cached => 0,
                    CacheProvenance::Replayed => 1,
                    CacheProvenance::Solved => 2,
                };
                provenance[k] += 1;
                if k > 0 {
                    engine_ms += o.duration_ms;
                }
            }
        }
        if counts.get("engine.queries") > 0 {
            out.units.push((
                format!("request{i}:{}", comp.id),
                unit(latency_ms, why.is_none(), &counts),
            ));
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = measure::cpu_s() - cpu0;
    let counts = measure::delta(&before, &measure::counters());
    drop(run_span);
    daemon.shutdown();

    out.layer("ir.digest_ms", digest_ms);
    out.layer("engine.verify_ms", engine_ms);
    out.engine_layers(&counts);
    let answered: u64 = provenance.iter().sum();
    out.layer("daemon.service_ms", service_ms);
    for (k, name) in [
        "daemon.cached_share",
        "daemon.replayed_share",
        "daemon.solved_share",
    ]
    .iter()
    .enumerate()
    {
        out.ratio(name, provenance[k], answered, "POT outcomes answered");
    }
    proofcache_layers(&mut out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if traced {
        out.finish_ledger(&counts, |l| {
            // Client time outside the daemon's own timing is API overhead;
            // the rest of a request's unspanned time is the daemon's own
            // code (parsing, digests, cache probes and flushes).
            l.shift(ledger::REQUEST, "api.overhead_ms", overhead_ms);
            let rest = l.get(ledger::REQUEST);
            l.shift(ledger::REQUEST, "daemon.self_ms", rest);
        });
    }
    let versions: Vec<Value> = comps
        .iter()
        .map(|c| {
            Value::Str(format!(
                "{}: {} sites, {} versions",
                c.id,
                c.sites.len(),
                c.versions.len()
            ))
        })
        .collect();
    out.meta.push(("edit_set".into(), Value::Arr(versions)));
    out
}

fn unit(latency_ms: f64, ok: bool, counts: &Counts) -> Value {
    let pairs: Vec<(&str, u64)> = REPEAT_COUNTS.iter().map(|k| (*k, counts.get(k))).collect();
    Value::Obj(vec![
        ("ms".into(), Value::Num(latency_ms)),
        ("ok".into(), Value::Bool(ok)),
        ("counts".into(), counts_json(&pairs)),
    ])
}

/// `proofcache.*`: loading the run's final cache file, and one put plus
/// the whole-file rewrite a flush makes, on a copy of it. Medians of five.
fn proofcache_layers(out: &mut RunResult, dir: &Path) {
    let file = dir.join("proofs.cache");
    let copy = dir.join("flush-probe.cache");
    let kb = std::fs::metadata(&file).map_or(0, |m| m.len()) as f64 / 1024.0;
    let (mut load, mut flush) = (Vec::new(), Vec::new());
    for i in 0..5u64 {
        let t0 = Instant::now();
        let cache = tpot_portfolio::ProofCache::open(&file);
        load.push(measure::ms(t0.elapsed()));
        drop(cache);
        if std::fs::copy(&file, &copy).is_err() {
            continue;
        }
        let Ok(mut cache) = tpot_portfolio::ProofCache::open(&copy) else {
            continue;
        };
        cache.put_query(u64::MAX - i, 0, tpot_portfolio::CachedOutcome::Unsat);
        let t0 = Instant::now();
        if cache.flush().is_ok() {
            flush.push(measure::ms(t0.elapsed()));
        }
    }
    out.layer("proofcache.load_ms", measure::median(&load));
    if flush.is_empty() {
        out.integrity
            .push("proofcache: flushing a copy of the cache file failed".into());
    } else {
        out.layer("proofcache.flush_ms", measure::median(&flush));
    }
    out.layer("proofcache.file_kb", kb);
}
