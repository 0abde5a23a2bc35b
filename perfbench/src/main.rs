//! `perfbench`: one measured run of a named workload, in this process.
//!
//! ```text
//! perfbench run --workload ci-seq|ci-par|edit-loop --seed N --seconds S --work DIR [--trace FILE]
//! perfbench selftest
//! ```
//!
//! `run` prints one `tpot-bench/v1` report as the last line of its output:
//! the run's raw measurements (set-up passes, timed wall and CPU time, peak
//! RSS, request latencies, every verdict checked against the expected
//! table, per-POT engine and SAT counts) and, with `--trace`, the
//! per-module ledger computed from the spans collected in memory, which
//! are written to FILE when the run ends. `perfbench/run.py` builds this
//! binary, starts one process per measured run and turns the reports into
//! the benchmark's metrics.

mod ci;
mod edit;
mod ledger;
mod measure;
mod plan;

use std::path::PathBuf;

use tpot_bench::report::{int, num, s, BenchReport, TargetReport};
use tpot_obs::json::Value;

use measure::Counts;

/// What one measured run produced.
#[derive(Default)]
pub struct RunResult {
    /// Seconds of each set-up pass.
    pub setup_s: Vec<f64>,
    /// Wall and CPU seconds of the timed phase.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Verdicts (ci) or requests (edit-loop) checked.
    pub attempted: u64,
    /// One line per attempt whose verdict or response was wrong.
    pub failures: Vec<String>,
    /// Defects of the measurement itself (ledger, dropped events).
    pub integrity: Vec<String>,
    /// Client-side latency of each edit-loop request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Per-POT (ci) or per-engine-request (edit-loop) rows with counts.
    pub units: Vec<(String, Value)>,
    /// Per-layer values by metric name.
    pub layers: Vec<(String, f64)>,
    /// The base of every ratio among `layers`: (numerator, denominator,
    /// what the denominator counts).
    pub bases: Vec<(String, Value)>,
    pub engine_config: String,
    pub meta: Vec<(String, Value)>,
    /// Spans of a traced run.
    pub events: Vec<tpot_obs::Event>,
}

impl RunResult {
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.push((name.to_string(), v));
    }

    /// A ratio layer, recorded with its base.
    pub fn ratio(&mut self, name: &str, num: u64, den: u64, base: &str) {
        self.layer(
            name,
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            },
        );
        self.bases.push((
            name.to_string(),
            Value::Obj(vec![
                ("num".into(), int(num)),
                ("den".into(), int(den)),
                ("base".into(), s(base)),
            ]),
        ));
    }

    /// The engine, portfolio, solver, SAT and scheduler layers, from the
    /// `tpot-obs` counter deltas of the timed phase.
    pub fn engine_layers(&mut self, c: &Counts) {
        let queries = c.get("engine.queries");
        for k in ["engine.queries", "engine.paths", "engine.insts"] {
            self.layer(k, c.get(k) as f64);
        }
        self.ratio(
            "portfolio.cache_hit_ratio",
            c.get("engine.cache_hits"),
            queries,
            "engine.queries",
        );
        let (hit, miss) = (c.get("solver.session.hit"), c.get("solver.session.miss"));
        self.ratio(
            "portfolio.session_hit_ratio",
            hit,
            hit + miss,
            "solver.session lookups",
        );
        let lia = c.get("solver.lia.calls");
        self.layer("solver.lia_calls", lia as f64);
        self.ratio("solver.lia_calls_per_query", lia, queries, "engine.queries");
        for k in [
            "sat.solves",
            "sat.conflicts",
            "sat.decisions",
            "sat.propagations",
        ] {
            self.layer(k, c.get(k) as f64);
        }
        self.ratio(
            "sat.solves_per_query",
            c.get("sat.solves"),
            queries,
            "engine.queries",
        );
        for k in ["sched.steals", "sched.migrations"] {
            self.layer(k, c.get(k) as f64);
        }
    }

    /// Takes the collected spans, computes the ledger of the `bench.run`
    /// window, lets `split` divide workload-specific rows, and records the
    /// rows as layers.
    pub fn finish_ledger(&mut self, c: &Counts, split: impl FnOnce(&mut ledger::Ledger)) {
        self.events = tpot_obs::take_events();
        let dropped = tpot_obs::dropped_events();
        self.layer("obs.events_dropped", dropped as f64);
        if dropped > 0 {
            self.integrity
                .push(format!("{dropped} span events dropped"));
        }
        let Some(mut l) = ledger::compute(&self.events) else {
            self.integrity
                .push("the trace holds no bench.run span".into());
            return;
        };
        // Serialization runs inside engine spans and has no span of its own;
        // move its time, scaled from thread time to wall share, to smt.
        let engine_thread = l.thread_ms["engine.interp_ms"];
        let share = if engine_thread > 0.0 {
            (l.get("engine.interp_ms") / engine_thread).min(1.0)
        } else {
            0.0
        };
        let ser_ms = c.get("engine.time.serialization_us") as f64 / 1e3;
        l.shift("engine.interp_ms", "smt.serialize_ms", ser_ms * share);
        split(&mut l);
        let total = l.total();
        if (total - l.wall_ms).abs() > 1e-6 * l.wall_ms + 1e-3 || l.get(ledger::REQUEST) > 1e-9 {
            self.integrity.push(format!(
                "ledger rows sum to {total} ms, traced wall is {} ms",
                l.wall_ms
            ));
        }
        for r in ledger::ROWS {
            self.layer(r, l.get(r));
        }
        self.layer("bench.traced_wall_ms", l.wall_ms);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    work: PathBuf,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        work: PathBuf::new(),
        trace: None,
    };
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?,
            "--work" => a.work = PathBuf::from(v),
            "--trace" => a.trace = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown argument {k:?}")),
        }
    }
    if a.seconds == 0 || a.work.as_os_str().is_empty() {
        return Err("--seconds and --work are required".into());
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    // Isolation: every TPOT_* knob changes the work (TPOT_CACHE_DIR would
    // turn a cold ci run warm), so a run refuses to start under any.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TPOT_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!("refusing to run with {knobs:?} set"));
    }
    if a.trace.is_some() {
        tpot_obs::configure(tpot_obs::config().collect(true));
    }
    let traced = a.trace.is_some();
    let (jobs, res) = match a.workload.as_str() {
        "ci-seq" => (
            1,
            ci::run(plan::ci_draw(a.seed, a.seconds as f64), 1, traced),
        ),
        // The one pool POT whose paths keep both workers busy.
        "ci-par" => (2, ci::run(vec![plan::ALWAYS_DRAWN], 2, traced)),
        "edit-loop" => (1, edit::run(a.seed, a.seconds, traced, &a.work)),
        w => return Err(format!("unknown workload {w:?}")),
    };
    if let Some(p) = &a.trace {
        tpot_obs::write_atomic(p, &tpot_obs::trace::events_jsonl(&res.events))
            .map_err(|e| format!("writing {}: {e}", p.display()))?;
    }
    println!("{}", report(&a, jobs, res).render());
    Ok(())
}

fn report(a: &Args, jobs: usize, res: RunResult) -> BenchReport {
    let mut r = BenchReport::new("perfbench");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.meta("workload", s(&a.workload))
        .meta("seed", int(a.seed))
        .meta("seconds", int(a.seconds))
        .meta("jobs", int(jobs as u64))
        .meta("nproc", int(nproc as u64))
        .meta("traced", Value::Bool(a.trace.is_some()))
        .meta("engine_config", s(&res.engine_config))
        .meta("obs_config", s(format!("{:?}", tpot_obs::config())));
    r.meta.extend(res.meta);
    for (name, v) in res.units {
        let mut row = TargetReport::new(&name);
        if let Value::Obj(fields) = v {
            row.fields = fields;
        }
        r.targets.push(row);
    }
    let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|x| num(*x)).collect());
    let strs = |xs: &[String]| Value::Arr(xs.iter().map(s).collect());
    r.summary("setup_s", nums(&res.setup_s))
        .summary("wall_s", num(res.wall_s))
        .summary("cpu_s", num(res.cpu_s))
        .summary("peak_rss_mb", num(measure::peak_rss_mb()))
        .summary("attempted", int(res.attempted))
        .summary("failures", strs(&res.failures))
        .summary("integrity", strs(&res.integrity))
        .summary("latencies_ms", nums(&res.latencies_ms))
        .summary(
            "layers",
            Value::Obj(res.layers.into_iter().map(|(k, v)| (k, num(v))).collect()),
        )
        .summary("bases", Value::Obj(res.bases));
    r
}

/// Checks that the expected table lists every bundled POT and nothing
/// else, and that one wrong verdict injected into a real run is counted.
fn selftest() -> Result<(), String> {
    let mut listed = 0;
    for (id, _) in plan::TARGETS {
        let pots = plan::target(id).pots().map_err(|e| e.to_string())?;
        for p in &pots {
            if plan::expected(plan::EXPECTED, id, p).is_none() {
                return Err(format!("{id}:{p} is not in the expected table"));
            }
        }
        let in_table = plan::EXPECTED.iter().filter(|(t, _, _)| *t == id).count();
        if in_table != pots.len() {
            return Err(format!(
                "{id}: table lists {in_table} POTs, target has {}",
                pots.len()
            ));
        }
        listed += in_table;
    }
    if listed != plan::EXPECTED.len() {
        return Err("the expected table names a target that is not bundled".into());
    }
    println!("expected table covers all {listed} bundled POTs");

    let pots = ["spec__nr_pages", "spec__init"];
    let results = plan::target("pkvm")
        .verifier()
        .map_err(|e| e.to_string())?
        .verify(&tpot_engine::VerifyOptions::new().pots(pots).jobs(1));
    let fails = |table: &[(&str, &str, plan::Verdict)]| {
        results
            .iter()
            .filter(|r| ci::check(table, "pkvm", &r.pot, &r.status).is_some())
            .count()
    };
    let mut injected = plan::EXPECTED.to_vec();
    for e in injected
        .iter_mut()
        .filter(|e| e.0 == "pkvm" && e.1 == "spec__init")
    {
        e.2 = plan::Verdict::Failed;
    }
    let (clean, wrong) = (fails(plan::EXPECTED), fails(&injected));
    println!("fail_share: {clean}/2 as expected, {wrong}/2 with one injected wrong verdict");
    if clean != 0 || wrong != 1 {
        return Err("an injected wrong verdict must raise fail_share from 0 to 1/2".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("selftest") => selftest(),
        _ => Err("usage: perfbench run --workload W --seed N --seconds S --work DIR [--trace FILE] | perfbench selftest".into()),
    };
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
