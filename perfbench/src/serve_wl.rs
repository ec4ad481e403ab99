//! serve-mixed: a closed loop of two clients against an in-process
//! `ServeEngine` over a `BatchCompiler` at the default cache capacity, with
//! an `ArtifactStore` in a fresh directory, under
//! `epgs_bench::corpus_framework()`.
//!
//! Every request line goes through `protocol::parse_request`, the engine,
//! and `protocol::render_compile`. One pass sends the whole seeded request
//! stream through a fresh engine and store, so every pass sees the same
//! mix of memory hits, disk hits, compiles and coalesced duplicates.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use epgs::{BatchCompiler, CacheStats, Compiled, FrameworkConfig, StoreStats};
use epgs_corpus::{CorpusSpec, Writer};
use epgs_graph::{canon, generators, Graph};
use epgs_serve::protocol::{parse_request, render_compile};
use epgs_serve::{Request, ServeEngine, ServeOutcome};

use crate::check::Quality;
use crate::stages;
use crate::trace::{maybe_span, Tracer};
use crate::util::percentile;
use crate::workload::{account, repeat_for, set_up, Checker, Opts, Run};

/// Requests in one pass of the stream.
const REQUESTS: usize = 1200;
/// Closed-loop clients (one per core of the reference machine).
const CLIENTS: usize = 2;
/// Requests per block; every block holds the same mix.
const BLOCK: usize = 10;
/// Fresh relabelings of a corpus graph per block (30% of requests).
const FRESH_PER_BLOCK: usize = 3;
/// Every this many fresh relabelings, the next repeat request asks for the
/// same graph again, mostly while it still compiles (10% of them).
const DUPLICATE_EVERY: usize = 10;

const OUTCOMES: [ServeOutcome; 4] = [
    ServeOutcome::MemoryHit,
    ServeOutcome::DiskHit,
    ServeOutcome::Compiled,
    ServeOutcome::Coalesced,
];

/// The seeded request stream.
struct Stream {
    /// Distinct exact graphs, in order of first issue.
    graphs: Vec<Graph>,
    /// Per request: index into `graphs`.
    requests: Vec<usize>,
    /// Per request: the protocol line.
    lines: Vec<String>,
}

/// Builds the stream: the default corpus graphs seed the pool of issued
/// graphs. Each block of [`BLOCK`] requests holds [`FRESH_PER_BLOCK`] fresh
/// random relabelings of corpus graphs (exact-key misses) at seeded
/// positions; the other requests repeat an issued graph drawn
/// log-uniformly over issue order (a Zipf(1)-like popularity in which
/// early graphs stay hot and late ones fall out of the LRU).
///
/// The k-th fresh relabeling is the same for every seed (drawn from
/// `epgs_bench::SEED`, the corpus graphs taking turns), and every block
/// holds the same mix, so the work of a pass barely changes between seeds;
/// the seed places the fresh graphs and draws the repeats.
fn stream(seed: u64) -> Stream {
    let corpus: Vec<Graph> = CorpusSpec::default_corpus()
        .instances()
        .into_iter()
        .map(|i| i.graph)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fixed = StdRng::seed_from_u64(epgs_bench::SEED);
    let mut turn: Vec<usize> = (0..corpus.len()).collect();
    turn.shuffle(&mut fixed);
    let mut graphs = corpus.clone();
    let mut requests: Vec<usize> = Vec::with_capacity(REQUESTS);
    let mut fresh = 0usize;
    let mut duplicate: Option<usize> = None;
    while requests.len() < REQUESTS {
        let mut slots: Vec<bool> = (0..BLOCK).map(|i| i < FRESH_PER_BLOCK).collect();
        slots.shuffle(&mut rng);
        for is_fresh in slots {
            if is_fresh {
                let base = &corpus[turn[fresh % corpus.len()]];
                let mut perm: Vec<usize> = (0..base.vertex_count()).collect();
                perm.shuffle(&mut fixed);
                graphs.push(canon::relabel(base, &perm));
                requests.push(graphs.len() - 1);
                fresh += 1;
                if fresh.is_multiple_of(DUPLICATE_EVERY) {
                    duplicate = Some(graphs.len() - 1);
                }
            } else if let Some(g) = duplicate.take() {
                requests.push(g);
            } else {
                let u: f64 = rng.gen();
                let rank = ((graphs.len() as f64).powf(u) as usize).clamp(1, graphs.len());
                requests.push(rank - 1);
            }
        }
    }
    requests.truncate(REQUESTS);
    let lines = requests
        .iter()
        .enumerate()
        .map(|(i, &g)| request_line(i, &graphs[g]))
        .collect();
    Stream {
        graphs,
        requests,
        lines,
    }
}

fn request_line(id: usize, g: &Graph) -> String {
    let mut w = Writer::new();
    w.begin_obj();
    w.field_str("op", "compile");
    w.field_uint("id", id as u64);
    w.key("graph");
    w.begin_obj();
    w.field_uint("n", g.vertex_count() as u64);
    w.key("edges");
    w.begin_arr();
    for (a, b) in g.edges() {
        w.begin_arr();
        w.uint(a as u64);
        w.uint(b as u64);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// One answered request.
struct Reply {
    secs: f64,
    outcome: ServeOutcome,
    /// The compiled artifact, or why the request failed (an error reply, a
    /// degraded answer, or an unparsable line).
    result: Result<Arc<Compiled>, String>,
}

/// Hands out a fresh engine over a fresh store directory per pass.
struct Engines<'a> {
    config: FrameworkConfig,
    out_dir: &'a Path,
    opened: usize,
    /// An engine opened ahead of time (during set-up).
    ready: Option<(ServeEngine, PathBuf)>,
}

impl Engines<'_> {
    fn open(&mut self) -> (ServeEngine, PathBuf) {
        let dir = self
            .out_dir
            .join(format!("store-{}-{}", std::process::id(), self.opened));
        self.opened += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let batch =
            BatchCompiler::with_store(self.config.clone(), &dir).expect("store directory opens");
        (ServeEngine::from_batch(batch), dir)
    }

    fn next(&mut self) -> (Arc<ServeEngine>, PathBuf) {
        let (engine, dir) = self.ready.take().unwrap_or_else(|| self.open());
        (Arc::new(engine), dir)
    }

    /// Drops an engine and deletes its store.
    fn close<E>((engine, dir): (E, PathBuf)) {
        drop(engine);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn serve_one(
    engine: &ServeEngine,
    line: &str,
    i: u64,
    tr: Option<&Tracer>,
    root: Option<usize>,
) -> Reply {
    let t = Instant::now();
    let parsed = maybe_span(tr, "protocol", i, root, |_| parse_request(line));
    let Ok(Request::Compile {
        id,
        graph,
        want_qasm,
    }) = parsed
    else {
        return Reply {
            secs: t.elapsed().as_secs_f64(),
            outcome: ServeOutcome::Compiled,
            result: Err("request line did not parse as a compile".into()),
        };
    };
    let reply = maybe_span(tr, "serve", i, root, |_| engine.compile(&graph));
    let text = maybe_span(tr, "protocol", i, root, |_| {
        render_compile(&id, &graph, &reply, want_qasm)
    });
    black_box(text);
    let result = match reply.result {
        Ok(_) if reply.degraded => Err("degraded reply".into()),
        Ok(c) => Ok(c),
        Err(e) => Err(format!("{}: {}", e.kind.as_str(), e.message)),
    };
    Reply {
        secs: t.elapsed().as_secs_f64(),
        outcome: reply.outcome,
        result,
    }
}

/// State the main thread shares with the client threads.
struct Pool {
    engine: Mutex<Option<Arc<ServeEngine>>>,
    traced: AtomicBool,
    next: AtomicUsize,
    stop: AtomicBool,
    replies: Mutex<Vec<(usize, Reply)>>,
    start: Barrier,
    end: Barrier,
}

/// Releases the client threads for good, also when the body unwinds.
struct StopOnDrop<'a>(&'a Pool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.start.wait();
    }
}

/// One pass: the engine to serve from and whether to record spans; returns
/// the pass wall and the replies in request order.
type PassFn<'a> = dyn FnMut(&Arc<ServeEngine>, bool) -> (f64, Vec<Reply>) + 'a;

/// Runs `body` with [`CLIENTS`] closed-loop client threads that serve
/// every pass it starts. The threads live for the whole run: with fresh
/// threads per pass, peak memory grew by a run-dependent 0–20 MiB (the
/// allocator's per-thread arenas).
fn with_clients<R>(s: &Stream, tr: Option<&Tracer>, body: impl FnOnce(&mut PassFn) -> R) -> R {
    let pool = Pool {
        engine: Mutex::new(None),
        traced: AtomicBool::new(false),
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        replies: Mutex::new(Vec::with_capacity(REQUESTS)),
        start: Barrier::new(CLIENTS + 1),
        end: Barrier::new(CLIENTS + 1),
    };
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                pool.start.wait();
                if pool.stop.load(Ordering::SeqCst) {
                    return;
                }
                let engine = pool
                    .engine
                    .lock()
                    .expect("pool lock poisoned")
                    .clone()
                    .expect("an engine is set before a pass starts");
                let tr = tr.filter(|_| pool.traced.load(Ordering::SeqCst));
                let mut mine = Vec::new();
                loop {
                    let i = pool.next.fetch_add(1, Ordering::Relaxed);
                    let Some(line) = s.lines.get(i) else { break };
                    let reply = maybe_span(tr, "request", i as u64, None, |root| {
                        serve_one(&engine, line, i as u64, tr, root)
                    });
                    mine.push((i, reply));
                }
                drop(engine);
                pool.replies
                    .lock()
                    .expect("pool lock poisoned")
                    .extend(mine);
                pool.end.wait();
            });
        }
        let _stop = StopOnDrop(&pool);
        let mut pass = |engine: &Arc<ServeEngine>, traced: bool| {
            *pool.engine.lock().expect("pool lock poisoned") = Some(Arc::clone(engine));
            pool.traced.store(traced, Ordering::SeqCst);
            pool.next.store(0, Ordering::SeqCst);
            let t0 = Instant::now();
            pool.start.wait();
            pool.end.wait();
            let wall = t0.elapsed().as_secs_f64();
            *pool.engine.lock().expect("pool lock poisoned") = None;
            let mut replies =
                std::mem::take(&mut *pool.replies.lock().expect("pool lock poisoned"));
            replies.sort_by_key(|r| r.0);
            (wall, replies.into_iter().map(|r| r.1).collect::<Vec<_>>())
        };
        body(&mut pass)
    })
}

fn outcome_slot(o: ServeOutcome) -> usize {
    OUTCOMES
        .iter()
        .position(|&x| x == o)
        .expect("every outcome is listed")
}

pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Run {
    let mut engines = Engines {
        config: epgs_bench::corpus_framework().config().clone(),
        out_dir: &opts.out_dir,
        opened: 0,
        ready: None,
    };
    let (setup_s, (s, base)) = set_up(opts.start, |last| {
        let s = stream(opts.seed);
        let graphs: Vec<&Graph> = s.graphs.iter().collect();
        let base = stages::baselines(tracer.filter(|_| last), &graphs);
        if let Some(stale) = engines.ready.take() {
            Engines::close(stale);
        }
        engines.ready = Some(engines.open());
        // Warm-up on a throwaway engine: a miss and a hit through the
        // protocol, on a graph outside the corpus.
        let warm = engines.open();
        let line = request_line(0, &generators::cycle(9));
        for _ in 0..2 {
            black_box(serve_one(&warm.0, &line, 0, None, None).result.is_ok());
        }
        Engines::close(warm);
        (s, base)
    });
    let setup_spans = tracer.map_or(0, Tracer::len);
    let mut run = Run {
        setup_s,
        ops_per_pass: REQUESTS,
        ..Run::default()
    };

    // Engines after the first are opened between passes, outside the
    // timed region. A traced run alternates untraced and traced passes, so
    // that slow phases of the machine fall on both alike.
    let mut checker = Checker::default();
    let mut counts = [0usize; 4];
    let mut first: Option<Vec<Reply>> = None;
    let mut traced = TracedPasses::default();
    with_clients(&s, tracer, |pass| {
        let mut one_pass = |with_spans: bool| -> f64 {
            let engine = engines.next();
            let (wall, replies) = pass(&engine.0, with_spans);
            if with_spans {
                let b = engine.0.batch();
                traced.stats.get_or_insert((
                    b.cache_stats(),
                    b.store().map(|st| (st.stats(), st.total_bytes())),
                ));
                traced.walls.push(wall);
                for r in &replies {
                    traced.ms_by_outcome[outcome_slot(r.outcome)].push(1e3 * r.secs);
                }
            } else {
                run.pass_wall_s.push(wall);
                run.op_s.push(replies.iter().map(|r| r.secs).collect());
                for r in &replies {
                    counts[outcome_slot(r.outcome)] += 1;
                }
            }
            Engines::close(engine);
            checker.pass(&mut run, check_items(&s, &replies));
            if !with_spans {
                first.get_or_insert(replies);
            }
            wall
        };
        if tracer.is_some() {
            repeat_for(2.0 * opts.seconds, || one_pass(false) + one_pass(true));
        } else {
            repeat_for(opts.seconds, || one_pass(false));
        }
    });
    let first = first.expect("at least one pass");
    let total: usize = counts.iter().sum();
    run.notes.push(format!(
        "outcome shares over {total} requests: {}",
        OUTCOMES
            .iter()
            .zip(counts)
            .map(|(o, c)| format!("{} {:.1}%", o.as_str(), 100.0 * c as f64 / total as f64))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    run.quality = Quality::of(
        first
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|c| &c.circuit),
    );
    run.ratios = s
        .requests
        .iter()
        .zip(&first)
        .filter_map(|(&g, r)| {
            let b = base[g].filter(|&b| b > 0)?;
            Some(r.result.as_ref().ok()?.metrics.ee_two_qubit_count as f64 / b as f64)
        })
        .collect();
    let skipped = base.iter().filter(|b| b.unwrap_or(0) == 0).count();
    run.pinned.push(("baseline_skipped", skipped as f64));

    if let Some(tr) = tracer {
        run.layers.insert(
            "baseline.s",
            tr.self_s_by_layer(0..setup_spans)
                .get("baseline")
                .copied()
                .unwrap_or(0.0),
        );
        run.layers.insert(
            "baseline.ee_cnots",
            base.iter().flatten().sum::<usize>() as f64,
        );
        run.layers.insert("baseline.skipped", skipped as f64);
        for (o, c) in OUTCOMES.iter().zip(counts) {
            run.layers.insert(share_key(*o), c as f64 / total as f64);
        }
        report_traced(tr, &s, &traced, setup_spans..tr.len(), &mut run);
    }
    run
}

fn check_items<'a>(
    s: &'a Stream,
    replies: &'a [Reply],
) -> impl Iterator<Item = (u64, &'a Graph, Result<&'a epgs_circuit::Circuit, String>)> + 'a {
    s.requests.iter().zip(replies).map(|(&g, r)| {
        (
            g as u64,
            &s.graphs[g],
            r.result.as_ref().map(|c| &c.circuit).map_err(Clone::clone),
        )
    })
}

fn share_key(o: ServeOutcome) -> &'static str {
    match o {
        ServeOutcome::MemoryHit => "serve.memory_hit.share",
        ServeOutcome::DiskHit => "serve.disk_hit.share",
        ServeOutcome::Compiled => "serve.compiled.share",
        ServeOutcome::Coalesced => "serve.coalesced.share",
    }
}

fn p50_key(o: ServeOutcome) -> &'static str {
    match o {
        ServeOutcome::MemoryHit => "serve.memory_hit.ms_p50",
        ServeOutcome::DiskHit => "serve.disk_hit.ms_p50",
        ServeOutcome::Compiled => "serve.compiled.ms_p50",
        ServeOutcome::Coalesced => "serve.coalesced.ms_p50",
    }
}

/// What the traced passes leave for the per-layer report.
#[derive(Default)]
struct TracedPasses {
    walls: Vec<f64>,
    ms_by_outcome: [Vec<f64>; 4],
    /// Cache and store counters of the first traced pass's engine.
    stats: Option<(CacheStats, Option<(StoreStats, u64)>)>,
}

/// Per-layer metrics of the traced passes, whose spans are `spans`.
fn report_traced(
    tr: &Tracer,
    s: &Stream,
    traced: &TracedPasses,
    spans: std::ops::Range<usize>,
    run: &mut Run,
) {
    let n_passes = traced.walls.len() as f64;
    let by_outcome = &traced.ms_by_outcome;
    for (o, ms) in OUTCOMES.iter().zip(by_outcome) {
        run.layers.insert(p50_key(*o), percentile(ms, 50.0).0);
    }
    run.layers.insert(
        "serve.coalesced",
        by_outcome[outcome_slot(ServeOutcome::Coalesced)].len() as f64 / n_passes,
    );

    let by_layer = tr.self_s_by_layer(spans);
    let layer = |k: &str| by_layer.get(k).copied().unwrap_or(0.0) / n_passes;
    run.layers.insert("protocol.s", layer("protocol"));
    run.layers.insert("serve.s", layer("serve"));
    // Client time is spent by CLIENTS threads at once; per wall second the
    // layers cover CLIENTS seconds.
    account(
        run,
        &traced.walls,
        (layer("protocol") + layer("serve")) / CLIENTS as f64,
    );

    // The engine hashes each request internally; from outside, the canon
    // layer is timed by repeating those two calls per request.
    let mark = tr.len();
    for (i, &g) in s.requests.iter().enumerate() {
        tr.span("canon", i as u64, None, |_| {
            let g = &s.graphs[g];
            black_box((canon::canonical_hash(g), epgs::store::exact_graph_hash(g)))
        });
    }
    run.layers.insert(
        "canon.s",
        tr.self_s_by_layer(mark..tr.len())
            .get("canon")
            .copied()
            .unwrap_or(0.0),
    );

    let (cache, store) = traced.stats.expect("at least one traced pass");
    run.layers.insert("cache.hits", cache.hits as f64);
    run.layers.insert("cache.misses", cache.misses as f64);
    run.layers.insert("cache.evictions", cache.evictions as f64);
    run.layers.insert(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    if let Some((st, bytes)) = store {
        run.layers.insert("store.disk_hits", st.disk_hits as f64);
        run.layers.insert("store.writes", st.writes as f64);
        run.layers.insert("store.bytes", bytes as f64);
        run.layers
            .insert("store.read_retries", st.read_retries as f64);
    }
}
