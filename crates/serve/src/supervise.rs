//! Daemon supervision: `epgs-serve --supervise` warm-restart loop.
//!
//! The supervisor owns the real stdin/stdout and proxies the wire protocol
//! to a spawned worker process (the same binary without `--supervise`).
//! Its job is the crash-and-recover phase transition:
//!
//! * **Warm restart** — when the worker dies (an injected `crash` fault, a
//!   real abort, a kill), the supervisor respawns it with capped
//!   exponential backoff and replays every request that never got a
//!   response. The worker's `fsck`-at-open pass recovers the artifact
//!   store, so replayed compiles usually land as disk hits.
//! * **Per-key circuit breaker** — every unanswered compile in flight at a
//!   crash earns its graph key a strike. A key that reaches the strike cap
//!   is never dispatched again: the client gets a structured
//!   `compile_failed` ("circuit breaker open") instead of crash-looping
//!   the worker. Healthy traffic keeps flowing.
//! * **Health annotation** — worker `health` responses pass through with a
//!   `supervisor` object appended (restarts, open breaker keys, backoff).
//!   While no worker is alive the supervisor answers `health` itself with
//!   state `recovering`.
//!
//! The supervisor exits when the worker exits cleanly (a `shutdown`
//! request) or when stdin closes and every pending request is answered.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use epgs::faults::lock_recover;
use epgs::store::exact_graph_hash;
use epgs_corpus::json::Value;
use epgs_graph::canon::canonical_hash;

use crate::protocol::{self, Request};

/// Supervisor tuning knobs (see the binary's usage text).
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Worker argv: program path followed by its arguments.
    pub worker_cmd: Vec<String>,
    /// First respawn delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Upper bound on the respawn delay.
    pub backoff_cap: Duration,
    /// Crash strikes before a graph key's breaker opens.
    pub breaker_strikes: u32,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            worker_cmd: Vec::new(),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(2000),
            breaker_strikes: 2,
        }
    }
}

/// One request awaiting its response.
struct PendingReq {
    /// Replay order (monotonic submission sequence).
    seq: u64,
    /// The raw request line, replayed verbatim after a crash.
    line: String,
    /// Parsed echo id, for synthesizing breaker errors.
    id: Value,
    /// Compile graph key `(canonical, exact)`; only compiles earn strikes.
    key: Option<(u64, u64)>,
    /// Generation of the last worker this request was written to.
    sent_to: Option<u64>,
}

/// The live worker's stdin, tagged with the worker's generation (the
/// restart count it was spawned at).
struct WorkerIn {
    generation: u64,
    stdin: Box<dyn Write + Send>,
}

/// State shared between the stdin pump and the respawn loop.
struct Shared {
    /// Unanswered requests, keyed by rendered id.
    pending: Mutex<HashMap<String, PendingReq>>,
    /// The live worker's stdin (`None` while crashed/respawning). Lock
    /// order: `child_in` before `pending`.
    child_in: Mutex<Option<WorkerIn>>,
    /// Crash strikes per graph key.
    strikes: Mutex<HashMap<(u64, u64), u32>>,
    /// Worker respawns so far.
    restarts: AtomicU64,
    /// Current backoff delay in milliseconds (for health reporting).
    backoff_ms: AtomicU64,
    /// Set when real stdin reached EOF.
    eof: AtomicBool,
    /// Set when a shutdown request was seen.
    shutting_down: AtomicBool,
    seq: AtomicU64,
    stdout: Mutex<Box<dyn Write + Send>>,
    breaker_strikes: u32,
}

impl Shared {
    fn new(breaker_strikes: u32, backoff: Duration, stdout: Box<dyn Write + Send>) -> Shared {
        Shared {
            pending: Mutex::new(HashMap::new()),
            child_in: Mutex::new(None),
            strikes: Mutex::new(HashMap::new()),
            restarts: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(backoff.as_millis() as u64),
            eof: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            stdout: Mutex::new(stdout),
            breaker_strikes,
        }
    }

    fn write_out(&self, response: &str) {
        let mut out = lock_recover(&self.stdout);
        let _ = writeln!(out, "{response}");
        let _ = out.flush();
    }

    fn breaker_open_keys(&self) -> usize {
        lock_recover(&self.strikes)
            .values()
            .filter(|&&s| s >= self.breaker_strikes)
            .count()
    }

    /// Appends the supervisor's own counters to a worker response object
    /// (only `health` responses are annotated).
    fn annotate_health(&self, line: &str) -> Option<String> {
        let doc = Value::parse(line).ok()?;
        if doc.get("op").and_then(Value::as_str) != Some("health") {
            return None;
        }
        let Value::Obj(mut fields) = doc else {
            return None;
        };
        fields.push((
            "supervisor".to_string(),
            Value::Obj(vec![
                ("state".to_string(), Value::Str("ready".to_string())),
                (
                    "restarts".to_string(),
                    Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
                ),
                (
                    "breaker_open".to_string(),
                    Value::Num(self.breaker_open_keys() as f64),
                ),
                (
                    "backoff_ms".to_string(),
                    Value::Num(self.backoff_ms.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ));
        Some(Value::Obj(fields).to_string())
    }

    /// The supervisor's own health answer, used while no worker is alive.
    fn render_recovering(&self, id: &Value) -> String {
        Value::Obj(vec![
            ("id".to_string(), id.clone()),
            ("ok".to_string(), Value::Bool(true)),
            ("op".to_string(), Value::Str("health".to_string())),
            ("state".to_string(), Value::Str("recovering".to_string())),
            ("supervised".to_string(), Value::Bool(true)),
            (
                "restarts".to_string(),
                Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
            ),
            (
                "supervisor".to_string(),
                Value::Obj(vec![
                    ("state".to_string(), Value::Str("recovering".to_string())),
                    (
                        "restarts".to_string(),
                        Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "breaker_open".to_string(),
                        Value::Num(self.breaker_open_keys() as f64),
                    ),
                    (
                        "backoff_ms".to_string(),
                        Value::Num(self.backoff_ms.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
        .to_string()
    }

    /// Forwards a raw line to the worker if one is alive; a write failure
    /// (worker died mid-send) is absorbed.
    fn forward(&self, line: &str) {
        if let Some(w) = lock_recover(&self.child_in).as_mut() {
            let _ = writeln!(w.stdin, "{line}").and_then(|()| w.stdin.flush());
        }
    }

    /// Registers a request as pending and writes it to the live worker, if
    /// any; otherwise the next [`Shared::attach`] replays it.
    fn submit(&self, line: String, id: Value, key: Option<(u64, u64)>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.pending).insert(
            id.to_string(),
            PendingReq {
                seq,
                line,
                id,
                key,
                sent_to: None,
            },
        );
        self.dispatch();
    }

    /// Publishes a freshly spawned worker's stdin and replays every
    /// unanswered request to it.
    fn attach(&self, generation: u64, stdin: Box<dyn Write + Send>) {
        *lock_recover(&self.child_in) = Some(WorkerIn { generation, stdin });
        self.dispatch();
    }

    /// Writes every pending request the live worker has not been sent yet,
    /// in submission order. A request is marked with the worker's
    /// generation under the `child_in` lock, so each request reaches each
    /// worker exactly once however [`Shared::submit`] and
    /// [`Shared::attach`] interleave. A write failure (worker died
    /// mid-send) is absorbed: the request stays pending and the next
    /// worker gets it.
    fn dispatch(&self) {
        let mut worker = lock_recover(&self.child_in);
        let Some(w) = worker.as_mut() else { return };
        let mut lines: Vec<(u64, String)> = lock_recover(&self.pending)
            .values_mut()
            .filter(|p| p.sent_to != Some(w.generation))
            .map(|p| {
                p.sent_to = Some(w.generation);
                (p.seq, p.line.clone())
            })
            .collect();
        lines.sort_unstable();
        for (_, line) in lines {
            let _ = writeln!(w.stdin, "{line}").and_then(|()| w.stdin.flush());
        }
    }

    /// Passes one worker response on to the client, settling the pending
    /// slot it answers.
    fn relay(&self, line: &str) {
        let id = Value::parse(line)
            .ok()
            .and_then(|doc| doc.get("id").cloned())
            .unwrap_or(Value::Null);
        lock_recover(&self.pending).remove(&id.to_string());
        match self.annotate_health(line) {
            Some(annotated) => self.write_out(&annotated),
            None => self.write_out(line),
        }
    }
}

/// The stdin pump: reads real stdin until EOF, applying the breaker and
/// registering every forwarded request as pending.
fn pump_stdin(shared: &Shared) {
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = protocol::parse_request(&line);
        let (id, key) = match &parsed {
            Ok(Request::Compile { id, graph, .. }) => (
                id.clone(),
                Some((canonical_hash(graph), exact_graph_hash(graph))),
            ),
            Ok(req) => (req.id().clone(), None),
            Err((id, _)) => (id.clone(), None),
        };
        if let Some(key) = key {
            let open = lock_recover(&shared.strikes)
                .get(&key)
                .copied()
                .unwrap_or(0)
                >= shared.breaker_strikes;
            if open {
                shared.write_out(&protocol::render_error(
                    &id,
                    "circuit breaker open: this graph repeatedly crashed the worker",
                    "compile_failed",
                ));
                continue;
            }
        }
        if matches!(parsed, Ok(Request::Shutdown { .. })) {
            shared.shutting_down.store(true, Ordering::SeqCst);
            let alive = lock_recover(&shared.child_in).is_some();
            if alive {
                shared.forward(&line);
            } else {
                // No worker to ack: the supervisor acknowledges and stops.
                shared.write_out(&protocol::render_shutdown(&id));
                std::process::exit(0);
            }
            break;
        }
        if matches!(parsed, Ok(Request::Health { .. })) && lock_recover(&shared.child_in).is_none()
        {
            shared.write_out(&shared.render_recovering(&id));
            continue;
        }
        shared.submit(line, id, key);
    }
    shared.eof.store(true, Ordering::SeqCst);
    // Closing the worker's stdin lets it drain its queue and exit cleanly.
    lock_recover(&shared.child_in).take();
}

/// Runs the supervision loop; returns the supervisor's exit code.
pub fn run(opts: SupervisorOptions) -> ExitCode {
    let shared = Arc::new(Shared::new(
        opts.breaker_strikes,
        opts.backoff_base,
        Box::new(io::stdout()),
    ));
    {
        let shared = Arc::clone(&shared);
        thread::spawn(move || pump_stdin(&shared));
    }

    let mut backoff = opts.backoff_base;
    loop {
        let generation = shared.restarts.load(Ordering::SeqCst);
        let mut child = match spawn_worker(&opts, generation) {
            Ok(child) => child,
            Err(e) => {
                eprintln!("epgs-serve supervisor: cannot spawn worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Replay unanswered requests in submission order, then, if stdin
        // is already gone, close the worker's stdin so it drains and exits.
        let stdin = child.stdin.take().expect("worker stdin is piped");
        shared.attach(generation, Box::new(stdin));
        if shared.eof.load(Ordering::SeqCst) {
            lock_recover(&shared.child_in).take();
        }

        // Proxy worker stdout until it exits; any response settles its
        // pending slot.
        let mut answered = 0u64;
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                shared.relay(&line);
                answered += 1;
            }
        }
        lock_recover(&shared.child_in).take();
        let status = child.wait();

        if status.map(|s| s.success()).unwrap_or(false) {
            // Clean worker exit: shutdown ack sent or stdin drained.
            return ExitCode::SUCCESS;
        }
        // Crash. Every unanswered compile in flight is a suspect: strike
        // its key, and open the breaker for keys at the cap instead of
        // replaying them into the next worker.
        shared.restarts.fetch_add(1, Ordering::SeqCst);
        let mut pending = lock_recover(&shared.pending);
        let mut strikes = lock_recover(&shared.strikes);
        let mut tripped: Vec<String> = Vec::new();
        for (id_text, req) in pending.iter() {
            if let Some(key) = req.key {
                let s = strikes.entry(key).or_insert(0);
                *s += 1;
                if *s >= opts.breaker_strikes {
                    tripped.push(id_text.clone());
                }
            }
        }
        drop(strikes);
        for id_text in tripped {
            if let Some(req) = pending.remove(&id_text) {
                shared.write_out(&protocol::render_error(
                    &req.id,
                    "circuit breaker open: this graph repeatedly crashed the worker",
                    "compile_failed",
                ));
            }
        }
        let drained = pending.is_empty();
        drop(pending);
        if (shared.eof.load(Ordering::SeqCst) || shared.shutting_down.load(Ordering::SeqCst))
            && drained
        {
            // Nothing left to answer and no more input is coming.
            return ExitCode::SUCCESS;
        }
        if answered > 0 {
            backoff = opts.backoff_base; // the worker was healthy for a while
        }
        shared
            .backoff_ms
            .store(backoff.as_millis() as u64, Ordering::Relaxed);
        thread::sleep(backoff);
        backoff = (backoff * 2).min(opts.backoff_cap);
    }
}

fn spawn_worker(opts: &SupervisorOptions, restarts: u64) -> io::Result<Child> {
    let (program, args) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| io::Error::other("empty worker command"))?;
    Command::new(program)
        .args(args)
        .env("EPGS_SUPERVISED", "1")
        .env("EPGS_WORKER_RESTARTS", restarts.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory pipe end standing in for a worker's stdin or the
    /// client's stdout.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock_recover(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        /// The `id` of every line written so far, in order.
        fn ids(&self) -> Vec<u64> {
            String::from_utf8(lock_recover(&self.0).clone())
                .unwrap()
                .lines()
                .map(|l| Value::parse(l).unwrap().get("id").and_then(Value::as_u64))
                .map(Option::unwrap)
                .collect()
        }
    }

    fn submit(shared: &Shared, id: u64) {
        shared.submit(
            format!("{{\"op\":\"status\",\"id\":{id}}}"),
            Value::Num(id as f64),
            None,
        );
    }

    /// Publishes a worker's stdin without replaying, i.e. the first half of
    /// [`Shared::attach`]: a request submitted now arrives inside the
    /// respawn window, after the publish and before the replay.
    fn publish(shared: &Shared, generation: u64, stdin: &Sink) {
        *lock_recover(&shared.child_in) = Some(WorkerIn {
            generation,
            stdin: Box::new(stdin.clone()),
        });
    }

    #[test]
    fn a_request_arriving_during_respawn_is_forwarded_and_answered_once() {
        let client = Sink::default();
        let shared = Shared::new(2, Duration::from_millis(1), Box::new(client.clone()));

        // First spawn: request 0 arrives between the publish and the
        // replay, the window in which it used to be forwarded twice.
        let first = Sink::default();
        publish(&shared, 0, &first);
        submit(&shared, 0);
        shared.dispatch();
        assert_eq!(first.ids(), [0]);

        // The worker dies unanswered; request 1 arrives while none is alive.
        lock_recover(&shared.child_in).take();
        submit(&shared, 1);

        // Respawn: request 2 arrives inside the window again. The new worker
        // gets every unanswered request exactly once, in submission order.
        let second = Sink::default();
        publish(&shared, 1, &second);
        submit(&shared, 2);
        shared.dispatch();
        assert_eq!(second.ids(), [0, 1, 2]);

        // A request after the full attach goes straight through.
        let third = Sink::default();
        lock_recover(&shared.child_in).take();
        shared.attach(2, Box::new(third.clone()));
        submit(&shared, 3);
        assert_eq!(third.ids(), [0, 1, 2, 3]);

        // The worker answers each line it was sent: one reply per id.
        for id in third.ids() {
            shared.relay(&format!("{{\"id\":{id},\"ok\":true,\"op\":\"status\"}}"));
        }
        assert_eq!(client.ids(), [0, 1, 2, 3]);
        assert!(lock_recover(&shared.pending).is_empty());
    }
}
