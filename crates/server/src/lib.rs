//! # bow-server — simulation as a service
//!
//! A persistent HTTP/JSON front end over the BOW experiment driver.
//! Clients submit runs and sweeps as versioned JSON documents; the
//! server keys every request by its content-addressed fingerprint
//! (`sha256(canonical kernel + config + schema_version + model_revision)`,
//! see [`bow::api`]) and consults a persistent [`store`] before simulating —
//! identical resubmissions are answered from cache without touching the
//! simulator, which is sound because the engine is deterministic: a
//! (kernel, config) pair has exactly one result.
//!
//! ## v1 endpoints
//!
//! | Method + path            | Purpose                                        |
//! |--------------------------|------------------------------------------------|
//! | `POST /v1/runs`          | one kernel × one config (sync, or `"wait":false`) |
//! | `POST /v1/sweeps`        | benchmarks × configs on the sweep engine       |
//! | `GET /v1/jobs/{id}`      | job lifecycle (`queued`/`running`/`done`/`failed`) |
//! | `GET /v1/results/{fp}`   | fetch a stored document by fingerprint         |
//! | `GET /v1/healthz`        | liveness + store/job/simulator counters        |
//! | `POST /v1/shutdown`      | drain and stop (used by CI)                    |
//!
//! Everything is std-only: hand-rolled HTTP/1.1 framing ([`http`]), a
//! `Condvar` worker pool ([`jobs`]) and the in-tree JSON — matching the
//! workspace's no-external-dependencies policy.
//!
//! ## Connections
//!
//! Requests are answered by a leader/followers pool of acceptor threads.
//! [`STANDING_ACCEPTORS`] of them wait in `accept` on the shared listener;
//! the one that accepts a connection answers its request inline and then
//! waits in `accept` again. An acceptor that accepts while no other one is
//! idle starts a replacement *before* it reads, so a client that sends
//! nothing (or a sync run waiting on its job) holds only its own thread and
//! never delays anyone else; a thread that finds [`STANDING_ACCEPTORS`]
//! already idle after its request exits. A busy acceptor holds no handle
//! on the listener, so the port closes as soon as the idle ones let go of
//! it at shutdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod store;

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use bow::api::{RunRequest, SweepRequest};
use bow::error::BowError;
use bow::experiment::SCHEMA_VERSION;
use bow_util::json::{parse, Json};

use http::{read_request, write_response, FrameError, Request, MAX_BODY_BYTES};
use jobs::{JobKind, JobState, JobSystem};
use store::ResultStore;

/// How to bind and provision a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7070"`. Port 0 picks an ephemeral
    /// port (read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (0 = one per available core).
    pub workers: usize,
    /// Root of the on-disk result store.
    pub store_dir: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 0,
            store_dir: PathBuf::from("results/store"),
        }
    }
}

/// Acceptor threads that wait in `accept` while the server is quiet: the
/// pool's size at boot and its idle cap afterwards.
pub const STANDING_ACCEPTORS: usize = 2;

/// How long an acceptor pauses after a failed `accept` (say, out of file
/// descriptors) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// The acceptor pool's bookkeeping, behind `State::pool`.
struct Pool {
    /// The listener while the server accepts; `None` before [`Server::run`]
    /// and once shutdown began. Only idle acceptors hold a clone.
    listener: Option<Arc<TcpListener>>,
    /// Acceptors that hold a listener handle: waiting in `accept`, or on
    /// their way to or from it.
    idle: usize,
    /// Acceptor threads started since [`Server::run`] began.
    threads_started: u64,
    /// Acceptors writing a reply: [`Server::run`] returns only once none
    /// is, so a reply (the shutdown one included) is never cut off.
    replying: usize,
}

impl Pool {
    /// Counts one more idle acceptor and hands it a listener handle, or
    /// `None` once shutdown began.
    fn join_idle(&mut self) -> Option<Arc<TcpListener>> {
        let listener = self.listener.clone()?;
        self.idle += 1;
        Some(listener)
    }

    /// [`join_idle`](Self::join_idle) for a thread about to be started.
    fn claim_new(&mut self) -> Option<Arc<TcpListener>> {
        let listener = self.join_idle()?;
        self.threads_started += 1;
        Some(listener)
    }
}

struct State {
    store: Arc<ResultStore>,
    jobs: Arc<JobSystem>,
    pool: Mutex<Pool>,
    /// Signalled when shutdown begins and whenever `idle` falls.
    pool_changed: Condvar,
    local_addr: SocketAddr,
}

impl State {
    fn pool(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().expect("acceptor pool lock poisoned")
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    workers: usize,
}

impl Server {
    /// Binds the listener and opens the store.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Io`] when the address cannot be bound or the
    /// store directory cannot be created.
    pub fn bind(config: &ServerConfig) -> Result<Server, BowError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| BowError::io(config.addr.clone(), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| BowError::io(config.addr.clone(), e))?;
        let store = ResultStore::open(&config.store_dir)
            .map_err(|e| BowError::io(config.store_dir.display().to_string(), e))?;
        let workers = if config.workers == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        Ok(Server {
            listener,
            state: Arc::new(State {
                store: Arc::new(store),
                jobs: Arc::new(JobSystem::new()),
                pool: Mutex::new(Pool {
                    listener: None,
                    idle: 0,
                    threads_started: 0,
                    replying: 0,
                }),
                pool_changed: Condvar::new(),
                local_addr,
            }),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serves until `POST /v1/shutdown`: spawns the worker pool and
    /// [`STANDING_ACCEPTORS`] acceptor threads, then waits. Each request
    /// is answered on the acceptor thread that accepted it (see the crate
    /// docs); a connection whose handler blocks keeps that thread to
    /// itself.
    ///
    /// At shutdown every idle acceptor is woken by one connection and
    /// lets go of the listener, queued jobs finish and the workers exit,
    /// and every reply being written is finished. When `run` returns the
    /// port is closed, even while a handler still waits on a client that
    /// never finished its request.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Io`] if no acceptor thread can be started.
    pub fn run(self) -> Result<(), BowError> {
        let worker_handles: Vec<_> = (0..self.workers)
            .map(|i| {
                let jobs = Arc::clone(&self.state.jobs);
                let store = Arc::clone(&self.state.store);
                thread::Builder::new()
                    .name(format!("bow-job-{i}"))
                    .spawn(move || jobs.worker_loop(&store))
                    .expect("spawn worker thread")
            })
            .collect();
        let state = &self.state;
        // Both standing acceptors are counted before either starts, so
        // the first request already sees the pool at full strength.
        let standing: Vec<_> = {
            let mut pool = state.pool();
            pool.listener = Some(Arc::new(self.listener));
            (0..STANDING_ACCEPTORS)
                .filter_map(|_| pool.claim_new())
                .collect()
        };
        for listener in standing {
            start_acceptor(state, listener);
        }
        let serving = state.pool().threads_started > 0;
        if !serving {
            state.request_shutdown();
        }
        let idle = state
            .pool_changed
            .wait_while(state.pool(), |p| p.listener.is_some())
            .expect("acceptor pool lock poisoned")
            .idle;
        for _ in 0..idle {
            let _ = TcpStream::connect(state.local_addr);
        }
        drop(
            state
                .pool_changed
                .wait_while(state.pool(), |p| p.idle > 0)
                .expect("acceptor pool lock poisoned"),
        );
        // Drain: workers finish queued jobs, then exit.
        state.jobs.close();
        for h in worker_handles {
            let _ = h.join();
        }
        drop(
            state
                .pool_changed
                .wait_while(state.pool(), |p| p.replying > 0)
                .expect("acceptor pool lock poisoned"),
        );
        if serving {
            Ok(())
        } else {
            Err(BowError::io(
                state.local_addr.to_string(),
                "cannot start an acceptor thread",
            ))
        }
    }
}

impl State {
    /// Stops accepting: idle acceptors exit at their next connection and
    /// busy ones after their request, and [`Server::run`] wakes.
    fn request_shutdown(&self) {
        self.pool().listener = None;
        self.pool_changed.notify_all();
    }
}

/// Counts one reply in flight in [`Pool::replying`] until dropped.
struct Replying<'s>(&'s State);

impl<'s> Replying<'s> {
    fn start(state: &'s State) -> Replying<'s> {
        state.pool().replying += 1;
        Replying(state)
    }
}

impl Drop for Replying<'_> {
    fn drop(&mut self) {
        // No panic in `drop`: with the lock poisoned `Server::run` stops
        // at its own `expect` anyway.
        if let Ok(mut pool) = self.0.pool.lock() {
            pool.replying -= 1;
        }
        self.0.pool_changed.notify_all();
    }
}

/// What [`handle_connection`] does once a routed reply is written.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum After {
    /// Nothing: the connection closes.
    Close,
    /// Stop the server: begun only after the client has its answer, so
    /// the process cannot exit before the reply is written.
    Shutdown,
}

/// Starts an acceptor thread on a slot `Pool::claim_new` counted. The
/// thread is detached: a busy acceptor may wait on its client for good,
/// and [`Server::run`] must not wait with it.
fn start_acceptor(state: &Arc<State>, listener: Arc<TcpListener>) {
    let shared = Arc::clone(state);
    let started = thread::Builder::new()
        .name("bow-http".to_string())
        .spawn(move || accept_loop(&shared, listener));
    if started.is_err() {
        // The closure, and the listener handle with it, is already dropped.
        let mut pool = state.pool();
        pool.idle -= 1;
        pool.threads_started -= 1;
        state.pool_changed.notify_all();
    }
}

/// One acceptor's life: wait in `accept` holding a listener handle, give
/// the handle up, answer the request inline, and go back to `accept`
/// unless [`STANDING_ACCEPTORS`] others are idle or shutdown began.
fn accept_loop(state: &Arc<State>, mut listener: Arc<TcpListener>) {
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        drop(listener);
        let replacement = {
            let mut pool = state.pool();
            pool.idle -= 1;
            state.pool_changed.notify_all();
            if pool.listener.is_none() {
                // A shutdown wake-up, or a client that came too late.
                return;
            }
            if pool.idle == 0 {
                pool.claim_new()
            } else {
                None
            }
        };
        if let Some(listener) = replacement {
            start_acceptor(state, listener);
        }
        handle_connection(state, &mut stream);
        // Rejoin before the stream closes: a client that connects again
        // once it has read its reply finds this thread idle already.
        let mut pool = state.pool();
        if pool.idle >= STANDING_ACCEPTORS {
            return;
        }
        match pool.join_idle() {
            Some(l) => listener = l,
            None => return,
        }
    }
}

fn error_body(kind: &str, message: &str) -> String {
    Json::obj([(
        "error",
        Json::obj([("kind", Json::from(kind)), ("message", Json::from(message))]),
    )])
    .to_string_compact()
}

fn status_for(kind: &str) -> u16 {
    match kind {
        "parse" => 400,
        "config" => 422,
        "not_found" => 404,
        // io / verify / panic: the request was well-formed, the server
        // (or the simulated kernel) failed.
        _ => 500,
    }
}

fn bow_error_response(e: &BowError) -> (u16, String) {
    (status_for(e.kind()), error_body(e.kind(), &e.to_string()))
}

/// Splices a stored document (already-serialized JSON text) into a
/// submission response without re-parsing it.
fn submission_body(fingerprint: &str, cached: bool, doc: &str) -> String {
    format!("{{\"fingerprint\":\"{fingerprint}\",\"cached\":{cached},\"result\":{doc}}}")
}

fn handle_submission(state: &State, req: &Request, sweep: bool) -> (u16, String) {
    let parsed = match std::str::from_utf8(&req.body)
        .map_err(|e| BowError::parse(format!("body is not UTF-8: {e}")))
        .and_then(|text| Ok(parse(text)?))
    {
        Ok(v) => v,
        Err(e) => return bow_error_response(&e),
    };
    let wait = parsed.get("wait").and_then(Json::as_bool).unwrap_or(true);
    let (fingerprint, kind) = if sweep {
        match SweepRequest::from_json(&parsed) {
            Ok(r) => (r.fingerprint(), JobKind::Sweep(r)),
            Err(e) => return bow_error_response(&e),
        }
    } else {
        match RunRequest::from_json(&parsed) {
            Ok(r) => (r.fingerprint(), JobKind::Run(Box::new(r))),
            Err(e) => return bow_error_response(&e),
        }
    };
    if let Some(doc) = state.store.get(&fingerprint) {
        return (200, submission_body(&fingerprint, true, &doc));
    }
    let id = state.jobs.submit(kind);
    if !wait {
        return (
            202,
            Json::obj([
                ("job", Json::from(id)),
                ("fingerprint", Json::from(fingerprint.as_str())),
                ("cached", Json::from(false)),
            ])
            .to_string_compact(),
        );
    }
    match state.jobs.wait_done(id) {
        JobState::Done { fingerprint } => match state.store.get(&fingerprint) {
            Some(doc) => (200, submission_body(&fingerprint, false, &doc)),
            None => (
                500,
                error_body("io", "result vanished from the store after execution"),
            ),
        },
        JobState::Failed { kind, message } => (status_for(&kind), error_body(&kind, &message)),
        JobState::Queued | JobState::Running => unreachable!("wait_done returned a live state"),
    }
}

fn health_body(state: &State) -> String {
    Json::obj([
        ("status", Json::from("ok")),
        ("schema_version", Json::from(SCHEMA_VERSION)),
        (
            "sim_runs",
            Json::from(state.jobs.sim_runs.load(Ordering::Relaxed)),
        ),
        ("jobs", state.jobs.stats_json()),
        ("store", state.store.stats_json()),
        ("http", {
            let pool = state.pool();
            Json::obj([
                ("threads_started", Json::from(pool.threads_started)),
                ("idle", Json::from(pool.idle)),
            ])
        }),
    ])
    .to_string_compact()
}

fn route(state: &State, req: &Request) -> (u16, String, After) {
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => (200, health_body(state)),
        ("POST", "/v1/runs") => handle_submission(state, req, false),
        ("POST", "/v1/sweeps") => handle_submission(state, req, true),
        ("POST", "/v1/shutdown") => {
            let body = Json::obj([("status", Json::from("shutting down"))]).to_string_compact();
            return (200, body, After::Shutdown);
        }
        ("GET", path) => {
            if let Some(id) = path.strip_prefix("/v1/jobs/") {
                match id
                    .parse::<u64>()
                    .ok()
                    .and_then(|id| state.jobs.get(id).map(|s| (id, s)))
                {
                    Some((id, s)) => (200, s.to_json(id).to_string_compact()),
                    None => (404, error_body("not_found", &format!("no job `{id}`"))),
                }
            } else if let Some(fp) = path.strip_prefix("/v1/results/") {
                match state.store.get(fp) {
                    Some(doc) => (200, doc.as_str().to_string()),
                    None => (
                        404,
                        error_body("not_found", &format!("no stored result `{fp}`")),
                    ),
                }
            } else {
                (404, error_body("not_found", &format!("no route {path}")))
            }
        }
        (_, path) => (
            405,
            error_body(
                "parse",
                &format!("{} {path} is not part of the v1 API", req.method),
            ),
        ),
    };
    (status, body, After::Close)
}

fn handle_connection(state: &State, stream: &mut TcpStream) {
    let (status, refusal) = match read_request(stream) {
        Ok(req) => {
            let (status, body, after) = route(state, &req);
            let _replying = Replying::start(state);
            let _ = write_response(stream, status, &body);
            if after == After::Shutdown {
                state.request_shutdown();
                state.jobs.close();
            }
            return;
        }
        Err(e @ (FrameError::TooLarge(_) | FrameError::HeadTooLarge)) => (413, e),
        Err(e @ FrameError::Malformed(_)) => (400, e),
        // Connection died or timed out before a full request arrived:
        // nothing to answer.
        Err(FrameError::Io(_)) => return,
    };
    let replying = Replying::start(state);
    let _ = write_response(stream, status, &error_body("parse", &refusal.to_string()));
    drop(replying);
    // The request was refused part-read. Closing on unread bytes would
    // reset the connection before the client reads the answer, so read
    // what it still sends, within its read deadline and the body cap.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(
        &mut (&*stream).take(MAX_BODY_BYTES as u64),
        &mut std::io::sink(),
    );
}
