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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod store;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use bow::api::{RunRequest, SweepRequest};
use bow::error::BowError;
use bow::experiment::SCHEMA_VERSION;
use bow_util::json::{parse, Json};

use http::{read_request, write_response, FrameError, Request};
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

struct State {
    store: Arc<ResultStore>,
    jobs: Arc<JobSystem>,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
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
                shutdown: AtomicBool::new(false),
                local_addr,
            }),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serves until `POST /v1/shutdown`: spawns the worker pool, then
    /// accepts connections, one handler thread each.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Io`] if the accept loop fails hard.
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
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = Arc::clone(&self.state);
            let _ = thread::Builder::new()
                .name("bow-conn".to_string())
                .spawn(move || handle_connection(&state, stream));
        }
        // Drain: workers finish queued jobs, then exit.
        self.state.jobs.close();
        for h in worker_handles {
            let _ = h.join();
        }
        Ok(())
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
    ])
    .to_string_compact()
}

fn route(state: &State, req: &Request) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => (200, health_body(state)),
        ("POST", "/v1/runs") => handle_submission(state, req, false),
        ("POST", "/v1/sweeps") => handle_submission(state, req, true),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.jobs.close();
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.local_addr);
            (
                200,
                Json::obj([("status", Json::from("shutting down"))]).to_string_compact(),
            )
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
    }
}

fn handle_connection(state: &State, mut stream: TcpStream) {
    let (status, body) = match read_request(&mut stream) {
        Ok(req) => route(state, &req),
        Err(FrameError::TooLarge(n)) => (
            413,
            error_body("parse", &FrameError::TooLarge(n).to_string()),
        ),
        Err(FrameError::Malformed(m)) => (
            400,
            error_body("parse", &FrameError::Malformed(m).to_string()),
        ),
        // Connection died before a full request arrived (including the
        // shutdown poke): nothing to answer.
        Err(FrameError::Io(_)) => return,
    };
    let _ = write_response(&mut stream, status, &body);
}
