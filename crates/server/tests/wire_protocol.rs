//! End-to-end tests of the v1 wire protocol.
//!
//! Each test boots a real server on an ephemeral port (`127.0.0.1:0`)
//! with a temp-dir store, drives it through `bow_server::client` exactly
//! as `bow-cli submit` does, and shuts it down via `POST /v1/shutdown`.
//! The load-bearing assertions:
//!
//! * an identical resubmission is answered `"cached": true` with a
//!   byte-identical result document, and the `/v1/healthz` `sim_runs`
//!   counter proves the simulator was not invoked again;
//! * the fingerprint is a content address: the retired `sim_threads`
//!   key is accepted and ignored, so every value of it hits the same
//!   cache entry, and a server restarted over the same store directory
//!   serves the old results;
//! * malformed and invalid bodies come back as structured 4xx
//!   `{"error": {"kind", "message"}}` documents, and an inline kernel the
//!   oracle disagrees with as a 500 of kind `verify`;
//! * the acceptor pool keeps its promises: a client that sends nothing
//!   (or half a request) delays nobody, more blocked sync runs than
//!   standing acceptors all complete, shutdown closes the port while such
//!   a client is still connected, and sequential requests start no
//!   thread;
//! * no connection holds the server for good: a silent one is closed once
//!   the read timeout passes, and an over-long request head gets a 413.

use bow_server::client;
use bow_server::http::{MAX_HEAD_BYTES, READ_TIMEOUT};
use bow_server::{Server, ServerConfig, STANDING_ACCEPTORS};
use bow_util::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct TestServer {
    addr: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    /// Boots a server on an ephemeral port over `store_dir`.
    fn boot(store_dir: &std::path::Path) -> TestServer {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            store_dir: store_dir.to_path_buf(),
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        TestServer {
            addr,
            handle: Some(handle),
        }
    }

    fn shutdown(mut self) {
        let resp = client::post(&self.addr, "/v1/shutdown", "{}").expect("shutdown");
        assert_eq!(resp.status, 200);
        self.handle.take().expect("running").join().expect("join");
    }

    fn health(&self) -> Json {
        client::get(&self.addr, "/v1/healthz")
            .expect("healthz")
            .json()
            .expect("healthz is JSON")
    }

    fn sim_runs(&self) -> u64 {
        self.health()
            .get("sim_runs")
            .and_then(Json::as_u64)
            .expect("sim_runs counter")
    }

    /// `/v1/healthz`'s `http` section: `(threads_started, idle)`.
    fn http_threads(&self) -> (u64, u64) {
        let health = self.health();
        let field = |key| {
            health
                .get("http")
                .and_then(|h| h.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("healthz http.{key}"))
        };
        (field("threads_started"), field("idle"))
    }
}

/// Runs `f` on a thread of its own and waits at most `secs` for it, so a
/// request stuck behind a blocked server fails the test instead of
/// hanging it.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not finish within {secs} s"))
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bow-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run request carrying the retired `sim_threads` key, which the wire
/// still accepts (type-checked, then dropped).
fn run_body(sim_threads: &str) -> String {
    format!(
        r#"{{"kernel": {{"workload": "vectoradd", "scale": "test"}},
            "config": {{"collector": "bow-wr", "window": 3, "sim_threads": {sim_threads}}}}}"#
    )
}

#[test]
fn resubmission_is_served_from_cache_without_simulating() {
    let dir = temp_store("cache");
    let srv = TestServer::boot(&dir);

    assert_eq!(srv.sim_runs(), 0);
    let first = client::post(&srv.addr, "/v1/runs", &run_body("1")).expect("first submit");
    assert_eq!(first.status, 200, "{}", first.body);
    let first_doc = first.json().expect("response is JSON");
    assert_eq!(first_doc.get("cached").and_then(Json::as_bool), Some(false));
    let fingerprint = first_doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    assert_eq!(fingerprint.len(), 64);
    assert_eq!(srv.sim_runs(), 1);

    // Identical resubmission: cached, simulator untouched, result
    // byte-identical. Every `sim_threads` value is the same request —
    // the key is inert, so `0` cannot ask for a thread per core either.
    for threads in ["1", "0", "8"] {
        let again = client::post(&srv.addr, "/v1/runs", &run_body(threads)).expect("resubmit");
        assert_eq!(again.status, 200);
        let doc = again.json().expect("JSON");
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("fingerprint").and_then(Json::as_str),
            Some(fingerprint.as_str())
        );
        assert_eq!(
            doc.get("result").map(Json::to_string_pretty),
            first_doc.get("result").map(Json::to_string_pretty),
            "cached result must be byte-identical"
        );
    }
    assert_eq!(
        srv.sim_runs(),
        1,
        "cache hits must not invoke the simulator"
    );
    // Inert is not unchecked: a value that is no u32 is refused like any
    // other integer field's, and nothing runs.
    for bad in [r#""lots""#, "-1"] {
        let resp = client::post(&srv.addr, "/v1/runs", &run_body(bad)).expect("submit");
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        let kind = resp.json().expect("error response is JSON");
        let kind = kind.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some("parse"), "{bad}");
    }
    assert_eq!(srv.sim_runs(), 1);

    // The stored document is directly addressable.
    let fetched = client::get(&srv.addr, &format!("/v1/results/{fingerprint}")).expect("fetch");
    assert_eq!(fetched.status, 200);
    let record = fetched.json().expect("stored doc is JSON");
    assert_eq!(
        record.get("benchmark").and_then(Json::as_str),
        Some("vectoradd")
    );
    assert_eq!(record.get("schema_version").and_then(Json::as_u64), Some(1));

    srv.shutdown();

    // A fresh server over the same store dir serves the result from disk:
    // fingerprints are stable across restarts.
    let srv = TestServer::boot(&dir);
    let warm = client::post(&srv.addr, "/v1/runs", &run_body("2")).expect("post-restart submit");
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.json().unwrap().get("cached").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        srv.sim_runs(),
        0,
        "restart must not re-simulate stored results"
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_jobs_report_lifecycle_and_land_in_the_store() {
    let dir = temp_store("async");
    let srv = TestServer::boot(&dir);

    let body = r#"{"kernel": {"workload": "lps"}, "config": {"collector": "bow"}, "wait": false}"#;
    let accepted = client::post(&srv.addr, "/v1/runs", body).expect("async submit");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let doc = accepted.json().expect("JSON");
    let job = doc.get("job").and_then(Json::as_u64).expect("job id");
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();

    // Poll until done (bounded; the Test-scale run takes well under this).
    let mut state = String::new();
    for _ in 0..600 {
        let polled = client::get(&srv.addr, &format!("/v1/jobs/{job}")).expect("poll");
        assert_eq!(polled.status, 200);
        state = polled
            .json()
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            .expect("state")
            .to_string();
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert_eq!(state, "done");
    let fetched = client::get(&srv.addr, &format!("/v1/results/{fingerprint}")).expect("fetch");
    assert_eq!(fetched.status, 200);

    assert_eq!(
        client::get(&srv.addr, "/v1/jobs/999999")
            .expect("missing job")
            .status,
        404
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inline_kernels_and_sweeps_are_first_class() {
    let dir = temp_store("inline");
    let srv = TestServer::boot(&dir);

    let body = r#"{"kernel": {"asm": ".kernel k\n    mov r0, 7\n    iadd r1, r0, 1\n    exit\n",
                               "blocks": 1, "threads": 32},
                   "config": {"collector": "bow-wr", "window": 3}}"#;
    let resp = client::post(&srv.addr, "/v1/runs", body).expect("inline submit");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = resp.json().unwrap();
    let record = doc.get("result").expect("result");
    assert_eq!(record.get("benchmark").and_then(Json::as_str), Some("k"));
    assert_eq!(record.get("checked").and_then(Json::as_bool), Some(true));

    let sweep = r#"{"benchmarks": ["vectoradd"],
                    "configs": [{"collector": "baseline"}, {"collector": "bow-wr"}]}"#;
    let resp = client::post(&srv.addr, "/v1/sweeps", sweep).expect("sweep submit");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = resp.json().unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    let rows = doc
        .get("result")
        .and_then(|r| r.get("rows"))
        .and_then(Json::as_arr)
        .expect("sweep rows");
    assert_eq!(rows.len(), 2);

    // Resubmit the sweep: cached.
    let resp = client::post(&srv.addr, "/v1/sweeps", sweep).expect("sweep resubmit");
    assert_eq!(
        resp.json().unwrap().get("cached").and_then(Json::as_bool),
        Some(true)
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_bodies_get_structured_4xx_errors() {
    let dir = temp_store("errors");
    let srv = TestServer::boot(&dir);

    // (body, expected status, expected error.kind)
    let cases = [
        ("this is not json", 400, "parse"),
        (r#"{"config": {}}"#, 400, "parse"),
        (r#"{"kernel": {"workload": "nope"}}"#, 422, "config"),
        (
            r#"{"kernel": {"workload": "vectoradd"}, "config": {"collector": "warp-drive"}}"#,
            422,
            "config",
        ),
        (
            r#"{"kernel": {"workload": "vectoradd"}, "config": {"collector": "bow", "window": 0}}"#,
            422,
            "config",
        ),
        (
            r#"{"kernel": {"workload": "vectoradd"}, "config": {"windw": 3}}"#,
            400,
            "parse",
        ),
        (r#"{"kernel": {"asm": "garbage"}}"#, 400, "parse"),
    ];
    for (body, status, kind) in cases {
        let resp = client::post(&srv.addr, "/v1/runs", body).expect("submit");
        assert_eq!(resp.status, status, "body: {body}\nresponse: {}", resp.body);
        let err = resp.json().expect("error response is JSON");
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(kind),
            "body: {body}\nresponse: {}",
            resp.body
        );
        assert!(
            err.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty()),
            "error must carry a message: {}",
            resp.body
        );
    }
    assert_eq!(srv.sim_runs(), 0, "rejected bodies must never simulate");

    // Unknown routes and methods.
    assert_eq!(client::get(&srv.addr, "/v2/runs").unwrap().status, 404);
    assert_eq!(
        client::get(&srv.addr, "/v1/results/not-a-fingerprint")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&srv.addr, "DELETE", "/v1/runs", None)
            .unwrap()
            .status,
        405
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_reports_store_and_job_counters() {
    let dir = temp_store("health");
    let srv = TestServer::boot(&dir);
    let health = client::get(&srv.addr, "/v1/healthz")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("schema_version").and_then(Json::as_u64), Some(1));
    for section in ["jobs", "store", "http"] {
        assert!(
            health.get(section).is_some(),
            "healthz must report {section}"
        );
    }
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn core_model_is_a_semantic_knob_on_the_wire() {
    let dir = temp_store("coremodel");
    let srv = TestServer::boot(&dir);

    let body_for = |core: &str| {
        format!(
            r#"{{"kernel": {{"workload": "vectoradd", "scale": "test"}},
                "config": {{"collector": "bow-wr", "window": 3, "core_model": "{core}"}}}}"#
        )
    };
    let pascal = client::post(&srv.addr, "/v1/runs", &body_for("pascal")).expect("pascal run");
    assert_eq!(pascal.status, 200, "{}", pascal.body);
    let modern = client::post(&srv.addr, "/v1/runs", &body_for("modern")).expect("modern run");
    assert_eq!(modern.status, 200, "{}", modern.body);
    let fp = |resp: &client::Response| {
        resp.json()
            .unwrap()
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint")
            .to_string()
    };
    assert_ne!(
        fp(&pascal),
        fp(&modern),
        "core_model must change the content address"
    );
    assert_eq!(srv.sim_runs(), 2, "distinct fingerprints both simulate");

    // An unknown core model is a structured config rejection.
    let bad = client::post(&srv.addr, "/v1/runs", &body_for("volta")).expect("bad run");
    assert_eq!(bad.status, 422, "{}", bad.body);
    assert_eq!(
        bad.json()
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("config")
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergence_is_a_semantic_knob_on_the_wire() {
    let dir = temp_store("divergence");
    let srv = TestServer::boot(&dir);

    let body_for = |divergence: &str| {
        format!(
            r#"{{"kernel": {{"workload": "bfs", "scale": "test"}},
                "config": {{"collector": "bow-wr", "window": 3, "divergence": "{divergence}"}}}}"#
        )
    };
    let stack = client::post(&srv.addr, "/v1/runs", &body_for("stack")).expect("stack run");
    assert_eq!(stack.status, 200, "{}", stack.body);
    let barrier = client::post(&srv.addr, "/v1/runs", &body_for("barrier")).expect("barrier run");
    assert_eq!(barrier.status, 200, "{}", barrier.body);
    let fp = |resp: &client::Response| {
        resp.json()
            .unwrap()
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint")
            .to_string()
    };
    assert_ne!(
        fp(&stack),
        fp(&barrier),
        "divergence must change the content address"
    );
    assert_eq!(srv.sim_runs(), 2, "distinct fingerprints both simulate");

    // An unknown divergence model is a structured 422, never a simulation.
    let bad = client::post(&srv.addr, "/v1/runs", &body_for("ipdom")).expect("bad run");
    assert_eq!(bad.status, 422, "{}", bad.body);
    assert_eq!(
        bad.json()
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("config")
    );
    assert!(bad.body.contains("divergence"), "{}", bad.body);
    assert_eq!(srv.sim_runs(), 2, "rejected bodies must never simulate");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `depth` nested SSY diamonds: structured, so the SIMT stack runs any
/// depth, but only `NUM_CBARS` convergence-barrier registers exist.
fn nested_diamonds_asm(depth: usize) -> String {
    use bow::isa::{KernelBuilder, Operand, Pred, Reg};
    let mut b = KernelBuilder::new("nest").mov_imm(Reg::r(0), 7);
    for d in 0..depth {
        b = b
            .ssy(format!("join{d}"))
            .bra_if(Pred::p(0), false, format!("else{d}"));
    }
    b = b.iadd(Reg::r(1), Reg::r(0).into(), Operand::Imm(1));
    for d in (0..depth).rev() {
        b = b
            .bra(format!("join{d}"))
            .label(format!("else{d}"))
            .iadd(Reg::r(2), Reg::r(0).into(), Operand::Imm(2))
            .label(format!("join{d}"))
            .sync();
    }
    b.exit().build().expect("structured kernel").disassemble()
}

#[test]
fn inline_kernels_the_barrier_lowering_refuses_are_a_422_not_a_stack_run() {
    let dir = temp_store("inline-barrier");
    let srv = TestServer::boot(&dir);
    let body_for = |depth: usize, divergence: &str| {
        Json::obj([
            (
                "kernel",
                Json::obj([("asm", Json::from(nested_diamonds_asm(depth)))]),
            ),
            (
                "config",
                Json::obj([
                    ("collector", Json::from("bow-wr")),
                    ("divergence", Json::from(divergence)),
                ]),
            ),
        ])
        .to_string_compact()
    };
    let deep = bow::isa::NUM_CBARS + 1;

    // The stack runs nine nested regions happily.
    let stack = client::post(&srv.addr, "/v1/runs", &body_for(deep, "stack")).expect("stack");
    assert_eq!(stack.status, 200, "{}", stack.body);

    // Under `barrier` the same kernel needs a ninth barrier register. The
    // inline arm used to skip the lowering, simulate the stack form and
    // store it under the barrier fingerprint (200); it is a typed config
    // rejection, and nothing is stored.
    let barrier = client::post(&srv.addr, "/v1/runs", &body_for(deep, "barrier")).expect("deep");
    assert_eq!(barrier.status, 422, "{}", barrier.body);
    let error = barrier.json().expect("error document");
    let error = error.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("config"));
    let message = error.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("barrier lowering rejected"), "{message}");
    let again = client::post(&srv.addr, "/v1/runs", &body_for(deep, "barrier")).expect("again");
    assert_eq!(again.status, 422, "a refused request must not be cached");

    // One level shallower fits, is lowered and runs.
    let fits = client::post(&srv.addr, "/v1/runs", &body_for(deep - 1, "barrier")).expect("fits");
    assert_eq!(fits.status, 200, "{}", fits.body);
    let label = fits.json().expect("JSON");
    let label = label.get("result").and_then(|r| r.get("config"));
    assert_eq!(label.and_then(Json::as_str), Some("bow-wr iw3+barrier"));

    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value-divergent race of `bow_sim`'s gpu tests: two one-warp blocks
/// store `ctaid + 1` to the word at param 0, block 0 after a spin, then
/// both wait and read it back. The pipeline's final word is block 0's, the
/// warp-serial oracle's is block 1's.
fn racy_asm() -> String {
    use bow::isa::{CmpOp, KernelBuilder, Operand, Pred, Reg, Special};
    let r = Reg::r;
    let spin = |b: KernelBuilder, label: &str, iterations: u32| {
        b.mov_imm(r(2), 0)
            .label(label)
            .iadd(r(2), r(2).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(1), r(2).into(), Operand::Imm(iterations))
            .bra_if(Pred::p(1), false, label)
    };
    let b = KernelBuilder::new("racy")
        .s2r(r(0), Special::CtaidX)
        .ldc(r(1), 0)
        .isetp(CmpOp::Ne, Pred::p(0), r(0).into(), Operand::Imm(0))
        .bra_if(Pred::p(0), false, "store");
    let b = spin(b, "spin", 100)
        .label("store")
        .iadd(r(3), r(0).into(), Operand::Imm(1))
        .stg(r(1), 0, r(3).into());
    spin(b, "wait", 400)
        .ldg(r(4), r(1), 0)
        .exit()
        .build()
        .expect("racy kernel builds")
        .disassemble()
}

#[test]
fn an_inline_oracle_mismatch_is_a_verify_error_not_a_panic() {
    let dir = temp_store("inline-race");
    let srv = TestServer::boot(&dir);
    let body = Json::obj([(
        "kernel",
        Json::obj([
            ("asm", Json::from(racy_asm())),
            ("blocks", Json::from(2_u32)),
            ("threads", Json::from(32_u32)),
        ]),
    )])
    .to_string_compact();
    let resp = client::post(&srv.addr, "/v1/runs", &body).expect("racy submit");
    assert_eq!(resp.status, 500, "{}", resp.body);
    let error = resp.json().expect("error document");
    let error = error.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("verify"));
    let message = error.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.contains("racy under baseline: oracle check failed: final global memory"),
        "{message}"
    );
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_or_half_sent_connection_never_delays_another_request() {
    let dir = temp_store("silent");
    let srv = TestServer::boot(&dir);
    // One client sends nothing, one stops inside its body; the server
    // accepts connections in arrival order, so both hold a handler before
    // the health checks arrive.
    let silent = TcpStream::connect(&srv.addr).expect("connect");
    let mut half = TcpStream::connect(&srv.addr).expect("connect");
    half.write_all(b"POST /v1/runs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kernel\"")
        .expect("half a request");
    for _ in 0..3 {
        let addr = srv.addr.clone();
        let resp = within(10, "healthz beside a silent client", move || {
            client::get(&addr, "/v1/healthz")
        })
        .expect("healthz");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    drop((silent, half));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_concurrent_sync_runs_than_standing_acceptors_all_complete() {
    let dir = temp_store("concurrent");
    let srv = TestServer::boot(&dir);
    // Distinct fingerprints, so every request is a cold run whose handler
    // waits on its job.
    let runs = STANDING_ACCEPTORS + 2;
    let clients: Vec<_> = (1..=runs)
        .map(|window| {
            let addr = srv.addr.clone();
            let body = format!(
                r#"{{"kernel": {{"workload": "vectoradd", "scale": "test"}},
                    "config": {{"collector": "bow-wr", "window": {window}}}}}"#
            );
            std::thread::spawn(move || client::post(&addr, "/v1/runs", &body))
        })
        .collect();
    let replies = within(120, "concurrent cold runs", move || {
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread").expect("submit"))
            .collect::<Vec<_>>()
    });
    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = reply.json().expect("JSON");
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    }
    assert_eq!(srv.sim_runs(), runs as u64);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_shutdown_reply_is_written_before_the_server_stops() {
    let dir = temp_store("shutdowns");
    for cycle in 0..200 {
        let srv = TestServer::boot(&dir);
        let mut stream = TcpStream::connect(&srv.addr).expect("connect");
        stream
            .write_all(b"POST /v1/shutdown HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .expect("send");
        // `run` returns only after the reply is written, so it is there to
        // read once the server thread has been joined.
        let mut srv = srv;
        within(30, "serve/shutdown cycle", move || {
            srv.handle.take().expect("running").join().expect("join")
        });
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read the reply");
        assert!(
            reply.starts_with("HTTP/1.1 200") && reply.contains("shutting down"),
            "cycle {cycle}: {reply:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_closes_the_port_while_a_silent_connection_is_open() {
    let dir = temp_store("closed");
    let srv = TestServer::boot(&dir);
    let addr = srv.addr.clone();
    let silent = TcpStream::connect(&addr).expect("connect");
    // Answered only after the silent connection was accepted.
    assert_eq!(srv.sim_runs(), 0);
    within(30, "shutdown beside a silent client", move || {
        srv.shutdown()
    });
    let late = TcpStream::connect(&addr);
    assert!(
        late.as_ref()
            .is_err_and(|e| e.kind() == std::io::ErrorKind::ConnectionRefused),
        "a connect after `run` returned must be refused: {late:?}"
    );
    drop(silent);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_requests_start_no_thread() {
    let dir = temp_store("threads");
    let srv = TestServer::boot(&dir);
    let standing = STANDING_ACCEPTORS as u64;
    // The thread answering a health check is busy, the rest are idle.
    assert_eq!(srv.http_threads(), (standing, standing - 1));
    let cold = client::post(&srv.addr, "/v1/runs", &run_body("1")).expect("cold run");
    assert_eq!(cold.status, 200, "{}", cold.body);
    for _ in 0..200 {
        let hit = client::post(&srv.addr, "/v1/runs", &run_body("1")).expect("hit");
        assert_eq!(hit.status, 200, "{}", hit.body);
    }
    assert_eq!(
        srv.http_threads(),
        (standing, standing - 1),
        "a sequential client must be served by the standing acceptors"
    );
    assert_eq!(srv.sim_runs(), 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_connection_is_closed_once_the_read_timeout_passes() {
    let dir = temp_store("timeout");
    let srv = TestServer::boot(&dir);
    let standing = STANDING_ACCEPTORS as u64;
    // More silent clients than standing acceptors, so the pool grows.
    let silent = STANDING_ACCEPTORS + 2;
    let start = Instant::now();
    let clients: Vec<TcpStream> = (0..silent)
        .map(|_| TcpStream::connect(&srv.addr).expect("connect"))
        .collect();
    let margin = Duration::from_secs(10);
    for mut client in clients {
        client
            .set_read_timeout(Some(READ_TIMEOUT + margin))
            .expect("client timeout");
        let mut reply = Vec::new();
        // The server closes the connection unanswered: end of stream.
        client
            .read_to_end(&mut reply)
            .expect("closed, not timed out");
        assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));
        let waited = start.elapsed();
        assert!(waited < READ_TIMEOUT + margin, "closed after {waited:?}");
        assert!(waited >= READ_TIMEOUT / 2, "closed after only {waited:?}");
    }
    // Every thread the silent clients held is back in the pool or gone:
    // a health check finds the standing acceptors idle but the one
    // answering it.
    let (started, idle) = srv.http_threads();
    assert!(started > standing, "the silent clients grew the pool");
    assert_eq!(idle, standing - 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_over_long_request_head_gets_a_413() {
    let dir = temp_store("head");
    let srv = TestServer::boot(&dir);
    // A header line twice as long as the head's cap: the client is still
    // sending when the server refuses it, and must read the refusal.
    let line = "GET /v1/healthz HTTP/1.1\r\nX-Long: ";
    let head = format!("{line}{}\r\n\r\n", "a".repeat(2 * MAX_HEAD_BYTES));
    let mut stream = TcpStream::connect(&srv.addr).expect("connect");
    stream.write_all(head.as_bytes()).expect("send the head");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client timeout");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("a reply");
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(reply.contains(r#""kind":"parse""#), "{reply}");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
