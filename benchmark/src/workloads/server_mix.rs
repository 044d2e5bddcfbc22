//! `server_mix`: service traffic against an in-process `bow-server`.
//!
//! Closed loop, one client thread, one request per connection
//! (`Connection: close`). A round runs the seeded script against a fresh
//! server (2 workers, fresh store directory, ephemeral port): every key
//! of a fixed (kernel × configuration) space is submitted cold once, and
//! in between come resubmissions that must be answered `"cached": true`
//! and `GET /v1/results/{fp}` fetches. Every round of a run plays the
//! same script, so a stretch of [`CHUNK`] requests is one timed piece.
//!
//! A run is [`ROUNDS`] rounds, started at even intervals over
//! `--seconds`; between rounds the client idles. Every request leaves a
//! socket in TIME_WAIT for 60 s, the host keeps at most 65 536 of them,
//! and once that table is full every connection on the machine costs
//! 2.5× as much (measured with a bare Python client and server). Played
//! back to back the rounds open ≈1500 connections a second and fill it
//! in under a minute, so later rounds and later runs would measure the
//! kernel's overflow path instead of the server. Paced, a run opens 7000
//! connections in ten seconds.
//!
//! An operation is one HTTP request. It fails on a non-2xx reply, on a
//! hit or fetch that is not byte-identical to what the cold run
//! returned, and on a cold run whose record is not host-reference
//! checked and complete.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use bow::api::RunRequest;
use bow::experiment::RunRecord;
use bow::workloads::{suite as paper_suite, Scale};
use bow_server::store::ResultStore;
use bow_server::{client, Server, ServerConfig};
use bow_util::hash::sha256_hex;
use bow_util::json::Json;
use bow_util::XorShift;

use super::{caught, finish_trace, permutation, RunOpts, RunOutput, SetUps, Sizing, TraceEnd};
use crate::stats::{percentile, tail};
use crate::trace::Tracer;

/// Worker threads of the server under test.
const WORKERS: usize = 2;

/// Requests per timed piece of a round.
const CHUNK: usize = 250;

/// Rounds per run (a traced run alternates untraced and traced ones).
const ROUNDS: usize = 4;

/// The kind of a scripted request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// First submission of a key: the server simulates.
    Cold,
    /// Resubmission of a key already submitted: answered from the store.
    Hit,
    /// `GET /v1/results/{fp}` of a key already submitted.
    Get,
}

/// One scripted request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// What kind of request.
    pub class: Class,
    /// Index into [`Script::keys`].
    pub key: usize,
    /// Which spelling of the key's body a submission sends.
    pub spelling: usize,
}

/// One (kernel, configuration) pair and the request bodies that name it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Key {
    /// Bodies that canonicalize to the same fingerprint: defaults left
    /// out, and everything spelled out with the presentational knobs set.
    pub bodies: [String; 2],
}

/// A round's requests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Script {
    /// The key space; every key is submitted cold exactly once.
    pub keys: Vec<Key>,
    /// The requests, in sending order.
    pub steps: Vec<Step>,
}

/// The collector knobs of the key space, as (`collector`, knob, value).
const COLLECTORS: [(&str, &str, u32); 10] = [
    ("baseline", "window", 3),
    ("bow", "window", 3),
    ("bow-wr", "window", 3),
    ("rfc", "rfc_entries", 6),
    ("bow-flex", "capacity", 12),
    ("bow-wr-half", "window", 3),
    ("bow", "window", 2),
    ("bow-wr", "window", 2),
    ("bow", "window", 4),
    ("bow-wr", "window", 4),
];

const CORES: [(&str, &str); 4] = [
    ("pascal", "stack"),
    ("modern", "barrier"),
    ("pascal", "barrier"),
    ("modern", "stack"),
];

fn key_space(per_kernel: usize) -> Vec<Key> {
    let mut keys = Vec::new();
    for bench in paper_suite(Scale::Test) {
        let configs = COLLECTORS
            .iter()
            .flat_map(|c| CORES.iter().map(move |core| (c, core)))
            .take(per_kernel);
        for ((collector, knob, value), (core, divergence)) in configs {
            let name = bench.name();
            // Defaults left out: pascal, stack, window 3, 6 RFC entries
            // and capacity 12 are what the server fills in.
            let mut short = format!("\"collector\":\"{collector}\"");
            if !matches!(
                (*knob, *value),
                ("window", 3) | ("rfc_entries", 6) | ("capacity", 12)
            ) {
                short += &format!(",\"{knob}\":{value}");
            }
            if *core != "pascal" {
                short += &format!(",\"core_model\":\"{core}\"");
            }
            if *divergence != "stack" {
                short += &format!(",\"divergence\":\"{divergence}\"");
            }
            let long = format!(
                "\"label\":\"resubmitted\",\"sim_threads\":1,\"model\":\"scaled\",\
                 \"divergence\":\"{divergence}\",\"core_model\":\"{core}\",\
                 \"{knob}\":{value},\"collector\":\"{collector}\""
            );
            keys.push(Key {
                bodies: [
                    format!("{{\"kernel\":{{\"workload\":\"{name}\"}},\"config\":{{{short}}}}}"),
                    format!(
                        "{{\"config\":{{{long}}},\"wait\":true,\
                         \"kernel\":{{\"scale\":\"test\",\"workload\":\"{name}\"}}}}"
                    ),
                ],
            });
        }
    }
    keys
}

/// Builds a round's script from `seed`: the cold submissions in a seeded
/// order, with the hits and fetches scattered between them so that each
/// names a key already submitted.
pub fn build_script(seed: u64, sizing: &Sizing) -> Script {
    let keys = key_space(sizing.server_configs_per_kernel);
    let mut rng = XorShift::new(seed ^ 0x5e2f_e2d1);
    let cold_order = permutation(&mut rng, keys.len());
    let (mut cold_left, mut hits_left, mut gets_left) =
        (keys.len(), sizing.server_hits, sizing.server_gets);
    let mut steps = Vec::with_capacity(cold_left + hits_left + gets_left);
    while cold_left + hits_left + gets_left > 0 {
        let submitted = keys.len() - cold_left;
        let draw = if submitted == 0 {
            0
        } else {
            rng.below((cold_left + hits_left + gets_left) as u64) as usize
        };
        let spelling = rng.below(2) as usize;
        let step = if draw < cold_left {
            cold_left -= 1;
            Step {
                class: Class::Cold,
                key: cold_order[submitted],
                spelling,
            }
        } else {
            let key = cold_order[rng.below(submitted as u64) as usize];
            let class = if draw < cold_left + hits_left {
                hits_left -= 1;
                Class::Hit
            } else {
                gets_left -= 1;
                Class::Get
            };
            Step {
                class,
                key,
                spelling,
            }
        };
        steps.push(step);
    }
    Script { keys, steps }
}

impl Script {
    /// The script as the text a client would send, one request per line
    /// (a fetch names its key, whose fingerprint only the cold reply
    /// reveals).
    pub fn render(&self) -> String {
        let mut text = String::new();
        for s in &self.steps {
            match s.class {
                Class::Cold | Class::Hit => {
                    text += "POST /v1/runs ";
                    text += &self.keys[s.key].bodies[s.spelling];
                }
                Class::Get => text += &format!("GET /v1/results/{{fingerprint of key {}}}", s.key),
            }
            text.push('\n');
        }
        text
    }
}

/// A server running on a thread of this process.
struct Running {
    addr: String,
    store_dir: PathBuf,
    handle: JoinHandle<Result<(), String>>,
}

fn boot(store_dir: PathBuf) -> Result<Running, String> {
    // A directory left by a killed run would turn cold requests into hits.
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        store_dir: store_dir.clone(),
    })
    .map_err(|e| format!("server boot: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    let ready = client::get(&addr, "/v1/healthz").map_err(|e| format!("server boot: {e}"))?;
    if ready.status != 200 {
        return Err(format!("server boot: healthz answered {}", ready.status));
    }
    Ok(Running {
        addr,
        store_dir,
        handle,
    })
}

/// What `/v1/healthz` said at the end of a round.
#[derive(Clone, Copy, Default, Debug)]
struct Health {
    sim_runs: u64,
    store_hits: u64,
    store_misses: u64,
}

impl Running {
    fn health(&self) -> Result<Health, String> {
        let doc = client::get(&self.addr, "/v1/healthz")
            .and_then(|r| r.json())
            .map_err(|e| format!("healthz: {e}"))?;
        let store = doc.get("store").cloned().unwrap_or(Json::Null);
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(Health {
            sim_runs: field(&doc, "sim_runs"),
            store_hits: field(&store, "hits"),
            store_misses: field(&store, "misses"),
        })
    }

    fn shut_down(self) -> Result<(), String> {
        let reply = client::post(&self.addr, "/v1/shutdown", "{}");
        let joined = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.store_dir);
        reply.map_err(|e| format!("shutdown: {e}"))?;
        joined.map_err(|_| "server thread panicked".to_string())?
    }
}

/// What a key's cold submission returned, and what every later reply for
/// the key must therefore be.
struct Known {
    fingerprint: String,
    /// The stored document: the body of a fetch.
    doc: String,
    /// The body of a cached resubmission.
    hit_body: String,
}

fn known_from_cold(body: &str) -> Option<Known> {
    let rest = body.strip_prefix("{\"fingerprint\":\"")?;
    let (fingerprint, rest) = rest.split_once('"')?;
    let doc = rest
        .strip_prefix(",\"cached\":false,\"result\":")?
        .strip_suffix('}')?;
    Some(Known {
        fingerprint: fingerprint.to_string(),
        doc: doc.to_string(),
        hit_body: format!("{{\"fingerprint\":\"{fingerprint}\",\"cached\":true,\"result\":{doc}}}"),
    })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    /// Host seconds of each stretch of [`CHUNK`] requests.
    pieces: Vec<f64>,
    /// Latencies in ms, per class.
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    get_ms: Vec<f64>,
    non_2xx: u64,
    /// Simulated warp instructions of the cold runs.
    warp_insts: u64,
    health: Health,
    /// The stored documents, by key, for the layer probes.
    docs: Vec<(String, String)>,
}

fn span_name(class: Class) -> &'static str {
    match class {
        Class::Cold => "server.request_cold",
        Class::Hit => "server.request_hit",
        Class::Get => "server.request_get",
    }
}

/// Sends the script to `server`. With a tracer, each request is a span.
fn play(
    server: &Running,
    script: &Script,
    out: &mut RunOutput,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let mut round = Round::default();
    let mut known: Vec<Option<Known>> = Vec::new();
    known.resize_with(script.keys.len(), || None);
    let start = Instant::now();
    let mut chunk_start = start;
    for (i, step) in script.steps.iter().enumerate() {
        if i > 0 && i % CHUNK == 0 {
            let now = Instant::now();
            round.pieces.push((now - chunk_start).as_secs_f64());
            chunk_start = now;
        }
        out.attempted += 1;
        let send = || match (step.class, &known[step.key]) {
            (Class::Get, Some(k)) => {
                client::get(&server.addr, &format!("/v1/results/{}", k.fingerprint))
            }
            _ => client::post(
                &server.addr,
                "/v1/runs",
                &script.keys[step.key].bodies[step.spelling],
            ),
        };
        let sent = Instant::now();
        let reply = match tracer.as_deref_mut() {
            Some(tr) => tr.leaf(span_name(step.class), send),
            None => send(),
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{:?} of key {}: {e}", step.class, step.key));
                continue;
            }
        };
        if !(200..300).contains(&reply.status) {
            round.non_2xx += 1;
            out.fail(format!(
                "{:?} of key {}: status {}: {}",
                step.class, step.key, reply.status, reply.body
            ));
            continue;
        }
        match (step.class, &known[step.key]) {
            (Class::Cold, _) => {
                round.cold_ms.push(ms);
                match known_from_cold(&reply.body) {
                    Some(k) => known[step.key] = Some(k),
                    None => out.fail(format!("cold run of key {} was not a miss", step.key)),
                }
            }
            (Class::Hit, Some(k)) => {
                round.hit_ms.push(ms);
                if reply.body != k.hit_body {
                    out.fail(format!("hit of key {} differs from its miss", step.key));
                }
            }
            (Class::Get, Some(k)) => {
                round.get_ms.push(ms);
                if reply.body != k.doc {
                    out.fail(format!("fetch of key {} differs from its miss", step.key));
                }
            }
            (_, None) => out.fail(format!(
                "{:?} of key {} before a successful cold run",
                step.class, step.key
            )),
        }
    }
    round.pieces.push(chunk_start.elapsed().as_secs_f64());
    round.wall_s = start.elapsed().as_secs_f64();
    // Outside the timed section: the cold records are checked results.
    for (i, k) in known.iter().enumerate() {
        let Some(k) = k else { continue };
        let record = bow_util::parse_json(&k.doc)
            .ok()
            .and_then(|doc| RunRecord::from_json(&doc).ok());
        match record {
            Some(r) if r.outcome.checked.is_ok() && r.outcome.result.completed => {
                round.warp_insts += r.outcome.result.stats.warp_instructions;
            }
            _ => out.fail(format!(
                "cold record of key {i} is not a checked, complete run"
            )),
        }
        round.docs.push((k.fingerprint.clone(), k.doc.clone()));
    }
    round
}

/// One fresh server, one script. Returns the round, its script and its
/// set-up time.
fn run_round(
    opts: &RunOpts,
    sizing: &Sizing,
    index: usize,
    out: &mut RunOutput,
    tracer: Option<&mut Tracer>,
) -> Result<(Round, Script, f64), String> {
    let start = Instant::now();
    let script = build_script(opts.seed, sizing);
    let store_dir = opts
        .out_dir
        .join(format!("tmp/store-{}-{index}", std::process::id()));
    let server = boot(store_dir)?;
    let setup_s = start.elapsed().as_secs_f64();
    let played = caught(|| play(&server, &script, out, tracer));
    let health = server.health();
    server.shut_down()?;
    let mut round = played.map_err(|p| format!("round {index} panicked: {p}"))?;
    round.health = health?;
    let cold = script.keys.len() as u64;
    if round.health.sim_runs != cold {
        out.failures.push(format!(
            "round {index}: the server simulated {} runs for {cold} cold requests",
            round.health.sim_runs
        ));
    }
    Ok((round, script, setup_s))
}

/// Direct calls into the layers a request goes through, on the round's
/// own request bodies and stored documents.
fn layer_probes(
    tr: &mut Tracer,
    opts: &RunOpts,
    script: &Script,
    docs: &[(String, String)],
) -> Result<(), String> {
    let dir = opts
        .out_dir
        .join(format!("tmp/probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let probed = tr.scope("probe.layers", |tr| {
        for (fp, doc) in docs {
            tr.leaf("server.store_put", || store.put(fp, doc.clone()))
                .map_err(|e| format!("store put: {e}"))?;
        }
        for (fp, doc) in docs {
            let got = tr.leaf("server.store_get", || store.get(fp));
            if got.as_deref() != Some(doc) {
                return Err(format!("store get of {fp} is not what was put"));
            }
        }
        for key in &script.keys {
            for body in &key.bodies {
                tr.leaf("bow.request_fingerprint", || {
                    let parsed = bow_util::parse_json(body).expect("scripted body is JSON");
                    RunRequest::from_json(&parsed)
                        .expect("scripted body is a run request")
                        .fingerprint()
                });
            }
        }
        for (_, doc) in docs {
            let parsed = tr
                .leaf("util.json_parse", || bow_util::parse_json(doc))
                .map_err(|e| format!("stored document: {e}"))?;
            // The server stores the pretty form.
            let text = tr.leaf("util.json_write", || parsed.to_string_pretty());
            if text != *doc {
                return Err("a stored document does not re-serialize to itself".to_string());
            }
            std::hint::black_box(tr.leaf("util.sha256", || sha256_hex(doc.as_bytes())));
            let record = tr
                .leaf("bow.record_from_json", || RunRecord::from_json(&parsed))
                .map_err(|e| format!("stored record: {e}"))?;
            std::hint::black_box(tr.leaf("bow.record_to_json", || record.to_json()));
        }
        Ok(())
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    probed
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when a server cannot be booted or shut down.
pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let sizing = Sizing::of(opts);
    let mut out = RunOutput::default();
    let start = Instant::now();
    let rounds = if opts.smoke { 1 } else { ROUNDS };
    let pace = |index: usize| {
        let due = opts.seconds * index as f64 / rounds as f64;
        let wait = due - start.elapsed().as_secs_f64();
        if !opts.smoke && wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    };
    let mut tr = Tracer::new();
    let (mut setup_s, mut pieces, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Round> = None;
    let mut traced: Vec<Round> = Vec::new();
    let mut doc_bytes = 0u64;
    let mut index = 0;
    while index < rounds {
        pace(index);
        let (round, _, setup) = run_round(opts, &sizing, index, &mut out, None)?;
        index += 1;
        setup_s.push(setup);
        pieces.push(round.pieces.clone());

        if opts.trace {
            pace(index);
            let (round, script, _) = tr.scope("bench.round", |tr| {
                run_round(opts, &sizing, index, &mut out, Some(tr))
            })?;
            index += 1;
            traced_walls.push(round.wall_s);
            doc_bytes += round.docs.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
            layer_probes(&mut tr, opts, &script, &round.docs)?;
            traced.push(round);
        }
        first.get_or_insert(round);
    }
    let _ = std::fs::remove_dir(opts.out_dir.join("tmp"));
    out.passes = pieces.len() as u64;
    let Some(first) = first else { return Ok(out) };
    let ops = (first.cold_ms.len() + first.hit_ms.len() + first.get_ms.len()) as u64;
    if !opts.trace {
        let wall_s = out.set_pass_timing(&SetUps::measured(setup_s), &pieces, ops);
        out.values
            .set("sim_kwips", first.warp_insts as f64 / 1e3 / wall_s);
        return Ok(out);
    }

    let rounds = traced.len() as f64;
    let walls: Vec<f64> = pieces.iter().map(|p| p.iter().sum()).collect();
    let totals = tr.totals();
    let mut v = std::mem::take(&mut out.values);
    let all = |pick: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| pick(r).iter().copied())
            .collect()
    };
    for (name, ms, fixed_tail) in [
        ("hit", all(|r| &r.hit_ms), "p99"),
        ("get", all(|r| &r.get_ms), "p99"),
        ("miss", all(|r| &r.cold_ms), "p95"),
    ] {
        if ms.is_empty() {
            continue;
        }
        v.set(format!("server.{name}_ms_p50"), percentile(&ms, 50));
        // The metric's name fixes the percentile at the measured sizes;
        // a smoke run has fewer samples and reports the lower one.
        let t = tail(&ms);
        v.set(format!("server.{name}_ms_{fixed_tail}"), t.value);
        out.note(
            &format!("server.{name}_ms_p50 server.{name}_ms_{fixed_tail}"),
            t.samples,
            Some(t.rank),
        );
    }
    // Probe spans: microseconds per call, or document megabytes per second.
    for (span, metric) in [
        ("server.store_put", "server.store_put_us"),
        ("server.store_get", "server.store_get_us"),
        ("bow.request_fingerprint", "bow.request_fingerprint_us"),
        ("util.json_parse", "util.json_parse_mb_s"),
        ("util.json_write", "util.json_write_mb_s"),
        ("util.sha256", "util.sha256_mb_s"),
    ] {
        let Some(t) = totals.get(span) else { continue };
        let seconds = t.total_ns as f64 / 1e9;
        let value = if metric.ends_with("_us") {
            seconds * 1e6 / t.count as f64
        } else {
            doc_bytes as f64 / 1e6 / seconds
        };
        v.set(metric, value);
    }
    let health = traced.iter().fold(Health::default(), |a, r| Health {
        sim_runs: a.sim_runs + r.health.sim_runs,
        store_hits: a.store_hits + r.health.store_hits,
        store_misses: a.store_misses + r.health.store_misses,
    });
    v.set("server.sim_runs", health.sim_runs as f64 / rounds);
    v.set(
        "server.store_hit_pct",
        100.0 * health.store_hits as f64 / (health.store_hits + health.store_misses).max(1) as f64,
    );
    v.set(
        "server.http_non2xx",
        traced.iter().map(|r| r.non_2xx).sum::<u64>() as f64,
    );
    out.values = v;
    finish_trace(
        &mut out,
        &tr,
        opts,
        &TraceEnd {
            workload: "server_mix",
            root: "bench.round",
            traced_walls: &traced_walls,
            untraced_walls: &walls,
            compiled_insts: 0,
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_sizing() -> Sizing {
        Sizing::of(&RunOpts {
            seed: 0,
            seconds: 0.0,
            trace: false,
            smoke: true,
            out_dir: PathBuf::new(),
        })
    }

    #[test]
    fn the_script_is_byte_identical_for_one_seed_and_differs_for_another() {
        let sizing = smoke_sizing();
        let a = build_script(11, &sizing).render();
        let b = build_script(11, &sizing).render();
        let c = build_script(12, &sizing).render();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().count(), 15 * 2 + 315 + 155);
    }

    #[test]
    fn every_key_is_cold_once_and_first() {
        let sizing = smoke_sizing();
        let script = build_script(5, &sizing);
        let mut submitted = vec![false; script.keys.len()];
        let (mut cold, mut hit, mut get) = (0, 0, 0);
        for s in &script.steps {
            match s.class {
                Class::Cold => {
                    assert!(!submitted[s.key], "key {} submitted cold twice", s.key);
                    submitted[s.key] = true;
                    cold += 1;
                }
                Class::Hit => {
                    assert!(submitted[s.key]);
                    hit += 1;
                }
                Class::Get => {
                    assert!(submitted[s.key]);
                    get += 1;
                }
            }
        }
        assert_eq!((cold, hit, get), (30, 315, 155));
        assert!(submitted.iter().all(|&s| s));
    }

    #[test]
    fn the_key_space_is_distinct_fingerprints_and_spellings_agree() {
        let keys = key_space(COLLECTORS.len() * CORES.len());
        assert_eq!(keys.len(), 600);
        let mut seen = std::collections::BTreeSet::new();
        for key in &keys {
            let fps: Vec<String> = key
                .bodies
                .iter()
                .map(|b| {
                    let parsed = bow_util::parse_json(b).expect("body is JSON");
                    RunRequest::from_json(&parsed)
                        .unwrap_or_else(|e| panic!("{b}: {e}"))
                        .fingerprint()
                })
                .collect();
            assert_eq!(fps[0], fps[1], "{:?}", key.bodies);
            assert!(
                seen.insert(fps[0].clone()),
                "duplicate key {:?}",
                key.bodies
            );
        }
    }

    #[test]
    fn a_cold_reply_fixes_what_hits_and_fetches_must_return() {
        let fp = "ab".repeat(32);
        let body = format!("{{\"fingerprint\":\"{fp}\",\"cached\":false,\"result\":{{\"x\":1}}}}");
        let k = known_from_cold(&body).expect("a miss");
        assert_eq!(k.fingerprint, fp);
        assert_eq!(k.doc, "{\"x\":1}");
        assert_eq!(
            k.hit_body,
            format!("{{\"fingerprint\":\"{fp}\",\"cached\":true,\"result\":{{\"x\":1}}}}")
        );
        assert!(
            known_from_cold(&k.hit_body).is_none(),
            "a hit is not a miss"
        );
    }
}
