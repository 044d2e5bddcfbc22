//! The service commands: `serve` runs the persistent simulation service
//! (`bow-server`, the v1 HTTP/JSON API over a content-addressed result
//! store), and `submit` is its client.

use crate::{err, Args, Subcommand};
use bow::error::BowError;
use bow::prelude::*;
use bow_server::client::{self, Response};
use bow_util::json::Json;

/// `serve`: the persistent simulation service.
pub const SERVE: Subcommand = Subcommand {
    name: "serve",
    synopsis: "  bow-cli serve [--addr HOST:PORT] [--workers N] [--store DIR] [--port-file FILE]\n",
    run: serve,
};

/// `submit`: submit a run, poll a job, fetch a stored result, check
/// health or shut a running server down.
pub const SUBMIT: Subcommand = Subcommand {
    name: "submit",
    synopsis: "  bow-cli submit <bench> [--asm FILE] [--collector C] [--window N]
                 [--scale] [--addr HOST:PORT] [--no-wait]
  bow-cli submit --job ID | --fetch FINGERPRINT | --health | --shutdown
                 [--addr HOST:PORT]
",
    run: submit,
};

/// `POST /v1/runs`: one kernel document under one config document.
pub(crate) fn post_run(
    addr: &str,
    kernel: Json,
    config: Json,
    wait: bool,
) -> Result<Response, BowError> {
    let body = Json::obj([
        ("kernel", kernel),
        ("config", config),
        ("wait", Json::from(wait)),
    ]);
    client::post(addr, "/v1/runs", &body.to_string_compact())
}

fn serve(args: &Args) -> Result<String, BowError> {
    let workers = args.number("--workers")?.unwrap_or(0);
    let server = bow_server::Server::bind(&bow_server::ServerConfig {
        addr: args.text("--addr", "127.0.0.1:7070").to_string(),
        workers,
        store_dir: args.text("--store", "results/store").into(),
    })?;
    let bound = server.local_addr();
    if let Some(p) = args.opt("--port-file") {
        std::fs::write(p, bound.to_string()).map_err(|e| BowError::io(p, e))?;
    }
    eprintln!("bow-server listening on {bound} (POST /v1/shutdown to stop)");
    server.run()?;
    Ok(format!("bow-server on {bound} stopped\n"))
}

fn submit(args: &Args) -> Result<String, BowError> {
    let scale = args.axis()?.unwrap_or(Scale::Test);
    let config = args.design()?;
    let addr = args.text("--addr", "127.0.0.1:7070");
    let response = if args.flag("--shutdown") {
        client::post(addr, "/v1/shutdown", "{}")?
    } else if args.flag("--health") {
        client::get(addr, "/v1/healthz")?
    } else if let Some(id) = args.number::<u64>("--job")? {
        client::get(addr, &format!("/v1/jobs/{id}"))?
    } else if let Some(fp) = args.opt("--fetch") {
        client::get(addr, &format!("/v1/results/{fp}"))?
    } else {
        let kernel = match (args.target, args.opt("--asm")) {
            (Some(b), None) => Json::obj([
                ("workload", Json::from(b)),
                ("scale", Json::from(scale.name())),
            ]),
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path).map_err(|e| BowError::io(path, e))?;
                Json::obj([("asm", Json::from(text))])
            }
            (None, None) => {
                return Err(err(
                    "submit: pass a benchmark, --asm, --job, --fetch, --health or --shutdown",
                ))
            }
            (Some(_), Some(_)) => return Err(err("submit: pass a benchmark OR --asm, not both")),
        };
        post_run(addr, kernel, config, !args.flag("--no-wait"))?
    };
    // Print the server's JSON verbatim; non-2xx responses carry a
    // structured error document and fail the process.
    let mut out = response.body.clone();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    if response.status < 400 {
        return Ok(out);
    }
    let kind = response
        .json()
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("kind")
                .and_then(Json::as_str)
                .map(String::from)
        })
        .unwrap_or_default();
    Err(match kind.as_str() {
        "config" => BowError::Config(ConfigError::Unknown(bow_util::UnknownName {
            what: "request (server rejected the configuration)",
            value: out.trim_end().to_string(),
            valid: Vec::new(),
        })),
        "io" | "not_found" => BowError::io(addr, out.trim_end()),
        "verify" => BowError::verify(out.trim_end()),
        _ => BowError::parse(out.trim_end()),
    })
}
