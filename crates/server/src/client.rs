//! A minimal blocking HTTP client for the v1 API.
//!
//! Used by `bow-cli submit`, the integration tests and the CI smoke
//! stage — one request per connection, matching the server's
//! `Connection: close` framing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bow::error::BowError;
use bow_util::json::{parse, Json};

/// A decoded response: status code plus the raw body text.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the v1 API always sends JSON).
    pub body: String,
}

impl Response {
    /// Parses the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Parse`] when the body is not valid JSON.
    pub fn json(&self) -> Result<Json, BowError> {
        Ok(parse(&self.body)?)
    }
}

/// Sends one request to `addr` (e.g. `"127.0.0.1:7070"`) and reads the
/// response to EOF.
///
/// # Errors
///
/// Returns [`BowError::Io`] on connect/read/write failures and
/// [`BowError::Parse`] when the response is not HTTP.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, BowError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| BowError::io(addr, format!("connect: {e}")))?;
    // Generous guard rails so a wedged server fails the client instead of
    // hanging it; sweeps at paper scale run minutes, hence the long read.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(3600)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
    // One write for head and body, so Nagle's algorithm never holds the
    // body back until the server acknowledges the head.
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| BowError::io(addr, format!("write: {e}")))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| BowError::io(addr, format!("read: {e}")))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| BowError::parse(format!("{addr}: response has no header/body split")))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| BowError::parse(format!("{addr}: bad status line `{head}`")))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// `GET path` against `addr`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> Result<Response, BowError> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body against `addr`.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: &str, path: &str, body: &str) -> Result<Response, BowError> {
    request(addr, "POST", path, Some(body))
}
