//! Minimal HTTP/1.1 framing over blocking sockets.
//!
//! Just enough of RFC 9112 for a loopback JSON API: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies only (no chunked encoding), hard caps on the request head and
//! body so a misbehaving client cannot balloon the server, and a deadline
//! on the whole request so a silent one cannot hold a thread for good.
//! This is deliberate —
//! the workspace is std-only, and the service's clients are `bow-cli
//! submit`, the CI smoke stage and `curl`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body. Inline kernels and sweep documents are
/// a few KiB; 4 MiB leaves two orders of magnitude of headroom.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted request head: the request line and every header,
/// line ends included. Every client of the API sends a few hundred bytes.
pub const MAX_HEAD_BYTES: usize = 8 << 10;

/// How long a whole request may take to arrive, counted from the first
/// read. A connection that is silent or slower than this is closed
/// unanswered.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request: method, path, body. Headers other than
/// `Content-Length` are read and discarded.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/runs`. Query strings are not split off;
    /// the v1 API does not use them.
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be framed. Maps onto a 400 response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The socket closed or errored mid-request.
    Io(String),
    /// The bytes on the wire are not an HTTP/1.1 request we accept.
    Malformed(String),
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// The request line and headers exceed [`MAX_HEAD_BYTES`].
    HeadTooLarge,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(m) => write!(f, "socket error: {m}"),
            FrameError::Malformed(m) => write!(f, "malformed request: {m}"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            }
            FrameError::HeadTooLarge => write!(
                f,
                "request line and headers exceed the {MAX_HEAD_BYTES}-byte limit"
            ),
        }
    }
}

/// A stream read under a deadline: each read waits at most until it.
struct Deadline<'s> {
    stream: &'s TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        (&mut &*self.stream).read(buf)
    }
}

/// Reads one request off `stream`, which must arrive whole within
/// [`READ_TIMEOUT`].
///
/// # Errors
///
/// Returns a [`FrameError`] when the connection drops or times out, the
/// request line or headers are unparsable or over [`MAX_HEAD_BYTES`], or
/// the declared body is over the cap.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, FrameError> {
    let until = Instant::now() + READ_TIMEOUT;
    let mut reader = BufReader::new(Deadline { stream, until });
    let mut head_left = MAX_HEAD_BYTES as u64;
    // One line of the head, counted against its cap.
    let mut next_line = |reader: &mut BufReader<Deadline>| {
        if head_left == 0 {
            return Err(FrameError::HeadTooLarge);
        }
        let mut line = String::new();
        let read = reader
            .take(head_left)
            .read_line(&mut line)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        head_left -= read as u64;
        if head_left == 0 && !line.ends_with('\n') {
            return Err(FrameError::HeadTooLarge);
        }
        Ok(line)
    };
    let line = next_line(&mut reader)?;
    if line.is_empty() {
        return Err(FrameError::Io("connection closed before request".into()));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| FrameError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| FrameError::Malformed("request line has no target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| FrameError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(FrameError::Malformed(format!("unsupported {version}")));
    }

    let mut content_length = 0usize;
    loop {
        let header = next_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| FrameError::Malformed("bad Content-Length".into()))?;
            }
            if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                return Err(FrameError::Malformed(
                    "chunked transfer encoding is not supported".into(),
                ));
            }
        } else {
            return Err(FrameError::Malformed(format!("bad header line `{header}`")));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(FrameError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a JSON response (status + body) and flushes. The connection is
/// marked `Connection: close`; callers drop the stream afterwards.
///
/// Head and body go out in one write, so Nagle's algorithm never holds
/// the body back until the client acknowledges the head.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str) -> Result<Request, FrameError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            roundtrip("POST /v1/runs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/runs");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = roundtrip("GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(roundtrip(&huge), Err(FrameError::TooLarge(_))));
        assert!(matches!(
            roundtrip("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip("GET /\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn caps_the_request_head() {
        // A head that ends right at the cap is read; one byte more is not,
        // whether it is one long line or many short ones.
        let line = "GET /v1/healthz HTTP/1.1\r\n";
        let pad = |n: usize| format!("X-Pad: {}\r\n", "a".repeat(n - 9));
        let fits = format!("{line}{}\r\n", pad(MAX_HEAD_BYTES - line.len() - 2));
        assert!(roundtrip(&fits).is_ok());
        let over = format!("{line}{}\r\n", pad(MAX_HEAD_BYTES - line.len() - 1));
        assert_eq!(roundtrip(&over).unwrap_err(), FrameError::HeadTooLarge);
        let endless = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES));
        assert_eq!(roundtrip(&endless).unwrap_err(), FrameError::HeadTooLarge);
        let many = format!("{line}{}", "X-A: b\r\n".repeat(MAX_HEAD_BYTES / 8));
        assert_eq!(roundtrip(&many).unwrap_err(), FrameError::HeadTooLarge);
    }
}
