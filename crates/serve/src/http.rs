//! The HTTP plane both servers stand on: a hand-rolled, std-only
//! HTTP/1.1 subset plus the one accept loop.
//!
//! Just enough protocol for the campaign service: request line, headers
//! and `Content-Length` bodies on the way in; fixed-length or chunked
//! responses with `Connection: close` on the way out. No keep-alive, no
//! TLS, no compression — the servers sit on a trusted lab network, and
//! every exchange is one connection.
//!
//! ## The plane
//!
//! The daemon ([`crate::daemon`]) and the coordinator ([`crate::coord`])
//! supply only their routes. [`bind`] opens the listener; [`serve`]
//! blocks in `accept` while the server's `running` predicate holds.
//! Whoever turns `running` false calls [`wake`], whose loopback
//! connect returns the blocked `accept`; the loop re-checks `running`
//! after every accept and drops, unanswered, a connection that arrives
//! once the server has stopped. Each other connection runs on its own
//! short-lived thread: a 10 s read timeout, one `read_request` (a
//! malformed one is answered `400 {"error":"bad request"}`), the path
//! split into segments with any `?query` dropped, then the server's
//! route. A route matches its own `(method, segments)` pairs and hands
//! everything else to [`fallback`]: the shared `/dashboard` page, `405`
//! for methods other than GET/POST, `404` otherwise.
//!
//! Answers go out through one responder per shape: [`respond`]
//! (fixed-length), [`respond_error`] (every `{"error":…}` body),
//! [`respond_file`] (a file as a chunked body) and
//! [`crate::live::serve_stream`] (an SSE tail).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::error::ServeError;

/// Upper bound on accepted request bodies (a job spec is < 1 KiB; this
/// leaves two orders of magnitude of slack).
const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the request line + header section combined. This API
/// uses no interesting headers, so 16 KiB is generous; the cap keeps one
/// slow or malicious connection from holding a handler thread while
/// growing an unbounded header buffer.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Reads one `\n`-terminated line from `reader`, charging its bytes
/// against `budget`.
///
/// # Errors
///
/// [`ServeError::Protocol`] when the head section would exceed
/// [`MAX_HEAD_BYTES`], [`ServeError::Io`] on socket errors.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ServeError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break; // EOF terminates the line
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (buf.len(), false),
        };
        if take > *budget {
            return Err(ServeError::Protocol(format!(
                "request head exceeds the {MAX_HEAD_BYTES} byte limit"
            )));
        }
        *budget -= take;
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| ServeError::Protocol("head is not UTF-8".into()))
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The HTTP method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string included when present.
    pub path: String,
    /// All request headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The decoded body (empty without `Content-Length`).
    pub body: String,
}

impl Request {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed framing, [`ServeError::Io`] on
/// socket errors.
fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    let mut reader = BufReader::new(stream);
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = read_head_line(&mut reader, &mut head_budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("request line without a path".into()))?
        .to_owned();

    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let line = read_head_line(&mut reader, &mut head_budget)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Protocol("bad Content-Length".into()))?;
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::Protocol(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES} limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body: String::from_utf8(body)
            .map_err(|_| ServeError::Protocol("body is not UTF-8".into()))?,
    })
}

/// The reason phrase of the status codes this API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a fixed-length response and closes the exchange.
///
/// # Errors
///
/// [`ServeError::Io`] on socket errors.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> Result<(), ServeError> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Writes a `Transfer-Encoding: chunked` response, one chunk per call to
/// the returned writer, then finishes with the zero chunk.
///
/// # Errors
///
/// [`ServeError::Io`] on socket errors.
pub fn respond_chunked<F>(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    mut fill: F,
) -> Result<(), ServeError>
where
    F: FnMut(&mut dyn FnMut(&[u8]) -> std::io::Result<()>) -> std::io::Result<()>,
{
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status),
    );
    stream.write_all(head.as_bytes())?;
    {
        let mut write_chunk = |chunk: &[u8]| -> std::io::Result<()> {
            if chunk.is_empty() {
                return Ok(()); // an empty chunk would terminate the stream
            }
            stream.write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
            stream.write_all(chunk)?;
            stream.write_all(b"\r\n")
        };
        fill(&mut write_chunk)?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()?;
    Ok(())
}

/// Writes `{"error":"<message>"}` (escaped) as a fixed-length JSON
/// response.
///
/// # Errors
///
/// [`ServeError::Io`] on socket errors.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> Result<(), ServeError> {
    let body = format!("{{\"error\":\"{}\"}}", radcrit_obs::json::escape(message));
    respond(stream, status, "application/json", &body)
}

/// Streams the file at `path` as a chunked `application/jsonl` body, or
/// answers `404` with `missing` when it cannot be opened.
///
/// # Errors
///
/// [`ServeError::Io`] on socket or read errors.
pub fn respond_file(stream: &mut TcpStream, path: &Path, missing: &str) -> Result<(), ServeError> {
    let Ok(mut file) = std::fs::File::open(path) else {
        return respond_error(stream, 404, missing);
    };
    respond_chunked(stream, 200, "application/jsonl", |write| {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            write(&buf[..n])?;
        }
    })
}

/// Binds `addr` as the listener for [`serve`], returning it with its
/// resolved address.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound.
pub fn bind(addr: &str) -> Result<(TcpListener, SocketAddr), ServeError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}

/// Accepts connections on `listener` (from [`bind`]) while `running()`
/// holds, answering each on its own thread through `route`, which gets
/// the request and its path segments. Blocks in `accept`: whoever turns
/// `running()` false must [`wake`] the listener's address.
pub fn serve<R>(listener: &TcpListener, running: impl Fn() -> bool, route: R)
where
    R: Fn(&mut TcpStream, &Request, &[&str]) -> Result<(), ServeError> + Send + Sync + 'static,
{
    let route = Arc::new(route);
    while running() {
        // A failed accept (say, a connection reset while it queued)
        // loses that connection only.
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        if !running() {
            break; // the wake-up, or a request that came too late
        }
        let route = Arc::clone(&route);
        std::thread::spawn(move || {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = answer(&mut stream, &*route);
        });
    }
}

/// Returns a [`serve`] loop on `addr` from its blocked `accept` with a
/// loopback connect, so it re-checks its `running` predicate. Call it
/// after turning that predicate false; a loop that already exited
/// refuses the connect, which is ignored.
pub fn wake(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// One connection's exchange: read, split the path, route.
fn answer<R>(stream: &mut TcpStream, route: &R) -> Result<(), ServeError>
where
    R: Fn(&mut TcpStream, &Request, &[&str]) -> Result<(), ServeError>,
{
    let Ok(request) = read_request(stream) else {
        return respond_error(stream, 400, "bad request");
    };
    // The dashboard links carry `?job=<id>` selectors; routing only
    // looks at the path proper.
    let path = request.path.split('?').next().unwrap_or(&request.path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    route(stream, &request, &segments)
}

/// The answer to a request none of a server's own routes matched.
///
/// # Errors
///
/// [`ServeError::Io`] on socket errors.
pub fn fallback(
    stream: &mut TcpStream,
    req: &Request,
    segments: &[&str],
) -> Result<(), ServeError> {
    match (req.method.as_str(), segments) {
        ("GET", ["dashboard"]) => respond(
            stream,
            200,
            "text/html; charset=utf-8",
            crate::dashboard::DASHBOARD_HTML,
        ),
        ("GET" | "POST", _) => respond_error(stream, 404, "no such route"),
        _ => respond_error(stream, 405, "method not allowed"),
    }
}

/// A client-side response: status plus fully-read body (chunked bodies
/// are decoded transparently).
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The decoded body.
    pub body: String,
}

/// Reads one response from `stream`.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed framing, [`ServeError::Io`] on
/// socket errors.
pub fn read_response(stream: &mut TcpStream) -> Result<Response, ServeError> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Protocol(format!("bad status line {status_line:?}")))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| ServeError::Protocol(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                let mut trailer = String::new();
                reader.read_line(&mut trailer)?; // the final CRLF
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else if let Some(n) = content_length {
        body = vec![0u8; n];
        reader.read_exact(&mut body)?;
    } else {
        // Connection: close delimits the body.
        reader.read_to_end(&mut body)?;
    }
    Ok(Response {
        status,
        body: String::from_utf8(body)
            .map_err(|_| ServeError::Protocol("response body is not UTF-8".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trips one request/response pair over a real socket.
    fn exchange(
        serve: impl FnOnce(&mut TcpStream, Request) + Send + 'static,
        request: &str,
    ) -> Response {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            serve(&mut stream, req);
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(request.as_bytes()).unwrap();
        let response = read_response(&mut client).unwrap();
        server.join().unwrap();
        response
    }

    #[test]
    fn fixed_length_round_trip() {
        let response = exchange(
            |stream, req| {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/jobs");
                assert_eq!(req.body, "{\"x\":1}");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(req.header("HOST"), Some("x"), "lookup is case-insensitive");
                assert_eq!(req.header("last-event-id"), None);
                respond(stream, 202, "application/json", "{\"ok\":true}").unwrap();
            },
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"x\":1}",
        );
        assert_eq!(response.status, 202);
        assert_eq!(response.body, "{\"ok\":true}");
    }

    #[test]
    fn oversized_head_is_rejected_not_buffered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // One header line far past MAX_HEAD_BYTES, never newline-terminated:
        // the server must give up at the cap instead of buffering it all.
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nX-Pad: ")
            .unwrap();
        let pad = vec![b'a'; 2 * MAX_HEAD_BYTES];
        let _ = client.write_all(&pad); // the server may close mid-write
        let result = server.join().unwrap();
        assert!(
            matches!(result, Err(ServeError::Protocol(ref m)) if m.contains("head")),
            "expected a head-limit protocol error, got {result:?}"
        );
    }

    #[test]
    fn chunked_round_trip() {
        let response = exchange(
            |stream, _req| {
                respond_chunked(stream, 200, "application/jsonl", |write| {
                    write(b"{\"line\":1}\n")?;
                    write(b"")?; // empty chunks are skipped, not terminators
                    write(b"{\"line\":2}\n")
                })
                .unwrap();
            },
            "GET /jobs/job-000001/events HTTP/1.1\r\n\r\n",
        );
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"line\":1}\n{\"line\":2}\n");
    }
}
