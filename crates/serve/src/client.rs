//! A std-only client for the campaign daemon.
//!
//! Thin wrapper over one-connection-per-exchange HTTP: every method
//! opens a fresh [`TcpStream`], writes one request, reads one response.
//! Non-2xx responses surface as [`ServeError::Http`] carrying the status
//! and the server's JSON error body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use radcrit_obs::json;

use crate::error::ServeError;
use crate::http::{read_response, Response};
use crate::spec::JobSpec;

/// Default connection-establishment timeout.
const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default per-read socket timeout. Live SSE streams stay under it
/// because the server pings every 15 s.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One job's state as reported by `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The wire state: `submitted`, `running`, `done`, `failed`,
    /// `cancelled` (or transitional `cancelling` from a cancel call).
    pub state: String,
    /// The failure message, when `state == "failed"`.
    pub error: Option<String>,
}

impl JobStatus {
    /// Whether the job will never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "done" | "failed" | "cancelled")
    }
}

/// Client handle for one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    connect_timeout: Duration,
    read_timeout: Duration,
}

impl Client {
    /// Creates a client for the daemon at `addr` (`host:port`) with the
    /// default timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// Sets the connection-establishment timeout; a daemon that cannot
    /// even accept within it counts as down.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the per-read socket timeout. Health probes against possibly
    /// dead workers want this short; bulk downloads may want it longer.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a fresh connection under the configured timeouts. Failures
    /// here surface as [`ServeError::Unreachable`]: the request never
    /// reached the server, so the caller may safely retry elsewhere.
    fn connect(&self) -> Result<TcpStream, ServeError> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Unreachable(format!("resolve {}: {e}", self.addr)))?;
        let mut last = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.read_timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ServeError::Unreachable(format!(
            "connect {}: {}",
            self.addr,
            last.map_or_else(|| "no addresses resolved".to_owned(), |e| e.to_string())
        )))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ServeError> {
        self.request_with(method, path, body, &[])
    }

    fn request_with(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, String)],
    ) -> Result<Response, ServeError> {
        let mut stream = self.connect()?;
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len(),
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        read_response(&mut stream)
    }

    /// Like [`Client::request`] but rejects non-2xx statuses.
    fn expect_ok(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ServeError> {
        let response = self.request(method, path, body)?;
        if (200..300).contains(&response.status) {
            Ok(response)
        } else {
            Err(ServeError::Http {
                status: response.status,
                body: response.body,
            })
        }
    }

    /// Submits `spec`; returns the allocated job id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 400 (invalid spec), 429 (queue full) or
    /// 503 (draining); [`ServeError::Unreachable`] when the daemon
    /// cannot be connected to at all; [`ServeError::Io`] when the
    /// connection failed after the request may have been sent (the job
    /// may exist on the daemon despite the error).
    pub fn submit(&self, spec: &JobSpec) -> Result<String, ServeError> {
        let response = self.expect_ok("POST", "/jobs", Some(&spec.to_json()))?;
        let v = json::parse_line(&response.body).map_err(ServeError::Protocol)?;
        let obj = json::as_obj(&v).map_err(ServeError::Protocol)?;
        json::get_str(obj, "job")
            .map(str::to_owned)
            .map_err(ServeError::Protocol)
    }

    /// Fetches the job's current state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs.
    pub fn status(&self, id: &str) -> Result<JobStatus, ServeError> {
        let response = self.expect_ok("GET", &format!("/jobs/{id}"), None)?;
        let v = json::parse_line(&response.body).map_err(ServeError::Protocol)?;
        let obj = json::as_obj(&v).map_err(ServeError::Protocol)?;
        Ok(JobStatus {
            state: json::get_str(obj, "status")
                .map_err(ServeError::Protocol)?
                .to_owned(),
            error: json::get_str(obj, "error").ok().map(str::to_owned),
        })
    }

    /// Blocks until the job reaches a terminal state: tails its SSE
    /// stream to the `end` frame, discarding the frames, then fetches
    /// its status once.
    ///
    /// # Errors
    ///
    /// [`ServeError::Interrupted`] when `timeout` elapses first; any
    /// stream or status-call error otherwise.
    pub fn wait(&self, id: &str, timeout: Duration) -> Result<JobStatus, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut last = None;
        loop {
            // Each read is bounded by the time left, so a quiet stream
            // cannot outlast the deadline.
            let left = deadline.saturating_duration_since(Instant::now());
            let tail = self
                .clone()
                .with_read_timeout(self.read_timeout.min(left).max(Duration::from_millis(1)));
            let tailed = tail.stream_with(id, last, &mut |ordinal, _| {
                last = Some(ordinal);
                Instant::now() < deadline
            });
            let expired = Instant::now() >= deadline;
            match tailed {
                Err(ServeError::Io(_)) if expired => {}
                other => other?,
            }
            let status = self.status(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            if expired {
                return Err(ServeError::Interrupted(format!(
                    "job {id} still {} after {:.1}s",
                    status.state,
                    timeout.as_secs_f64()
                )));
            }
        }
    }

    /// Fetches the finished job's canonical summary JSON (one line).
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 409 while the job is not done, 404 for
    /// unknown jobs.
    pub fn result(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/result"), None)?
            .body)
    }

    /// Streams the job's event log (chunked JSONL, returned assembled).
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 when no events exist yet.
    pub fn events(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/events"), None)?
            .body)
    }

    /// Tails the job's event stream as Server-Sent Events, blocking
    /// until the stream ends (job terminal and file exhausted), and
    /// returns the `(id, data)` frames. `resume_after` is sent as
    /// `Last-Event-ID`: only frames with a larger line ordinal arrive.
    /// The final id-less `end` frame is consumed, not returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs.
    pub fn stream(
        &self,
        id: &str,
        resume_after: Option<u64>,
    ) -> Result<Vec<(u64, String)>, ServeError> {
        let mut frames = Vec::new();
        self.stream_with(id, resume_after, &mut |ordinal, data| {
            frames.push((ordinal, data.to_owned()));
            true
        })?;
        Ok(frames)
    }

    /// Tails the job's event stream as Server-Sent Events, delivering
    /// each `(id, data)` frame to `on_frame` **as it arrives** instead
    /// of buffering the whole stream. Ping comments and the final
    /// id-less `end` frame are consumed silently. Returns when the
    /// server ends the stream, or early (still `Ok`) when `on_frame`
    /// returns `false`.
    ///
    /// `resume_after` is sent as `Last-Event-ID`: only frames with a
    /// larger line ordinal arrive.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs; [`ServeError::Io`]
    /// when the connection drops mid-stream (including a read timeout —
    /// a live server pings inside it).
    pub fn stream_with(
        &self,
        id: &str,
        resume_after: Option<u64>,
        on_frame: &mut dyn FnMut(u64, &str) -> bool,
    ) -> Result<(), ServeError> {
        let mut stream = self.connect()?;
        let mut head = format!(
            "GET /jobs/{id}/stream HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\n",
            self.addr
        );
        if let Some(n) = resume_after {
            head.push_str(&format!("Last-Event-ID: {n}\r\n"));
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ServeError::Protocol(format!("bad status line {status_line:?}")))?;
        let mut chunked = false;
        let mut content_length: Option<usize> = None;
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
        if !(200..300).contains(&status) {
            let mut body = Vec::new();
            if let Some(n) = content_length {
                body = vec![0u8; n];
                reader.read_exact(&mut body)?;
            } else {
                reader.read_to_end(&mut body)?;
            }
            return Err(ServeError::Http {
                status,
                body: String::from_utf8_lossy(&body).into_owned(),
            });
        }

        // Accumulate body bytes, peeling complete `\n\n`-terminated SSE
        // frames off the front as they land.
        let mut buffer: Vec<u8> = Vec::new();
        let mut deliver = |buffer: &mut Vec<u8>| -> Result<bool, ServeError> {
            while let Some(at) = buffer.windows(2).position(|w| w == b"\n\n") {
                let frame: Vec<u8> = buffer.drain(..at + 2).collect();
                let frame = std::str::from_utf8(&frame[..at])
                    .map_err(|_| ServeError::Protocol("SSE frame is not UTF-8".into()))?;
                let mut ordinal = None;
                let mut data = None;
                for line in frame.lines() {
                    if let Some(v) = line.strip_prefix("id: ") {
                        ordinal = v.trim().parse::<u64>().ok();
                    } else if let Some(v) = line.strip_prefix("data: ") {
                        data = Some(v.to_owned());
                    }
                }
                if let (Some(ordinal), Some(data)) = (ordinal, data) {
                    if !on_frame(ordinal, &data) {
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        };
        if chunked {
            loop {
                let mut size_line = String::new();
                reader.read_line(&mut size_line)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| ServeError::Protocol(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    let mut trailer = String::new();
                    reader.read_line(&mut trailer)?;
                    break;
                }
                let mut chunk = vec![0u8; size + 2]; // data + CRLF
                reader.read_exact(&mut chunk)?;
                chunk.truncate(size);
                buffer.extend_from_slice(&chunk);
                if !deliver(&mut buffer)? {
                    return Ok(());
                }
            }
        } else {
            loop {
                let block = reader.fill_buf()?;
                if block.is_empty() {
                    break;
                }
                let n = block.len();
                buffer.extend_from_slice(block);
                reader.consume(n);
                if !deliver(&mut buffer)? {
                    return Ok(());
                }
            }
        }
        deliver(&mut buffer)?;
        Ok(())
    }

    /// Fetches the rolling criticality fold of one job's event stream
    /// (the `CriticalityAggregator` JSON from `GET /jobs/:id/analytics`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs or before any
    /// events exist.
    pub fn analytics(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/analytics"), None)?
            .body)
    }

    /// Fetches the daemon-wide criticality rollup (`GET /analytics`).
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn rollup(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/analytics", None)?.body)
    }

    /// Fetches a job's Chrome trace-event timeline JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 before the job has written a trace.
    pub fn trace(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/trace"), None)?
            .body)
    }

    /// Fetches a job's hierarchical phase profile JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 before the job has written a
    /// profile.
    pub fn profile(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/profile"), None)?
            .body)
    }

    /// Fetches the daemon-wide merged phase profile (`GET /profile`).
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn profile_rollup(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/profile", None)?.body)
    }

    /// Lists all jobs the daemon knows, as `(id, wire state)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn jobs(&self) -> Result<Vec<(String, String)>, ServeError> {
        let response = self.expect_ok("GET", "/jobs", None)?;
        let v = json::parse_line(&response.body).map_err(ServeError::Protocol)?;
        let obj = json::as_obj(&v).map_err(ServeError::Protocol)?;
        let rows = match json::get(obj, "jobs").map_err(ServeError::Protocol)? {
            json::Json::Arr(rows) => rows,
            other => {
                return Err(ServeError::Protocol(format!(
                    "jobs is not an array: {other:?}"
                )))
            }
        };
        rows.iter()
            .map(|row| {
                let row = json::as_obj(row).map_err(ServeError::Protocol)?;
                Ok((
                    json::get_str(row, "job")
                        .map_err(ServeError::Protocol)?
                        .to_owned(),
                    json::get_str(row, "status")
                        .map_err(ServeError::Protocol)?
                        .to_owned(),
                ))
            })
            .collect()
    }

    /// Cancels a queued or running job; returns the resulting wire state
    /// (`cancelled` immediately for queued jobs, `cancelling` for
    /// running ones).
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs.
    pub fn cancel(&self, id: &str) -> Result<String, ServeError> {
        let response = self.expect_ok("POST", &format!("/jobs/{id}/cancel"), None)?;
        let v = json::parse_line(&response.body).map_err(ServeError::Protocol)?;
        let obj = json::as_obj(&v).map_err(ServeError::Protocol)?;
        json::get_str(obj, "status")
            .map(str::to_owned)
            .map_err(ServeError::Protocol)
    }

    /// Fetches a finished job's metrics snapshot JSON
    /// (`GET /jobs/:id/metrics`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] with 404 for unknown jobs or before the
    /// snapshot exists.
    pub fn job_metrics(&self, id: &str) -> Result<String, ServeError> {
        Ok(self
            .expect_ok("GET", &format!("/jobs/{id}/metrics"), None)?
            .body)
    }

    /// Registers a worker daemon with a coordinator (`POST /register`);
    /// returns the coordinator's JSON acknowledgement.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn register_worker(&self, worker_addr: &str) -> Result<String, ServeError> {
        let body = format!("{{\"worker\":\"{}\"}}", json::escape(worker_addr));
        Ok(self.expect_ok("POST", "/register", Some(&body))?.body)
    }

    /// Fetches a coordinator's shard table (`GET /shards`).
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn shards(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/shards", None)?.body)
    }

    /// Fetches the Prometheus metrics exposition.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn metrics(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/metrics", None)?.body)
    }

    /// Fetches the alert engine's current state (`GET /alerts`) — the
    /// rules table with firing/ok state, both daemons and coordinators
    /// serve it.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn alerts(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/alerts", None)?.body)
    }

    /// Fetches a coordinator's merged fleet-wide Chrome trace
    /// (`GET /trace`).
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn fleet_trace(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/trace", None)?.body)
    }

    /// Liveness probe; returns the `/healthz` JSON body.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn healthz(&self) -> Result<String, ServeError> {
        Ok(self.expect_ok("GET", "/healthz", None)?.body)
    }

    /// Asks the daemon to drain: no new jobs, finish what is queued,
    /// then exit.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.expect_ok("POST", "/shutdown", None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_stalled_server_times_out_instead_of_hanging() {
        // Accept the connection but never write a byte: the read
        // timeout, not a 30 s default, must bound the call.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let client = Client::new(addr.to_string())
            .with_connect_timeout(Duration::from_millis(500))
            .with_read_timeout(Duration::from_millis(100));
        let started = Instant::now();
        let result = client.healthz();
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(ServeError::Io(_))),
            "expected an I/O timeout, got {result:?}"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "timed out in {elapsed:?}, not at the configured 100ms"
        );
        stall.join().unwrap();
    }

    #[test]
    fn a_refused_connection_fails_fast() {
        // Bind then immediately drop: the port exists but refuses.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let client = Client::new(addr.to_string()).with_connect_timeout(Duration::from_millis(500));
        let started = Instant::now();
        assert!(
            matches!(client.healthz(), Err(ServeError::Unreachable(_))),
            "a refused connection never reached the server"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
