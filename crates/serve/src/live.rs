//! Live analytics plumbing: SSE tailing of a job's event stream and
//! on-demand [`CriticalityAggregator`] folds of event files.
//!
//! ## SSE framing
//!
//! `GET /jobs/:id/stream` replays a job's `events.jsonl` as
//! `text/event-stream` frames and keeps tailing the file while the job
//! runs:
//!
//! ```text
//! id: 41
//! data: {"e":"provenance","i":41,...}
//!
//! ```
//!
//! The frame id is the 0-based *line ordinal* of the event file — stable
//! across daemon restarts because the [`radcrit_obs::EventWriter`]
//! emits a deterministic stream for a fixed seed. A client reconnecting
//! with `Last-Event-ID: N` (which browsers' `EventSource` sends
//! automatically) resumes at line `N + 1`. The file is read through a
//! [`LogTail`], so only complete lines are framed (see
//! [`radcrit_obs::append_log`] for the torn-tail rule).
//!
//! A client that goes away mid-stream surfaces as
//! [`ServeError::Disconnected`]; [`serve_stream`], the one SSE responder
//! of both servers, reaps the connection and the job keeps running.
//!
//! ## Wake-ups
//!
//! The tail does not poll. Each stream waits on its job's
//! [`Notifier`], which the job's event writer bumps after every block
//! it writes through to the file and the server bumps once the job
//! turns terminal (the coordinator: after each merged flush, and at
//! done or stop). A round reads the generation, then samples the
//! terminal state, then reads the file; it then waits for the
//! generation to pass the one it read, at most until the next ping is
//! due. A write or a terminal turn that lands after the read has
//! already bumped past it, so the wait returns at once and no wake-up
//! is lost.

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use radcrit_obs::{CriticalityAggregator, LogTail, Notifier};

use crate::error::ServeError;
use crate::http::{respond_chunked, Request};

/// How long an SSE stream may stay silent before a `: ping` comment
/// frame is emitted. Keep-alives defeat idle-connection reaping by
/// proxies and let clients distinguish "no events yet" from a dead
/// socket. Comment frames carry no `id:`, so line ordinals — and
/// `Last-Event-ID` resume — are unaffected by however many pings a
/// connection saw.
const SSE_PING_INTERVAL: Duration = Duration::from_secs(15);

/// Folds an event file into a [`CriticalityAggregator`].
///
/// # Errors
///
/// [`ServeError::Io`] when the file cannot be read or a complete event
/// line is structurally broken.
pub fn fold_events_file(path: &Path) -> Result<CriticalityAggregator, ServeError> {
    CriticalityAggregator::from_events_path(path)
        .map_err(|e| ServeError::Io(format!("fold {}: {e}", path.display())))
}

/// Streams `events_path` to `stream` as Server-Sent Events.
///
/// Emits every complete line with ordinal `> resume_after` (all lines
/// when `None`), then keeps tailing until `is_terminal()` reports the
/// job finished *and* the file is exhausted; a final id-less
/// `event: end` frame tells well-behaved clients to close instead of
/// auto-reconnecting. The file may not exist yet (job still queued) —
/// the tail waits for it to appear. Between reads the tail sleeps on
/// `notify` (see the module docs): whoever appends to the file, deletes
/// it or turns `is_terminal()` true must bump it. After
/// [`SSE_PING_INTERVAL`] of silence a `: ping` comment frame keeps the
/// connection warm.
///
/// # Errors
///
/// [`ServeError::Disconnected`] when the client goes away mid-stream,
/// [`ServeError::Io`] on file errors.
fn stream_sse(
    stream: &mut TcpStream,
    events_path: &Path,
    resume_after: Option<u64>,
    is_terminal: &dyn Fn() -> bool,
    notify: &Notifier,
) -> Result<(), ServeError> {
    stream_sse_with_ping(
        stream,
        events_path,
        resume_after,
        is_terminal,
        notify,
        SSE_PING_INTERVAL,
    )
}

/// Answers `req` with the SSE tail of `events_path`: resumes after the
/// request's `Last-Event-ID`, runs `stream_sse` and reaps a client
/// that went away as a normal end.
///
/// # Errors
///
/// [`ServeError::Io`] on file or socket errors other than a disconnect.
pub fn serve_stream(
    stream: &mut TcpStream,
    events_path: &Path,
    req: &Request,
    is_terminal: &dyn Fn() -> bool,
    notify: &Notifier,
) -> Result<(), ServeError> {
    let resume_after = parse_last_event_id(req.header("last-event-id"));
    match stream_sse(stream, events_path, resume_after, is_terminal, notify) {
        Err(ServeError::Disconnected(_)) => Ok(()),
        other => other,
    }
}

/// [`stream_sse`] with an explicit keep-alive interval (tests shrink it
/// to observe pings without waiting 15 s).
fn stream_sse_with_ping(
    stream: &mut TcpStream,
    events_path: &Path,
    resume_after: Option<u64>,
    is_terminal: &dyn Fn() -> bool,
    notify: &Notifier,
    ping_interval: Duration,
) -> Result<(), ServeError> {
    let first = resume_after.map_or(0, |n| n.saturating_add(1));
    let mut client_gone: Option<String> = None;
    let result = respond_chunked(stream, 200, "text/event-stream", |write| {
        // Wrapper marking failures that came from the *client* socket,
        // so they can be retyped as Disconnected rather than Io below.
        let mut send = |frame: &str| -> std::io::Result<()> {
            write(frame.as_bytes()).inspect_err(|e| client_gone = Some(e.to_string()))
        };

        let mut file: Option<std::fs::File> = None;
        let mut tail = LogTail::default();
        let mut last_sent = Instant::now();
        loop {
            // The generation is read before anything it guards is
            // looked at, so a change after the look wakes the wait.
            let seen = notify.generation();
            let settled = is_terminal();
            // The file appears only once the worker claims the job.
            if file.is_none() {
                file = std::fs::File::open(events_path).ok();
            }
            let mut progressed = false;
            if let Some(f) = &mut file {
                let base = tail.next_line();
                for (line_no, line) in (base..).zip(tail.poll(f)?) {
                    if line_no >= first && !line.is_empty() {
                        send(&format!("id: {line_no}\ndata: {line}\n\n"))?;
                        progressed = true;
                    }
                }
            }
            // Ordering matters: terminal was sampled *before* the read,
            // so a line appended in between is picked up next round, not
            // lost.
            if settled && !progressed {
                send("event: end\ndata: {}\n\n")?;
                return Ok(());
            }
            // A file deleted mid-tail can never complete its stream: the
            // stale descriptor reads nothing and a recreated file would
            // restart the ordinals. Surface it as a clean end so clients
            // close instead of waiting (or reconnecting) into the hole —
            // even when the job never reaches a terminal state.
            if !progressed && file.is_some() && !events_path.exists() {
                send("event: end\ndata: {}\n\n")?;
                return Ok(());
            }
            if progressed {
                last_sent = Instant::now();
                continue;
            }
            match ping_interval.checked_sub(last_sent.elapsed()) {
                Some(quiet) if !quiet.is_zero() => {
                    notify.wait_past(seen, quiet);
                }
                _ => {
                    send(": ping\n\n")?;
                    last_sent = Instant::now();
                }
            }
        }
    });
    match (result, client_gone) {
        (Err(_), Some(reason)) => Err(ServeError::Disconnected(reason)),
        (other, _) => other,
    }
}

/// Parses the `Last-Event-ID` header value (`None` when absent or not a
/// number — a malformed value degrades to a full replay, never an
/// error).
fn parse_last_event_id(value: Option<&str>) -> Option<u64> {
    value.and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use crate::http::read_response;

    fn temp_events(tag: &str, lines: &[&str]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("radcrit-live-{tag}-{}.jsonl", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    /// Runs `stream_sse` over a real socket pair and returns the decoded
    /// client-side body.
    fn sse_exchange(path: &std::path::Path, resume_after: Option<u64>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let path = path.to_path_buf();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream_sse(&mut stream, &path, resume_after, &|| true, &Notifier::new()).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let response = read_response(&mut client).unwrap();
        server.join().unwrap();
        assert_eq!(response.status, 200);
        response.body
    }

    #[test]
    fn frames_carry_the_line_ordinal_as_id() {
        let path = temp_events("ids", &["{\"e\":\"a\"}", "{\"e\":\"b\"}"]);
        let body = sse_exchange(&path, None);
        assert!(body.contains("id: 0\ndata: {\"e\":\"a\"}\n\n"), "{body}");
        assert!(body.contains("id: 1\ndata: {\"e\":\"b\"}\n\n"), "{body}");
        assert!(body.ends_with("event: end\ndata: {}\n\n"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_event_id_resumes_past_already_seen_lines() {
        let path = temp_events(
            "resume",
            &["{\"e\":\"a\"}", "{\"e\":\"b\"}", "{\"e\":\"c\"}"],
        );
        let body = sse_exchange(&path, Some(1));
        assert!(!body.contains("id: 0\n"), "{body}");
        assert!(!body.contains("id: 1\n"), "{body}");
        assert!(body.contains("id: 2\ndata: {\"e\":\"c\"}\n\n"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_held_back_until_completed() {
        let path = temp_events("torn", &["{\"e\":\"a\"}"]);
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"e\":\"tor").unwrap(); // no newline: torn
        }
        let terminal = Arc::new(AtomicBool::new(false));
        let notify = Arc::new(Notifier::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let path = path.clone();
            let terminal = Arc::clone(&terminal);
            let notify = Arc::clone(&notify);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream_sse(
                    &mut stream,
                    &path,
                    None,
                    &|| terminal.load(Ordering::SeqCst),
                    &notify,
                )
                .unwrap();
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        // Give the tail a moment, then finish the torn line and only
        // afterwards declare the job terminal.
        std::thread::sleep(Duration::from_millis(120));
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "n\"}}").unwrap();
        }
        notify.bump();
        terminal.store(true, Ordering::SeqCst);
        notify.bump();
        let body = read_response(&mut client).unwrap().body;
        server.join().unwrap();
        assert!(
            body.contains("id: 1\ndata: {\"e\":\"torn\"}\n\n"),
            "completed torn line must be framed whole: {body}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deleted_event_file_ends_the_stream_cleanly() {
        let path = temp_events("deleted", &["{\"e\":\"a\"}"]);
        let notify = Arc::new(Notifier::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let path = path.clone();
            let notify = Arc::clone(&notify);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                // Never terminal: only the deletion can end the tail.
                stream_sse(&mut stream, &path, None, &|| false, &notify)
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        // Let the tail frame the existing line, then pull the file out
        // from under it.
        std::thread::sleep(Duration::from_millis(120));
        std::fs::remove_file(&path).unwrap();
        notify.bump();
        let body = read_response(&mut client).unwrap().body;
        let result = server.join().unwrap();
        assert!(result.is_ok(), "deletion must end the tail: {result:?}");
        assert!(body.contains("id: 0\ndata: {\"e\":\"a\"}\n\n"), "{body}");
        assert!(body.ends_with("event: end\ndata: {}\n\n"), "{body}");
    }

    #[test]
    fn a_vanishing_client_is_a_typed_disconnect() {
        let path = temp_events("gone", &["{\"e\":\"a\"}"]);
        let notify = Arc::new(Notifier::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let path = path.clone();
            let notify = Arc::clone(&notify);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                // Never terminal: the tail keeps writing until the
                // client-side drop turns writes into errors.
                stream_sse(&mut stream, &path, None, &|| false, &notify)
            })
        };
        drop(TcpStream::connect(addr).unwrap());
        // Keep the file growing so the server keeps writing into the
        // dead socket (one small frame may land in kernel buffers).
        for i in 0..200 {
            if server.is_finished() {
                break;
            }
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(
                f,
                "{{\"e\":\"fill\",\"i\":{i},\"pad\":\"{}\"}}",
                "x".repeat(4096)
            )
            .unwrap();
            notify.bump();
            std::thread::sleep(Duration::from_millis(20));
        }
        let result = server.join().unwrap();
        assert!(
            matches!(result, Err(ServeError::Disconnected(_))),
            "expected Disconnected, got {result:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Runs `stream_sse_with_ping` with a tiny ping interval over a
    /// socket pair, appending `late_line` and flipping terminal after
    /// `quiet`, and returns the decoded body.
    fn sse_exchange_with_pings(
        path: &std::path::Path,
        resume_after: Option<u64>,
        quiet: Duration,
        late_line: &str,
    ) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let terminal = Arc::new(AtomicBool::new(false));
        let notify = Arc::new(Notifier::new());
        let server = {
            let path = path.to_path_buf();
            let terminal = Arc::clone(&terminal);
            let notify = Arc::clone(&notify);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream_sse_with_ping(
                    &mut stream,
                    &path,
                    resume_after,
                    &|| terminal.load(Ordering::SeqCst),
                    &notify,
                    Duration::from_millis(30),
                )
                .unwrap();
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        // Stay silent long enough for several pings, then append the
        // late line and let the stream finish.
        std::thread::sleep(quiet);
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            writeln!(f, "{late_line}").unwrap();
        }
        notify.bump();
        terminal.store(true, Ordering::SeqCst);
        notify.bump();
        let body = read_response(&mut client).unwrap().body;
        server.join().unwrap();
        body
    }

    #[test]
    fn idle_stream_interleaves_ping_comment_frames_without_ids() {
        let path = temp_events("ping", &["{\"e\":\"a\"}"]);
        let body =
            sse_exchange_with_pings(&path, None, Duration::from_millis(200), "{\"e\":\"b\"}");
        // Data frames stay ordinal-addressed around the pings.
        assert!(body.contains("id: 0\ndata: {\"e\":\"a\"}\n\n"), "{body}");
        assert!(body.contains("id: 1\ndata: {\"e\":\"b\"}\n\n"), "{body}");
        // Several keep-alives landed between the two data frames, and
        // none of them carries an id.
        let between = &body[body.find("id: 0").unwrap()..body.find("id: 1").unwrap()];
        assert!(
            between.matches(": ping\n\n").count() >= 2,
            "expected >=2 pings in the quiet window: {body}"
        );
        for frame in body.split("\n\n") {
            if frame.contains("ping") {
                assert!(
                    !frame.contains("id:"),
                    "ping frames must not carry ids: {frame}"
                );
            }
        }
        assert!(body.ends_with("event: end\ndata: {}\n\n"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_event_id_resume_is_unaffected_by_pings() {
        let path = temp_events("ping-resume", &["{\"e\":\"a\"}", "{\"e\":\"b\"}"]);
        // A client that saw id 0 (plus any number of pings) reconnects
        // with Last-Event-ID: 0 and must get exactly ids 1 and 2.
        let body =
            sse_exchange_with_pings(&path, Some(0), Duration::from_millis(150), "{\"e\":\"c\"}");
        assert!(!body.contains("id: 0\n"), "{body}");
        assert!(body.contains("id: 1\ndata: {\"e\":\"b\"}\n\n"), "{body}");
        assert!(body.contains("id: 2\ndata: {\"e\":\"c\"}\n\n"), "{body}");
        assert!(body.contains(": ping\n\n"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bumped_terminal_turn_ends_the_stream_well_before_a_ping() {
        let path = temp_events("bumped", &["{\"e\":\"a\"}"]);
        let terminal = Arc::new(AtomicBool::new(false));
        let notify = Arc::new(Notifier::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let path = path.clone();
            let terminal = Arc::clone(&terminal);
            let notify = Arc::clone(&notify);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream_sse(
                    &mut stream,
                    &path,
                    None,
                    &|| terminal.load(Ordering::SeqCst),
                    &notify,
                )
                .unwrap();
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let turned = Instant::now();
        terminal.store(true, Ordering::SeqCst);
        notify.bump();
        let body = read_response(&mut client).unwrap().body;
        server.join().unwrap();
        assert!(
            turned.elapsed() < Duration::from_secs(1),
            "the stream took {:?} to end under a {SSE_PING_INTERVAL:?} ping",
            turned.elapsed()
        );
        assert!(body.ends_with("event: end\ndata: {}\n\n"), "{body}");
        assert!(!body.contains(": ping"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_event_id_parsing_is_lenient() {
        assert_eq!(parse_last_event_id(None), None);
        assert_eq!(parse_last_event_id(Some("17")), Some(17));
        assert_eq!(parse_last_event_id(Some(" 3 ")), Some(3));
        assert_eq!(parse_last_event_id(Some("nope")), None);
    }
}
