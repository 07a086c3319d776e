//! A keep-alive HTTP/1.1 client for `cxk_serve::Server`: the pipelined
//! open-loop driver and the `GET /stats` sampler.
//!
//! The open-loop driver sends each request when it is due, over at most
//! `nproc` connections, pipelining behind requests still outstanding, so
//! the offered load is not capped by round trips. Every request it sends
//! is attempted; a non-200 answer, a 503 shed, a refused connection and a
//! reset connection each count as a failure, and the run goes on.

use crate::config;
use crate::openloop::OpenLoopResult;
use crate::stats::Samples;
use crate::trace::SpanBuf;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a connection may stay silent with requests outstanding before
/// they are counted failed and the connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The `X-Model-Epoch` header, if present.
    pub epoch: Option<u64>,
    /// The server will close the connection after this response.
    pub close: bool,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// The document cluster of a classify answer (`{"cluster":N,...}`).
    pub fn cluster(&self) -> Option<u32> {
        json_u64(&self.body, b"\"cluster\":").and_then(|v| u32::try_from(v).ok())
    }
}

/// The unsigned integer following `key` in `body`.
pub fn json_u64(body: &[u8], key: &[u8]) -> Option<u64> {
    let at = body.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// A `POST /classify` request carrying `doc`.
pub fn classify_request(doc: &str) -> Vec<u8> {
    format!(
        "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{doc}",
        doc.len()
    )
    .into_bytes()
}

const STATS_REQUEST: &[u8] = b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n";

/// Incremental response framing over one connection's received bytes.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Drops any partial response (the connection was lost).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The next complete response, if one has fully arrived.
    ///
    /// # Errors
    /// A head that is not a `Content-Length`-framed HTTP/1.1 response.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let (mut length, mut epoch, mut close) = (None, None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("Content-Length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("X-Model-Epoch") {
                epoch = value.parse().ok();
            } else if name.eq_ignore_ascii_case("Connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| format!("unframed response {head:?}"))?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            epoch,
            close,
            body,
        }))
    }
}

/// Correctness of the answers one driver received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerCheck {
    /// 200 answers checked.
    pub checked: usize,
    /// 200 answers whose cluster differs from the in-process reference.
    pub mismatched: usize,
    /// Answers without an `X-Model-Epoch` header.
    pub missing_epoch: usize,
}

impl AnswerCheck {
    /// Adds another driver's tallies.
    pub fn merge(&mut self, other: AnswerCheck) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
        self.missing_epoch += other.missing_epoch;
    }

    /// Checks one answer against the document's `expected` cluster;
    /// returns whether it succeeded (status 200).
    fn observe(&mut self, response: &Response, expected: u32) -> bool {
        if response.epoch.is_none() {
            self.missing_epoch += 1;
        }
        if response.status != 200 {
            return false;
        }
        self.checked += 1;
        if response.cluster() != Some(expected) {
            self.mismatched += 1;
        }
        true
    }
}

/// The documents a driver sends and the reference cluster of each.
#[derive(Debug, Clone, Copy)]
pub struct Traffic<'a> {
    /// Request bodies.
    pub docs: &'a [String],
    /// The in-process reference cluster of each document.
    pub expected: &'a [u32],
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Runs `schedule` (offsets in ns from the start) against the server over
/// `conns` pipelined keep-alive connections: request `i` goes out on
/// connection `i % conns` when it is due and carries document
/// `(first + i) % docs`. Latency runs from each request's due instant to
/// its answer. Traced, each request is a `loadgen.request` span (due to
/// answer) around an `http.classify` span (sent to answer).
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    traffic: Traffic<'_>,
    conns: usize,
    first: usize,
    schedule: &[u64],
    offered_rps: f64,
    spans: &mut SpanBuf,
) -> (OpenLoopResult, AnswerCheck) {
    let conns = conns.max(1);
    let abort = AtomicBool::new(false);
    // Every connection thread starts its clock at the same instant, a
    // little ahead so all of them are ready when the first request is due.
    let start = Instant::now() + Duration::from_millis(2);
    let traced = spans.enabled();
    let results: Vec<(OpenLoopResult, AnswerCheck, SpanBuf)> = std::thread::scope(|scope| {
        let abort = &abort;
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(usize, u64)> = schedule
                    .iter()
                    .enumerate()
                    .skip(c)
                    .step_by(conns)
                    .map(|(i, &due)| (i, due))
                    .collect();
                let buf = SpanBuf::new(traced, spans.epoch());
                scope.spawn(move || {
                    connection_driver(addr, traffic, first, &mine, start, abort, buf)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread"))
            .collect()
    });
    let mut total = OpenLoopResult {
        offered_rps,
        scheduled: schedule.len(),
        first_due_ns: schedule.first().copied().unwrap_or(0),
        last_due_ns: schedule.last().copied().unwrap_or(0),
        ..OpenLoopResult::default()
    };
    let mut check = AnswerCheck::default();
    for (r, c, buf) in results {
        total.attempted += r.attempted;
        total.completed += r.completed;
        total.failed += r.failed;
        total.aborted |= r.aborted;
        total.latency_us.extend(&r.latency_us);
        total.lag_us.extend(&r.lag_us);
        total.last_done_ns = total.last_done_ns.max(r.last_done_ns);
        check.merge(c);
        spans.append(buf);
    }
    (total, check)
}

/// One connection's share of the open loop.
fn connection_driver(
    addr: SocketAddr,
    traffic: Traffic<'_>,
    first: usize,
    mine: &[(usize, u64)],
    start: Instant,
    abort: &AtomicBool,
    mut spans: SpanBuf,
) -> (OpenLoopResult, AnswerCheck, SpanBuf) {
    let mut out = OpenLoopResult::default();
    let mut check = AnswerCheck::default();
    let mut conn: Option<TcpStream> = None;
    let mut reader = ResponseReader::default();
    let mut scratch = vec![0u8; 64 << 10];
    // (request index, document, due instant, sent instant)
    let mut outstanding: VecDeque<(usize, usize, Instant, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut wbuf: Vec<u8> = Vec::new();
    let mut batch: Vec<(usize, usize, Instant)> = Vec::new();

    let fail_all = |out: &mut OpenLoopResult, outstanding: &mut VecDeque<_>| {
        out.failed += outstanding.len();
        outstanding.clear();
    };

    let now = Instant::now();
    if start > now {
        std::thread::sleep(start - now);
    }
    loop {
        let now = Instant::now();
        // A driver this far behind its schedule is measuring a rate far
        // beyond what the server sustains: stop sending, drain, report.
        if next < mine.len()
            && now.saturating_duration_since(start + Duration::from_nanos(mine[next].1))
                > config::ABORT_LAG
        {
            abort.store(true, Ordering::Relaxed);
        }
        if next < mine.len() && abort.load(Ordering::Relaxed) {
            out.aborted = true;
            next = mine.len();
        }
        // Send everything due, up to the pipeline cap.
        wbuf.clear();
        batch.clear();
        while next < mine.len() && outstanding.len() + batch.len() < config::MAX_PIPELINE {
            let (i, due_ns) = mine[next];
            let due = start + Duration::from_nanos(due_ns);
            if due > now {
                break;
            }
            let doc = (first + i) % traffic.docs.len();
            wbuf.extend_from_slice(&classify_request(&traffic.docs[doc]));
            batch.push((i, doc, due));
            next += 1;
        }
        if !batch.is_empty() {
            out.attempted += batch.len();
            let sent = connect_and_write(addr, &mut conn, &mut reader, &wbuf);
            match sent {
                Ok(at) => {
                    for &(i, doc, due) in &batch {
                        out.lag_us.push(micros(at.saturating_duration_since(due)));
                        outstanding.push_back((i, doc, due, at));
                    }
                }
                Err(_) => {
                    out.failed += batch.len();
                    fail_all(&mut out, &mut outstanding);
                    conn = None;
                }
            }
        }
        if next >= mine.len() && outstanding.is_empty() {
            break;
        }
        let next_due = (next < mine.len()).then(|| start + Duration::from_nanos(mine[next].1));
        let Some(stream) = conn.as_mut().filter(|_| !outstanding.is_empty()) else {
            // Nothing to read: wait for the next due request.
            if let Some(due) = next_due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            continue;
        };
        let wait = match next_due {
            Some(due) if outstanding.len() < config::MAX_PIPELINE => due
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(1)),
            _ => IO_TIMEOUT,
        };
        let read = stream
            .set_read_timeout(Some(wait))
            .and_then(|()| stream.read(&mut scratch));
        match read {
            Ok(0) => {
                fail_all(&mut out, &mut outstanding);
                conn = None;
            }
            Ok(n) => {
                reader.feed(&scratch[..n]);
                let done = Instant::now();
                loop {
                    let response = match reader.next_response() {
                        Ok(Some(r)) => r,
                        Ok(None) => break,
                        Err(_) => {
                            fail_all(&mut out, &mut outstanding);
                            conn = None;
                            break;
                        }
                    };
                    let Some((i, doc, due, sent)) = outstanding.pop_front() else {
                        break;
                    };
                    if check.observe(&response, traffic.expected[doc]) {
                        out.completed += 1;
                        out.latency_us
                            .push(micros(done.saturating_duration_since(due)));
                    } else {
                        out.failed += 1;
                    }
                    spans.enter_at("loadgen.request", i as u64, due);
                    spans.record("http.classify", i as u64, sent, done);
                    spans.exit_at(done);
                    out.last_done_ns = out
                        .last_done_ns
                        .max(u64::try_from((done - start).as_nanos()).unwrap_or(u64::MAX));
                    if response.close {
                        // The server closes after this answer; whatever
                        // was pipelined behind it is lost.
                        fail_all(&mut out, &mut outstanding);
                        conn = None;
                        break;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if wait == IO_TIMEOUT {
                    fail_all(&mut out, &mut outstanding);
                    conn = None;
                }
            }
            Err(_) => {
                fail_all(&mut out, &mut outstanding);
                conn = None;
            }
        }
    }
    (out, check, spans)
}

/// Writes `bytes` on the connection, connecting first if needed; returns
/// the instant the write completed.
fn connect_and_write(
    addr: SocketAddr,
    conn: &mut Option<TcpStream>,
    reader: &mut ResponseReader,
    bytes: &[u8],
) -> std::io::Result<Instant> {
    if conn.is_none() {
        reader.clear();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        *conn = Some(stream);
    }
    let stream = conn
        .as_mut()
        .ok_or_else(|| std::io::Error::new(ErrorKind::NotConnected, "no connection"))?;
    stream.write_all(bytes)?;
    Ok(Instant::now())
}

/// Polls `GET /stats` every `interval` until `stop` is set; returns the
/// sampled `queue_len` values.
pub fn sample_queue_len(addr: SocketAddr, stop: &AtomicBool, interval: Duration) -> Samples {
    let mut samples = Samples::new();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return samples;
    };
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let mut reader = ResponseReader::default();
    let mut scratch = vec![0u8; 16 << 10];
    while !stop.load(Ordering::Relaxed) {
        if stream.write_all(STATS_REQUEST).is_err() {
            break;
        }
        let response = loop {
            match reader.next_response() {
                Ok(Some(r)) => break Some(r),
                Ok(None) => {}
                Err(_) => break None,
            }
            match stream.read(&mut scratch) {
                Ok(n) if n > 0 => reader.feed(&scratch[..n]),
                _ => break None,
            }
        };
        match response.and_then(|r| json_u64(&r.body, b"\"queue_len\":")) {
            Some(len) => samples.push(len as f64),
            None => break,
        }
        std::thread::sleep(interval);
    }
    samples
}
