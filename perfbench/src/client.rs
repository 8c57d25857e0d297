//! Open-loop HTTP/1.1 load generator on the calling thread.
//!
//! Requests are written at their scheduled times whether or not earlier
//! replies have arrived (pipelined over a few keep-alive connections), so
//! a stalled server receives the same load as a fast one and each
//! request's latency is measured from when it was *due*, which counts the
//! wait a stall imposes on later requests. Sockets are non-blocking and
//! the loop sleeps in `poll(2)` until the next send is due or a reply
//! arrives, so the client does not compete with the server for CPU.

use crate::check::fnv1a;
use cpgan_obs::Stopwatch;
use cpgan_serve::http::parse_reply;
use polling::{Event, Events, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When the request is due, nanoseconds after the schedule starts.
    pub due_ns: u64,
    /// The complete request bytes.
    pub wire: Vec<u8>,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Reply status; `None` if the connection failed before a reply.
    pub status: Option<u16>,
    /// When the request was due, nanoseconds after the schedule starts.
    pub due_ns: u64,
    /// When the request was written, nanoseconds after the schedule starts.
    pub sent_ns: u64,
    /// When the reply (or the failure) was seen.
    pub done_ns: u64,
    /// FNV-1a digest of the de-framed reply body.
    pub body_digest: u64,
}

impl Sample {
    /// Latency from the intended send time to the reply.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator wrote the request against its schedule.
    pub fn send_lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<usize>,
    want_write: bool,
}

impl Conn {
    /// Drops the connection; every request still waiting on it failed.
    fn fail(&mut self, poller: &Poller, samples: &mut [Sample], now: u64) {
        if let Some(stream) = self.stream.take() {
            // Deregistering an fd that is about to close cannot matter.
            let _ = poller.delete(&stream);
        }
        for i in self.inflight.drain(..) {
            samples[i].status = None;
            samples[i].done_ns = now;
        }
        self.out.clear();
        self.inbuf.clear();
        self.want_write = false;
    }

    fn connect(&mut self, poller: &Poller, key: usize, addr: SocketAddr) -> std::io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.add(&stream, Event::readable(key))?;
        self.stream = Some(stream);
        self.want_write = false;
        Ok(())
    }

    /// Writes as much pending output as the socket takes.
    fn flush(&mut self, poller: &Poller, key: usize, samples: &mut [Sample], now: u64) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        while !self.out.is_empty() {
            match stream.write(&self.out) {
                Ok(0) => return self.fail(poller, samples, now),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.fail(poller, samples, now),
            }
        }
        let want_write = !self.out.is_empty();
        if want_write != self.want_write {
            let interest = if want_write {
                Event::all(key)
            } else {
                Event::readable(key)
            };
            if poller.modify(stream, interest).is_err() {
                return self.fail(poller, samples, now);
            }
            self.want_write = want_write;
        }
    }

    /// Reads what has arrived and completes every whole reply, in order.
    fn receive(&mut self, poller: &Poller, samples: &mut [Sample], now: u64) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 64 * 1024];
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        loop {
            match parse_reply(&self.inbuf) {
                Ok(Some((reply, used))) => {
                    self.inbuf.drain(..used);
                    let Some(i) = self.inflight.pop_front() else {
                        closed = true;
                        break;
                    };
                    samples[i].status = Some(reply.status);
                    samples[i].done_ns = now;
                    samples[i].body_digest = fnv1a(&reply.body);
                    // The server closes after every non-200 reply.
                    if reply.header("connection") == Some("close") {
                        closed = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed {
            self.fail(poller, samples, now);
        }
    }
}

/// Runs `plan` (sorted by `due_ns`) against `addr`, sending each request on
/// whichever of `connections` keep-alive connections has the fewest replies
/// outstanding. Requests still
/// unanswered `drain` after the last one was due count as failed.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    connections: usize,
    drain: Duration,
) -> std::io::Result<Vec<Sample>> {
    let poller = Poller::new()?;
    let mut conns: Vec<Conn> = (0..connections.max(1)).map(|_| Conn::default()).collect();
    let mut samples = vec![Sample::default(); plan.len()];
    let last_due = plan.last().map_or(0, |p| p.due_ns);
    let give_up = last_due.saturating_add(u64::try_from(drain.as_nanos()).unwrap_or(u64::MAX));
    let mut events = Events::new();
    let clock = Stopwatch::start();
    let mut next = 0;
    loop {
        let now = clock.elapsed_ns();
        while next < plan.len() && plan[next].due_ns <= now {
            // The connection with the fewest replies outstanding, as a
            // client holding a few keep-alive connections would pick.
            let key = (0..conns.len())
                .min_by_key(|&k| conns[k].inflight.len())
                .unwrap_or(0);
            let conn = &mut conns[key];
            samples[next].due_ns = plan[next].due_ns;
            samples[next].sent_ns = now;
            if conn.stream.is_none() && conn.connect(&poller, key, addr).is_err() {
                samples[next].done_ns = now;
                next += 1;
                continue;
            }
            conn.out.extend_from_slice(&plan[next].wire);
            conn.inflight.push_back(next);
            next += 1;
        }
        for (key, conn) in conns.iter_mut().enumerate() {
            conn.flush(&poller, key, &mut samples, now);
        }
        let waiting = conns.iter().any(|c| !c.inflight.is_empty());
        if next == plan.len() && (!waiting || now >= give_up) {
            for conn in &mut conns {
                conn.fail(&poller, &mut samples, now);
            }
            return Ok(samples);
        }
        let until = if next < plan.len() {
            plan[next].due_ns
        } else {
            give_up
        };
        poller.wait(
            &mut events,
            Some(Duration::from_nanos(until.saturating_sub(now))),
        )?;
        let now = clock.elapsed_ns();
        for ev in events.iter() {
            if let Some(conn) = conns.get_mut(ev.key) {
                if ev.readable {
                    conn.receive(&poller, &mut samples, now);
                }
            }
        }
    }
}
