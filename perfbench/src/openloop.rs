//! The open-loop load generator: Poisson arrivals at a fixed rate, sent
//! over one pipelined connection by one thread while a second reads the
//! answers, each request timed from when it was due (so a stall also
//! charges the requests queued behind it).

use crate::gen::Generator;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The sender sleeps until this long before a due time and spins the
/// rest: a sleeping thread on a virtual machine wakes about 0.1 ms late,
/// at random, and that lag would be the generator's, not the daemon's.
const SPIN: Duration = Duration::from_micros(300);

/// One scheduled request: when it is due (from the start of the run)
/// and which generated request it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub req: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`; `pick` chooses
/// the request each arrival carries.
pub fn poisson_schedule(
    gen: &mut Generator,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Generator) -> usize,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = gen.exp(1.0 / rate);
    while t < seconds {
        let req = pick(gen);
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            req,
        });
        t += gen.exp(1.0 / rate);
    }
    out
}

/// What happened to one sent request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Index into the schedule; also the request's protocol id.
    pub slot: usize,
    pub req: usize,
    /// Offsets from the start of the run.
    pub due: Duration,
    pub sent: Duration,
    /// `None`: no answer before the drain timeout.
    pub done: Option<Duration>,
    pub ok: bool,
    /// Answered `overloaded` by admission control.
    pub shed: bool,
    /// Answered from the daemon's cache.
    pub cached: bool,
    /// `optimality` is `proven`.
    pub proven: bool,
    /// `objective_f64` of a solve answer.
    pub objective: Option<f64>,
    pub response_bytes: usize,
    /// The raw response line, kept for a sample of requests and for
    /// every error.
    pub line: Option<String>,
}

impl Outcome {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator sent it, in ms.
    pub fn send_lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// The text after `key` up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Fills an outcome from a response line with substring scans only, so
/// the generator thread stays cheap.
fn read_response(outcome: &mut Outcome, line: &str, keep: bool) {
    outcome.response_bytes = line.len() + 1;
    outcome.ok = line.contains("\"ok\":{");
    outcome.shed = line.contains("\"code\":\"overloaded\"");
    outcome.cached = line.contains("\"provenance\":\"cached\"");
    outcome.proven = line.contains("\"optimality\":\"proven\"");
    outcome.objective = field(line, "\"objective_f64\":").and_then(|v| v.parse().ok());
    if keep || !outcome.ok {
        outcome.line = Some(line.to_string());
    }
}

/// The request id a response line echoes.
fn response_id(line: &str) -> Option<u64> {
    field(line, "\"id\":")?.parse().ok()
}

/// Runs a schedule over one pipelined connection: this thread sends
/// every arrival in `schedule` at its due time (relative to `start`),
/// sleeping and then spinning the last [`SPIN`] in between, while a
/// second thread blocks on the socket and stamps each answer as it lands. `line(id, req)` renders the protocol
/// line, whose id is the arrival's slot; answers with `slot % keep_every
/// == 0`, and all errors, are kept whole. Waits up to `drain` after the
/// last due time for stragglers.
pub fn run_schedule(
    stream: &mut TcpStream,
    schedule: &[Arrival],
    start: Instant,
    drain: Duration,
    keep_every: usize,
    line: &(dyn Fn(u64, usize) -> String + Sync),
) -> Vec<Outcome> {
    let give_up = schedule.last().map_or(Duration::ZERO, |a| a.due) + drain;
    let reader = stream.try_clone();
    let (sent, mut outcomes) = repliflow_sync::thread::scope(|scope| {
        let receiver = scope.spawn(|| match reader {
            Ok(reader) => receive(reader, schedule.len(), start, give_up, keep_every),
            Err(_) => vec![Outcome::default(); schedule.len()],
        });
        let mut sent = Vec::with_capacity(schedule.len());
        for (slot, arrival) in schedule.iter().enumerate() {
            let due = start + arrival.due;
            let now = Instant::now();
            if due > now + SPIN {
                repliflow_sync::thread::sleep(due - SPIN - now);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let mut text = line(slot as u64, arrival.req);
            text.push('\n');
            sent.push(Instant::now().saturating_duration_since(start));
            if stream.write_all(text.as_bytes()).is_err() {
                break;
            }
        }
        (sent, receiver.join().expect("receiver thread"))
    });
    for (slot, (o, a)) in outcomes.iter_mut().zip(schedule).enumerate() {
        o.slot = slot;
        o.req = a.req;
        o.due = a.due;
        match sent.get(slot) {
            Some(&t) => o.sent = t,
            None => {
                o.sent = a.due;
                o.done = None;
            }
        }
    }
    outcomes
}

/// The receiving half of [`run_schedule`]: one outcome per slot, filled as
/// answers arrive, until all `n` are in or `give_up` passes.
fn receive(
    mut stream: TcpStream,
    n: usize,
    start: Instant,
    give_up: Duration,
    keep_every: usize,
) -> Vec<Outcome> {
    let mut outcomes = vec![Outcome::default(); n];
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0;
    // the timeout only bounds how stale the give-up check gets; data
    // wakes the read at once
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    while answered < n && Instant::now().saturating_duration_since(start) < give_up {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let done = Instant::now().saturating_duration_since(start);
                pending.extend_from_slice(&chunk[..k]);
                let mut from = 0;
                while let Some(pos) = pending[from..].iter().position(|&b| b == b'\n') {
                    let text = String::from_utf8_lossy(&pending[from..from + pos]);
                    from += pos + 1;
                    let slot = response_id(&text)
                        .and_then(|id| usize::try_from(id).ok())
                        .filter(|&s| s < n);
                    let Some(slot) = slot else { continue };
                    let o = &mut outcomes[slot];
                    if o.done.is_none() {
                        o.done = Some(done);
                        read_response(o, &text, slot % keep_every == 0);
                        answered += 1;
                    }
                }
                pending.drain(..from);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    outcomes
}

/// Sends `lines` in order over a fresh connection, one at a time, and
/// returns the raw answers (the warm-up pass).
pub fn closed_loop(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut answer = String::new();
        std::io::BufRead::read_line(&mut reader, &mut answer)?;
        out.push(answer.trim_end().to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_is_seeded() {
        let a = poisson_schedule(&mut Generator::new(3), 1000.0, 20.0, |_| 0);
        let b = poisson_schedule(&mut Generator::new(3), 1000.0, 20.0, |_| 0);
        assert_eq!(a, b);
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        // exponential gaps: the coefficient of variation is about 1
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    /// A one-connection echo server that answers each line after `delay`.
    fn slow_server(delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        repliflow_sync::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in std::io::BufReader::new(stream).lines() {
                let line = line.unwrap();
                repliflow_sync::thread::sleep(delay);
                let id = field(&line, "\"id\":").unwrap().to_string();
                let _ = writeln!(
                    out,
                    "{{\"v\":1,\"id\":{id},\"ok\":{{\"provenance\":\"cached\"}}}}"
                );
            }
        });
        addr
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let addr = slow_server(Duration::from_millis(5));
        let mut conn = TcpStream::connect(addr).unwrap();
        let schedule: Vec<Arrival> = (0..3)
            .map(|i| Arrival {
                due: Duration::from_millis(i),
                req: 0,
            })
            .collect();
        // The generator starts 40 ms after the schedule's origin, so
        // every request goes out late; that lag counts.
        let start = Instant::now() - Duration::from_millis(40);
        let render = |id: u64, _req: usize| format!("{{\"v\":1,\"id\":{id}}}");
        let out = run_schedule(
            &mut conn,
            &schedule,
            start,
            Duration::from_secs(5),
            1,
            &render,
        );
        assert_eq!(out.len(), 3);
        for o in &out {
            assert!(o.ok && o.cached && o.line.is_some());
            assert!(o.send_lag_ms() >= 37.0, "lag {}", o.send_lag_ms());
            assert!(o.latency_ms().unwrap() >= o.send_lag_ms() + 4.0);
        }
        // answered one after another: the last waited for the first two
        assert!(out[2].latency_ms().unwrap() >= 40.0 + 15.0 - 2.0 - 1.0);
    }
}
