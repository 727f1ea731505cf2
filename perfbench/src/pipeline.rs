//! Open-loop request pipelines over a JSON-lines connection.
//!
//! Request `i` goes out at its due time whether or not earlier replies
//! have arrived; replies come back in request order. One thread drives
//! one connection over a non-blocking socket, sleeping at most
//! [`POLL`] between looks: a socket read timeout would round every wait
//! up to the kernel's timer tick (several milliseconds), which would
//! then show up in every latency.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests sent but not yet answered, at most. The send side stalls
/// (and the stall shows as generator lag) rather than queue without
/// bound behind a server that stopped reading.
const MAX_IN_FLIGHT: usize = 1024;

/// Longest sleep between looks at the socket: the resolution of every
/// reply timestamp.
const POLL: Duration = Duration::from_micros(100);

/// A reply waits at most this long before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request's timeline, as offsets from the pipeline's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// When it was scheduled to go out.
    pub due: Duration,
    /// When it went out.
    pub sent: Duration,
    /// When its reply had been read.
    pub replied: Duration,
}

/// One connection driven open-loop.
pub struct Pipeline {
    stream: TcpStream,
    t0: Instant,
}

fn is_retry(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

impl Pipeline {
    /// Connects to `addr`; every offset is measured from `t0`.
    pub fn connect(addr: &str, t0: Instant) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self { stream, t0 })
    }

    /// Sends `n` requests — request `i` built by `line(i)` when it goes
    /// out at `due(i)` (non-decreasing in `i`) — and hands each reply
    /// line to `reply(i, timeline, text)` as it arrives. Returns once
    /// every reply is in.
    pub fn run(
        &mut self,
        n: usize,
        due: impl Fn(usize) -> Duration,
        mut line: impl FnMut(usize) -> String,
        mut reply: impl FnMut(usize, Timeline, &str),
    ) -> Result<(), String> {
        let mut sent: Vec<(Duration, Duration)> = Vec::with_capacity(n);
        let (mut inbuf, mut chunk, mut out) = (Vec::new(), vec![0u8; 1 << 16], Vec::new());
        let (mut out_pos, mut got) = (0, 0);
        let mut progress = self.t0.elapsed();
        while got < n {
            let now = self.t0.elapsed();
            while sent.len() < n && due(sent.len()) <= now && sent.len() - got < MAX_IN_FLIGHT {
                let i = sent.len();
                out.extend_from_slice(line(i).as_bytes());
                out.push(b'\n');
                sent.push((due(i), now));
            }
            while out_pos < out.len() {
                match self.stream.write(&out[out_pos..]) {
                    Ok(k) => out_pos += k,
                    Err(e) if is_retry(&e) => break,
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
            let (mut idle, mut closed) = (true, false);
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(k) => {
                        idle = false;
                        inbuf.extend_from_slice(&chunk[..k]);
                    }
                    Err(e) if is_retry(&e) => break,
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            if !idle {
                let at = self.t0.elapsed();
                progress = at;
                let mut start = 0;
                while let Some(pos) = inbuf[start..].iter().position(|&b| b == b'\n') {
                    if got >= sent.len() {
                        return Err("reply without a request".into());
                    }
                    let text = String::from_utf8_lossy(&inbuf[start..start + pos]);
                    let (due, sent_at) = sent[got];
                    let timeline = Timeline {
                        due,
                        sent: sent_at,
                        replied: at,
                    };
                    reply(got, timeline, &text);
                    got += 1;
                    start += pos + 1;
                }
                inbuf.drain(..start);
            }
            if closed && got < n {
                return Err(format!("server closed the connection after {got} replies"));
            }
            if !idle {
                continue;
            }
            let now = self.t0.elapsed();
            if got == sent.len() {
                progress = now;
            } else if now - progress > REPLY_TIMEOUT {
                return Err(format!(
                    "no reply for {REPLY_TIMEOUT:?} after {got} replies"
                ));
            }
            let next = match sent.len() < n {
                true => due(sent.len()).saturating_sub(now),
                false => POLL,
            };
            std::thread::sleep(next.min(POLL));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A peer that answers each line with `re:<line>` after `delay`.
    fn echo_server(delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                std::thread::sleep(delay);
                writeln!(writer, "re:{line}").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn replies_match_requests_in_order() {
        let (addr, server) = echo_server(Duration::ZERO);
        let t0 = Instant::now();
        let mut p = Pipeline::connect(&addr, t0).unwrap();
        let mut seen = Vec::new();
        p.run(
            300,
            |i| Duration::from_micros(50 * i as u64),
            |i| format!("q{i}"),
            |i, t, text| {
                assert!(t.due <= t.sent && t.sent <= t.replied, "{t:?}");
                seen.push((i, text.to_string()));
            },
        )
        .unwrap();
        drop(p);
        server.join().unwrap();
        assert_eq!(seen.len(), 300);
        for (i, text) in seen {
            assert_eq!(text, format!("re:q{i}"));
        }
    }

    #[test]
    fn a_reply_followed_by_close_still_counts() {
        // The server's `shutdown` reply: answer, then hang up at once.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            let mut writer = stream;
            writer.write_all(b"{\"bye\":true}").unwrap();
            writer.write_all(b"\n").unwrap();
        });
        let mut replies = Vec::new();
        Pipeline::connect(&addr, Instant::now())
            .unwrap()
            .run(
                1,
                |_| Duration::ZERO,
                |_| "bye".into(),
                |_, _, text| replies.push(text.to_string()),
            )
            .unwrap();
        server.join().unwrap();
        assert_eq!(replies, vec!["{\"bye\":true}".to_string()]);
        // A second request the peer never answers is an error, not a hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let outcome = Pipeline::connect(&addr, Instant::now()).unwrap().run(
            1,
            |_| Duration::ZERO,
            |_| "q".into(),
            |_, _, _| {},
        );
        server.join().unwrap();
        assert!(outcome.is_err());
    }

    #[test]
    fn sends_do_not_wait_for_slow_replies() {
        // Ten requests due 1 ms apart against a peer that takes 20 ms
        // per reply: open-loop sends finish long before the replies do.
        let (addr, server) = echo_server(Duration::from_millis(20));
        let t0 = Instant::now();
        let mut p = Pipeline::connect(&addr, t0).unwrap();
        let mut timelines = Vec::new();
        p.run(
            10,
            |i| Duration::from_millis(i as u64),
            |i| format!("q{i}"),
            |_, t, _| timelines.push(t),
        )
        .unwrap();
        drop(p);
        server.join().unwrap();
        let last = timelines.last().unwrap();
        assert!(last.sent < Duration::from_millis(100), "{last:?}");
        assert!(last.replied >= Duration::from_millis(200), "{last:?}");
    }
}
