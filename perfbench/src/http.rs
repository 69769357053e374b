//! A blocking HTTP/1.1 client that follows the server's lead on
//! connection reuse, plus a parser for the Prometheus text the server
//! exports.
//!
//! Requests never carry `Connection: close`. A socket is kept for the
//! next request only when the response did not say `close`; today every
//! response of `taxorec-serve` does, so every request connects. When the
//! server learns keep-alive this client reuses sockets without an edit.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket deadline: far above any healthy latency, so a hung
/// server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Largest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// Why a request produced no usable response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// TCP connect failed.
    Connect,
    /// Writing the request failed.
    Send,
    /// The connection ended (or timed out) before a whole response.
    ShortRead,
    /// The response head could not be parsed.
    Malformed,
}

/// Where one request's time went, as seen from the client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Request start (before connect).
    pub start: Option<Instant>,
    /// TCP connect and socket options (zero when a kept socket was
    /// reused).
    pub connect: Duration,
    /// Writing the request bytes.
    pub send: Duration,
    /// Request written → first response byte.
    pub ttfb: Duration,
    /// First response byte → whole response read.
    pub read: Duration,
    /// Closing the socket (zero when it was kept).
    pub close: Duration,
}

/// One complete response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Whether the request went out on a kept socket.
    pub reused: bool,
    /// Client-side timing.
    pub phases: Phases,
}

/// One client: at most one request in flight, at most one kept socket.
pub struct Client {
    addr: SocketAddr,
    kept: Option<TcpStream>,
    buf: Vec<u8>,
    /// Requests sent on a fresh connection.
    pub connects: u64,
    /// Requests sent on a kept connection.
    pub reuses: u64,
}

impl Client {
    /// A client for `addr` with no connection yet.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            kept: None,
            buf: Vec::with_capacity(4096),
            connects: 0,
            reuses: 0,
        }
    }

    /// `GET target`; the body is left in `body` (cleared first).
    pub fn get(&mut self, target: &str, body: &mut Vec<u8>) -> Result<Reply, Failure> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.request(request.as_bytes(), body, true)
    }

    /// `POST target` with a JSON payload.
    pub fn post(
        &mut self,
        target: &str,
        payload: &str,
        body: &mut Vec<u8>,
    ) -> Result<Reply, Failure> {
        let request = format!(
            "POST {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        self.request(request.as_bytes(), body, false)
    }

    fn request(
        &mut self,
        request: &[u8],
        body: &mut Vec<u8>,
        idempotent: bool,
    ) -> Result<Reply, Failure> {
        let start = Instant::now();
        if let Some(stream) = self.kept.take() {
            self.reuses += 1;
            match self.exchange(stream, request, body, start, true) {
                // A kept socket may have been closed by the server while
                // idle; that shows as a failure before any response
                // byte. Only then, and only a request that is safe to
                // repeat, is sent once more on a fresh connection.
                Err(_) if idempotent && self.buf.is_empty() => self.reuses -= 1,
                result => return result,
            }
        }
        let connect_start = Instant::now();
        let stream = TcpStream::connect(self.addr).map_err(|_| Failure::Connect)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Connecting includes making the socket usable.
        let connect = connect_start.elapsed();
        self.connects += 1;
        let mut reply = self.exchange(stream, request, body, start, false)?;
        reply.phases.connect = connect;
        Ok(reply)
    }

    fn exchange(
        &mut self,
        mut stream: TcpStream,
        request: &[u8],
        body: &mut Vec<u8>,
        start: Instant,
        reused: bool,
    ) -> Result<Reply, Failure> {
        // Cleared before anything can fail: an empty buffer after a
        // failure means no response byte was read.
        self.buf.clear();
        body.clear();
        let send_start = Instant::now();
        stream.write_all(request).map_err(|_| Failure::Send)?;
        let sent = Instant::now();
        let mut chunk = [0u8; 4096];
        let mut first_byte: Option<Instant> = None;
        let head_end = loop {
            if let Some(at) = find_head_end(&self.buf) {
                break at;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(Failure::Malformed);
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return Err(Failure::ShortRead),
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| Failure::Malformed)?;
        let parsed = parse_head(head).ok_or(Failure::Malformed)?;
        body.extend_from_slice(&self.buf[head_end..]);
        match parsed.content_length {
            Some(len) => {
                while body.len() < len {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return Err(Failure::ShortRead),
                        Ok(n) => body.extend_from_slice(&chunk[..n]),
                    }
                }
                body.truncate(len);
            }
            // No length: the body runs to the end of the connection.
            None => {
                stream.read_to_end(body).map_err(|_| Failure::ShortRead)?;
            }
        }
        let done = Instant::now();
        if !parsed.close && parsed.content_length.is_some() {
            self.kept = Some(stream);
        } else {
            drop(stream);
        }
        let closed = Instant::now();
        let first_byte = first_byte.unwrap_or(done);
        Ok(Reply {
            status: parsed.status,
            reused,
            phases: Phases {
                start: Some(start),
                connect: Duration::ZERO,
                send: sent - send_start,
                ttfb: first_byte - sent,
                read: done - first_byte,
                close: closed - done,
            },
        })
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    close: bool,
}

fn parse_head(head: &str) -> Option<Head> {
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().ok()?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Some(Head {
        status,
        content_length,
        close,
    })
}

/// Samples of one Prometheus text exposition, keyed by the full sample
/// name including any label set (`name{label="x"}`).
pub fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// First unsigned integer after `"key":` in a JSON text (enough for the
/// flat counters of `/healthz`).
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let rest = &text[text.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers each accepted connection from `script`:
    /// every entry is the raw bytes written in response to one request
    /// on the current connection; `None` closes the connection and
    /// accepts the next one.
    fn scripted_server(
        script: Vec<Option<&'static str>>,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut conn: Option<TcpStream> = None;
            for step in script {
                match step {
                    None => conn = None,
                    Some(response) => {
                        let stream = conn.get_or_insert_with(|| {
                            accepted += 1;
                            listener.accept().unwrap().0
                        });
                        let mut head = Vec::new();
                        let mut byte = [0u8; 1];
                        while !head.ends_with(b"\r\n\r\n") {
                            if stream.read(&mut byte).unwrap_or(0) == 0 {
                                break;
                            }
                            head.push(byte[0]);
                        }
                        stream.write_all(response.as_bytes()).unwrap();
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    const CLOSE: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
    const KEEP: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn socket_is_reused_only_when_the_server_does_not_say_close() {
        // Request 1 is answered `close` → request 2 must connect again.
        // Request 2 is answered without `close` → request 3 reuses.
        let (addr, server) = scripted_server(vec![Some(CLOSE), None, Some(KEEP), Some(KEEP)]);
        let mut client = Client::new(addr);
        let mut body = Vec::new();
        let r1 = client.get("/a", &mut body).unwrap();
        assert_eq!(
            (r1.status, r1.reused, body.as_slice()),
            (200, false, &b"ok"[..])
        );
        let r2 = client.get("/b", &mut body).unwrap();
        assert!(!r2.reused, "a `close` response must not be reused");
        let r3 = client.get("/c", &mut body).unwrap();
        assert!(r3.reused, "a response without `close` keeps the socket");
        assert_eq!(r3.phases.connect, Duration::ZERO);
        assert_eq!((client.connects, client.reuses), (2, 1));
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn only_an_unanswered_get_on_a_kept_socket_is_sent_again() {
        // Request 1 keeps the socket, then the server closes it. The GET
        // that finds it dead is answered on a fresh connection; the POST
        // in the same position is a failure, and so is a GET whose
        // response broke off after its first bytes.
        let (addr, server) = scripted_server(vec![
            Some(KEEP),
            None,
            Some(KEEP),
            None,
            Some(KEEP),
            Some("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"),
            None,
        ]);
        let mut client = Client::new(addr);
        let mut body = Vec::new();
        assert!(!client.get("/a", &mut body).unwrap().reused);
        let again = client.get("/b", &mut body).unwrap();
        assert!(!again.reused && body == b"ok");
        assert_eq!((client.connects, client.reuses), (2, 0));
        assert!(client.post("/c", "{}", &mut body).is_err());
        assert!(!client.get("/d", &mut body).unwrap().reused);
        assert_eq!(client.get("/e", &mut body).unwrap_err(), Failure::ShortRead);
        assert_eq!((client.connects, client.reuses), (3, 2));
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn refusal_and_short_read_are_failures_without_latency() {
        let (addr, server) = scripted_server(vec![
            Some("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy"),
            None,
            // Promises 10 bytes, delivers 3, then the connection ends.
            Some("HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\nabc"),
            None,
        ]);
        let mut client = Client::new(addr);
        let mut body = Vec::new();
        // The way every workload consumes replies: only a 200 carries a
        // latency sample; everything else lands in `failed`.
        let mut latencies = Vec::new();
        let mut failed = 0;
        for _ in 0..2 {
            match client.get("/x", &mut body) {
                Ok(reply) if reply.status == 200 => {
                    latencies.push(reply.phases.start.unwrap().elapsed())
                }
                Ok(_) | Err(_) => failed += 1,
            }
        }
        assert_eq!(failed, 2);
        assert!(latencies.is_empty());
        server.join().unwrap();
        // A dead address fails at connect.
        assert_eq!(
            Client::new(addr).get("/x", &mut body).unwrap_err(),
            Failure::Connect
        );
    }

    #[test]
    fn prometheus_and_healthz_scraping() {
        let text = "# HELP taxorec_serve_cache_hit_total x\n# TYPE taxorec_serve_cache_hit_total counter\n\
                    taxorec_serve_cache_hit_total 41\n\
                    taxorec_serve_http_endpoint_ms_sum{endpoint=\"recommend\"} 12.5\n";
        let m = parse_prometheus(text);
        assert_eq!(m["taxorec_serve_cache_hit_total"], 41.0);
        assert_eq!(
            m["taxorec_serve_http_endpoint_ms_sum{endpoint=\"recommend\"}"],
            12.5
        );
        let health =
            "{\"status\":\"ready\",\"ingest\":{\"accepted\":7,\"staleness\":0,\"cursor\":7}}";
        assert_eq!(json_u64(health, "staleness"), Some(0));
        assert_eq!(json_u64(health, "cursor"), Some(7));
        assert_eq!(json_u64(health, "missing"), None);
    }
}
