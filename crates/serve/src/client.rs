//! A tiny blocking HTTP/1.1 client: one request, one response, one
//! connection — what the router's upstream hop, the health prober,
//! `taxorec-loadgen`, the examples and the integration tests all need
//! from the other side of [`crate::http`].
//!
//! The response body is framed by `Content-Length`: exactly that many
//! bytes are the body, later bytes are ignored, and a peer that closes
//! early is a **read error**, never a short success. Only a response
//! without the header is delimited by end-of-stream. Nothing here
//! depends on the server closing the connection, so the framing is
//! already what a keep-alive transport needs.
//!
//! Failures carry the [`Phase`] they happened in; `refused` is its own
//! phase because it means nothing is listening at the target
//! (`taxorec-loadgen --allow-refused` exempts exactly it).

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::net;

/// Largest response head (status line + headers) accepted.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Deadlines for one [`request`].
#[derive(Clone, Copy, Debug)]
pub struct Timeouts {
    /// Bound on establishing the TCP connection.
    pub connect: Duration,
    /// Bound on each socket read and write once connected.
    pub io: Duration,
}

impl Default for Timeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(5),
            io: Duration::from_secs(30),
        }
    }
}

/// Where a [`request`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Nothing is listening at the address.
    Refused,
    /// Any other failure to connect (timeout, unreachable).
    Connect,
    /// Writing the request.
    Send,
    /// Reading the response: timeout, reset, or a stream that ended
    /// before the head or the `Content-Length` body was complete.
    Read,
    /// The bytes read are not an HTTP response.
    Parse,
}

impl Phase {
    /// `refused` | `connect` | `send` | `read` | `parse`.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Refused => "refused",
            Self::Connect => "connect",
            Self::Send => "send",
            Self::Read => "read",
            Self::Parse => "parse",
        }
    }
}

/// A failed [`request`]: the phase it failed in and the cause.
#[derive(Debug)]
pub struct Error {
    /// Where the exchange failed.
    pub phase: Phase,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl Error {
    fn new(phase: Phase, source: std::io::Error) -> Self {
        Self { phase, source }
    }

    fn parse(message: &str) -> Self {
        Self::new(Phase::Parse, std::io::Error::other(message.to_string()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.phase.as_str(), self.source)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code off the status line.
    pub status: u16,
    /// Status line and header lines, without the terminating blank line.
    pub head: String,
    /// The `Content-Length` (or, absent that, end-of-stream) framed body.
    pub body: String,
}

impl Response {
    /// Value of header `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        net::header(&self.head, name)
    }
}

/// `GET target` with default [`Timeouts`] and no extra headers.
pub fn get(addr: SocketAddr, target: &str) -> Result<Response, Error> {
    request(addr, "GET", target, "", "", Timeouts::default())
}

/// Sends one request to `addr` on a fresh connection and reads the
/// response. `extra_headers` is zero or more complete `Name: value\r\n`
/// lines; `Host`, `Content-Length` (for a body, or any non-`GET`) and
/// `Connection: close` are supplied.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra_headers: &str,
    body: &str,
    timeouts: Timeouts,
) -> Result<Response, Error> {
    let mut stream = TcpStream::connect_timeout(&addr, timeouts.connect).map_err(|e| {
        let phase = if e.kind() == std::io::ErrorKind::ConnectionRefused {
            Phase::Refused
        } else {
            Phase::Connect
        };
        Error::new(phase, e)
    })?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeouts.io))
        .and_then(|()| stream.set_write_timeout(Some(timeouts.io)))
        .map_err(|e| Error::new(Phase::Connect, e))?;
    send(&mut stream, addr, method, target, extra_headers, body)
        .map_err(|e| Error::new(Phase::Send, e))?;
    read_response(&mut stream)
}

fn send(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra_headers: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut request = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n{extra_headers}");
    if method != "GET" || !body.is_empty() {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("Connection: close\r\n\r\n");
    request.push_str(body);
    stream.write_all(request.as_bytes())
}

/// Reads one response off `stream`: its head, then a `Content-Length`
/// framed body, or the rest of the stream when the header is absent.
pub(crate) fn read_response(stream: &mut impl Read) -> Result<Response, Error> {
    let (head, mut body) = net::read_head(stream, Vec::new(), MAX_HEAD_BYTES).map_err(|e| {
        let phase = match e.kind() {
            std::io::ErrorKind::InvalidData => Phase::Parse,
            _ => Phase::Read,
        };
        Error::new(phase, e)
    })?;
    let read_err = |e| Error::new(Phase::Read, e);
    let status = head
        .lines()
        .next()
        .filter(|line| line.starts_with("HTTP/"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| Error::parse("malformed status line"))?;
    match net::header(&head, "content-length") {
        Some(len) => {
            let len = len
                .parse()
                .map_err(|_| Error::parse("Content-Length is not an integer"))?;
            body = net::read_body(stream, body, len).map_err(read_err)?;
        }
        None => {
            stream.read_to_end(&mut body).map_err(read_err)?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| Error::parse("response body is not UTF-8"))?;
    Ok(Response { status, head, body })
}
