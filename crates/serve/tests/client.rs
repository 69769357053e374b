//! The blocking client against a scripted peer: what `Content-Length`
//! framing accepts, what it refuses, and which phase a failure names.
//! A plain `TcpListener` plays the server so every byte is the test's.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};

use taxorec_serve::client::{get, request, Phase, Timeouts};

/// A one-shot peer: accepts one connection, reads the request head,
/// writes `reply`, closes. Returns the address and a handle yielding
/// the request bytes it saw.
fn scripted(reply: &'static [u8]) -> (SocketAddr, std::thread::JoinHandle<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut seen = Vec::new();
        let mut chunk = [0u8; 512];
        while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = stream.read(&mut chunk).expect("read request");
            assert!(n > 0, "client closed before finishing its request");
            seen.extend_from_slice(&chunk[..n]);
        }
        stream.write_all(reply).expect("reply");
        String::from_utf8(seen).expect("utf-8 request")
    });
    (addr, peer)
}

#[test]
fn content_length_frames_the_body_and_trailing_bytes_are_ignored() {
    let (addr, peer) = scripted(
        b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
          Content-Length: 13\r\nX-Extra:  padded \r\n\r\n{\"error\":\"x\"}TRAILING GARBAGE",
    );
    let r = request(
        addr,
        "GET",
        "/a?b=1",
        "x-taxorec-trace: 00ff\r\n",
        "",
        Timeouts::default(),
    )
    .expect("response");
    assert_eq!(r.status, 404);
    assert_eq!(r.body, "{\"error\":\"x\"}");
    assert!(
        r.head.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{}",
        r.head
    );
    assert_eq!(r.header("x-extra"), Some("padded"));
    assert_eq!(r.header("CONTENT-TYPE"), Some("application/json"));
    assert_eq!(r.header("missing"), None);
    assert_eq!(
        peer.join().expect("peer"),
        format!(
            "GET /a?b=1 HTTP/1.1\r\nHost: {addr}\r\nx-taxorec-trace: 00ff\r\n\
             Connection: close\r\n\r\n"
        )
    );
}

#[test]
fn a_body_shorter_than_content_length_is_a_read_error() {
    let (addr, peer) = scripted(b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n0123456789");
    let err = get(addr, "/").expect_err("10 of 64 bytes is not a response");
    assert_eq!(err.phase, Phase::Read, "{err}");
    assert_eq!(err.source.kind(), std::io::ErrorKind::UnexpectedEof);
    peer.join().expect("peer");

    let (addr, peer) = scripted(b"HTTP/1.1 200 OK\r\nContent-Le");
    assert_eq!(get(addr, "/").expect_err("cut head").phase, Phase::Read);
    peer.join().expect("peer");
}

#[test]
fn without_content_length_the_body_runs_to_end_of_stream() {
    let (addr, peer) = scripted(b"HTTP/1.0 200 OK\r\n\r\nuntil the peer closes");
    let r = get(addr, "/").expect("response");
    assert_eq!((r.status, r.body.as_str()), (200, "until the peer closes"));
    peer.join().expect("peer");
}

#[test]
fn a_post_carries_its_content_length() {
    let (addr, peer) = scripted(b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n");
    let r = request(addr, "POST", "/ingest", "", "{}", Timeouts::default()).expect("response");
    assert_eq!((r.status, r.body.as_str()), (202, ""));
    let seen = peer.join().expect("peer");
    assert!(seen.contains("\r\nContent-Length: 2\r\n"), "{seen}");
}

#[test]
fn refused_is_its_own_phase_and_garbage_is_a_parse_error() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let err = get(addr, "/").expect_err("nothing listens here any more");
    assert_eq!(err.phase, Phase::Refused, "{err}");
    assert_eq!(err.phase.as_str(), "refused");

    let (addr, peer) = scripted(b"not http\r\n\r\n");
    assert_eq!(get(addr, "/").expect_err("garbage").phase, Phase::Parse);
    peer.join().expect("peer");
    let (addr, peer) = scripted(b"HTTP/1.1 abc\r\n\r\n");
    assert_eq!(get(addr, "/").expect_err("status").phase, Phase::Parse);
    peer.join().expect("peer");
}
