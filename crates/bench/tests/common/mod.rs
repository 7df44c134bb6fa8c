//! Listening ports of the multi-process suites, and the HTTP client that
//! scrapes their `--metrics-addr` endpoints.
//!
//! Each suite (and each role within one) owns a 1000-port range starting at
//! one of the constants below, and a run listens at `start + pid % 990` and
//! the few ports after it, so two concurrent runs of one suite rarely meet.
//! Every range lies below 32768, under Linux's ephemeral port range
//! (`ip_local_port_range`, 32768–60999 by default): the kernel hands ports
//! from that range to outgoing connections — the mesh's own dials and the
//! tests' scrapes among them — so a fixed listener placed there fails with
//! "Address already in use" whenever a connection got its port first. The
//! ranges do not overlap, so no two suites can collide either.
#![allow(dead_code)] // each suite uses only its own ranges

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub const TCP_LOOPBACK_PS: u16 = 10_000;
pub const TCP_LOOPBACK_HYBRID: u16 = 11_000;
pub const TCP_LOOPBACK_RING: u16 = 12_000;
pub const TRACE_ROUNDTRIP: u16 = 14_000;
pub const TCP_SEVER_RECONNECT: u16 = 15_000;
pub const METRICS_SCRAPE_MESH: u16 = 16_000;
pub const METRICS_SCRAPE_METRICS: u16 = 17_000;
pub const ELASTIC_MEMBERSHIP_MESH: u16 = 18_000;
pub const ELASTIC_MEMBERSHIP_METRICS: u16 = 19_000;

/// This process's first port in the range starting at `start`.
pub fn port(start: u16) -> u16 {
    start + (std::process::id() % 990) as u16
}

/// One plain HTTP/1.1 scrape of `addr`, returning the response body.
pub fn scrape(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header/body split"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!("bad status: {head}")));
    }
    Ok(body.to_string())
}

/// Scrapes `addr` until `want` succeeds on the body or the deadline passes.
pub fn scrape_until(addr: &str, deadline: Instant, want: impl Fn(&str) -> bool) -> String {
    let mut last_err = String::new();
    while Instant::now() < deadline {
        match scrape(addr) {
            Ok(body) if want(&body) => return body,
            Ok(_) => {}
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("scrape of {addr} never satisfied the predicate (last error: {last_err})");
}

/// The value of the first sample of `metric` in a scraped body — the metric
/// name matched whole, whatever its labels.
pub fn sample(body: &str, metric: &str) -> Option<u64> {
    body.lines()
        .find(|l| {
            l.strip_prefix(metric)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}
