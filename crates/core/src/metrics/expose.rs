//! Prometheus text exposition: the renderer and a minimal HTTP responder.
//!
//! [`render`] writes the [text exposition format, version 0.0.4][format] —
//! `# TYPE` lines, cumulative `_bucket{le=...}` series for histograms,
//! `_sum` and `_count`. Output order is deterministic (the registry is
//! sorted), which the golden test pins byte-for-byte.
//!
//! [`MetricsServer`] is the pull endpoint: one `std`-only poller thread
//! answering every HTTP request with a fresh snapshot of the global
//! registry. It speaks just enough HTTP/1.1 for Prometheus and `curl` —
//! read the request head, answer `200` with `Content-Length`, close. It
//! accepts through the TCP transport's accept loop, so a scrape door and a
//! mesh endpoint bound their peers alike: a request head is read without
//! blocking within 8 KiB and the HELLO's 5 s deadline, at most
//! 16 connections wait at once (a new one past them closes the oldest),
//! and every connection closed for breaking a bound is counted in
//! `poseidon_bad_scrapes_total{addr}`. One scrape costs one snapshot; an
//! idle door costs one thread blocked in its poller.
//!
//! [format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use super::{Family, MetricKind, MetricsSnapshot, SampleValue};
use crate::transport::poll::{Door, Fill, CONN_BASE, LISTEN_TOKEN};
use crate::transport::sys::Poller;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Writes `{k="v",...}` for `labels` and then `extra`; nothing when both
/// are empty.
fn write_labels(out: &mut String, labels: &[(&'static str, String)], extra: Option<(&str, &str)>) {
    let pairs: Vec<String> = (labels.iter().map(|(k, v)| (*k, v.as_str())))
        .chain(extra)
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if !pairs.is_empty() {
        out.push_str(&format!("{{{}}}", pairs.join(",")));
    }
}

fn render_family(out: &mut String, f: &Family) {
    let kind = match f.kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    };
    out.push_str(&format!("# TYPE {} {kind}\n", f.name));
    for s in &f.samples {
        let mut line = |suffix: &str, extra: Option<(&str, &str)>, value: u64| {
            out.push_str(&format!("{}{suffix}", f.name));
            write_labels(out, &s.labels, extra);
            out.push_str(&format!(" {value}\n"));
        };
        match &s.value {
            SampleValue::Int(v) => line("", None, *v),
            SampleValue::Hist(h) => {
                // Cumulative buckets up to the last non-empty one, then the
                // mandatory +Inf bucket carrying the total count.
                let mut cum = 0u64;
                let last = h
                    .buckets
                    .iter()
                    .rposition(|&n| n > 0)
                    .unwrap_or(0)
                    .min(super::HIST_BUCKETS - 2);
                for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                    cum += n;
                    line(
                        "_bucket",
                        Some(("le", &super::bucket_le(i).to_string())),
                        cum,
                    );
                }
                line("_bucket", Some(("le", "+Inf")), h.count);
                line("_sum", None, h.sum);
                line("_count", None, h.count);
            }
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for f in &snap.families {
        render_family(&mut out, f);
    }
    out
}

/// Bytes a request head may take; past them with no blank line it is
/// rejected.
const MAX_HEAD_BYTES: usize = 8192;

/// A pull-based metrics endpoint: binds `addr`, spawns one poller thread,
/// and answers every HTTP request with the global registry rendered as
/// Prometheus text. The thread runs the transport's accept loop
/// (`transport::poll`): each connection's request head is read
/// without blocking, under the HELLO's deadline and waiting cap and a byte
/// cap, and a connection that breaks one is closed and counted in
/// `poseidon_bad_scrapes_total{addr}`, so no client stalls another's
/// scrape. Dropping the server wakes the poller, joins it and releases the
/// port.
pub struct MetricsServer {
    addr: SocketAddr,
    poller: Arc<Poller>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9100"`) and starts serving scrapes of
    /// the global registry on a thread named `"metrics :{port}"`.
    pub fn serve(addr: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        let rejects = super::counter("poseidon_bad_scrapes_total", &[("addr", &addr.to_string())]);
        let door = Door::new(listener, &poller, rejects)?;
        let thread = {
            let poller = Arc::clone(&poller);
            std::thread::Builder::new()
                .name(format!("metrics :{}", addr.port()))
                .spawn(move || run(door, &poller))?
        };
        Ok(MetricsServer {
            addr,
            poller,
            thread: Some(thread),
        })
    }

    /// The bound address (exact port when `serve` was given port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.poller.waker().wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A response being written: its bytes and how many are on the socket.
struct Reply(Vec<u8>, usize);

/// The poller thread: serves the door until the server's drop wakes it.
fn run(mut door: Door<Reply>, poller: &Poller) {
    let mut events = Vec::new();
    loop {
        let timeout = door.sweep(poller, Instant::now());
        // Woken means dropped; an error means the poll fd itself failed.
        if poller.wait(&mut events, timeout).unwrap_or(true) {
            return;
        }
        for ev in &events {
            if ev.token == LISTEN_TOKEN {
                while let Some(slot) = door.accept_next(poller) {
                    serve(&mut door, poller, slot);
                }
            } else {
                serve(&mut door, poller, (ev.token - CONN_BASE) as usize);
            }
        }
    }
}

/// Reads what has arrived of one request head; once it is whole, writes the
/// reply as far as the socket takes it, and closes the connection when it is
/// all written. The reply stays under the head's deadline, so a client that
/// does not read it is closed in time like one that does not send.
fn serve(door: &mut Door<Reply>, poller: &Poller, slot: usize) {
    let Some(Some(conn)) = door.conns.get_mut(slot) else {
        return;
    };
    if conn.owner.is_none() {
        let fill = conn.fill(MAX_HEAD_BYTES);
        if !conn.head.windows(4).any(|w| w == b"\r\n\r\n") {
            if !matches!(fill, Fill::Pending) {
                door.reject(poller, slot); // cut short, or too long
            }
            return;
        }
        let body = super::snapshot().render();
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        conn.owner = Some(Reply(reply.into_bytes(), 0));
    }
    let Reply(bytes, sent) = conn.owner.as_mut().expect("a reply");
    while *sent < bytes.len() {
        match (&conn.stream).write(&bytes[*sent..]) {
            Ok(n) if n > 0 => *sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let token = CONN_BASE | slot as u64;
                let _ = poller.modify(conn.stream.as_raw_fd(), token, false, true);
                return;
            }
            _ => break,
        }
    }
    door.close(poller, slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::transport::poll::{HEAD_TIMEOUT, MAX_WAITING};
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Duration;

    /// The golden exposition test: a registry with one of each instrument
    /// renders byte-for-byte deterministically.
    #[test]
    fn exposition_format_golden() {
        let reg = Registry::new();
        reg.counter(
            "poseidon_tx_bytes_total",
            &[("endpoint", "0"), ("peer", "1")],
        )
        .add(4096);
        reg.counter(
            "poseidon_tx_bytes_total",
            &[("endpoint", "0"), ("peer", "2")],
        )
        .add(128);
        reg.gauge("poseidon_tx_queue_peak", &[("peer", "1")])
            .store(7);
        let h = reg.histogram("poseidon_sync_wait_ns", &[("layer", "0"), ("worker", "1")]);
        h.observe(0);
        h.observe(1);
        h.observe(3);
        h.observe(3);
        h.observe(900);
        let text = reg.snapshot().render();
        let want = "\
# TYPE poseidon_sync_wait_ns histogram
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"0\"} 1
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"1\"} 2
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"3\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"7\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"15\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"31\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"63\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"127\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"255\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"511\"} 4
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"1023\"} 5
poseidon_sync_wait_ns_bucket{layer=\"0\",worker=\"1\",le=\"+Inf\"} 5
poseidon_sync_wait_ns_sum{layer=\"0\",worker=\"1\"} 907
poseidon_sync_wait_ns_count{layer=\"0\",worker=\"1\"} 5
# TYPE poseidon_tx_bytes_total counter
poseidon_tx_bytes_total{endpoint=\"0\",peer=\"1\"} 4096
poseidon_tx_bytes_total{endpoint=\"0\",peer=\"2\"} 128
# TYPE poseidon_tx_queue_peak gauge
poseidon_tx_queue_peak{peer=\"1\"} 7
";
        assert_eq!(text, want);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("poseidon_test_total", &[("what", "a\"b\\c\nd")])
            .inc();
        let text = reg.snapshot().render();
        assert!(text.contains(r#"what="a\"b\\c\nd""#), "{text}");
    }

    #[test]
    fn http_responder_serves_the_global_registry() {
        crate::metrics::counter("poseidon_expose_test_total", &[]).add(42);
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("poseidon_expose_test_total 42"),
            "{response}"
        );
        assert!(response.contains("# TYPE poseidon_pool_hits_total counter"));
        drop(server);
        // Port is released after drop: a rebind must succeed.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok(), "server thread kept the port after drop");
    }

    /// Scrapes `server` and requires the whole reply within 500 ms, while
    /// the door holds one thread.
    fn quick_scrape(server: &MetricsServer) {
        let started = Instant::now();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("a whole reply");
        let took = started.elapsed();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            took < Duration::from_millis(500),
            "the scrape took {took:?}"
        );
        let name = format!("metrics :{}", server.addr().port());
        let named = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter(|t| {
                let comm = std::fs::read_to_string(t.as_ref().unwrap().path().join("comm"));
                comm.is_ok_and(|c| c.trim_end() == name)
            })
            .count();
        assert_eq!(named, 1, "threads named {name:?}");
    }

    /// Whether the door has closed `stream`: EOF, or a reset when the door
    /// left bytes of it unread.
    fn closed_by_door(stream: &mut TcpStream, within: Duration) -> bool {
        stream.set_read_timeout(Some(within)).unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        }
    }

    fn rejects(server: &MetricsServer) -> Option<u64> {
        let addr = server.addr().to_string();
        crate::metrics::snapshot().value("poseidon_bad_scrapes_total", &[("addr", &addr)])
    }

    #[test]
    fn a_stalled_peer_does_not_hold_back_a_scrape() {
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled.write_all(b"GET /metrics HT").unwrap();
        quick_scrape(&server);
        let within = HEAD_TIMEOUT + Duration::from_secs(1);
        assert!(
            closed_by_door(&mut stalled, within),
            "closed at its deadline"
        );
        assert_eq!(rejects(&server), Some(1));
    }

    #[test]
    fn a_head_over_the_byte_cap_is_closed_and_counted() {
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let mut garbage = TcpStream::connect(server.addr()).unwrap();
        garbage.write_all(&[b'x'; 2 * MAX_HEAD_BYTES]).unwrap();
        quick_scrape(&server);
        assert!(closed_by_door(&mut garbage, Duration::from_secs(2)));
        assert_eq!(rejects(&server), Some(1));
    }

    #[test]
    fn a_flood_of_idle_connections_closes_the_oldest() {
        const FLOOD: usize = 64;
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let mut idle: Vec<TcpStream> = (0..FLOOD)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        quick_scrape(&server);
        for (i, stream) in idle.iter_mut().enumerate().take(FLOOD - MAX_WAITING) {
            assert!(closed_by_door(stream, Duration::from_secs(2)), "idle {i}");
        }
        let closed = rejects(&server).unwrap_or(0) as usize;
        assert!((FLOOD - MAX_WAITING..=FLOOD).contains(&closed), "{closed}");
    }
}
