//! Prometheus text exposition: the renderer and a minimal HTTP responder.
//!
//! [`render`] writes the [text exposition format, version 0.0.4][format] —
//! `# TYPE` lines, cumulative `_bucket{le=...}` series for histograms,
//! `_sum` and `_count`. Output order is deterministic (the registry is
//! sorted), which the golden test pins byte-for-byte.
//!
//! [`MetricsServer`] is the pull endpoint: a `std`-only listener thread
//! answering every HTTP request with a fresh snapshot of the global
//! registry. It speaks just enough HTTP/1.1 for Prometheus and `curl` —
//! read the request head, answer `200` with `Content-Length`, close. One
//! scrape costs one snapshot; an idle responder costs one parked thread.
//!
//! [format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use super::{Family, MetricKind, MetricsSnapshot, SampleValue};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_labels(out: &mut String, labels: &[(&'static str, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
    }
    out.push('}');
}

fn render_family(out: &mut String, f: &Family) {
    let kind = match f.kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    };
    out.push_str(&format!("# TYPE {} {kind}\n", f.name));
    for s in &f.samples {
        match &s.value {
            SampleValue::Int(v) => {
                out.push_str(f.name);
                write_labels(out, &s.labels, None);
                out.push_str(&format!(" {v}\n"));
            }
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
                    let le = super::bucket_le(i).to_string();
                    out.push_str(&format!("{}_bucket", f.name));
                    write_labels(out, &s.labels, Some(("le", &le)));
                    out.push_str(&format!(" {cum}\n"));
                }
                out.push_str(&format!("{}_bucket", f.name));
                write_labels(out, &s.labels, Some(("le", "+Inf")));
                out.push_str(&format!(" {}\n", h.count));
                out.push_str(&format!("{}_sum", f.name));
                write_labels(out, &s.labels, None);
                out.push_str(&format!(" {}\n", h.sum));
                out.push_str(&format!("{}_count", f.name));
                write_labels(out, &s.labels, None);
                out.push_str(&format!(" {}\n", h.count));
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

/// How often the listener thread polls its stop flag between accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A pull-based metrics endpoint: binds `addr`, spawns one listener thread,
/// and answers every HTTP request with the global registry rendered as
/// Prometheus text — inline and in arrival order, since scrapes are rare
/// and bounded and one thread keeps the footprint fixed. Dropping the
/// server stops the thread and releases the port.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9100"`) and starts serving scrapes of
    /// the global registry on a thread named `"metrics {addr}"`.
    pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("metrics {addr}"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let _ = answer(stream);
                            }
                            Err(_) => std::thread::sleep(ACCEPT_POLL),
                        }
                    }
                })?
        };
        Ok(MetricsServer {
            addr,
            stop,
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
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Reads the request head (discarded — every path gets the metrics page)
/// and writes one `200 text/plain` response with the rendered snapshot.
fn answer(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 256];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&byte[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let body = super::snapshot().render();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

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
}
