//! The live inference front door: serve predictions *while training*.
//!
//! Training publishes an immutable [`Snapshot`] of the model parameters into
//! a [`SnapshotCell`] at each iteration boundary; the [`ServingServer`]
//! answers batched inference requests against whatever snapshot is current
//! when the request arrives. Requests therefore see **snapshot isolation**:
//! one request is answered entirely from one parameter version (stamped with
//! its iteration and membership epoch in the reply), never a torn mix of two
//! iterations — even though training keeps mutating its own replica
//! concurrently.
//!
//! The wire protocol is a minimal length-prefixed binary over TCP, one
//! request per connection (the shape of the metrics scrape endpoint, which
//! has proven itself under the multi-process tests):
//!
//! ```text
//! request :  "PSRV"  n:u32le  d:u32le  n·d × f32le   (row-major inputs)
//! response:  "PSRP"  status:u8  iter:u64le  epoch:u32le
//!            n:u32le  k:u32le  n·k × f32le           (row-major outputs)
//! ```
//!
//! Status 0 = OK; 1 = no snapshot published yet (training has not reached
//! its first boundary); 2 = malformed or mis-shaped request. Non-OK replies
//! carry `n = k = 0`.

use crate::metrics;
use crate::metrics::expose::Responder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request magic.
pub const SERVE_REQ_MAGIC: [u8; 4] = *b"PSRV";
/// Response magic.
pub const SERVE_RESP_MAGIC: [u8; 4] = *b"PSRP";
/// Upper bound on `n·d` accepted per request (keeps a hostile or buggy
/// client from making the responder allocate unboundedly).
pub const SERVE_MAX_ELEMS: usize = 1 << 20;

/// Request served from a consistent parameter version.
pub const SERVE_OK: u8 = 0;
/// Training has not published a snapshot yet.
pub const SERVE_NO_SNAPSHOT: u8 = 1;
/// Malformed frame or input width the model rejects.
pub const SERVE_BAD_REQUEST: u8 = 2;

/// One immutable parameter version, as published at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The iteration whose update this snapshot includes (i.e. parameters
    /// *after* iteration `iter`).
    pub iter: u64,
    /// Membership epoch in force at the boundary.
    pub epoch: u32,
    /// Flattened model parameters, trainable layers in slot order.
    pub params: Vec<f32>,
}

/// The single-writer / many-reader cell training publishes snapshots into.
///
/// `publish` swaps the current `Arc<Snapshot>` atomically under a mutex held
/// only for the pointer swap; readers clone the `Arc` and then work lock-free
/// on the immutable snapshot — a request in flight keeps its version alive
/// even after training publishes ten newer ones.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    latest: Mutex<Option<Arc<Snapshot>>>,
}

impl SnapshotCell {
    /// An empty cell (no snapshot published yet).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes a new parameter version.
    pub fn publish(&self, snap: Snapshot) {
        *self.latest.lock().expect("snapshot cell poisoned") = Some(Arc::new(snap));
    }

    /// The current version, if any.
    pub fn latest(&self) -> Option<Arc<Snapshot>> {
        self.latest.lock().expect("snapshot cell poisoned").clone()
    }
}

/// The model-evaluation hook the runtime hands the server: given one
/// snapshot's parameters and a row-major `n × d` input batch, return the
/// row-major `n × k` outputs, or `None` when `d` does not match the model.
pub type InferFn = dyn Fn(&Snapshot, usize, usize, &[f32]) -> Option<Vec<f32>> + Send + Sync;

/// A parsed serving reply (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// One of [`SERVE_OK`], [`SERVE_NO_SNAPSHOT`], [`SERVE_BAD_REQUEST`].
    pub status: u8,
    /// Iteration of the snapshot that answered (0 on non-OK).
    pub iter: u64,
    /// Membership epoch of the snapshot that answered (0 on non-OK).
    pub epoch: u32,
    /// Row-major `n × k` outputs (empty on non-OK).
    pub outputs: Vec<f32>,
    /// Output width `k` (0 on non-OK).
    pub k: usize,
}

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The inference front door: binds an address, spawns one listener thread,
/// and answers every request against the cell's current snapshot. Dropping
/// the server stops the thread and releases the port.
pub struct ServingServer(Responder);

impl ServingServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts answering requests
    /// with `infer` applied to `cell`'s latest snapshot. One request per
    /// connection with bounded sizes, served inline, keeps the front door's
    /// interference with training predictable.
    pub fn serve(
        addr: &str,
        cell: Arc<SnapshotCell>,
        infer: Arc<InferFn>,
    ) -> std::io::Result<ServingServer> {
        Responder::serve(addr, "serving", move |stream| {
            let _ = answer(stream, &cell, infer.as_ref());
        })
        .map(ServingServer)
    }

    /// The bound address (exact port when `serve` was given port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }
}

fn read_exact_n(stream: &mut TcpStream, n: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

fn write_reply(
    stream: &mut TcpStream,
    status: u8,
    iter: u64,
    epoch: u32,
    k: usize,
    outputs: &[f32],
) -> std::io::Result<()> {
    use bytes::BufMut;
    let n = outputs.len().checked_div(k).unwrap_or(0);
    let mut buf = bytes::BytesMut::with_capacity(25 + outputs.len() * 4);
    buf.put_slice(&SERVE_RESP_MAGIC);
    buf.put_u8(status);
    buf.put_u64_le(iter);
    buf.put_u32_le(epoch);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(k as u32);
    for &v in outputs {
        buf.put_f32_le(v);
    }
    stream.write_all(&buf)?;
    stream.flush()
}

fn answer(mut stream: TcpStream, cell: &SnapshotCell, infer: &InferFn) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let start = Instant::now();
    let head = read_exact_n(&mut stream, 12)?;
    let n = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
    let d = u32::from_le_bytes([head[8], head[9], head[10], head[11]]) as usize;
    if head[..4] != SERVE_REQ_MAGIC || n == 0 || d == 0 || n.saturating_mul(d) > SERVE_MAX_ELEMS {
        metrics::counter("poseidon_serve_requests_total", &[("status", "bad")]).inc();
        return write_reply(&mut stream, SERVE_BAD_REQUEST, 0, 0, 0, &[]);
    }
    let payload = read_exact_n(&mut stream, n * d * 4)?;
    let inputs: Vec<f32> = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    // Pin the parameter version *once*: everything below reads this Arc, so
    // the whole batch is answered from one consistent iteration.
    let Some(snap) = cell.latest() else {
        metrics::counter("poseidon_serve_requests_total", &[("status", "empty")]).inc();
        return write_reply(&mut stream, SERVE_NO_SNAPSHOT, 0, 0, 0, &[]);
    };
    match infer(&snap, n, d, &inputs) {
        Some(outputs) => {
            assert!(
                !outputs.is_empty() && outputs.len().is_multiple_of(n),
                "inference output not an n-row matrix"
            );
            let k = outputs.len() / n;
            metrics::counter("poseidon_serve_requests_total", &[("status", "ok")]).inc();
            metrics::histogram("poseidon_serve_latency_ns", &[])
                .record(start.elapsed().as_nanos() as u64);
            write_reply(&mut stream, SERVE_OK, snap.iter, snap.epoch, k, &outputs)
        }
        None => {
            metrics::counter("poseidon_serve_requests_total", &[("status", "bad")]).inc();
            write_reply(&mut stream, SERVE_BAD_REQUEST, 0, 0, 0, &[])
        }
    }
}

/// Client side: sends one row-major `n × d` batch to a serving endpoint and
/// parses the reply. Used by the serving bench, the multi-process smoke test
/// and external callers alike.
///
/// # Errors
///
/// I/O errors surface as-is; a malformed response is an
/// [`std::io::ErrorKind::InvalidData`] error.
pub fn query(addr: &str, n: usize, d: usize, inputs: &[f32]) -> std::io::Result<ServeReply> {
    assert_eq!(inputs.len(), n * d, "inputs must be n·d values");
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(12 + inputs.len() * 4);
        buf.put_slice(&SERVE_REQ_MAGIC);
        buf.put_u32_le(n as u32);
        buf.put_u32_le(d as u32);
        for &v in inputs {
            buf.put_f32_le(v);
        }
        stream.write_all(&buf)?;
        stream.flush()?;
    }
    let mut head = [0u8; 25];
    stream.read_exact(&mut head)?;
    if head[..4] != SERVE_RESP_MAGIC {
        return Err(bad("bad serving response magic"));
    }
    let status = head[4];
    let iter = u64::from_le_bytes(head[5..13].try_into().expect("sized"));
    let epoch = u32::from_le_bytes(head[13..17].try_into().expect("sized"));
    let rn = u32::from_le_bytes(head[17..21].try_into().expect("sized")) as usize;
    let k = u32::from_le_bytes(head[21..25].try_into().expect("sized")) as usize;
    if status == SERVE_OK && (rn != n || k == 0) {
        return Err(bad("serving response shape mismatch"));
    }
    if rn.saturating_mul(k) > SERVE_MAX_ELEMS {
        return Err(bad("serving response too large"));
    }
    let mut payload = vec![0u8; rn * k * 4];
    stream.read_exact(&mut payload)?;
    let outputs: Vec<f32> = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(ServeReply {
        status,
        iter,
        epoch,
        outputs,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A toy "model": output k=1, each row's output = dot(row, params[..d]).
    fn dot_infer() -> Arc<InferFn> {
        Arc::new(|snap, n, d, inputs| {
            if snap.params.len() < d {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            for row in inputs.chunks(d) {
                out.push(row.iter().zip(&snap.params).map(|(x, w)| x * w).sum());
            }
            Some(out)
        })
    }

    #[test]
    fn serves_against_published_snapshot() {
        let cell = SnapshotCell::new();
        let server = ServingServer::serve("127.0.0.1:0", Arc::clone(&cell), dot_infer()).unwrap();
        let addr = server.addr().to_string();

        // Before the first publish: status 1, no outputs.
        let r = query(&addr, 1, 2, &[1.0, 1.0]).unwrap();
        assert_eq!(r.status, SERVE_NO_SNAPSHOT);
        assert!(r.outputs.is_empty());

        cell.publish(Snapshot {
            iter: 7,
            epoch: 3,
            params: vec![2.0, -1.0],
        });
        let r = query(&addr, 2, 2, &[1.0, 0.0, 0.5, 4.0]).unwrap();
        assert_eq!(r.status, SERVE_OK);
        assert_eq!(r.iter, 7);
        assert_eq!(r.epoch, 3);
        assert_eq!(r.k, 1);
        assert_eq!(r.outputs, vec![2.0, -3.0]);

        // A newer publish answers subsequent requests.
        cell.publish(Snapshot {
            iter: 8,
            epoch: 3,
            params: vec![0.0, 1.0],
        });
        let r = query(&addr, 1, 2, &[9.0, 5.0]).unwrap();
        assert_eq!((r.iter, r.outputs), (8, vec![5.0]));
    }

    #[test]
    fn rejects_malformed_requests() {
        let cell = SnapshotCell::new();
        cell.publish(Snapshot {
            iter: 1,
            epoch: 0,
            params: vec![1.0],
        });
        let server = ServingServer::serve("127.0.0.1:0", Arc::clone(&cell), dot_infer()).unwrap();
        let addr = server.addr();

        // Wrong magic.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"XXXX\x01\x00\x00\x00\x01\x00\x00\x00")
            .unwrap();
        s.write_all(&1.0f32.to_le_bytes()).unwrap();
        let mut head = [0u8; 25];
        s.read_exact(&mut head).unwrap();
        assert_eq!(&head[..4], &SERVE_RESP_MAGIC);
        assert_eq!(head[4], SERVE_BAD_REQUEST);

        // Width the model rejects (d wider than params).
        let r = query(&addr.to_string(), 1, 9, &[0.0; 9]).unwrap();
        assert_eq!(r.status, SERVE_BAD_REQUEST);

        // Port released after drop.
        drop(server);
        assert!(TcpListener::bind(addr).is_ok());
    }
}
