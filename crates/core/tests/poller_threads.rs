//! Thread-budget proof for the evented transport: one endpoint costs a
//! constant number of threads (poller + acceptor) no matter how many peers it
//! meshes with, while the threaded baseline pays one reader thread per
//! inbound stream. Counted straight from `/proc/self/status`, so the tests
//! are Linux-only.

#![cfg(target_os = "linux")]

use poseidon::transport::{
    bind_ephemeral, Message, TcpFabricSpec, TcpTransport, ThreadedTcpTransport, Transport,
};
use std::sync::Mutex;
use std::time::Duration;

/// Live threads in this process, per the kernel, once the count has held
/// still for 20 ms: a joined thread lingers in `/proc` until the kernel reaps
/// it, which under load is after `join` has returned.
fn thread_count() -> usize {
    let mut last = thread_count_now();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count_now();
        if now == last {
            break;
        }
        last = now;
    }
    last
}

fn thread_count_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

fn mesh_spec(endpoints: usize) -> (Vec<std::net::TcpListener>, TcpFabricSpec) {
    let (listeners, addrs) = bind_ephemeral(endpoints).expect("bind");
    let spec = TcpFabricSpec {
        addrs,
        node_of_endpoint: (0..endpoints).collect(),
        connect_timeout: Duration::from_secs(30),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        reconnect_timeout: Duration::from_secs(5),
    };
    (listeners, spec)
}

/// Connects a full mesh concurrently (every endpoint must dial while the
/// others accept) and hands the endpoints back in index order.
fn connect_mesh<T, F>(endpoints: usize, connect: F) -> Vec<T>
where
    T: Transport + Send,
    F: Fn(&TcpFabricSpec, usize, std::net::TcpListener) -> T + Sync,
{
    let (listeners, spec) = mesh_spec(endpoints);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(endpoints));
    std::thread::scope(|s| {
        for (me, listener) in listeners.into_iter().enumerate() {
            let (spec, done, connect) = (&spec, &done, &connect);
            s.spawn(move || {
                let ep = connect(spec, me, listener);
                done.lock().unwrap().push((me, ep));
            });
        }
    });
    let mut eps = done.into_inner().unwrap();
    eps.sort_by_key(|(me, _)| *me);
    assert_eq!(eps.len(), endpoints, "every endpoint must connect");
    eps.into_iter().map(|(_, ep)| ep).collect()
}

/// One frame around the ring proves every endpoint is live.
fn prove_ring<T: Transport>(eps: &[T]) {
    for (i, ep) in eps.iter().enumerate() {
        ep.send((i + 1) % eps.len(), Message::Ack { upto: i as u64 })
            .expect("ring send");
    }
    for (i, ep) in eps.iter().enumerate() {
        let env = ep.recv_timeout(Duration::from_secs(20)).expect("ring recv");
        let prev = (i + eps.len() - 1) % eps.len();
        assert_eq!(env.from, prev);
        assert_eq!(env.msg, Message::Ack { upto: prev as u64 });
    }
}

/// Both budgets are read from the process-wide thread count while a mesh is
/// open, so they are one test: as two, the harness runs them on parallel
/// threads and each mesh (and the other test's own thread, starting or
/// exiting) lands in the other's measurement.
#[test]
fn thread_budgets_evented_constant_threaded_per_stream() {
    evented_mesh_at_32_peers_is_two_threads_per_endpoint();
    threaded_mesh_pays_a_thread_per_inbound_stream();
}

/// The tentpole claim: a 33-endpoint mesh (32 peers per endpoint) costs a
/// fixed two threads per endpoint — poller + acceptor — not one per peer,
/// and shutdown joins every one of them.
fn evented_mesh_at_32_peers_is_two_threads_per_endpoint() {
    const ENDPOINTS: usize = 33;
    let baseline = thread_count();
    let mut eps = connect_mesh(ENDPOINTS, |spec, me, listener| {
        TcpTransport::connect_with_listener(spec, me, listener, None).expect("connect")
    });
    let steady = thread_count();
    let delta = steady - baseline;
    assert!(
        delta <= 2 * ENDPOINTS,
        "evented mesh spawned {delta} threads for {ENDPOINTS} endpoints; \
         budget is 2 per endpoint (poller + acceptor)"
    );
    assert!(
        delta >= ENDPOINTS,
        "mesh reports only {delta} threads — endpoints are missing their poller"
    );
    prove_ring(&eps);
    for ep in &mut eps {
        ep.shutdown().expect("shutdown");
    }
    drop(eps);
    let after = thread_count();
    assert!(
        after <= baseline + 1,
        "shutdown must join poller and acceptor threads ({after} live, baseline {baseline})"
    );
}

/// The baseline it replaces: thread-per-stream scales with the mesh. Even a
/// small 8-endpoint threaded mesh costs ~8 threads per endpoint (acceptor +
/// 7 readers), several times the evented budget.
fn threaded_mesh_pays_a_thread_per_inbound_stream() {
    const ENDPOINTS: usize = 8;
    let baseline = thread_count();
    let mut eps = connect_mesh(ENDPOINTS, |spec, me, listener| {
        ThreadedTcpTransport::connect_with_listener(spec, me, listener, None).expect("connect")
    });
    let steady = thread_count();
    let delta = steady - baseline;
    assert!(
        delta >= ENDPOINTS * (ENDPOINTS - 1),
        "threaded mesh reports {delta} threads; expected at least one reader \
         per inbound stream ({} streams)",
        ENDPOINTS * (ENDPOINTS - 1)
    );
    prove_ring(&eps);
    for ep in &mut eps {
        ep.shutdown().expect("shutdown");
    }
}
