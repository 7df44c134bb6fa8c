//! Shared by the integration suites that need a live TCP mesh.

use poseidon::transport::{bind_ephemeral, TcpFabricSpec, TcpTransport, TrafficCounters};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A loopback TCP mesh with endpoint `j` on physical node `nodes[j]`, every
/// endpoint charging one ledger (as the in-process fabric does).
pub fn tcp_mesh(nodes: &[usize]) -> (Vec<TcpTransport>, Arc<TrafficCounters>) {
    let (listeners, addrs) = bind_ephemeral(nodes.len()).expect("bind");
    let spec = TcpFabricSpec {
        addrs,
        node_of_endpoint: nodes.to_vec(),
        connect_timeout: Duration::from_secs(30),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        reconnect_timeout: Duration::from_secs(5),
    };
    let counters = Arc::new(TrafficCounters::new(spec.physical_nodes()));
    let done = Mutex::new(Vec::with_capacity(nodes.len()));
    // Every endpoint must dial while the others accept.
    std::thread::scope(|s| {
        for (me, listener) in listeners.into_iter().enumerate() {
            let (spec, done, counters) = (&spec, &done, Arc::clone(&counters));
            s.spawn(move || {
                let ep = TcpTransport::connect_with_listener(spec, me, listener, Some(counters))
                    .expect("mesh");
                done.lock().unwrap().push((me, ep));
            });
        }
    });
    let mut eps = done.into_inner().unwrap();
    eps.sort_by_key(|(me, _)| *me);
    (eps.into_iter().map(|(_, ep)| ep).collect(), counters)
}
