//! The process-wide registry of TCP endpoints, by bound listening address:
//! how a sender finds the peers it hands frames to in memory.

use super::*;
use std::net::SocketAddr;

/// Every registered endpoint of this process, by bound listening address:
/// how a sender finds the peers it can hand frames to in memory.
pub(super) static REGISTRY: Mutex<Vec<(SocketAddr, Weak<Shared>)>> = Mutex::new(Vec::new());

/// One endpoint's [`REGISTRY`] entry, withdrawn when dropped.
pub(super) struct Registration {
    addr: SocketAddr,
    shared: Weak<Shared>,
}

impl Registration {
    /// Registers `shared` under `addr`. An entry already there belongs to an
    /// endpoint whose listener is gone, so it is replaced.
    pub(super) fn new(addr: SocketAddr, shared: &Arc<Shared>) -> Registration {
        let shared = Arc::downgrade(shared);
        let mut registry = REGISTRY.lock().expect("registry lock");
        registry.retain(|(a, _)| *a != addr);
        registry.push((addr, Weak::clone(&shared)));
        Registration { addr, shared }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        REGISTRY
            .lock()
            .expect("registry lock")
            .retain(|(a, w)| *a != self.addr || !w.ptr_eq(&self.shared));
    }
}

/// The endpoints `shared`'s frames can be handed to in memory, indexed by
/// peer: itself, and every registered peer whose listening address, endpoint
/// id and node map are the spec's and that shares its physical node.
pub(super) fn resolve_coresident(shared: &Arc<Shared>) -> Vec<Option<Weak<Shared>>> {
    let (me, spec) = (shared.core.me(), &shared.spec);
    let registry = REGISTRY.lock().expect("registry lock");
    (0..spec.addrs.len())
        .map(|peer| {
            if peer == me {
                return Some(Arc::downgrade(shared));
            }
            let (_, w) = registry.iter().find(|(a, _)| *a == spec.addrs[peer])?;
            let p = w.upgrade()?;
            (p.core.me() == peer
                && p.core.node() == shared.core.node()
                && p.spec.node_of_endpoint == spec.node_of_endpoint)
                .then(|| Weak::clone(w))
        })
        .collect()
}
