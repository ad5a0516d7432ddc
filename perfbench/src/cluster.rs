//! Builds a real CURP cluster from the public constructors: f = 3, one
//! master, three servers that each host a backup and a witness, optional
//! spares, and a coordinator — over `MemNetwork` or loopback `TcpServer`s.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use curp_core::client::{ClientConfig, CurpClient};
use curp_core::coordinator::{Coordinator, CoordinatorHandler};
use curp_core::master::MasterConfig;
use curp_core::server::{CurpServer, ServerHandler};
use curp_proto::cluster::HashRange;
use curp_proto::types::{MasterId, ServerId};
use curp_storage::{StoreConfig, TempDir};
use curp_transport::latency::Fixed;
use curp_transport::mem::MemNetwork;
use curp_transport::rpc::{RpcClient, SharedHandler};
use curp_transport::tcp::{TcpRouter, TcpServer};
use curp_witness::cache::CacheConfig;

use crate::trace::{TracedClient, TracedHandler};

pub const COORD: ServerId = ServerId(100);
pub const CLIENT: ServerId = ServerId(999);
/// Fault tolerance: backups and witnesses per partition.
pub const F: u64 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// `MemNetwork`, `Fixed(0)` delay, zero dispatch cost, real clock.
    Mem,
    /// One loopback `TcpServer` per server and for the coordinator.
    Tcp,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub net: Net,
    /// Journaled witnesses, backup AOFs with fsync, tiered backup stores.
    pub durable: bool,
    /// Idle servers that recovered masters move onto.
    pub spares: u64,
    pub trace: bool,
}

enum Transport {
    Mem(MemNetwork),
    Tcp { servers: Vec<TcpServer>, routes: Arc<Vec<(ServerId, SocketAddr)>> },
}

pub struct Cluster {
    pub coord: Arc<Coordinator>,
    /// `servers[i]` is `ServerId(i + 1)`; server 1 hosts the first master.
    pub servers: Vec<Arc<CurpServer>>,
    pub master_id: MasterId,
    transport: Transport,
    spec: Spec,
    /// Durable data (per-run directory, removed on drop).
    pub data: Option<TempDir>,
}

fn wrap_client(inner: Arc<dyn RpcClient>, spec: Spec) -> Arc<dyn RpcClient> {
    if spec.trace {
        Arc::new(TracedClient { inner, keyed: spec.net == Net::Tcp })
    } else {
        inner
    }
}

fn wrap_handler(inner: SharedHandler, spec: Spec) -> SharedHandler {
    if spec.trace {
        Arc::new(TracedHandler { inner, keyed: spec.net == Net::Tcp })
    } else {
        inner
    }
}

fn tcp_client(routes: &[(ServerId, SocketAddr)], from: ServerId) -> Arc<dyn RpcClient> {
    let router = TcpRouter::new(from);
    for &(id, addr) in routes {
        router.add_route(id, addr);
    }
    router.client()
}

impl Cluster {
    pub async fn build(spec: Spec) -> std::io::Result<Cluster> {
        let n = 1 + F + spec.spares;
        let data = if spec.durable { Some(TempDir::new("curp-perfbench")?) } else { None };
        let mut servers = Vec::new();
        for i in 1..=n {
            let id = ServerId(i);
            let server = match &data {
                Some(dir) => CurpServer::new_durable_with(
                    id,
                    CacheConfig::default(),
                    &dir.path().join(format!("server-{i}")),
                    StoreConfig::tiered(1, dir.path().join(format!("tier-{i}"))),
                )?,
                None => CurpServer::new(id, CacheConfig::default()),
            };
            servers.push(server);
        }
        let handlers: Vec<SharedHandler> = servers
            .iter()
            .map(|s| wrap_handler(Arc::new(ServerHandler(Arc::clone(s))), spec))
            .collect();

        let (transport, coord) = match spec.net {
            Net::Mem => {
                let net = MemNetwork::new(0);
                net.set_default_latency(Arc::new(Fixed(Duration::ZERO)));
                for (s, h) in servers.iter().zip(handlers) {
                    net.add_simple_server(s.id(), h);
                }
                let factory_net = net.clone();
                let coord = Coordinator::new(
                    Box::new(move |from| wrap_client(factory_net.client(from), spec)),
                    MasterConfig::default(),
                    3_600_000,
                );
                let ch = Arc::new(CoordinatorHandler(Arc::clone(&coord)));
                net.add_simple_server(COORD, wrap_handler(ch, spec));
                (Transport::Mem(net), coord)
            }
            Net::Tcp => {
                let mut tcp = Vec::new();
                let mut routes = Vec::new();
                for (s, h) in servers.iter().zip(handlers) {
                    let t = TcpServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)), h).await?;
                    routes.push((s.id(), t.local_addr()));
                    tcp.push(t);
                }
                let server_routes = routes.clone();
                let coord = Coordinator::new(
                    Box::new(move |from| wrap_client(tcp_client(&server_routes, from), spec)),
                    MasterConfig::default(),
                    3_600_000,
                );
                let ch = Arc::new(CoordinatorHandler(Arc::clone(&coord)));
                let t =
                    TcpServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)), wrap_handler(ch, spec))
                        .await?;
                routes.push((COORD, t.local_addr()));
                tcp.push(t);
                (Transport::Tcp { servers: tcp, routes: Arc::new(routes) }, coord)
            }
        };
        for s in &servers {
            coord.register_server(Arc::clone(s));
        }
        let backups: Vec<ServerId> = (2..=1 + F).map(ServerId).collect();
        let master_id = coord
            .create_partition(ServerId(1), backups.clone(), backups, HashRange::FULL)
            .await
            .map_err(std::io::Error::other)?;
        Ok(Cluster { coord, servers, master_id, transport, spec, data })
    }

    /// An RPC client dialing as `from` (traced when the run is).
    pub fn rpc(&self, from: ServerId) -> Arc<dyn RpcClient> {
        let rpc = match &self.transport {
            Transport::Mem(net) => net.client(from),
            Transport::Tcp { routes, .. } => tcp_client(routes, from),
        };
        wrap_client(rpc, self.spec)
    }

    pub async fn client(&self, cfg: ClientConfig) -> Arc<CurpClient> {
        let c = CurpClient::connect(self.rpc(CLIENT), COORD, cfg).await;
        Arc::new(c.expect("client connects to the coordinator"))
    }

    /// The in-process network (crash injection), if this cluster has one.
    pub fn mem(&self) -> Option<&MemNetwork> {
        match &self.transport {
            Transport::Mem(net) => Some(net),
            Transport::Tcp { .. } => None,
        }
    }

    /// Stops the TCP listeners and seals every master (its syncer exits).
    pub fn shutdown(self) {
        for s in &self.servers {
            s.seal_master();
        }
        if let Transport::Tcp { servers, .. } = self.transport {
            for t in servers {
                t.shutdown();
            }
        }
    }
}
