//! The four workloads and one measured round of each: build the world,
//! fill the store, connect, warm up, run the measured window with the
//! benchmark's own `SimWorld::step()` loop, drain, and read every
//! layer's counters from its public accessors.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_apps::memcached::{
    self, register_shard, serve_sharded, shard_of, ServerConfig, ServerConn, ShardConfig,
    ShardRoot, ShardedServerConn, Store, MEMCACHED_PORT,
};
use ebbrt_apps::spawn_with;
use ebbrt_core::clock::Ns;
use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbId, EbbRef};
use ebbrt_core::iobuf::{stats, Chain, IoBuf};
use ebbrt_core::qos::{self, ClassConfig, QosConfig};
use ebbrt_hosted::global_map::{GlobalIdMap, GlobalIdMapServer};
use ebbrt_hosted::messenger::Messenger;
use ebbrt_hosted::remote::{self, MessengerTransport};
use ebbrt_net::netif::{local_netif, ConnHandler, NetIf, TcpConn};
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, LinkParams, SimMachine, SimWorld, Switch};

use crate::loadgen::{percentile, Churn, Client, Gen, Keyspace, Mode, ValueDist};
use crate::trace::{self, Agg, Hist, Layer, LAYERS};
use crate::{alloc, cpu};

/// Transmitted frames each machine may send per request issued, plus
/// [`LEDGER_CONTROL_FRAMES`]. A request costs its sender one frame and
/// its server one reply; handshakes, ACKs, closes and function
/// shipping stay well inside the multiple. A retransmit or RST storm
/// does not.
pub const LEDGER_FRAMES_PER_REQ: u64 = 8;
/// Frames each machine may send regardless of load: ARP, naming
/// lookups, connection set-up of the pre-opened connections.
pub const LEDGER_CONTROL_FRAMES: u64 = 2_000;

/// The traffic shape of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Each connection keeps `depth` requests in flight.
    Closed { depth: usize },
    /// Poisson arrivals at `rate` requests/s over all connections,
    /// at most `depth` in flight per connection.
    Open { depth: usize, rate: f64 },
    /// Poisson arrivals of one-request users at `rate` connections/s.
    Churn { rate: f64 },
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub client_cores: usize,
    /// Shard machines; 0 runs one plain `memcached::serve` server.
    pub shards: usize,
    /// Pre-opened client connections (none for churn).
    pub conns: usize,
    pub shape: Shape,
    pub nkeys: usize,
    pub key_len: (usize, usize),
    pub values: ValueDist,
    pub get_permille: u32,
    pub warmup_ns: Ns,
    pub window_ns: Ns,
    /// Virtual time after the window for outstanding replies.
    pub drain_ns: Ns,
}

const MS: Ns = 1_000_000;
/// Cores of each serving machine: one, as in the paper's Figure 5.
const SERVER_CORES: usize = 1;

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "get_small_pipelined",
            client_cores: 2,
            shards: 0,
            conns: 64,
            shape: Shape::Closed { depth: 8 },
            nkeys: 4096,
            key_len: (12, 24),
            values: ValueDist::Uniform(1, 64),
            get_permille: 1000,
            warmup_ns: 2 * MS,
            window_ns: 150 * MS,
            drain_ns: 10 * MS,
        },
        Spec {
            name: "etc_open",
            client_cores: 2,
            shards: 0,
            conns: 32,
            shape: Shape::Open {
                depth: 4,
                rate: 90_000.0,
            },
            nkeys: 100_000,
            key_len: (20, 70),
            values: ValueDist::LogUniform(1, 1024),
            get_permille: 900,
            warmup_ns: 5 * MS,
            window_ns: 130 * MS,
            drain_ns: 10 * MS,
        },
        Spec {
            name: "sharded_ship",
            client_cores: 2,
            shards: 3,
            conns: 6,
            shape: Shape::Closed { depth: 1 },
            nkeys: 6_000,
            key_len: (16, 40),
            values: ValueDist::Uniform(16, 512),
            get_permille: 900,
            warmup_ns: 5 * MS,
            window_ns: 120 * MS,
            drain_ns: 20 * MS,
        },
        Spec {
            name: "conn_churn",
            client_cores: 1,
            shards: 0,
            conns: 0,
            shape: Shape::Churn { rate: 80_000.0 },
            nkeys: 4096,
            key_len: (12, 24),
            values: ValueDist::Uniform(1, 64),
            get_permille: 1000,
            warmup_ns: MS,
            window_ns: 375 * MS,
            drain_ns: 10 * MS,
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Declares a record of `u64` fields that crosses the process
/// boundary between a run and its rounds as `name=value` words.
macro_rules! flat_record {
    ($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            fn encode(&self, prefix: &str, out: &mut String) {
                $(out.push_str(&format!(" {prefix}{}={}", stringify!($field), self.$field));)*
            }

            fn set(&mut self, key: &str, value: u64) -> bool {
                match key {
                    $(stringify!($field) => self.$field = value,)*
                    _ => return false,
                }
                true
            }
        }
    };
}

flat_record! {
    /// The modeled (virtual-time) outcome and every count of a round.
    /// The same seed should give the same record, whatever the host or
    /// tracing.
    Modeled {
        attempted,
        failed,
        wrong,
        issued_total,
        stream_hash,
        completed_window,
        window_ns,
        /// Latency samples: measured requests, failures included.
        samples,
        p50_ns,
        p99_ns,
        p999_ns,
        remote_p99_ns,
        lag_p99_ns,
        steps_window,
        /// Window steps that did not advance virtual time.
        still_steps,
        server_busy_ns,
        server_core_ns,
        client_busy_ns,
        client_core_ns,
        /// Serving machines' NIC frames in the window.
        server_rx_frames,
        server_tx_frames,
        /// Frames of every machine in the window (calibration base).
        all_frames,
        rx_bursts,
        burst_frames,
        coalesced,
        nic_queue_hwm,
        retransmits,
        syn_shed,
        conns_live_end,
        iobuf_copied,
        shipped,
        batch_flushes,
        batched_calls,
        retries,
        /// `qos` served / shed of the `default` and `control` classes.
        qos_served_default,
        qos_shed_default,
        qos_served_control,
        qos_shed_control,
        /// Machines that broke the work ledger.
        ledger_breaches,
    }
}

flat_record! {
    /// Host-time figures of a round.
    Host {
        setup_ns,
        window_host_ns,
        /// Peak live heap above the round's starting heap.
        mem_peak_bytes,
        allocs_window,
        alloc_bytes_window,
    }
}

flat_record! {
    /// Host-time figures of a traced window.
    Traced {
        step_p50_ns,
        step_p99_ns,
        step_calls,
        step_total_ns,
        step_self_ns,
        apps_calls,
        apps_total_ns,
        apps_self_ns,
        send_calls,
        send_total_ns,
        send_self_ns,
        connect_calls,
        connect_total_ns,
        connect_self_ns,
        loadgen_calls,
        loadgen_total_ns,
        loadgen_self_ns,
    }
}

impl Traced {
    fn new(aggs: &[Agg; LAYERS.len()], steps: &Hist) -> Traced {
        let a = |l: Layer| aggs[l as usize];
        let (step, apps, send) = (a(Layer::SimStep), a(Layer::AppsServe), a(Layer::NetSend));
        let (connect, loadgen) = (a(Layer::NetConnect), a(Layer::Loadgen));
        Traced {
            step_p50_ns: steps.quantile(0.5),
            step_p99_ns: steps.quantile(0.99),
            step_calls: step.calls,
            step_total_ns: step.total_ns,
            step_self_ns: step.self_ns,
            apps_calls: apps.calls,
            apps_total_ns: apps.total_ns,
            apps_self_ns: apps.self_ns,
            send_calls: send.calls,
            send_total_ns: send.total_ns,
            send_self_ns: send.self_ns,
            connect_calls: connect.calls,
            connect_total_ns: connect.total_ns,
            connect_self_ns: connect.self_ns,
            loadgen_calls: loadgen.calls,
            loadgen_total_ns: loadgen.total_ns,
            loadgen_self_ns: loadgen.self_ns,
        }
    }

    /// One layer's totals.
    pub fn agg(&self, l: Layer) -> Agg {
        let (calls, total_ns, self_ns) = match l {
            Layer::SimStep => (self.step_calls, self.step_total_ns, self.step_self_ns),
            Layer::AppsServe => (self.apps_calls, self.apps_total_ns, self.apps_self_ns),
            Layer::NetSend => (self.send_calls, self.send_total_ns, self.send_self_ns),
            Layer::NetConnect => (
                self.connect_calls,
                self.connect_total_ns,
                self.connect_self_ns,
            ),
            Layer::Loadgen => (
                self.loadgen_calls,
                self.loadgen_total_ns,
                self.loadgen_self_ns,
            ),
        };
        Agg {
            calls,
            total_ns,
            self_ns,
        }
    }
}

/// One round's results.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    pub m: Modeled,
    pub host: Host,
    pub traced: Option<Traced>,
}

impl Round {
    pub fn host_req_per_s(&self) -> f64 {
        self.m.completed_window as f64 / (self.host.window_host_ns as f64 / 1e9)
    }

    /// The round as one line of `m.`, `h.` and `t.` prefixed words.
    pub fn encode(&self) -> String {
        let mut s = String::from("round");
        self.m.encode("m.", &mut s);
        self.host.encode("h.", &mut s);
        if let Some(t) = &self.traced {
            t.encode("t.", &mut s);
        }
        s
    }

    pub fn decode(line: &str) -> Option<Round> {
        let mut words = line.split_whitespace();
        if words.next()? != "round" {
            return None;
        }
        let mut r = Round {
            m: Modeled::default(),
            host: Host::default(),
            traced: None,
        };
        for w in words {
            let (key, value) = w.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let known = match key.split_at(2) {
                ("m.", k) => r.m.set(k, value),
                ("h.", k) => r.host.set(k, value),
                ("t.", k) => r.traced.get_or_insert_with(Traced::default).set(k, value),
                _ => false,
            };
            if !known {
                return None;
            }
        }
        Some(r)
    }
}

/// The traced listener: the same handler `serve` / `serve_sharded`
/// install, with its `on_receive` timed as the `apps` layer.
struct TracedServer<H>(Rc<H>);

impl<H: ConnHandler> ConnHandler for TracedServer<H> {
    fn on_connected(&self, conn: &TcpConn) {
        self.0.on_connected(conn)
    }
    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let _s = trace::span(Layer::AppsServe, 0);
        self.0.on_receive(conn, data)
    }
    fn on_window_open(&self, conn: &TcpConn) {
        self.0.on_window_open(conn)
    }
    fn on_close(&self, conn: &TcpConn) {
        self.0.on_close(conn)
    }
}

/// The built world. Everything that must stay alive for the round.
struct Testbed {
    w: Rc<SimWorld>,
    _sw: Rc<Switch>,
    machines: Vec<Rc<SimMachine>>,
    ifs: Vec<Rc<NetIf>>,
    /// Indices into `machines` / `ifs` of the serving machines.
    servers: Vec<usize>,
    server_ips: Vec<Ipv4Addr>,
    client: usize,
    transports: Vec<Rc<MessengerTransport>>,
    messengers: Vec<Rc<Messenger>>,
    _naming: Option<Rc<GlobalIdMapServer>>,
}

const MASK: Ipv4Addr = Ipv4Addr([255, 255, 255, 0]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 100]);
const NAMING_IP: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);

fn server_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

fn fill(store: &Store, ks: &Keyspace, owned: impl Fn(&[u8]) -> bool) {
    let mut v = Vec::new();
    for (i, key) in ks.keys.iter().enumerate() {
        if owned(key) {
            ks.value(i as u32, 0, &mut v);
            store.insert_raw(key.clone(), IoBuf::copy_from(&v));
        }
    }
}

fn build(spec: &Spec, ks: &Keyspace, traced: bool) -> Testbed {
    let w = SimWorld::new();
    let sw = Switch::new(&w);
    let mut machines = Vec::new();
    let mut ifs = Vec::new();
    let mut attach = |name: String, cores: usize, profile: CostProfile, ip: Ipv4Addr| {
        let mut mac = [0x02, 0, 0, 0, 0, 0];
        mac[5] = machines.len() as u8 + 1;
        let m = SimMachine::create(&w, name, cores, profile, mac);
        sw.attach(m.nic(), LinkParams::default());
        ifs.push(NetIf::attach(&m, ip, MASK));
        machines.push(m);
        machines.len() - 1
    };
    let nservers = spec.shards.max(1);
    let naming =
        (spec.shards > 0).then(|| attach("naming".into(), 1, CostProfile::linux_vm(), NAMING_IP));
    let servers: Vec<usize> = (0..nservers)
        .map(|i| {
            attach(
                format!("server{i}"),
                SERVER_CORES,
                CostProfile::ebbrt_vm(),
                server_ip(i),
            )
        })
        .collect();
    let client = attach(
        "client".into(),
        spec.client_cores,
        CostProfile::ebbrt_vm(),
        CLIENT_IP,
    );
    let server_ips: Vec<Ipv4Addr> = (0..nservers).map(server_ip).collect();
    w.run_to_idle();

    let mut tb = Testbed {
        w,
        _sw: sw,
        machines,
        ifs,
        servers,
        server_ips,
        client,
        transports: Vec::new(),
        messengers: Vec::new(),
        _naming: None,
    };
    match naming {
        None => serve_plain(&tb, ks, traced),
        Some(n) => serve_shards(&mut tb, n, spec.shards, ks, traced),
    }
    tb
}

fn serve_plain(tb: &Testbed, ks: &Keyspace, traced: bool) {
    let server = &tb.machines[tb.servers[0]];
    let store = Store::new(Arc::clone(server.runtime().rcu()));
    fill(&store, ks, |_| true);
    if traced {
        spawn_with(server, CoreId(0), store, |store| {
            local_netif()
                .listen(MEMCACHED_PORT, move |_conn| {
                    let conn = ServerConn::with_config(Arc::clone(&store), ServerConfig::default());
                    Rc::new(TracedServer(Rc::new(conn))) as Rc<dyn ConnHandler>
                })
                .expect("memcached port is free");
        });
    } else {
        let store_ref = store.register(server.runtime());
        server.spawn_on(CoreId(0), move || memcached::serve(store_ref));
    }
    tb.w.run_to_idle();
}

/// The sharded cluster of `dist_memcached::build_with_cores`: a naming
/// machine, `nshards` shard machines each with the QoS tx scheduler
/// (data in `default`, the messenger in `control`), a messenger,
/// naming client and remote transport, and its own shard's keys.
fn serve_shards(tb: &mut Testbed, naming: usize, nshards: usize, ks: &Keyspace, traced: bool) {
    for &s in &tb.servers {
        tb.ifs[s].install_qos(
            QosConfig::new(10_000_000_000).class(
                ClassConfig::new("control")
                    .rt_bps(1_000_000_000)
                    .ls_weight(4),
            ),
        );
    }
    tb._naming = Some(GlobalIdMapServer::start(&Messenger::start(&tb.ifs[naming])));
    let mut maps = Vec::new();
    for &s in &tb.servers {
        let msgr = Messenger::start(&tb.ifs[s]);
        let map = GlobalIdMap::new(&msgr, NAMING_IP);
        tb.transports
            .push(MessengerTransport::install(&msgr, Rc::clone(&map)));
        tb.messengers.push(msgr);
        maps.push(map);
    }
    let ids: Rc<RefCell<Vec<Option<EbbId>>>> = Rc::new(RefCell::new(vec![None; nshards]));
    for (i, &s) in tb.servers.iter().enumerate() {
        let (map, ids) = (Rc::clone(&maps[i]), Rc::clone(&ids));
        spawn_with(&tb.machines[s], CoreId(0), map, move |map| {
            map.allocate(move |id| ids.borrow_mut()[i] = Some(id));
        });
    }
    tb.w.run_to_idle();
    let ids: Vec<EbbId> = ids
        .borrow()
        .iter()
        .map(|id| id.expect("id allocated"))
        .collect();
    let mut stores = Vec::new();
    let mut roots = Vec::new();
    for (i, &s) in tb.servers.iter().enumerate() {
        let m = &tb.machines[s];
        let store = Store::new(Arc::clone(m.runtime().rcu()));
        fill(&store, ks, |k| shard_of(k, nshards) == i);
        let root = ShardRoot::new(Arc::clone(&store));
        register_shard(&root, m.runtime(), ids[i]);
        let hosted = (Rc::clone(&tb.messengers[i]), Rc::clone(&maps[i]));
        let (id, ip) = (ids[i], tb.server_ips[i]);
        spawn_with(m, CoreId(0), hosted, move |(msgr, map)| {
            remote::publish::<memcached::StoreShardEbb>(
                &msgr,
                &map,
                EbbRef::from_id(id),
                ip,
                |ok| assert!(ok, "owner record published"),
            );
        });
        stores.push(store);
        roots.push(root);
    }
    tb.w.run_to_idle();
    let ids = Arc::new(ids);
    for (i, &s) in tb.servers.iter().enumerate() {
        let cfg = ShardConfig::unreplicated(
            Arc::clone(&ids),
            i,
            Arc::clone(&roots[i]),
            ServerConfig::default(),
        );
        let store = Arc::clone(&stores[i]);
        spawn_with(
            &tb.machines[s],
            CoreId(0),
            (cfg, store),
            move |(cfg, store)| {
                if traced {
                    local_netif()
                        .listen(MEMCACHED_PORT, move |_conn| {
                            let conn = ShardedServerConn::new(cfg.clone(), Arc::clone(&store));
                            Rc::new(TracedServer(conn)) as Rc<dyn ConnHandler>
                        })
                        .expect("memcached port is free");
                } else {
                    serve_sharded(cfg, store);
                }
            },
        );
    }
    tb.w.run_to_idle();
}

/// Counter readings at one instant.
#[derive(Clone, Copy, Default)]
struct Counters {
    server_busy: u64,
    client_busy: u64,
    server_rx: u64,
    server_tx: u64,
    all_frames: u64,
    rx_bursts: u64,
    burst_frames: u64,
    coalesced: u64,
    copied: u64,
    shipped: u64,
    batch_flushes: u64,
    batched_calls: u64,
    retries: u64,
    heap: alloc::Reading,
}

impl Testbed {
    fn busy(&self, m: usize) -> u64 {
        let m = &self.machines[m];
        (0..m.runtime().ncores())
            .map(|c| m.cpu_time(CoreId(c as u32)))
            .sum()
    }

    fn read(&self) -> Counters {
        let mut c = Counters {
            client_busy: self.busy(self.client),
            heap: alloc::Reading::now(),
            ..Counters::default()
        };
        for &s in &self.servers {
            let (m, ifc) = (&self.machines[s], &self.ifs[s]);
            c.server_busy += self.busy(s);
            c.server_rx += m.nic().rx_stats().0;
            c.server_tx += m.nic().tx_stats().0;
            c.rx_bursts += ifc.rx_bursts();
            c.burst_frames += ifc.stats.rx_frames.get();
            c.coalesced += ifc.coalesced_callbacks();
        }
        for m in &self.machines {
            c.all_frames += m.nic().rx_stats().0 + m.nic().tx_stats().0;
        }
        // Serving machines only: the client's copies are the load
        // generator staging its requests.
        let servers = self.servers.iter().map(|&s| &**self.machines[s].runtime());
        c.copied = stats::world_snapshot(servers).bytes_copied;
        for t in &self.transports {
            c.shipped += t.shipped.get();
            c.batch_flushes += t.batch_flushes.get();
            c.batched_calls += t.batched_calls.get();
            c.retries += t.retries.get();
        }
        c
    }

    fn cores(&self, m: usize) -> u64 {
        self.machines[m].runtime().ncores() as u64
    }
}

/// Steps the world until `flag` is set. Returns the steps taken and
/// how many of them left virtual time where it was.
fn run_until_flag(w: &Rc<SimWorld>, flag: &Cell<bool>) -> (u64, u64) {
    let (mut steps, mut still) = (0, 0);
    while !flag.get() {
        let before = w.now();
        let _s = trace::span(Layer::SimStep, 0);
        assert!(w.step(), "the world ran dry before its marker");
        steps += 1;
        still += (w.now() == before) as u64;
    }
    (steps, still)
}

fn marker(w: &Rc<SimWorld>, at: Ns) -> Rc<Cell<bool>> {
    let flag = Rc::new(Cell::new(false));
    let f = Rc::clone(&flag);
    w.schedule_at(at, move |_| f.set(true));
    flag
}

/// A world run up to the start of its measured window.
struct SetUp {
    tb: Testbed,
    gen: Rc<Gen>,
    /// The virtual instant the round ends.
    end: Ns,
    we_flag: Rc<Cell<bool>>,
    end_flag: Rc<Cell<bool>>,
    /// Host CPU time the set-up took.
    setup_ns: u64,
}

/// Builds the world of a round of `spec` with `seed`, fills the store,
/// opens the connections and runs the warm-up.
fn set_up(spec: &Spec, seed: u64, traced: bool) -> SetUp {
    let t0 = cpu::thread_ns();
    let ks = Keyspace::new(seed, spec.nkeys, spec.key_len, spec.values);
    let tb = build(spec, &ks, traced);
    let gen = Gen::new(ks, spec.get_permille, spec.shards);
    let client = &tb.machines[tb.client];
    let (depth, mode) = match spec.shape {
        Shape::Closed { depth } => (depth, Mode::Closed),
        Shape::Open { depth, rate } => (
            depth,
            Mode::Open {
                mean_gap_ns: 1e9 * spec.conns as f64 / rate,
            },
        ),
        Shape::Churn { .. } => (1, Mode::Churn),
    };
    let mut clients = Vec::new();
    for i in 0..spec.conns {
        let shard = i % tb.server_ips.len();
        let c = Client::new(&gen, mode, depth, shard, seed ^ (i as u64 + 1) << 40);
        let ip = tb.server_ips[shard];
        spawn_with(
            client,
            CoreId((i % spec.client_cores) as u32),
            Rc::clone(&c),
            move |c| c.connect(ip),
        );
        clients.push(c);
    }
    while gen.connected() < spec.conns {
        assert!(tb.w.step(), "connections never established");
    }

    let ws = tb.w.now() + spec.warmup_ns;
    let we = ws + spec.window_ns;
    let end = we + spec.drain_ns;
    gen.set_window(ws, we);
    match spec.shape {
        Shape::Open { .. } => {
            for (i, c) in clients.iter().enumerate() {
                let core = CoreId((i % spec.client_cores) as u32);
                spawn_with(client, core, Rc::clone(c), move |c| c.start_arrivals(ws));
            }
        }
        Shape::Churn { rate } => {
            let churn = Churn::new(&gen, tb.server_ips[0], rate, seed);
            spawn_with(client, CoreId(0), churn, move |churn| churn.start(ws));
        }
        Shape::Closed { .. } => {}
    }
    drop(clients);
    let (ws_flag, we_flag, end_flag) = (marker(&tb.w, ws), marker(&tb.w, we), marker(&tb.w, end));
    run_until_flag(&tb.w, &ws_flag);
    SetUp {
        tb,
        gen,
        end,
        we_flag,
        end_flag,
        setup_ns: cpu::thread_ns() - t0,
    }
}

/// The host CPU time of one round's set-up alone.
pub fn run_setup(spec: &Spec, seed: u64) -> u64 {
    set_up(spec, seed, false).setup_ns
}

/// Runs one round of `spec` with `seed`; `traced` installs the traced
/// listener and records spans over the measured window.
pub fn run_round(spec: &Spec, seed: u64, traced: bool) -> Round {
    let heap0 = alloc::Reading::now();
    alloc::reset_peak();
    let SetUp {
        tb,
        gen,
        end,
        we_flag,
        end_flag,
        setup_ns,
    } = set_up(spec, seed, traced);

    let c0 = tb.read();
    if traced {
        trace::start();
    }
    let tw = cpu::thread_ns();
    let (steps_window, still_steps) = run_until_flag(&tb.w, &we_flag);
    let window_host_ns = cpu::thread_ns() - tw;
    trace::stop();
    let c1 = tb.read();
    while !end_flag.get() && gen.unresolved() > 0 {
        assert!(tb.w.step(), "the world ran dry before the run's end");
    }
    gen.finish();

    let mut m = Modeled {
        window_ns: spec.window_ns,
        steps_window,
        still_steps,
        server_busy_ns: c1.server_busy - c0.server_busy,
        server_core_ns: spec.window_ns * tb.servers.iter().map(|&s| tb.cores(s)).sum::<u64>(),
        client_busy_ns: c1.client_busy - c0.client_busy,
        client_core_ns: spec.window_ns * tb.cores(tb.client),
        server_rx_frames: c1.server_rx - c0.server_rx,
        server_tx_frames: c1.server_tx - c0.server_tx,
        all_frames: c1.all_frames - c0.all_frames,
        rx_bursts: c1.rx_bursts - c0.rx_bursts,
        burst_frames: c1.burst_frames - c0.burst_frames,
        coalesced: c1.coalesced - c0.coalesced,
        iobuf_copied: c1.copied - c0.copied,
        shipped: c1.shipped - c0.shipped,
        batch_flushes: c1.batch_flushes - c0.batch_flushes,
        batched_calls: c1.batched_calls - c0.batched_calls,
        retries: c1.retries - c0.retries,
        ..Modeled::default()
    };
    {
        let t = gen.tally.borrow();
        m.attempted = t.attempted;
        m.failed = t.failed;
        m.wrong = t.wrong;
        m.issued_total = t.issued_total;
        m.stream_hash = t.stream_hash;
        m.completed_window = t.completed_window;
        // A failed request is charged from its due time to the end of
        // the run: it misses every latency limit the run can test.
        let mut lat = t.lat_ns.clone();
        lat.extend(t.failed_due.iter().map(|&due| end - due));
        lat.sort_unstable();
        m.samples = lat.len() as u64;
        m.p50_ns = percentile(&lat, 50.0);
        m.p99_ns = percentile(&lat, 99.0);
        m.p999_ns = percentile(&lat, 99.9);
        let mut remote = t.remote_lat_ns.clone();
        remote.sort_unstable();
        m.remote_p99_ns = percentile(&remote, 99.0);
        let mut lag = t.lag_ns.clone();
        lag.sort_unstable();
        m.lag_p99_ns = percentile(&lag, 99.0);
    }
    for &s in &tb.servers {
        let mc = &tb.machines[s];
        let hwm = (0..mc.nic().nqueues())
            .map(|q| mc.nic().rx_queue_depth_hwm(q))
            .max()
            .unwrap_or(0);
        m.nic_queue_hwm = m.nic_queue_hwm.max(hwm as u64);
        let snap = qos::snapshot(mc.runtime());
        m.syn_shed += snap.get("net.syn_shed");
        m.qos_served_default += snap.get(&qos::names::served("default"));
        m.qos_shed_default += snap.get(&qos::names::shed("default"));
        m.qos_served_control += snap.get(&qos::names::served("control"));
        m.qos_shed_control += snap.get(&qos::names::shed("control"));
    }
    for (i, mc) in tb.machines.iter().enumerate() {
        m.retransmits += tb.ifs[i].stats.retransmits.get();
        m.conns_live_end += tb.ifs[i].conn_count() as u64;
        let tx = mc.nic().tx_stats().0;
        if tx > LEDGER_FRAMES_PER_REQ * m.issued_total + LEDGER_CONTROL_FRAMES {
            eprintln!(
                "ledger breach: {} sent {tx} frames for {} requests",
                mc.name(),
                m.issued_total
            );
            m.ledger_breaches += 1;
        }
    }
    let traced = traced.then(|| {
        let (aggs, step_hist) = trace::results();
        Traced::new(&aggs, &step_hist)
    });
    let mem_peak_bytes = alloc::Reading::now().peak - heap0.live;
    drop(gen);
    drop(tb);
    Round {
        m,
        host: Host {
            setup_ns,
            window_host_ns,
            mem_peak_bytes,
            allocs_window: c1.heap.allocs - c0.heap.allocs,
            alloc_bytes_window: c1.heap.alloc_bytes - c0.heap.alloc_bytes,
        },
        traced,
    }
}
