//! The load generator: seeded keys and values, the store model every
//! reply is checked against, and the client connection handlers for
//! the closed-loop, open-loop and connection-churn shapes.
//!
//! Every request gets a unique opaque. Replies are matched by opaque
//! (the sharded server may reorder them) and checked: a GET's value
//! bytes must equal the value of a version the store may hold (one in
//! `[acked at send, issued at reply]`; at most one SET per key is in
//! flight), and a SET must be acknowledged. Wrong bytes or a miss on a
//! key the store must hold count as wrong, which fails the run.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ebbrt_apps::memcached::{
    shard_of, Header, MAGIC_REQUEST, MAGIC_RESPONSE, MEMCACHED_PORT, OP_GET, OP_SET, STATUS_OK,
};
use ebbrt_core::clock::Ns;
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::runtime;
use ebbrt_net::netif::{local_netif, ConnHandler, TcpConn};
use ebbrt_net::types::Ipv4Addr;

use crate::trace::{self, Layer};

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed ^ 0x6a09_e667_f3bc_c909))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with mean `mean_ns` (Poisson arrivals).
    pub fn exp_gap(&mut self, mean_ns: f64) -> Ns {
        (-self.unit().ln() * mean_ns) as Ns
    }
}

/// How value lengths are drawn.
#[derive(Clone, Copy, Debug)]
pub enum ValueDist {
    /// Uniform over `lo..=hi` bytes.
    Uniform(u32, u32),
    /// Log-uniform over `lo..=hi` bytes (mutilate's ETC shape).
    LogUniform(u32, u32),
}

/// The seeded key set and the value of every `(key, version)`.
pub struct Keyspace {
    pub keys: Vec<Vec<u8>>,
    seed: u64,
    values: ValueDist,
}

impl Keyspace {
    pub fn new(seed: u64, nkeys: usize, key_len: (usize, usize), values: ValueDist) -> Keyspace {
        let mut rng = Rng::new(seed ^ 0x4b45_5953);
        let keys = (0..nkeys)
            .map(|i| {
                let len = key_len.0 + rng.below((key_len.1 - key_len.0 + 1) as u64) as usize;
                let mut k = format!("k{i:07}:").into_bytes();
                while k.len() < len {
                    k.push(b'a' + rng.below(26) as u8);
                }
                k.truncate(len);
                k
            })
            .collect();
        Keyspace { keys, seed, values }
    }

    /// The length of the value at `(key, ver)` and the generator of
    /// its bytes.
    fn value_len(&self, key: u32, ver: u32) -> (usize, Rng) {
        let mut rng = Rng::new(self.seed ^ mix(((key as u64) << 32) | ver as u64));
        let len = match self.values {
            ValueDist::Uniform(lo, hi) => lo as u64 + rng.below((hi - lo + 1) as u64),
            ValueDist::LogUniform(lo, hi) => {
                let (lo, hi) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
                ((lo + rng.unit() * (hi - lo)).exp() as u64).max(1)
            }
        };
        (len as usize, rng)
    }

    /// The value stored under `key` at version `ver` (0 = the fill).
    pub fn value(&self, key: u32, ver: u32, out: &mut Vec<u8>) {
        let (len, mut rng) = self.value_len(key, ver);
        out.clear();
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
    }
}

/// One generated request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub opaque: u32,
    pub key: u32,
    /// SET: the version written. GET: the lowest version the reply may
    /// carry (the key's acknowledged version when the GET was made).
    pub ver: u32,
    pub set: bool,
    /// When the request was due: its arrival (open loop) or its
    /// creation, which is also its send (closed loop).
    pub due: Ns,
    /// Due inside the measured window.
    pub measured: bool,
    /// Served by function shipping (key owned by another shard).
    pub remote: bool,
    /// Wire length of the request frame.
    pub len: u32,
}

#[derive(Clone, Copy, Default)]
struct KeyState {
    acked: u32,
    issued: u32,
    set_in_flight: bool,
}

/// What the load generator saw in one round.
#[derive(Default)]
pub struct Tally {
    /// Requests created over the whole round (the work ledger's base).
    pub issued_total: u64,
    /// Requests due inside the measured window.
    pub attempted: u64,
    /// Measured requests that failed: error status, wrong bytes, a
    /// refused or never-completed connect, or no reply by the end.
    pub failed: u64,
    /// Replies with wrong value bytes, anywhere in the round.
    pub wrong: u64,
    /// Successful replies that arrived inside the measured window.
    pub completed_window: u64,
    /// Virtual latency of each successful measured request.
    pub lat_ns: Vec<u64>,
    /// Due times of the measured requests that failed.
    pub failed_due: Vec<u64>,
    /// Latency of successful measured function-shipped requests.
    pub remote_lat_ns: Vec<u64>,
    /// Open-loop lateness: arrival callback time minus due time.
    pub lag_ns: Vec<u64>,
    /// Fingerprint of the generated request stream.
    pub stream_hash: u64,
}

/// The load generator's shared state for one round.
pub struct Gen {
    ks: Keyspace,
    model: RefCell<Vec<KeyState>>,
    pub tally: RefCell<Tally>,
    get_permille: u32,
    /// Shards the key space is spread over (0 = one plain server).
    shards: usize,
    window: Cell<(Ns, Ns)>,
    next_opaque: Cell<u32>,
    unresolved: Cell<u64>,
    connected: Cell<usize>,
    value_buf: RefCell<Vec<u8>>,
    /// Every client, so the end of the round can fail what is still
    /// outstanding. Cleared by [`Gen::finish`].
    clients: RefCell<Vec<Rc<Client>>>,
}

fn now() -> Ns {
    runtime::with_current(|rt| rt.now_ns())
}

impl Gen {
    pub fn new(ks: Keyspace, get_permille: u32, shards: usize) -> Rc<Gen> {
        let n = ks.keys.len();
        Rc::new(Gen {
            ks,
            model: RefCell::new(vec![KeyState::default(); n]),
            tally: RefCell::new(Tally::default()),
            get_permille,
            shards,
            window: Cell::new((Ns::MAX, Ns::MAX)),
            next_opaque: Cell::new(1),
            unresolved: Cell::new(0),
            connected: Cell::new(0),
            value_buf: RefCell::new(Vec::new()),
            clients: RefCell::new(Vec::new()),
        })
    }

    /// Sets the measured window `[start, end)` (virtual ns).
    pub fn set_window(&self, start: Ns, end: Ns) {
        self.window.set((start, end));
    }

    fn in_window(&self, t: Ns) -> bool {
        let (s, e) = self.window.get();
        s <= t && t < e
    }

    /// Past the window: closed loops stop issuing, arrivals stop.
    fn issuing(&self, t: Ns) -> bool {
        t < self.window.get().1
    }

    pub fn connected(&self) -> usize {
        self.connected.get()
    }

    pub fn unresolved(&self) -> u64 {
        self.unresolved.get()
    }

    /// Creates the next request, due at `due`, for a client of `shard`.
    fn make(&self, rng: &mut Rng, due: Ns, shard: usize) -> Req {
        let key = rng.below(self.ks.keys.len() as u64) as u32;
        let want_get = rng.below(1000) < self.get_permille as u64;
        let mut model = self.model.borrow_mut();
        let st = &mut model[key as usize];
        let (set, ver) = if want_get || st.set_in_flight {
            (false, st.acked)
        } else {
            st.issued += 1;
            st.set_in_flight = true;
            (true, st.issued)
        };
        let opaque = self.next_opaque.get();
        self.next_opaque.set(opaque.wrapping_add(1));
        let measured = self.in_window(due);
        let remote = self.shards > 0 && shard_of(&self.ks.keys[key as usize], self.shards) != shard;
        let mut t = self.tally.borrow_mut();
        t.issued_total += 1;
        t.stream_hash = mix(t.stream_hash ^ ((key as u64) << 33 | (set as u64) << 32 | ver as u64));
        if measured {
            t.attempted += 1;
        }
        self.unresolved.set(self.unresolved.get() + 1);
        let klen = self.ks.keys[key as usize].len();
        let len = if set {
            Header::SIZE + 8 + klen + self.ks.value_len(key, ver).0
        } else {
            Header::SIZE + klen
        };
        Req {
            opaque,
            key,
            ver,
            set,
            due,
            measured,
            remote,
            len: len as u32,
        }
    }

    /// Appends `req`'s wire frame to `buf`.
    fn encode(&self, req: &Req, buf: &mut Vec<u8>) {
        let key = &self.ks.keys[req.key as usize];
        let mut value = self.value_buf.borrow_mut();
        if req.set {
            self.ks.value(req.key, req.ver, &mut value);
        } else {
            value.clear();
        }
        let extras = if req.set { 8 } else { 0 };
        let h = Header {
            magic: MAGIC_REQUEST,
            opcode: if req.set { OP_SET } else { OP_GET },
            key_len: key.len() as u16,
            extras_len: extras as u8,
            status: 0,
            total_body: (extras + key.len() + value.len()) as u32,
            opaque: req.opaque,
        };
        buf.extend_from_slice(&h.encode());
        buf.resize(buf.len() + extras, 0);
        buf.extend_from_slice(key);
        buf.extend_from_slice(&value);
    }

    /// Checks a reply against the model and books the outcome.
    fn complete(&self, req: &Req, h: &Header, body: &[u8], at: Ns) {
        let ok = if h.magic != MAGIC_RESPONSE || h.opaque != req.opaque {
            self.tally.borrow_mut().wrong += 1;
            false
        } else if req.set {
            let mut model = self.model.borrow_mut();
            let st = &mut model[req.key as usize];
            st.set_in_flight = false;
            if h.status == STATUS_OK {
                st.acked = st.acked.max(req.ver);
            }
            h.status == STATUS_OK
        } else if h.status == STATUS_OK {
            let good = body.len() >= 4 && self.value_matches(req, &body[4..]);
            if !good {
                self.tally.borrow_mut().wrong += 1;
            }
            good
        } else {
            // Every key is filled before the run, so a miss is lost
            // data; any other status is a served failure.
            if h.status == ebbrt_apps::memcached::STATUS_KEY_NOT_FOUND {
                self.tally.borrow_mut().wrong += 1;
            }
            false
        };
        if ok {
            self.succeed(req, at);
        } else {
            self.fail(req);
        }
    }

    fn value_matches(&self, req: &Req, got: &[u8]) -> bool {
        let issued = self.model.borrow()[req.key as usize].issued;
        let mut want = self.value_buf.borrow_mut();
        (req.ver..=issued).any(|v| {
            self.ks.value(req.key, v, &mut want);
            want.as_slice() == got
        })
    }

    fn succeed(&self, req: &Req, at: Ns) {
        self.unresolved.set(self.unresolved.get() - 1);
        let mut t = self.tally.borrow_mut();
        if self.in_window(at) {
            t.completed_window += 1;
        }
        if req.measured {
            t.lat_ns.push(at - req.due);
            if req.remote {
                t.remote_lat_ns.push(at - req.due);
            }
        }
    }

    fn fail(&self, req: &Req) {
        self.unresolved.set(self.unresolved.get() - 1);
        if req.set {
            self.model.borrow_mut()[req.key as usize].set_in_flight = false;
        }
        if req.measured {
            let mut t = self.tally.borrow_mut();
            t.failed += 1;
            t.failed_due.push(req.due);
        }
    }

    /// Fails every request still outstanding and drops the clients.
    pub fn finish(&self) {
        for c in self.clients.take() {
            let reqs: Vec<Req> = c
                .inflight
                .take()
                .into_iter()
                .chain(c.pending.take())
                .collect();
            for r in &reqs {
                self.fail(r);
            }
        }
    }
}

/// The load shape a client follows.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Keeps `depth` requests in flight; each reply issues the next.
    Closed,
    /// Poisson arrivals with the given mean gap, queued behind at most
    /// `depth` in flight.
    Open { mean_gap_ns: f64 },
    /// One connection per user: connect, one GET, read, close.
    Churn,
}

/// One client connection.
pub struct Client {
    gen: Rc<Gen>,
    mode: Mode,
    depth: usize,
    shard: usize,
    rng: RefCell<Rng>,
    conn: RefCell<Option<TcpConn>>,
    pending: RefCell<VecDeque<Req>>,
    inflight: RefCell<VecDeque<Req>>,
    rx: RefCell<Vec<u8>>,
    tx: RefCell<Vec<u8>>,
    next_due: Cell<Ns>,
}

impl Client {
    pub fn new(gen: &Rc<Gen>, mode: Mode, depth: usize, shard: usize, seed: u64) -> Rc<Client> {
        let c = Rc::new(Client {
            gen: Rc::clone(gen),
            mode,
            depth,
            shard,
            rng: RefCell::new(Rng::new(seed)),
            conn: RefCell::new(None),
            pending: RefCell::new(VecDeque::new()),
            inflight: RefCell::new(VecDeque::new()),
            rx: RefCell::new(Vec::new()),
            tx: RefCell::new(Vec::new()),
            next_due: Cell::new(0),
        });
        gen.clients.borrow_mut().push(Rc::clone(&c));
        c
    }

    /// Opens the connection (on the calling core).
    pub fn connect(self: &Rc<Self>, server: Ipv4Addr) {
        let handler = Rc::clone(self) as Rc<dyn ConnHandler>;
        let conn = {
            let _s = trace::span(Layer::NetConnect, 0);
            local_netif().connect(server, MEMCACHED_PORT, handler)
        };
        *self.conn.borrow_mut() = Some(conn);
    }

    fn push_new(&self, due: Ns) {
        let req = self.gen.make(&mut self.rng.borrow_mut(), due, self.shard);
        self.pending.borrow_mut().push_back(req);
    }

    /// Sends queued requests while the pipeline and window allow, as
    /// one batch.
    fn pump(&self, conn: &TcpConn) {
        let mut batch = Vec::new();
        {
            let mut pending = self.pending.borrow_mut();
            let mut inflight = self.inflight.borrow_mut();
            let mut room = conn.send_window();
            while inflight.len() < self.depth {
                let Some(req) = pending.front() else { break };
                let len = req.len as usize;
                if len > room {
                    break;
                }
                room -= len;
                let req = pending.pop_front().expect("front exists");
                inflight.push_back(req);
                batch.push(req);
            }
        }
        if batch.is_empty() {
            return;
        }
        let mut tx = self.tx.borrow_mut();
        tx.clear();
        for r in &batch {
            self.gen.encode(r, &mut tx);
        }
        let mut buf = MutIoBuf::with_capacity(tx.len());
        buf.append_slice(&tx);
        let sent = {
            let _s = trace::span(Layer::NetSend, batch[0].opaque);
            conn.send(Chain::single(buf.freeze()))
        };
        if sent.is_err() {
            // The connection left data transfer: these requests stay
            // unanswered and fail at the end of the round.
            let mut inflight = self.inflight.borrow_mut();
            let keep = inflight.len() - batch.len();
            inflight.truncate(keep);
            let mut pending = self.pending.borrow_mut();
            for r in batch.into_iter().rev() {
                pending.push_front(r);
            }
        }
    }

    /// Starts this client's Poisson arrivals at `start` (open loop).
    pub fn start_arrivals(self: &Rc<Self>, start: Ns) {
        self.next_due.set(start);
        self.schedule_arrival();
    }

    fn schedule_arrival(self: &Rc<Self>) {
        let Mode::Open { mean_gap_ns } = self.mode else {
            unreachable!("arrivals are open-loop only")
        };
        let due = self.next_due.get() + self.rng.borrow_mut().exp_gap(mean_gap_ns);
        if !self.gen.issuing(due) {
            return;
        }
        self.next_due.set(due);
        let me = Rc::clone(self);
        runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(due.saturating_sub(now()).max(1), move || me.arrive(due));
        });
    }

    fn arrive(self: &Rc<Self>, due: Ns) {
        let _s = trace::span(Layer::Loadgen, 0);
        let at = now();
        if self.gen.in_window(due) {
            self.gen.tally.borrow_mut().lag_ns.push(at - due);
        }
        self.push_new(due);
        let conn = self.conn.borrow().clone();
        if let Some(conn) = conn {
            self.pump(&conn);
        }
        self.schedule_arrival();
    }

    fn parse_replies(&self, data: &Chain<IoBuf>, at: Ns) -> usize {
        let mut rx = self.rx.borrow_mut();
        for seg in data.iter() {
            rx.extend_from_slice(ebbrt_core::iobuf::Buf::bytes(seg));
        }
        let mut off = 0;
        let mut replies = 0;
        while rx.len() - off >= Header::SIZE {
            let mut hb = [0u8; Header::SIZE];
            hb.copy_from_slice(&rx[off..off + Header::SIZE]);
            let h = Header::decode(&hb);
            let total = Header::SIZE + h.total_body as usize;
            if rx.len() - off < total {
                break;
            }
            let body = &rx[off + Header::SIZE..off + total];
            let req = {
                let mut inflight = self.inflight.borrow_mut();
                let pos = inflight.iter().position(|r| r.opaque == h.opaque);
                pos.and_then(|p| inflight.remove(p))
            };
            match req {
                Some(req) => self.gen.complete(&req, &h, body, at),
                None => self.gen.tally.borrow_mut().wrong += 1,
            }
            replies += 1;
            off += total;
        }
        rx.drain(..off);
        replies
    }
}

impl ConnHandler for Client {
    fn on_connected(&self, conn: &TcpConn) {
        let _s = trace::span(Layer::Loadgen, 0);
        self.gen.connected.set(self.gen.connected.get() + 1);
        if let Mode::Closed = self.mode {
            let at = now();
            for _ in 0..self.depth {
                self.push_new(at);
            }
        }
        self.pump(conn);
    }

    fn on_receive(&self, conn: &TcpConn, data: Chain<IoBuf>) {
        let _s = trace::span(Layer::Loadgen, 0);
        let at = now();
        let replies = self.parse_replies(&data, at);
        match self.mode {
            Mode::Closed if self.gen.issuing(at) => {
                for _ in 0..replies {
                    self.push_new(at);
                }
            }
            Mode::Churn if self.inflight.borrow().is_empty() => {
                conn.close();
                return;
            }
            _ => {}
        }
        self.pump(conn);
    }

    fn on_window_open(&self, conn: &TcpConn) {
        let _s = trace::span(Layer::Loadgen, 0);
        self.pump(conn);
    }

    fn on_close(&self, _conn: &TcpConn) {
        // Refused or reset: whatever is outstanding can no longer be
        // answered on this connection.
        let reqs: Vec<Req> = self
            .inflight
            .take()
            .into_iter()
            .chain(self.pending.take())
            .collect();
        for r in &reqs {
            self.gen.fail(r);
        }
    }
}

/// Open-loop arrivals of independent users, each on a fresh connection
/// (the `conn_churn` shape), run on one client core.
pub struct Churn {
    gen: Rc<Gen>,
    server: Ipv4Addr,
    rng: RefCell<Rng>,
    mean_gap_ns: f64,
    next_due: Cell<Ns>,
    seed: u64,
}

impl Churn {
    pub fn new(gen: &Rc<Gen>, server: Ipv4Addr, rate_per_s: f64, seed: u64) -> Rc<Churn> {
        Rc::new(Churn {
            gen: Rc::clone(gen),
            server,
            rng: RefCell::new(Rng::new(seed ^ 0xc4)),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due: Cell::new(0),
            seed,
        })
    }

    pub fn start(self: &Rc<Self>, start: Ns) {
        self.next_due.set(start);
        self.schedule();
    }

    fn schedule(self: &Rc<Self>) {
        let due = self.next_due.get() + self.rng.borrow_mut().exp_gap(self.mean_gap_ns);
        if !self.gen.issuing(due) {
            return;
        }
        self.next_due.set(due);
        let me = Rc::clone(self);
        runtime::with_current(|rt| {
            rt.local_event_manager()
                .set_timer(due.saturating_sub(now()).max(1), move || me.arrive(due));
        });
    }

    fn arrive(self: &Rc<Self>, due: Ns) {
        let _s = trace::span(Layer::Loadgen, 0);
        let at = now();
        let user = self.gen.tally.borrow().issued_total;
        if self.gen.in_window(due) {
            self.gen.tally.borrow_mut().lag_ns.push(at - due);
        }
        let c = Client::new(&self.gen, Mode::Churn, 1, 0, self.seed ^ mix(user + 1));
        c.push_new(due);
        c.connect(self.server);
        self.schedule();
    }
}

/// Nearest-rank percentile of sorted `v` (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps float error from pushing an exact rank up one.
    let rank = ((p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_seeded_and_sized() {
        let a = Keyspace::new(1, 100, (20, 70), ValueDist::LogUniform(1, 1024));
        let b = Keyspace::new(1, 100, (20, 70), ValueDist::LogUniform(1, 1024));
        let c = Keyspace::new(2, 100, (20, 70), ValueDist::LogUniform(1, 1024));
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys, c.keys);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        for k in 0..100 {
            assert!((20..=70).contains(&a.keys[k as usize].len()));
            a.value(k, 3, &mut va);
            b.value(k, 3, &mut vb);
            assert_eq!(va, vb);
            assert!((1..=1024).contains(&va.len()));
            b.value(k, 4, &mut vb);
            assert!(va != vb || va.len() <= 1);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(percentile(&[], 99.0), 0);
    }
}
