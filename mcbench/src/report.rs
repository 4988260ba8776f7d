//! Rounds and metrics. A run repeats whole rounds (set-up included)
//! for about `--seconds` of wall time, at least
//! [`MIN_ROUNDS`] of them, each on its own request stream
//! ([`round_seed`]). Modeled end-to-end metrics are medians over the
//! first [`MIN_ROUNDS`] rounds, per-layer counts come from the first
//! round, whose stream is the run's seed, and host-time metrics are
//! medians over all rounds. A traced round must model exactly what its
//! untraced twin did; pairs that differ are counted
//! (`sim.rounds_diverged`). A run is correct when no reply carried
//! wrong bytes and no machine broke the work ledger.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use ebbrt_apps::memcached::APP_BASE_NS;
use ebbrt_sim::CostProfile;

use crate::loadgen::mix;
use crate::trace::{self, Layer, LAYERS};
use crate::workloads::{Modeled, Round, Spec};

/// Rounds per untraced run (medians need several set-ups).
pub const MIN_ROUNDS: usize = 3;

/// Set-ups an untraced run times at least. A run with fewer rounds
/// makes up the count with children that only set up.
pub const SETUP_SAMPLES: usize = 9;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_req_per_s", "req/s"),
    ("virt_req_per_s", "req/s"),
    ("virt_p50_us", "us"),
    ("virt_p99_us", "us"),
    ("virt_p999_us", "us"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.steps_per_req", "count"),
    ("sim.still_step_frac", "ratio"),
    ("sim.rounds_diverged", "count"),
    ("sim.step_ns_p50", "ns"),
    ("sim.step_ns_p99", "ns"),
    ("sim.self_ns_per_req", "ns"),
    ("sim.server_busy_frac", "ratio"),
    ("sim.client_busy_frac", "ratio"),
    ("apps.serve_ns_per_call", "ns"),
    ("apps.reqs_per_call", "count"),
    ("net.frames_per_burst", "count"),
    ("net.coalesced_frac", "ratio"),
    ("net.rx_frames_per_req", "count"),
    ("net.tx_frames_per_req", "count"),
    ("net.send_ns", "ns"),
    ("net.nic_queue_hwm", "count"),
    ("net.connect_ns", "ns"),
    ("net.retransmits", "count"),
    ("net.syn_shed", "count"),
    ("net.conns_live_end", "count"),
    ("core.allocs_per_req", "count"),
    ("core.alloc_bytes_per_req", "bytes"),
    ("core.iobuf_copied_bytes_per_req", "bytes"),
    ("hosted.shipped_per_req", "count"),
    ("hosted.calls_per_batch", "count"),
    ("hosted.retries", "count"),
    ("hosted.remote_virt_p99_us", "us"),
    ("qos.served.default", "count"),
    ("qos.shed.default", "count"),
    ("qos.served.control", "count"),
    ("qos.shed.control", "count"),
    ("loadgen.self_ns_per_req", "ns"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("calib.stack_ns_per_frame_pair", "ns"),
    ("calib.app_ns_per_req", "ns"),
];

/// The result line and the exit status it implies.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no rounds");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The modeled end-to-end figures over `rounds` (a fixed set of
/// streams, so they repeat exactly for a seed): medians of each
/// round's figure, and the failed share of all their requests.
fn modeled_e2e(rounds: &[Round]) -> [(&'static str, f64); 5] {
    let med = |f: &dyn Fn(&Modeled) -> f64| median(rounds.iter().map(|r| f(&r.m)).collect());
    let attempted: u64 = rounds.iter().map(|r| r.m.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.m.failed).sum();
    [
        (
            "virt_req_per_s",
            med(&|m| m.completed_window as f64 / (m.window_ns as f64 / 1e9)),
        ),
        ("virt_p50_us", med(&|m| m.p50_ns as f64 / 1e3)),
        ("virt_p99_us", med(&|m| m.p99_ns as f64 / 1e3)),
        ("virt_p999_us", med(&|m| m.p999_ns as f64 / 1e3)),
        ("ok_frac", ratio(attempted - failed, attempted)),
    ]
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
}

/// Runs one round in a fresh process (this executable with
/// `--round`). Worlds built one after another in one process do not
/// always model the same outcome (seen on `sharded_ship`), so no round
/// shares a process with another.
fn round_in_child(spec: &Spec, seed: u64, traced: bool) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--round"])
        .args(["--window-ms", &(spec.window_ns / 1_000_000).to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a round: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("a round exited with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(Round::decode)
        .ok_or_else(|| format!("unreadable round: {stdout}"))
}

/// Times the set-up of a round of `spec` with `seed` in a child
/// process, in host CPU ns.
fn setup_in_child(spec: &Spec, seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .arg("--setup-only")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("a set-up exited with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup "))
        .and_then(|ns| ns.parse().ok())
        .ok_or_else(|| format!("unreadable set-up: {stdout}"))
}

/// The seed of round `i` of a run seeded `seed`: the run's own seed
/// first, then seeds derived from it. Host cost follows the request
/// stream closely (the number of world steps per request differs by
/// several times between streams on `sharded_ship`), so host medians
/// taken over several streams vary less between seeds than one
/// stream's would.
pub fn round_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        mix(seed ^ mix(i as u64))
    }
}

/// Runs `spec` for about `seconds` of wall time and reports either the
/// end-to-end metrics or, with `traced`, the per-layer ones. Once the
/// required rounds are done, a run starts another round only if one as
/// long as its longest so far still ends within `seconds`.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut plain: Vec<Round> = Vec::new();
    let mut with_trace: Vec<Round> = Vec::new();
    loop {
        let enough = if traced {
            plain.len() >= 2 && with_trace.len() >= 2
        } else {
            plain.len() >= MIN_ROUNDS
        };
        if enough && start.elapsed().as_secs_f64() + longest > seconds as f64 {
            break;
        }
        // A traced run pairs each untraced round with a traced one of
        // the same stream.
        let trace_this = traced && with_trace.len() < plain.len();
        let i = if trace_this {
            with_trace.len()
        } else {
            plain.len()
        };
        let began = Instant::now();
        let r = round_in_child(spec, round_seed(seed, i), trace_this)?;
        longest = longest.max(began.elapsed().as_secs_f64());
        if trace_this {
            with_trace.push(r);
        } else {
            plain.push(r);
        }
    }

    let diverged = plain
        .iter()
        .zip(&with_trace)
        .filter(|(p, t)| p.m != t.m)
        .count();
    if diverged > 0 {
        eprintln!(
            "{diverged} of {} traced rounds modeled another outcome than their untraced twin",
            with_trace.len()
        );
    }
    let wrong = plain
        .iter()
        .chain(&with_trace)
        .map(|r| r.m.wrong)
        .sum::<u64>();
    if wrong > 0 {
        eprintln!("{wrong} replies carried wrong value bytes");
    }
    let breaches = plain
        .iter()
        .chain(&with_trace)
        .map(|r| r.m.ledger_breaches)
        .sum::<u64>();
    // The rounds whose modeled figures a run reports: always run, so
    // the same for every run of a seed.
    let modeled = &plain[..if traced { 1 } else { MIN_ROUNDS }];
    let attempted: u64 = modeled.iter().map(|r| r.m.attempted).sum();
    let failed: u64 = modeled.iter().map(|r| r.m.failed).sum();
    let correct = wrong == 0 && breaches == 0 && attempted > 0;
    let mut metrics = Vec::new();
    if traced {
        for (name, value) in per_layer(spec, seed, &plain, &with_trace, diverged) {
            metrics.push((name, value, unit_of(PER_LAYER, name)));
        }
    } else {
        let host = |f: &dyn Fn(&Round) -> f64| median(plain.iter().map(f).collect());
        let mut setups: Vec<f64> = plain.iter().map(|r| r.host.setup_ns as f64).collect();
        for i in plain.len()..SETUP_SAMPLES {
            setups.push(setup_in_child(spec, round_seed(seed, i))? as f64);
        }
        let mut values = vec![("host_req_per_s", host(&Round::host_req_per_s))];
        values.extend(modeled_e2e(modeled));
        values.push(("setup_s", median(setups) / 1e9));
        values.push((
            "mem_peak_mb",
            host(&|r| r.host.mem_peak_bytes as f64 / (1u64 << 20) as f64),
        ));
        for (name, value) in values {
            metrics.push((name, value, unit_of(END_TO_END, name)));
        }
        let samples: Vec<u64> = modeled.iter().map(|r| r.m.samples).collect();
        let rates: Vec<u64> = plain.iter().map(|r| r.host_req_per_s() as u64).collect();
        eprintln!(
            "{}: {} rounds; host req/s per round {rates:?}; latency samples per modeled round (failures included) {samples:?}; {failed} of {attempted} failed",
            spec.name,
            plain.len(),
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer metrics: host times are medians over the traced rounds;
/// counts come from the first untraced round.
fn per_layer(
    spec: &Spec,
    seed: u64,
    plain: &[Round],
    with_trace: &[Round],
    diverged: usize,
) -> Vec<(&'static str, f64)> {
    let r0 = &plain[0];
    let m = &r0.m;
    let per_req = |v: u64| ratio(v, m.completed_window);
    let traced = |r: &Round| r.traced.clone().expect("traced round");
    let agg = |r: &Round, l: Layer| traced(r).agg(l);
    // Host times: the median over traced rounds of each round's figure
    // (each round has its own stream, so its own request count).
    let med = |f: &dyn Fn(&Round) -> f64| median(with_trace.iter().map(f).collect());
    let per_own_req = |r: &Round, v: u64| ratio(v, r.m.completed_window);
    let per_call = |l: Layer| {
        med(&|r| {
            let a = agg(r, l);
            ratio(a.total_ns, a.calls)
        })
    };
    let host_plain = median(plain.iter().map(Round::host_req_per_s).collect());
    let host_traced = median(with_trace.iter().map(Round::host_req_per_s).collect());
    let serve_calls = agg(&with_trace[0], Layer::AppsServe).calls;

    let out = vec![
        ("sim.steps_per_req", per_req(m.steps_window)),
        ("sim.still_step_frac", ratio(m.still_steps, m.steps_window)),
        ("sim.rounds_diverged", diverged as f64),
        ("sim.step_ns_p50", med(&|r| traced(r).step_p50_ns as f64)),
        ("sim.step_ns_p99", med(&|r| traced(r).step_p99_ns as f64)),
        (
            "sim.self_ns_per_req",
            med(&|r| per_own_req(r, agg(r, Layer::SimStep).self_ns)),
        ),
        (
            "sim.server_busy_frac",
            ratio(m.server_busy_ns, m.server_core_ns),
        ),
        (
            "sim.client_busy_frac",
            ratio(m.client_busy_ns, m.client_core_ns),
        ),
        ("apps.serve_ns_per_call", per_call(Layer::AppsServe)),
        ("apps.reqs_per_call", ratio(m.completed_window, serve_calls)),
        ("net.frames_per_burst", ratio(m.burst_frames, m.rx_bursts)),
        ("net.coalesced_frac", ratio(m.coalesced, serve_calls)),
        ("net.rx_frames_per_req", per_req(m.server_rx_frames)),
        ("net.tx_frames_per_req", per_req(m.server_tx_frames)),
        ("net.send_ns", per_call(Layer::NetSend)),
        ("net.nic_queue_hwm", m.nic_queue_hwm as f64),
        ("net.connect_ns", per_call(Layer::NetConnect)),
        ("net.retransmits", m.retransmits as f64),
        ("net.syn_shed", m.syn_shed as f64),
        ("net.conns_live_end", m.conns_live_end as f64),
        ("core.allocs_per_req", per_req(r0.host.allocs_window)),
        (
            "core.alloc_bytes_per_req",
            per_req(r0.host.alloc_bytes_window),
        ),
        ("core.iobuf_copied_bytes_per_req", per_req(m.iobuf_copied)),
        ("hosted.shipped_per_req", per_req(m.shipped)),
        (
            "hosted.calls_per_batch",
            ratio(m.batched_calls, m.batch_flushes),
        ),
        ("hosted.retries", m.retries as f64),
        ("hosted.remote_virt_p99_us", m.remote_p99_ns as f64 / 1e3),
        ("qos.served.default", m.qos_served_default as f64),
        ("qos.shed.default", m.qos_shed_default as f64),
        ("qos.served.control", m.qos_served_control as f64),
        ("qos.shed.control", m.qos_shed_control as f64),
        (
            "loadgen.self_ns_per_req",
            med(&|r| per_own_req(r, agg(r, Layer::Loadgen).self_ns)),
        ),
        ("loadgen.lag_p99_us", m.lag_p99_ns as f64 / 1e3),
        ("loadgen.fail_frac", ratio(m.failed, m.attempted)),
        ("trace.overhead_frac", 1.0 - host_traced / host_plain),
        (
            "calib.stack_ns_per_frame_pair",
            med(&|r| ratio(2 * agg(r, Layer::SimStep).self_ns, r.m.all_frames)),
        ),
        (
            "calib.app_ns_per_req",
            med(&|r| per_own_req(r, agg(r, Layer::AppsServe).total_ns)),
        ),
    ];
    let text = layer_table(spec, seed, &out, with_trace);
    eprint!("{text}");
    if let Err(e) = write_outputs(spec, &text) {
        eprintln!("could not write trace outputs: {e}");
    }
    out
}

/// The per-layer split of host time per request, and the calibration
/// report (measured host ns beside the cost-model constants for the
/// same work; report-only).
fn layer_table(
    spec: &Spec,
    seed: u64,
    metrics: &[(&'static str, f64)],
    with_trace: &[Round],
) -> String {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|(k, _)| *k == n)
            .map(|(_, v)| *v)
            .expect("metric computed")
    };
    // The last traced round: the one whose spans the run leaves behind.
    let r = with_trace.last().expect("a traced round");
    let traced = r.traced.as_ref().expect("traced");
    let reqs = r.m.completed_window.max(1) as f64;
    let steps = traced.agg(Layer::SimStep).total_ns as f64;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "# {} seed {}: host time per request by layer (last traced round)",
        spec.name, seed
    );
    let _ = writeln!(
        t,
        "{:<14} {:>10} {:>14} {:>14} {:>8}",
        "layer", "calls", "self ns/req", "total ns/req", "share"
    );
    for l in LAYERS {
        let a = traced.agg(l);
        let _ = writeln!(
            t,
            "{:<14} {:>10} {:>14.1} {:>14.1} {:>7.1}%",
            l.name(),
            a.calls,
            a.self_ns as f64 / reqs,
            a.total_ns as f64 / reqs,
            100.0 * a.self_ns as f64 / steps.max(1.0)
        );
    }
    let _ = writeln!(t, "trace.overhead_frac {:.4}", get("trace.overhead_frac"));
    let _ = writeln!(
        t,
        "# calibration (report-only): measured host ns vs cost-model constants"
    );
    let profile = CostProfile::ebbrt_vm();
    let _ = writeln!(
        t,
        "stack per rx+tx frame pair: measured sim.self {:.1} ns, model rx_stack_ns+tx_stack_ns {} ns",
        get("calib.stack_ns_per_frame_pair"),
        profile.rx_stack_ns + profile.tx_stack_ns
    );
    let _ = writeln!(
        t,
        "app per request: measured apps.serve {:.1} ns, model APP_BASE_NS {APP_BASE_NS} ns",
        get("calib.app_ns_per_req"),
    );
    t
}

/// Where traced runs leave their spans and per-layer tables.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Writes the per-layer table under the benchmark's `out/` directory.
fn write_outputs(spec: &Spec, table: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{}.layers.txt", spec.name)), table)?;
    Ok(())
}

/// Writes the traced window's spans under the benchmark's `out/`
/// directory (each traced round overwrites the previous one's).
pub fn write_spans(spec: &Spec) -> std::io::Result<()> {
    let dir = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.spans.tsv", spec.name));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_spans(&mut f)?;
    std::io::Write::flush(&mut f)
}
