//! Shard brownout containment from a checked-in fleet scenario.
//!
//! Loads `scenarios/shard_brownout.json` — four NettyServer shards behind
//! a round-robin balancer, shard 0 running 50× slow for 800 ms of a 1 s
//! measurement window — and runs it under three resilience policies on the
//! *identical* workload and fault schedule:
//!
//! * **baseline** — the same fleet with the fault schedule cleared; the
//!   goodput ceiling everything else is compared to.
//! * **budget 0.1 + hedge** — after an online p90 response-time delay each
//!   outstanding request is duplicated to a second shard and the loser is
//!   cancelled; client retries are capped at 10% of completions. Requests
//!   routed to the browned-out shard complete on their hedge a few
//!   milliseconds late, and the fleet loses *less than the 1/N capacity
//!   the brownout removed* — the incident is contained to the shard.
//! * **unbudgeted retries** — no hedging; a request stuck on shard 0
//!   discovers the brownout only at its 25 ms timeout, then retries to a
//!   different shard, possibly landing back on the dead one next cycle.
//!   Every virtual user periodically stalls for a full timeout, so the
//!   brownout propagates fleet-wide: goodput loss blows past 1/N.
//!
//! The budgeted run is traced and reconciled bitwise against its summary
//! (including the per-shard route/hedge/cancel/retry counters) via
//! [`asyncinv::fleet::fleet_audit`].
//!
//! The scenario file is owned by the `fleet` bench binary, which writes
//! it (`--write-scenario`) and checks it for drift (`--scenario`).
//!
//! ```sh
//! cargo run --release --example fleet_brownout
//! ```

use asyncinv::fleet::{fleet_audit, Cluster, FleetScenario, FleetSummary};
use asyncinv::prelude::*;

const SCENARIO: &str = "scenarios/shard_brownout.json";

fn main() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SCENARIO);
    let body =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let sc: FleetScenario = serde_json::from_str(&body).expect("parse scenario");
    sc.validate().expect("valid scenario");

    let kind = ServerKind::NettyLike;
    let n = sc.shards;
    println!(
        "scenario {}: {} shards behind {}, shard {} browns out {}x over [{}, {})\n",
        path.display(),
        n,
        sc.balancer.name(),
        sc.brownout.shard,
        sc.brownout.factor,
        sc.brownout.at,
        sc.brownout.at + sc.brownout.duration,
    );

    let mut base_cfg = sc.fleet_config(0.1, true);
    base_cfg.shard_faults.clear();
    let baseline = Cluster::new(base_cfg).run(kind);

    let mut budget_cfg = sc.fleet_config(0.1, true);
    budget_cfg.cell.trace_capacity = 1 << 15;
    let (budgeted, rec) = Cluster::new(budget_cfg).run_traced(kind);
    let report = fleet_audit(&budgeted, &rec);
    assert!(report.pass(), "fleet trace audit failed:\n{report}");

    let storm = Cluster::new(sc.fleet_config(0.0, false)).run(kind);

    let loss = |s: &FleetSummary| 1.0 - s.fleet.throughput / baseline.fleet.throughput;
    let mut t = Table::new(vec![
        "policy".into(),
        "goodput[req/s]".into(),
        "loss".into(),
        "p99[ms]".into(),
        "hedges".into(),
        "retries".into(),
        "timeouts".into(),
    ]);
    t.numeric();
    for (name, s) in [
        ("baseline (no fault)", &baseline),
        ("budget 0.1 + hedge", &budgeted),
        ("unbudgeted retries", &storm),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.0}", s.fleet.throughput),
            format!("{:.3}", loss(s)),
            format!("{:.2}", s.fleet.p99_rt_us as f64 / 1e3),
            s.fleet.hedges.to_string(),
            s.fleet.retries.to_string(),
            s.fleet.timeouts.to_string(),
        ]);
    }
    println!("{t}");

    let mut st = Table::new(vec![
        "shard".into(),
        "routes".into(),
        "completions".into(),
        "hedges".into(),
        "cancels won elsewhere".into(),
    ]);
    st.numeric();
    for s in &budgeted.per_shard {
        st.row(vec![
            s.shard.to_string(),
            s.routes.to_string(),
            s.completions.to_string(),
            s.hedges.to_string(),
            s.hedge_cancels.to_string(),
        ]);
    }
    println!("per-shard traffic under budget 0.1 + hedge:\n{st}");

    let contained = loss(&budgeted) < 1.0 / n as f64;
    let spreads = loss(&storm) > 1.0 / n as f64;
    println!(
        "budget 0.1 + hedge: loss {:.3} {} 1/{} — shard 0 keeps routing 1/{}\n\
         of the traffic (round-robin is oblivious), but nearly all of it\n\
         completes on a hedge at a healthy shard: see the cancel column —\n\
         shard 0's serving loses the race ~{} times.\n\
         unbudgeted retries: loss {:.3} {} 1/{} — with no hedge, every\n\
         shard-0 route burns the full client timeout before retrying, so\n\
         the per-user request cycle stretches fleet-wide.",
        loss(&budgeted),
        if contained { "<" } else { ">=" },
        n,
        n,
        budgeted.per_shard[0].hedge_cancels,
        loss(&storm),
        if spreads { ">" } else { "<=" },
        n,
    );
    assert!(contained, "budgeted+hedged loss should stay under 1/N");
    assert!(spreads, "unbudgeted loss should exceed 1/N");
}
