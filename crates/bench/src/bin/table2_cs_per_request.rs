//! **Table II** — context switches per request by architectural design,
//! measured at workload concurrency 1.
//!
//! Paper: sTomcat-Async 4, sTomcat-Async-Fix 2, sTomcat-Sync 0,
//! SingleT-Async 0. The counts must *emerge* from thread handoffs in the
//! scheduler model, not be scripted.

use asyncinv::{fmt_f64, Table};
use asyncinv_bench::{banner, fidelity_from_args};

fn main() {
    banner(
        "Table II: context switches per request by design",
        "4 (reactor dispatches read+write separately) / 2 (merged) / 0 / 0",
    );
    let rows = asyncinv::figures::table2_cs_per_request(fidelity_from_args());
    let mut t = Table::new(vec![
        "server".into(),
        "cs/req (measured)".into(),
        "paper".into(),
    ]);
    t.numeric();
    let paper = ["4", "2", "0", "0"];
    for (r, p) in rows.iter().zip(paper) {
        t.row(vec![r.server.clone(), fmt_f64(r.cs_per_req, 3), p.into()]);
    }
    asyncinv_bench::print_and_export("table2_cs_per_request", &t);
    asyncinv_bench::export_observability_micro(
        "table2_cs_per_request",
        1,
        100,
        asyncinv::ServerKind::AsyncPool,
    );
}
