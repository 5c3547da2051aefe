//! E10 — costs of the reasoning layer: the realizable-pair table build,
//! inverse lookups, network solving and weak composition.

use cardir_bench::bench_case;
use cardir_core::CardinalRelation;
use cardir_reasoning::{inverse, realizable_pairs, weak_compose, Network};
use std::hint::black_box;

fn main() {
    // Force the table once so later benches measure lookups, not builds.
    let _ = realizable_pairs();

    println!("== reasoning ==");
    let r: CardinalRelation = "B:S:SW:W".parse().expect("static");
    bench_case("inverse_lookup", 0, || {
        black_box(inverse(black_box(r)));
    });

    bench_case("network_solve_3vars", 0, || {
        let mut net = Network::new();
        for v in ["a", "b", "c"] {
            net.add_variable(v).expect("fresh");
        }
        net.add_constraint("a", "SW".parse().expect("static"), "b")
            .expect("vars");
        net.add_constraint("b", "SW".parse().expect("static"), "c")
            .expect("vars");
        net.add_constraint("a", "SW".parse().expect("static"), "c")
            .expect("vars");
        black_box(net.solve());
    });

    bench_case("weak_compose/single_tile", 0, || {
        black_box(weak_compose(
            black_box("S".parse().expect("static")),
            black_box("W".parse().expect("static")),
        ));
    });
    bench_case("weak_compose/multi_tile", 0, || {
        black_box(weak_compose(
            black_box("B:S:SW".parse().expect("static")),
            black_box("N:NE".parse().expect("static")),
        ));
    });
}
