//! The paper's Thesis 11 walkthrough: policy-based trust negotiation
//! between customer Franz and the online shop fussbaelle.biz. Both are
//! engine nodes on the simulated Web, with AAA on; their disclosure
//! policies are rule sets that travel between them in `install_rules`
//! messages, reactively (only the policy guarding what was asked for) or
//! eagerly (every policy up front).
//!
//! ```text
//! cargo run --example trust_negotiation
//! ```
//!
//! The programs and the scenario live in `reweb_bench::negotiation`; the
//! trace below is read from each node's store: `state` journals what
//! the node was asked for (`pending`), asked for (`asked`) and presented
//! (`given`); `presented` holds what its peer presented to it.

use reweb_bench::negotiation::{self, Party, EAGER, REACTIVE};

fn main() {
    let (franz, shop) = (Party::franz(), Party::fussbaelle(0));
    for (name, strategy) in [("reactive", REACTIVE), ("eager", EAGER)] {
        println!("== {name} negotiation ==");
        let (sim, out) = negotiation::run(strategy, &franz, &shop, "purchase");
        for p in [&franz, &shop] {
            let node = sim.engine(&p.uri()).expect("an engine node");
            let store = &node.qe.store;
            let read = |r: &str| {
                store
                    .get(&format!("{}/{r}", p.uri()))
                    .expect("seeded")
                    .to_string()
            };
            println!("  {}", p.name);
            println!("    state:     {}", read("state"));
            println!("    presented: {}", read("presented"));
            let (policies, sensitive) = negotiation::received_policies(node);
            println!("    installed {policies} policies from its peer ({sensitive} sensitive)");
        }
        println!(
            "  success={} messages={} policies_sent={} sensitive_leaked={} bytes={}\n",
            out.success, out.messages, out.policies_sent, out.sensitive_leaked, out.bytes
        );
        assert!(out.success);
        assert_eq!(out.sensitive_leaked, 1);
    }
}
