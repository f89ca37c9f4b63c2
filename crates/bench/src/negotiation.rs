//! Thesis 11's trust negotiation, run on the engine: two
//! [`ReactiveEngine`] nodes on the simulated Web exchange their
//! disclosure policies as rule sets (`install_rules[ruleset{…}]`, gated
//! by AAA's `InstallRules` permission) until one side's credential
//! reaches the other. Experiment E11 reads its columns from such a run.
//!
//! The paper's walkthrough: customer Franz and the shop fussbaelle.biz do
//! not trust each other. The shop sells only against a credit card; Franz
//! shows his card only to shops that prove membership of the Better
//! Business Bureau, and that policy is itself sensitive. Each party is a
//! node running the same rule program; the strategies differ only in the text
//! spliced into it ([`REACTIVE`], [`EAGER`]).
//!
//! A policy for credential X is a rule set named X, nested in the party's
//! `policies` set. It holds one rule per credential X requires, named
//! after it and fired when the peer presents it. A nested empty
//! `RULESET sensitive` marks a policy whose very text is private.

use reweb_core::aaa::Aaa;
use reweb_core::meta::ruleset_to_term;
use reweb_core::{parse_program, AaaConfig, Credentials, Permission, ReactiveEngine, RuleSet};
use reweb_term::{parse_term, Dur, Term, Timestamp};
use reweb_websim::Simulation;

/// One party's side of the negotiation. `$SELF` and `$PEER` stand for
/// the two nodes' URIs, `$STRATEGY` for [`REACTIVE`] or [`EAGER`], and
/// `$POLICIES` for the party's policy rule sets. Its own store holds:
/// `$SELF/credentials` (`credential{name[…], doc[…]}` per credential it
/// can present), `$SELF/policies` (its `policies` set as data),
/// `$SELF/presented` (what the peer presented to it) and `$SELF/state`
/// (`pending[X]` asked of it, `asked[R]` it asked for, `given[X]` it
/// presented, `opened` once its policies went out up front).
const NEGOTIATION: &str = r#"
RULESET negotiation
  RULE receive ON present{{name[[var N]]}}
    DO PERSIST presented[var N] IN "$SELF/presented"
  END

  # Refuse what it does not hold; while X's policy has unmet
  # requirements, disclose the policy once and ask for each of them once;
  # otherwise present X.
  RULE ask ON request{{item[[var X]]}}
    IF not in "$SELF/credentials" credential{{name[[var X]]}}
    THEN SEND refuse{item[var X]} TO "$PEER"
    ELSEIF in "$SELF/policies" ruleset{{name[[var X]], rule{{name[[var R]]}}}}
      and not in "$SELF/presented" presented[[var R]]
    THEN SEQ
      IF not in "$SELF/state" pending[[var X]]
      THEN SEQ PERSIST pending[var X] IN "$SELF/state"; CALL disclose(var X); END
      END;
      IF not in "$SELF/state" asked[[var R]]
      THEN SEQ PERSIST asked[var R] IN "$SELF/state";
               SEND request{item[var R]} TO "$PEER"; END
      END;
    END
    ELSE CALL grant(var X)
  END

  # The requester's owner wants an item.
  RULE buy ON buy{{item[[var X]]}}
    DO SEQ CALL open(); SEND request{item[var X]} TO "$PEER"; END
  END

  # Called by a policy's rules: present a pending X once every credential
  # its policy requires has been presented.
  PROCEDURE unlock(X) DO
    IF in "$SELF/state" pending[[var X]]
    THEN IF in "$SELF/policies" ruleset{{name[[var X]], rule{{name[[var R]]}}}}
           and not in "$SELF/presented" presented[[var R]]
         THEN NOOP
         ELSE CALL grant(var X)
         END
    END
  END

  PROCEDURE grant(X) DO
    IF not in "$SELF/state" given[[var X]]
      and in "$SELF/credentials" credential{{name[[var X]], doc[[var D]]}}
    THEN SEQ PERSIST given[var X] IN "$SELF/state";
             SEND present{name[var X], doc[var D]} TO "$PEER"; END
    END
  END

  $STRATEGY

  RULESET policies
    $POLICIES
  END
END
"#;

/// Reactive disclosure: a policy travels only when the credential it
/// guards is asked for.
pub const REACTIVE: &str = r#"
  PROCEDURE open() DO NOOP END
  PROCEDURE disclose(X) DO
    IF in "$SELF/policies" var P as ruleset{{name[[var X]]}}
    THEN SEND install_rules[var P] TO "$PEER"
    END
  END
"#;

/// Eager disclosure: each side sends all of its policies in one message
/// before its first request.
pub const EAGER: &str = r#"
  PROCEDURE open() DO
    IF not in "$SELF/state" opened
      and in "$SELF/policies" var P as ruleset{{name[["policies"]]}}
    THEN SEQ PERSIST opened IN "$SELF/state";
             SEND install_rules[var P] TO "$PEER"; END
    END
  END
  PROCEDURE disclose(X) DO NOOP END
  RULE answer ON install_rules{{}} DO CALL open() END
"#;

/// Franz's credit card, guarded by a sensitive policy.
const FRANZ_CREDENTIALS: &str = r#"credentials[
  credential{name["credit_card"], doc[card{kind["credit_card"], number["4111-XXXX"]}]}
]"#;
const FRANZ_POLICIES: &str = r#"
    RULESET credit_card
      RULESET sensitive END
      RULE bbb_membership ON present{{name[["bbb_membership"]]}}
        DO CALL unlock("credit_card")
      END
    END
"#;

/// The shop's sale needs a credit card; its membership certificate goes
/// to anyone who asks.
const SHOP_CREDENTIALS: &str = r#"credentials[
  credential{name["purchase"], doc[confirmation{item["10 soccer balls"]}]},
  credential{name["bbb_membership"],
             doc[certificate{issuer["Better Business Bureau of Internet"]}]}
]"#;
const SHOP_POLICIES: &str = r#"
    RULESET purchase
      RULE credit_card ON present{{name[["credit_card"]]}}
        DO CALL unlock("purchase")
      END
    END
    RULESET bbb_membership END
"#;

/// Virtual time by which every negotiation here has gone quiet (each
/// message takes 10 ms).
pub const QUIET_BY: Timestamp = Timestamp(60_000);

/// A negotiating party: its node name, its credentials document (term
/// text) and its policy rule sets (rule text).
#[derive(Clone, Debug)]
pub struct Party {
    /// Node name; the node's URI is `http://{name}`, its AAA principal
    /// `name`.
    pub name: String,
    /// The `credentials[…]` document in its store.
    pub credentials: String,
    /// Its policy rule sets.
    pub policies: String,
}

impl Party {
    /// A party named `name`.
    pub fn new(name: &str, credentials: &str, policies: &str) -> Party {
        Party {
            name: name.into(),
            credentials: credentials.into(),
            policies: policies.into(),
        }
    }

    /// The paper's customer.
    pub fn franz() -> Party {
        Party::new("franz", FRANZ_CREDENTIALS, FRANZ_POLICIES)
    }

    /// The paper's shop, with `extra` unrelated policies (every other one
    /// sensitive) that guard credentials it does not hold.
    pub fn fussbaelle(extra: usize) -> Party {
        let mut shop = Party::new("fussbaelle.biz", SHOP_CREDENTIALS, SHOP_POLICIES);
        for i in 0..extra {
            let marker = if i % 2 == 0 {
                "RULESET sensitive END"
            } else {
                ""
            };
            shop.policies += &format!(
                "RULESET unrelated_{i} {marker} RULE something ON present{{{{name[[\"something\"]]}}}} \
                 DO CALL unlock(\"unrelated_{i}\") END END\n"
            );
        }
        shop
    }

    /// The party's node URI.
    pub fn uri(&self) -> String {
        format!("http://{}", self.name)
    }

    fn aaa_credentials(&self) -> Credentials {
        Credentials {
            principal: self.name.clone(),
            secret: format!("{}-secret", self.name),
        }
    }

    /// The party's whole program when negotiating with `peer` under
    /// `strategy` ([`REACTIVE`] or [`EAGER`]).
    pub fn program(&self, strategy: &str, peer: &Party) -> String {
        NEGOTIATION
            .replace("$STRATEGY", strategy)
            .replace("$POLICIES", &self.policies)
            .replace("$SELF", &self.uri())
            .replace("$PEER", &peer.uri())
    }

    /// How many policies the party holds.
    pub(crate) fn policy_count(&self) -> usize {
        let set = parse_program(&format!("RULESET policies {} END", self.policies))
            .expect("policy rule text parses");
        policies_in(&set).0
    }

    /// The party's node: AAA on, the peer registered and allowed to send
    /// the negotiation's messages and install rules, the store seeded.
    fn node(&self, strategy: &str, peer: &Party) -> ReactiveEngine {
        let uri = self.uri();
        let mut e = ReactiveEngine::new(&uri);
        e.aaa = Aaa::new(AaaConfig {
            require_auth: true,
            authorize: true,
            ..AaaConfig::default()
        });
        let Credentials { principal, secret } = peer.aaa_credentials();
        e.aaa.register(principal, &secret, vec!["peer".into()]);
        for label in ["request", "present", "refuse", "install_rules"] {
            e.aaa
                .acl
                .grant("peer", Permission::ReceiveEvent(label.into()));
        }
        e.aaa.acl.grant("peer", Permission::InstallRules);
        let program = parse_program(&self.program(strategy, peer)).expect("party program parses");
        let policies = program
            .children
            .iter()
            .find(|s| s.name == "policies")
            .expect("the program nests its policies");
        let store = &mut e.qe.store;
        store.put(
            format!("{uri}/credentials"),
            parse_term(&self.credentials).expect("credentials parse"),
        );
        store.put(format!("{uri}/policies"), ruleset_to_term(policies));
        for r in ["presented", "state"] {
            store.put(format!("{uri}/{r}"), Term::elem("persisted"));
        }
        e.install(&program).expect("party program installs");
        e
    }
}

/// What a negotiation run measured, read off the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Did the requested credential reach the requester?
    pub success: bool,
    /// Messages delivered ([`reweb_websim::NetMetrics::messages`]).
    pub messages: u64,
    /// Wire bytes delivered ([`reweb_websim::NetMetrics::bytes`]).
    pub bytes: u64,
    /// Policies the two engines installed from each other.
    pub policies_sent: usize,
    /// How many of those were marked sensitive.
    pub sensitive_leaked: usize,
}

/// Run one negotiation to quiescence: `requester`'s owner asks its node
/// for `item`, which `responder` holds. Returns the simulation (both
/// nodes, their stores and traffic) and what it measured.
pub fn run(
    strategy: &str,
    requester: &Party,
    responder: &Party,
    item: &str,
) -> (Simulation, Outcome) {
    let mut sim = Simulation::new(11);
    sim.set_latency(Dur::millis(10), 0);
    for p in [requester, responder] {
        sim.set_outgoing_credentials(p.uri(), p.aaa_credentials());
    }
    let mut first = requester.node(strategy, responder);
    let want = parse_term(&format!("buy{{item[{item:?}]}}")).expect("item is a plain name");
    let opening = first.raise_local(want, Timestamp::ZERO);
    sim.add_engine(requester.uri(), first);
    sim.add_engine(responder.uri(), responder.node(strategy, requester));
    for m in opening {
        sim.post(&requester.uri(), &m.to, m.payload, Timestamp::ZERO);
    }
    sim.run_until(QUIET_BY);

    let engine = |p: &Party| sim.engine(&p.uri()).expect("parties are engine nodes");
    let (sent, leaked) = add(
        received_policies(engine(requester)),
        received_policies(engine(responder)),
    );
    let got = engine(requester)
        .qe
        .store
        .get(&format!("{}/presented", requester.uri()))
        .expect("presented is seeded");
    let outcome = Outcome {
        success: got.children().iter().any(|c| c.text_content() == item),
        messages: sim.metrics.messages,
        bytes: sim.metrics.bytes,
        policies_sent: sent,
        sensitive_leaked: leaked,
    };
    (sim, outcome)
}

/// Policies an engine installed from its peer: every rule set in its
/// rule base besides its own `negotiation` program.
pub fn received_policies(e: &ReactiveEngine) -> (usize, usize) {
    let all = parse_program(&e.program_source()).expect("an engine reprints parseably");
    let items = if all.name == "program" {
        all.children
    } else {
        vec![all]
    };
    items
        .iter()
        .filter(|s| s.name != "negotiation")
        .map(policies_in)
        .fold((0, 0), add)
}

/// Policies (and sensitive ones) in `set`: the set itself, or the sets
/// inside a `policies` bundle.
fn policies_in(set: &RuleSet) -> (usize, usize) {
    match set.name.as_str() {
        "policies" => set.children.iter().map(policies_in).fold((0, 0), add),
        _ => (
            1,
            set.children.iter().any(|c| c.name == "sensitive") as usize,
        ),
    }
}

fn add((a, b): (usize, usize), (c, d): (usize, usize)) -> (usize, usize) {
    (a + c, b + d)
}
