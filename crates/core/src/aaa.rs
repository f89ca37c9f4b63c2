//! Authentication, authorization, accounting (Thesis 12).
//!
//! > "Reactivity in the Web's open and uncontrolled world requires
//! > language support for authentication, authorization, and accounting."
//!
//! These are *non-functional* requirements, so the engine provides them as
//! configuration rather than as rule code:
//!
//! * **Authentication** — principals registered with a salted credential
//!   hash (FNV-based; simulation-grade by design — the thesis asks for
//!   *language support*, not cryptography, and no crypto crates are in the
//!   dependency budget).
//! * **Authorization** — an ACL granting permissions (receive events by
//!   label, query/update resources, install rules) to principals or roles.
//! * **Accounting** — the dynamic one: every service request is recorded,
//!   counted per principal, and (optionally) re-raised as an
//!   `accounting{…}` event into the *same* engine — the thesis's "double
//!   reactivity". Accounting events are themselves exempt from accounting,
//!   which is why no meta-programming is needed (the axes stay orthogonal,
//!   as the thesis observes).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use reweb_term::{fnv1a, Term, Timestamp};

/// Credentials presented in a message envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// The principal claiming to send the message.
    pub principal: String,
    /// The shared secret proving it.
    pub secret: String,
}

/// Transport-level metadata accompanying a received payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageMeta {
    /// Sender URI (`"local"` for internally raised events).
    pub from: String,
    /// Credentials presented by the sender, if any.
    pub credentials: Option<Credentials>,
}

impl MessageMeta {
    /// Metadata for an internally raised event (`from = "local"`).
    pub fn local() -> MessageMeta {
        MessageMeta {
            from: "local".into(),
            ..MessageMeta::default()
        }
    }

    /// Metadata for a message from `uri`, without credentials.
    pub fn from_uri(uri: impl Into<String>) -> MessageMeta {
        MessageMeta {
            from: uri.into(),
            ..MessageMeta::default()
        }
    }

    /// Attach credentials to this metadata.
    pub fn with_credentials(
        mut self,
        principal: impl Into<String>,
        secret: impl Into<String>,
    ) -> Self {
        self.credentials = Some(Credentials {
            principal: principal.into(),
            secret: secret.into(),
        });
        self
    }
}

/// A registered principal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Principal {
    /// The principal's name.
    pub name: String,
    salted_hash: u64,
    /// Roles the principal holds (ACL grants may name roles).
    pub roles: Vec<String>,
}

fn salted(principal: &str, secret: &str) -> u64 {
    fnv1a(format!("reweb-salt:{principal}:{secret}").as_bytes())
}

/// A grantable permission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Permission {
    /// Receive (and thus trigger rules with) events of this payload label;
    /// `"*"` = any label.
    ReceiveEvent(String),
    /// Query a resource (by URI; `"*"` = any).
    QueryResource(String),
    /// Update a resource (by URI; `"*"` = any).
    UpdateResource(String),
    /// Install rules received as messages (Thesis 11 integration).
    InstallRules,
}

/// Access control list: grants of permissions to principals or roles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Acl {
    grants: Vec<(String, Permission)>,
}

impl Acl {
    /// An empty ACL (nothing granted).
    pub fn new() -> Acl {
        Acl::default()
    }

    /// Grant `perm` to a principal name, role name, or `"*"` (everyone).
    pub fn grant(&mut self, who: impl Into<String>, perm: Permission) {
        self.grants.push((who.into(), perm));
    }

    fn matches(perm: &Permission, wanted: &Permission) -> bool {
        match (perm, wanted) {
            (Permission::ReceiveEvent(a), Permission::ReceiveEvent(b)) => a == "*" || a == b,
            (Permission::QueryResource(a), Permission::QueryResource(b)) => a == "*" || a == b,
            (Permission::UpdateResource(a), Permission::UpdateResource(b)) => a == "*" || a == b,
            (Permission::InstallRules, Permission::InstallRules) => true,
            _ => false,
        }
    }

    /// Does `who` (with `roles`) hold `wanted`?
    pub fn allows(&self, who: &str, roles: &[String], wanted: &Permission) -> bool {
        self.grants.iter().any(|(g, p)| {
            (g == "*" || g == who || roles.iter().any(|r| r == g)) && Acl::matches(p, wanted)
        })
    }
}

/// AAA configuration of one engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AaaConfig {
    /// Reject unauthenticated or unknown senders.
    pub require_auth: bool,
    /// Enforce the ACL on received events.
    pub authorize: bool,
    /// Record accounting entries and usage counters.
    pub accounting: bool,
    /// Additionally re-raise each accounting record as an `accounting{…}`
    /// event into the engine (double reactivity).
    pub accounting_events: bool,
}

/// One accounting log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccountingRecord {
    /// When the request was admitted or denied.
    pub time: Timestamp,
    /// The (authenticated or anonymous) principal.
    pub principal: String,
    /// What was requested, e.g. `"receive"`.
    pub action: String,
    /// Action detail, e.g. the event label.
    pub detail: String,
    /// Whether admission succeeded.
    pub allowed: bool,
}

impl AccountingRecord {
    /// Render as an `accounting{…}` event payload.
    pub fn to_event_payload(&self) -> Term {
        Term::build("accounting")
            .unordered()
            .field("principal", &self.principal)
            .field("action", &self.action)
            .field("detail", &self.detail)
            .field("allowed", if self.allowed { "true" } else { "false" })
            .field("at", self.time.millis().to_string())
            .finish()
    }
}

/// Per-principal usage counters (the basis for pay-per-use billing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Usage {
    /// Messages admitted for this principal.
    pub messages: u64,
    /// Total payload bytes admitted.
    pub bytes: u64,
    /// Messages denied.
    pub denied: u64,
}

/// The AAA state of one engine.
#[derive(Clone, Debug, Default)]
pub struct Aaa {
    /// Which of the three A's are enforced.
    pub config: AaaConfig,
    principals: BTreeMap<String, Principal>,
    /// The access control list consulted when `config.authorize` is set.
    pub acl: Acl,
    /// The accounting log (when `config.accounting` is set).
    pub records: Vec<AccountingRecord>,
    usage: BTreeMap<String, Usage>,
}

/// Outcome of admission control for one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Authenticated principal, or `"anonymous"`. Borrowed for the
    /// anonymous case, so admitting an unauthenticated message allocates
    /// nothing.
    pub principal: Cow<'static, str>,
    /// Whether the message may trigger rules.
    pub allowed: bool,
    /// Human-readable denial reason (`"ok"` when allowed).
    pub reason: Cow<'static, str>,
}

impl Aaa {
    /// AAA state with the given enforcement configuration.
    pub fn new(config: AaaConfig) -> Aaa {
        Aaa {
            config,
            ..Aaa::default()
        }
    }

    /// Register a principal with a secret and roles.
    pub fn register(&mut self, name: impl Into<String>, secret: &str, roles: Vec<String>) {
        let name = name.into();
        let salted_hash = salted(&name, secret);
        self.principals.insert(
            name.clone(),
            Principal {
                name,
                salted_hash,
                roles,
            },
        );
    }

    fn authenticate(&self, creds: Option<&Credentials>) -> Result<Cow<'static, str>, String> {
        match creds {
            None => {
                if self.config.require_auth {
                    Err("authentication required".into())
                } else {
                    Ok("anonymous".into())
                }
            }
            Some(c) => match self.principals.get(&c.principal) {
                None => Err(format!("unknown principal `{}`", c.principal)),
                Some(p) => {
                    if p.salted_hash == salted(&p.name, &c.secret) {
                        Ok(p.name.clone().into())
                    } else {
                        Err(format!("bad credentials for `{}`", c.principal))
                    }
                }
            },
        }
    }

    fn roles_of(&self, principal: &str) -> Vec<String> {
        self.principals
            .get(principal)
            .map(|p| p.roles.clone())
            .unwrap_or_default()
    }

    /// Admission control for a received event; records accounting.
    /// Returns the admission outcome and, when `accounting_events` is on
    /// and this message is itself accountable, the accounting payload to
    /// re-raise.
    pub fn admit(
        &mut self,
        meta: &MessageMeta,
        payload_label: &str,
        payload_bytes: usize,
        now: Timestamp,
    ) -> (Admission, Option<Term>) {
        let admission = match self.authenticate(meta.credentials.as_ref()) {
            Err(reason) => Admission {
                principal: match &meta.credentials {
                    Some(c) => c.principal.clone().into(),
                    None => "anonymous".into(),
                },
                allowed: false,
                reason: reason.into(),
            },
            Ok(principal) => {
                let authorized = !self.config.authorize
                    || self.acl.allows(
                        &principal,
                        &self.roles_of(&principal),
                        &Permission::ReceiveEvent(payload_label.to_string()),
                    );
                Admission {
                    principal,
                    allowed: authorized,
                    reason: if authorized {
                        "ok".into()
                    } else {
                        format!("not authorized to send `{payload_label}`").into()
                    },
                }
            }
        };

        // Accounting — but never account the accounting events themselves
        // (that keeps the two axes of reactivity orthogonal).
        let mut event = None;
        if self.config.accounting && payload_label != "accounting" {
            let rec = AccountingRecord {
                time: now,
                principal: admission.principal.to_string(),
                action: "receive".into(),
                detail: payload_label.to_string(),
                allowed: admission.allowed,
            };
            let usage = self
                .usage
                .entry(admission.principal.to_string())
                .or_default();
            if admission.allowed {
                usage.messages += 1;
                usage.bytes += payload_bytes as u64;
            } else {
                usage.denied += 1;
            }
            if self.config.accounting_events {
                event = Some(rec.to_event_payload());
            }
            self.records.push(rec);
        }
        (admission, event)
    }

    /// Check a non-event permission (rule installation, resource access).
    pub fn check(&self, principal: &str, wanted: &Permission) -> bool {
        if !self.config.authorize {
            return true;
        }
        self.acl
            .allows(principal, &self.roles_of(principal), wanted)
    }

    /// Usage counters accumulated for `principal`.
    pub fn usage(&self, principal: &str) -> Usage {
        self.usage.get(principal).copied().unwrap_or_default()
    }

    /// A pay-per-use billing report: one entry per principal with message
    /// and byte counts and a cost at the given price per message.
    pub fn billing_report(&self, price_per_message: f64) -> Term {
        Term::build("billing")
            .children(self.usage.iter().map(|(p, u)| {
                Term::build("account")
                    .field("principal", p)
                    .field("messages", u.messages.to_string())
                    .field("bytes", u.bytes.to_string())
                    .field("denied", u.denied.to_string())
                    .field(
                        "cost",
                        format!("{:.2}", u.messages as f64 * price_per_message),
                    )
                    .finish()
            }))
            .finish()
    }
}

impl fmt::Display for AccountingRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} {} ({})",
            self.time,
            self.principal,
            self.action,
            self.detail,
            if self.allowed { "allowed" } else { "DENIED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aaa_full() -> Aaa {
        let mut a = Aaa::new(AaaConfig {
            require_auth: true,
            authorize: true,
            accounting: true,
            accounting_events: true,
        });
        a.register("franz", "secret123", vec!["customer".into()]);
        a.acl
            .grant("customer", Permission::ReceiveEvent("order".into()));
        a
    }

    fn meta(principal: &str, secret: &str) -> MessageMeta {
        MessageMeta::from_uri("http://client").with_credentials(principal, secret)
    }

    #[test]
    fn authentication_accepts_and_rejects() {
        let mut a = aaa_full();
        let (adm, _) = a.admit(&meta("franz", "secret123"), "order", 10, Timestamp(1));
        assert!(adm.allowed);
        assert_eq!(adm.principal, "franz");

        let (adm, _) = a.admit(&meta("franz", "wrong"), "order", 10, Timestamp(2));
        assert!(!adm.allowed);
        let (adm, _) = a.admit(&meta("mallory", "x"), "order", 10, Timestamp(3));
        assert!(!adm.allowed);
        // Missing credentials with require_auth.
        let (adm, _) = a.admit(
            &MessageMeta::from_uri("http://x"),
            "order",
            10,
            Timestamp(4),
        );
        assert!(!adm.allowed);
    }

    #[test]
    fn authorization_by_role_and_label() {
        let mut a = aaa_full();
        // franz (role customer) may send `order` but not `admin_cmd`.
        let (adm, _) = a.admit(&meta("franz", "secret123"), "admin_cmd", 5, Timestamp(1));
        assert!(!adm.allowed);
        assert!(adm.reason.contains("not authorized"));
        // Wildcard grant opens everything.
        a.acl.grant("franz", Permission::ReceiveEvent("*".into()));
        let (adm, _) = a.admit(&meta("franz", "secret123"), "admin_cmd", 5, Timestamp(2));
        assert!(adm.allowed);
    }

    #[test]
    fn accounting_records_and_counters() {
        let mut a = aaa_full();
        a.admit(&meta("franz", "secret123"), "order", 100, Timestamp(1));
        a.admit(&meta("franz", "secret123"), "order", 50, Timestamp(2));
        a.admit(&meta("franz", "secret123"), "admin_cmd", 10, Timestamp(3));
        assert_eq!(a.records.len(), 3);
        let u = a.usage("franz");
        assert_eq!(u.messages, 2);
        assert_eq!(u.bytes, 150);
        assert_eq!(u.denied, 1);
    }

    #[test]
    fn accounting_event_emitted_but_not_for_accounting() {
        let mut a = aaa_full();
        let (_, ev) = a.admit(&meta("franz", "secret123"), "order", 10, Timestamp(1));
        let ev = ev.expect("accounting event");
        assert_eq!(ev.label(), Some("accounting"));
        // Accounting of accounting is suppressed (no infinite regress).
        let (_, ev2) = a.admit(&meta("franz", "secret123"), "accounting", 10, Timestamp(2));
        assert!(ev2.is_none());
        assert_eq!(a.records.len(), 1);
    }

    #[test]
    fn billing_report_shape() {
        let mut a = aaa_full();
        a.admit(&meta("franz", "secret123"), "order", 100, Timestamp(1));
        let report = a.billing_report(0.05);
        assert_eq!(report.label(), Some("billing"));
        let acct = &report.children()[0];
        assert!(acct.to_string().contains("principal[\"franz\"]"));
        assert!(acct.to_string().contains("cost[\"0.05\"]"));
    }

    #[test]
    fn anonymous_allowed_when_auth_not_required() {
        let mut a = Aaa::new(AaaConfig::default());
        let (adm, _) = a.admit(
            &MessageMeta::from_uri("http://x"),
            "anything",
            1,
            Timestamp(1),
        );
        assert!(adm.allowed);
        assert_eq!(adm.principal, "anonymous");
    }

    #[test]
    fn check_permission_for_rule_install() {
        let mut a = aaa_full();
        assert!(!a.check("franz", &Permission::InstallRules));
        a.acl.grant("franz", Permission::InstallRules);
        assert!(a.check("franz", &Permission::InstallRules));
        // With authorization off, everything is allowed.
        let open = Aaa::new(AaaConfig::default());
        assert!(open.check("anyone", &Permission::InstallRules));
    }
}
