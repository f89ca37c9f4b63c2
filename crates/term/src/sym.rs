//! Interned symbols — integer identity for the system's vocabulary.
//!
//! Element labels, attribute names, and variable names form a small, highly
//! repetitive vocabulary: a 100k-event stream touches a few hundred distinct
//! strings but compares and copies them hundreds of millions of times.
//! Treating symbol identity as *string* identity makes every label check a
//! memcmp and every [`crate::Element`] clone a round of `malloc` traffic.
//! A [`Sym`] is a `u32` index into a process-wide, append-only intern table:
//!
//! * **Equality and hashing are integer operations.** Two `Sym`s are equal
//!   iff they intern the same string, so `==` compares two `u32`s and
//!   [`SymMap`] hashes them with one multiply ([`SymHasher`]) — the engine's
//!   label → rules dispatch index never hashes a string.
//! * **Ordering and display resolve through the interned string.** `Sym`
//!   deliberately does *not* order by id: `Ord` compares the underlying
//!   strings, so `BTreeMap<Sym, _>` iteration, sorted [`Bindings`] output,
//!   and every printed term stay **byte-identical** to the pre-interning
//!   `String` representation. (Bindings live in `reweb-query`.)
//! * **The table is thread-safe and append-only.** Interning takes a write
//!   lock only for a never-seen string; resolution (`as_str`) takes a read
//!   lock and returns `&'static str` because interned strings are leaked,
//!   never freed. The leak is bounded by the vocabulary (labels, attribute
//!   and variable names, and the constants of installed patterns), not by
//!   traffic: event *values* are only ever resolved with [`Sym::lookup`],
//!   never interned — see DESIGN.md for the policy.
//!
//! [`Bindings`]: https://docs.rs/reweb-query

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned string: element label, attribute name, or variable name.
///
/// Cheap to copy (`u32`), integer-fast to compare for equality and to hash,
/// while ordering ([`Ord`]) and printing ([`fmt::Display`]) go through the
/// interned string so all sorted and serialized output is identical to what
/// plain `String`s would produce.
///
/// ```
/// use reweb_term::Sym;
/// let a = Sym::from("order");
/// let b = Sym::from("order");
/// assert_eq!(a, b); // same string ⇒ same id
/// assert_eq!(a.as_str(), "order");
/// assert!(Sym::from("apple") < Sym::from("pear")); // string order, not id order
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

thread_local! {
    /// Per-thread snapshot of the resolution table. The global table is
    /// append-only and interned strings are `&'static`, so a snapshot is
    /// never *wrong* — at worst it is too short for a symbol interned
    /// after it was taken, in which case it is refreshed under the global
    /// read lock. Once a thread has seen the vocabulary (which stabilizes
    /// after rule installation), every `as_str`/`cmp` is lock-free.
    static SNAPSHOT: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Resolve `id` through the thread-local snapshot, refreshing it from the
/// global table on a miss.
fn resolve(id: u32) -> &'static str {
    SNAPSHOT.with(|snap| {
        let mut v = snap.borrow_mut();
        if let Some(&s) = v.get(id as usize) {
            return s;
        }
        let g = table().read().unwrap();
        v.clear();
        v.extend_from_slice(&g.strings);
        v[id as usize]
    })
}

impl Sym {
    /// Intern `s`, returning its symbol. The same string always returns the
    /// same `Sym`, from any thread. A string seen for the first time is
    /// copied into the process-wide table and kept for the process lifetime.
    pub fn new(s: &str) -> Sym {
        {
            let g = table().read().unwrap();
            if let Some(&id) = g.map.get(s) {
                return Sym(id);
            }
        }
        let mut g = table().write().unwrap();
        // Double-check: another thread may have interned `s` while we
        // were waiting for the write lock.
        if let Some(&id) = g.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(g.strings.len()).expect("symbol table overflow (2^32 symbols)");
        g.strings.push(leaked);
        g.map.insert(leaked, id);
        Sym(id)
    }

    /// The symbol of `s` if it has ever been interned, without interning.
    /// Used on read paths (attribute lookup by name): a string no symbol
    /// was created for cannot occur as a key anywhere.
    pub fn lookup(s: &str) -> Option<Sym> {
        table().read().unwrap().map.get(s).copied().map(Sym)
    }

    /// The interned string. `&'static` because the table never frees.
    /// Lock-free in steady state (see the thread-local snapshot above).
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// The raw table index — stable within this process only. Exposed for
    /// diagnostics; never persist or transmit it.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Number of distinct symbols interned so far (diagnostics / leak-bound
    /// monitoring).
    pub fn table_len() -> usize {
        table().read().unwrap().strings.len()
    }
}

impl Ord for Sym {
    /// String order, **not** id order: sorted containers and printed output
    /// keep the exact byte order the un-interned representation had. Equal
    /// ids short-circuit without touching the table.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        SNAPSHOT.with(|snap| {
            let mut v = snap.borrow_mut();
            let (a, b) = (self.0 as usize, other.0 as usize);
            if v.len() <= a.max(b) {
                let g = table().read().unwrap();
                v.clear();
                v.extend_from_slice(&g.strings);
            }
            v[a].cmp(v[b])
        })
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// A pass-through hasher for [`Sym`] keys: one multiplicative mix of the
/// 32-bit id instead of SipHash over string bytes. This is what makes the
/// engine's dispatch index (`SymMap<Vec<usize>>`) an integer-keyed lookup.
#[derive(Clone, Copy, Default)]
pub struct SymHasher(u64);

impl Hasher for SymHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-`u32` keys (FNV-1a); `Sym` never takes this path.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u32(&mut self, i: u32) {
        // Fibonacci hashing: one multiply spreads the sequential intern ids
        // across the full 64-bit range.
        self.0 = (i as u64 ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by [`Sym`] with the integer [`SymHasher`].
pub type SymMap<V> = HashMap<Sym, V, BuildHasherDefault<SymHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trip() {
        let s = Sym::new("hello");
        assert_eq!(s.as_str(), "hello");
        assert_eq!(Sym::new("hello"), s);
        assert_eq!(Sym::lookup("hello"), Some(s));
    }

    #[test]
    fn lookup_does_not_intern() {
        // Asked twice: a second `None` means the first lookup interned
        // nothing. (Comparing `table_len` raced with the other tests of
        // this binary, which intern on parallel threads.)
        assert_eq!(Sym::lookup("sym-test-never-interned-7f3a"), None);
        assert_eq!(Sym::lookup("sym-test-never-interned-7f3a"), None);
    }

    #[test]
    fn ord_is_string_order() {
        let mut syms = [Sym::new("pear"), Sym::new("apple"), Sym::new("fig")];
        syms.sort();
        let strs: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, vec!["apple", "fig", "pear"]);
        assert_eq!(Sym::new("x").cmp(&Sym::new("x")), std::cmp::Ordering::Equal);
    }

    #[test]
    fn eq_against_str() {
        assert_eq!(Sym::new("label"), *"label");
        assert_eq!(Sym::new("label"), "label");
        assert_ne!(Sym::new("label"), "other");
    }

    #[test]
    fn sym_map_is_usable() {
        let mut m: SymMap<u32> = SymMap::default();
        m.insert(Sym::new("a"), 1);
        m.insert(Sym::new("b"), 2);
        assert_eq!(m.get(&Sym::new("a")), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| Sym::new(&format!("concurrent-{}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                assert!(s.as_str().starts_with("concurrent-"));
                assert_eq!(Sym::new(s.as_str()), *s);
            }
        }
    }
}
