//! Variable bindings — the "notion of answers" of the query language.
//!
//! An answer to a query is a substitution of terms for variables. Sets of
//! answers flow between the three parts of an ECA rule: the event part
//! produces bindings, the condition part extends or filters them, and the
//! action part consumes them (Thesis 7's parameterization requirement).
//!
//! Representation: an `Arc<[(Sym, Term)]>` sorted by variable name (string
//! order, via [`Sym`]'s `Ord`). Cloning is one reference-count bump;
//! extending (`bind`/`merge`, and the matcher materialising an answer)
//! builds the new slice in a single allocation from an exact-length
//! iterator, where each copied entry is a `u32` plus an `Arc` bump.
//! Iteration order, `Ord`, and `Display` are those of a
//! `BTreeMap<String, Term>` because `Sym` sorts by its interned string.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

use reweb_term::{Sym, Term};

/// A consistent assignment of terms to variable names.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bindings(Arc<[(Sym, Term)]>);

fn empty() -> &'static Arc<[(Sym, Term)]> {
    static EMPTY: OnceLock<Arc<[(Sym, Term)]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new([]))
}

/// The name-sorted union of two name-sorted entry sequences holding
/// `total` distinct names between them, built in one allocation: `Range`
/// is an exact-length iterator, which `Arc<[_]>` collects without an
/// intermediate `Vec`. A name on both sides takes the left entry.
fn merged(
    total: usize,
    left: &[(Sym, Term)],
    right: impl Iterator<Item = (Sym, Term)>,
) -> Bindings {
    let mut left = left.iter().peekable();
    let mut right = right.peekable();
    let entries = (0..total).map(|_| {
        let order = match (left.peek(), right.peek()) {
            (Some((l, _)), Some((r, _))) => l.cmp(r),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        if order == Ordering::Equal {
            right.next();
        }
        let entry = if order == Ordering::Greater {
            right.next()
        } else {
            left.next().cloned()
        };
        entry.expect("`total` counts the distinct names of both sides")
    });
    Bindings(entries.collect())
}

impl Default for Bindings {
    fn default() -> Bindings {
        Bindings(empty().clone())
    }
}

impl Bindings {
    /// The empty substitution (shared allocation; free to create).
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Single-variable binding.
    pub fn of(name: impl Into<Sym>, value: Term) -> Bindings {
        Bindings(Arc::new([(name.into(), value)]))
    }

    /// The term bound to `name`, if any. String-based lookup for public
    /// callers; never interns.
    pub fn get(&self, name: &str) -> Option<&Term> {
        let sym = Sym::lookup(name)?;
        self.get_sym(sym)
    }

    /// The term bound to the symbol `name`, if any — the hot-path lookup:
    /// a linear scan over the (small) vector comparing integer ids.
    pub fn get_sym(&self, name: Sym) -> Option<&Term> {
        self.0.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Is `name` bound?
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// No variables bound?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Bound variable names, in sorted (display) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }

    /// Bound variable symbols, in sorted (display) order.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.0.iter().map(|(k, _)| *k)
    }

    /// `(name, term)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Bind `name` to `value`. Returns the extended bindings, or `None` if
    /// `name` is already bound to a *different* term (inconsistency).
    #[must_use]
    pub fn bind(&self, name: &str, value: &Term) -> Option<Bindings> {
        self.bind_sym(Sym::new(name), value)
    }

    /// [`Bindings::bind`] by symbol — what the matcher calls.
    #[must_use]
    pub fn bind_sym(&self, name: Sym, value: &Term) -> Option<Bindings> {
        match self.get_sym(name) {
            Some(existing) if existing == value => Some(self.clone()),
            Some(_) => None,
            None => Some(self.extended(std::iter::once((name, value.clone())))),
        }
    }

    /// These bindings plus `fresh`: name-sorted entries for variables not
    /// bound here. One allocation — how the matcher materialises an
    /// answer from its seed and binding trail.
    pub(crate) fn extended(&self, fresh: impl ExactSizeIterator<Item = (Sym, Term)>) -> Bindings {
        merged(self.0.len() + fresh.len(), &self.0, fresh)
    }

    /// Merge two binding sets. Returns `None` if they disagree on any
    /// shared variable.
    #[must_use]
    pub fn merge(&self, other: &Bindings) -> Option<Bindings> {
        if other.0.is_empty() || Arc::ptr_eq(&self.0, &other.0) {
            return Some(self.clone());
        }
        if self.0.is_empty() {
            return Some(other.clone());
        }
        // Merge-join of two sorted slices: the first pass checks the
        // shared variables and counts them, the second builds the union.
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        // One side already holds every variable of the other (a join on
        // the answers' only variable): share it.
        if shared == b.len() {
            return Some(self.clone());
        }
        if shared == a.len() {
            return Some(other.clone());
        }
        Some(merged(a.len() + b.len() - shared, a, b.iter().cloned()))
    }

    /// The restriction of these bindings to the given variable names.
    /// A sorted merge-join when `names` is sorted (which
    /// [`crate::ast::QueryTerm::variables`]-style producers guarantee);
    /// unsorted inputs are sorted into a scratch copy first.
    pub fn project(&self, names: &[Sym]) -> Bindings {
        if self.0.is_empty() || names.is_empty() {
            return Bindings::new();
        }
        let sorted_buf;
        let names: &[Sym] = if names.windows(2).all(|w| w[0] <= w[1]) {
            names
        } else {
            sorted_buf = {
                let mut v = names.to_vec();
                v.sort();
                v
            };
            &sorted_buf
        };
        let selected = || {
            let mut i = 0;
            self.0.iter().filter(move |(k, _)| {
                while i < names.len() && names[i] < *k {
                    i += 1;
                }
                i < names.len() && names[i] == *k
            })
        };
        // Count first: keeping everything shares this allocation (a join
        // key that is the answer's only variable), and anything else is
        // built at its exact length.
        let n = selected().count();
        if n == 0 {
            return Bindings::new();
        }
        if n == self.0.len() {
            return self.clone();
        }
        let mut picked = selected();
        let entries = (0..n).map(|_| picked.next().cloned().expect("counted above"));
        Bindings(entries.collect())
    }
}

impl FromIterator<(Sym, Term)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (Sym, Term)>>(iter: I) -> Bindings {
        // Last write wins, like inserting into a map in iteration order.
        let mut out: Vec<(Sym, Term)> = Vec::new();
        for (k, v) in iter {
            match out.binary_search_by(|(e, _)| e.cmp(&k)) {
                Ok(i) => out[i].1 = v,
                Err(i) => out.insert(i, (k, v)),
            }
        }
        if out.is_empty() {
            return Bindings::new();
        }
        Bindings(out.into())
    }
}

impl FromIterator<(String, Term)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (String, Term)>>(iter: I) -> Bindings {
        iter.into_iter().map(|(k, v)| (Sym::from(k), v)).collect()
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k} -> {v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_consistency() {
        let b = Bindings::of("X", Term::text("1"));
        // Re-binding to the same value is fine.
        assert!(b.bind("X", &Term::text("1")).is_some());
        // Conflicting re-bind fails.
        assert!(b.bind("X", &Term::text("2")).is_none());
        // Fresh variable extends.
        let b2 = b.bind("Y", &Term::text("2")).unwrap();
        assert_eq!(b2.len(), 2);
        // Original untouched.
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn merge_agrees_or_fails() {
        let a = Bindings::of("X", Term::text("1"));
        let b = Bindings::of("Y", Term::text("2"));
        let ab = a.merge(&b).unwrap();
        assert_eq!(ab.len(), 2);
        let conflicting = Bindings::of("X", Term::text("9"));
        assert!(ab.merge(&conflicting).is_none());
        // Merge with agreeing overlap succeeds.
        assert!(ab.merge(&a).is_some());
    }

    #[test]
    fn merge_is_sorted_by_name() {
        let a = Bindings::of("Z", Term::text("1"));
        let b = Bindings::of("A", Term::text("2"));
        let ab = a.merge(&b).unwrap();
        let names: Vec<&str> = ab.names().collect();
        assert_eq!(names, vec!["A", "Z"]);
    }

    #[test]
    fn project_restricts() {
        let b: Bindings = [
            ("X".to_string(), Term::text("1")),
            ("Y".to_string(), Term::text("2")),
        ]
        .into_iter()
        .collect();
        let p = b.project(&[Sym::new("X"), Sym::new("Z")]);
        assert!(p.contains("X"));
        assert!(!p.contains("Y"));
        assert_eq!(p.len(), 1);
        // Unsorted name lists work too (sorted into a scratch copy).
        let p = b.project(&[Sym::new("Y"), Sym::new("X")]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn from_iter_last_write_wins() {
        let b: Bindings = [
            ("X".to_string(), Term::text("1")),
            ("X".to_string(), Term::text("2")),
        ]
        .into_iter()
        .collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b.get("X").unwrap().as_text(), Some("2"));
    }

    #[test]
    fn unbound_lookup_never_interns() {
        let b = Bindings::of("X", Term::text("v"));
        let before = Sym::table_len();
        assert!(b.get("bindings-test-never-bound-91c2").is_none());
        assert_eq!(Sym::table_len(), before);
    }

    #[test]
    fn display() {
        let b = Bindings::of("X", Term::text("v"));
        assert_eq!(b.to_string(), "{X -> \"v\"}");
    }
}
