//! Attribute lists: an element's `@name="value"` pairs in one allocation.
//!
//! Most elements carry no attribute and most of the rest carry one or two
//! (`order{@route="r7", …}`), so a search tree per element spends a whole
//! leaf node on a single pair. [`Attrs`] keeps the pairs in one boxed slice
//! of exactly their number, sorted by name; an empty list allocates
//! nothing. See DESIGN §1b.

use std::fmt;

use smallvec::SmallVec;

use crate::sym::Sym;

/// An element's attributes: `(name, value)` pairs sorted by name, in one
/// heap allocation of exactly their number (none when empty).
///
/// Names order by [`Sym`]'s `Ord`, which compares the interned strings, so
/// a list iterates in the order a `BTreeMap<Sym, String>` would — the
/// order `Display` prints. `Eq`, `Ord` and `Hash` see that same sequence:
/// `Hash` writes the length, then each `(name, value)` pair, the byte
/// stream the map wrote.
///
/// ```
/// use reweb_term::{Attrs, Sym};
/// let mut a = Attrs::new();
/// a.insert(Sym::from("route"), "r7".into());
/// a.insert(Sym::from("id"), "1".into());
/// a.insert(Sym::from("route"), "r8".into()); // the last write wins
/// let names: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
/// assert_eq!(names, ["id", "route"]);
/// assert_eq!(a.get(&Sym::from("route")).map(String::as_str), Some("r8"));
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attrs(Box<[(Sym, String)]>);

/// Pairs collected in the order they were written, before they become an
/// [`Attrs`]: inline up to two, so the common element allocates only its
/// final list.
pub(crate) type AttrBuf = SmallVec<(Sym, String), 2>;

impl Attrs {
    /// An empty list (no allocation).
    pub fn new() -> Attrs {
        Attrs::default()
    }

    /// The list that writing `pairs` in order would leave, a later pair
    /// replacing an earlier one of the same name — allocated once, at its
    /// final size.
    pub(crate) fn from_writes(mut pairs: AttrBuf) -> Attrs {
        // Most elements carry no attribute or one: no sorting to do.
        if pairs.len() < 2 {
            return match pairs.pop() {
                Some(only) => Attrs(Box::new([only])),
                None => Attrs::new(),
            };
        }
        // Stable, so among equal names the last written stays last.
        pairs.sort_by_key(|p| p.0);
        let distinct = 1 + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut list = Vec::with_capacity(distinct);
        let mut pairs = pairs.into_iter().peekable();
        while let Some(pair) = pairs.next() {
            if pairs.peek().is_some_and(|next| next.0 == pair.0) {
                continue;
            }
            list.push(pair);
        }
        // Length equals capacity, so this keeps the allocation as it is.
        Attrs(list.into_boxed_slice())
    }

    /// The value of attribute `name`.
    pub fn get(&self, name: &Sym) -> Option<&String> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Set attribute `name` to `value`, returning the value it replaced.
    /// A new name reallocates the list at its new size.
    pub fn insert(&mut self, name: Sym, value: String) -> Option<String> {
        if let Some((_, v)) = self.0.iter_mut().find(|(k, _)| *k == name) {
            return Some(std::mem::replace(v, value));
        }
        let at = self.0.partition_point(|(k, _)| *k < name);
        let mut list = Vec::with_capacity(self.0.len() + 1);
        let mut old = std::mem::take(&mut self.0).into_vec().into_iter();
        list.extend(old.by_ref().take(at));
        list.push((name, value));
        list.extend(old);
        self.0 = list.into_boxed_slice();
        None
    }

    /// Remove attribute `name`, returning its value. Shrinks the list to
    /// its new size.
    pub fn remove(&mut self, name: &Sym) -> Option<String> {
        let at = self.0.iter().position(|(k, _)| k == name)?;
        let mut list = std::mem::take(&mut self.0).into_vec();
        let (_, value) = list.remove(at);
        self.0 = list.into_boxed_slice();
        Some(value)
    }

    /// The pairs, sorted by name.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there is no attribute.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Printed as the map it stands for: `{name: "value", …}`.
impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over an [`Attrs`]' `(name, value)` pairs, sorted by name.
#[derive(Clone, Debug)]
pub struct Iter<'a>(std::slice::Iter<'a, (Sym, String)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Sym, &'a String);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = (&'a Sym, &'a String);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
