//! The semi-structured data model.
//!
//! A [`Term`] is the `reweb` stand-in for an XML fragment: a tree of
//! *elements* (label, string attributes, children) and *text* leaves.
//! Elements carry an ordered/unordered flag following Xcerpt's data terms:
//! `label[ … ]` has significant child order (like XML element content),
//! `label{ … }` does not (like a record or a bag of properties).
//!
//! Terms are immutable and structurally shared (`Arc`): cloning is O(1), and
//! "edits" build a new tree reusing every untouched subtree. That is what
//! makes transactional compound actions (Thesis 8) and store snapshots cheap.
//!
//! Equality, hashing, and ordering are *syntactic* (child order always
//! matters) so the derived impls stay fast and paths into documents stay
//! stable. Semantic, multiset-aware comparison of unordered elements is
//! available through [`Term::canonicalize`], which is also what extensional
//! identity (Thesis 10) hashes.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use smallvec::SmallVec;

use crate::attrs::{AttrBuf, Attrs};
use crate::sym::Sym;

/// Inline capacity for an element's child list: terms with at most this
/// many children (the overwhelming majority of event payloads and rule
/// constructions) keep their children inline in the [`Element`] allocation
/// instead of a second heap vector. See DESIGN §1d.
pub const INLINE_CHILDREN: usize = 4;

/// The child list of an [`Element`]: inline up to [`INLINE_CHILDREN`],
/// heap-spilled beyond. Derefs to `[Term]`, so all slice APIs apply.
pub type Children = SmallVec<Term, INLINE_CHILDREN>;

/// An immutable semi-structured tree: element or text leaf.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An element node (shared; cloning is an `Arc` bump).
    Elem(Arc<Element>),
    /// A text leaf.
    Text(Arc<str>),
}

/// An element node: label, attributes, children, child-order significance.
///
/// The label and attribute *names* are interned [`Sym`]s: copying an element
/// copies integers, and label dispatch compares integers. Attribute *values*
/// stay `String`s (they are data, not vocabulary). Because `Sym` orders by
/// its interned string, the attribute list iterates in exactly the byte
/// order a `BTreeMap<String, _>` would — serialization is unchanged.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element {
    /// The element name (interned).
    pub label: Sym,
    /// `true` for `label[ … ]` (significant order), `false` for `label{ … }`.
    pub ordered: bool,
    /// String attributes, sorted by (interned) name, in one allocation.
    pub attrs: Attrs,
    /// Child terms, in document order (inline up to [`INLINE_CHILDREN`]).
    pub children: Children,
}

impl Term {
    // ----- constructors --------------------------------------------------

    /// Empty ordered element.
    pub fn elem(label: impl Into<Sym>) -> Term {
        Term::ordered(label, Vec::new())
    }

    /// Ordered element (`label[ … ]`).
    pub fn ordered(label: impl Into<Sym>, children: Vec<Term>) -> Term {
        Term::Elem(Arc::new(Element {
            label: label.into(),
            ordered: true,
            attrs: Attrs::new(),
            children: children.into(),
        }))
    }

    /// Unordered element (`label{ … }`).
    pub fn unordered(label: impl Into<Sym>, children: Vec<Term>) -> Term {
        Term::Elem(Arc::new(Element {
            label: label.into(),
            ordered: false,
            attrs: Attrs::new(),
            children: children.into(),
        }))
    }

    /// Text leaf.
    pub fn text(s: impl Into<String>) -> Term {
        Term::Text(Arc::from(s.into().as_str()))
    }

    /// Text leaf holding an integer.
    pub fn int(n: i64) -> Term {
        Term::text(n.to_string())
    }

    /// Text leaf holding a float (integral values print without `.0`).
    pub fn num(x: f64) -> Term {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            Term::text(format!("{}", x as i64))
        } else {
            Term::text(format!("{x}"))
        }
    }

    /// Start a [`TermBuilder`] for an element.
    pub fn build(label: impl Into<Sym>) -> TermBuilder {
        TermBuilder {
            label: label.into(),
            ordered: true,
            attrs: AttrBuf::new(),
            children: Vec::new(),
        }
    }

    // ----- accessors -----------------------------------------------------

    /// The element node, if this is an element.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Term::Elem(e) => Some(e),
            Term::Text(_) => None,
        }
    }

    /// Element label, if this is an element.
    pub fn label(&self) -> Option<&str> {
        self.as_element().map(|e| e.label.as_str())
    }

    /// Element label as an interned symbol, if this is an element — the
    /// zero-cost form engines dispatch on.
    pub fn label_sym(&self) -> Option<Sym> {
        self.as_element().map(|e| e.label)
    }

    /// Text content, if this is a text leaf.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Term::Text(s) => Some(s),
            Term::Elem(_) => None,
        }
    }

    /// Children (empty slice for text leaves).
    pub fn children(&self) -> &[Term] {
        match self {
            Term::Elem(e) => &e.children,
            Term::Text(_) => &[],
        }
    }

    /// The first child labelled `name` — the reader of the
    /// `label["text"]` children [`TermBuilder::field`] writes.
    #[inline]
    pub fn field(&self, name: &str) -> Option<&Term> {
        self.children().iter().find(|c| c.label() == Some(name))
    }

    /// Attribute value, if this is an element with that attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        let sym = Sym::lookup(key)?;
        self.as_element()
            .and_then(|e| e.attrs.get(&sym))
            .map(|s| s.as_str())
    }

    /// Whether child order is significant. Text leaves report `true`.
    pub fn is_ordered(&self) -> bool {
        self.as_element().map(|e| e.ordered).unwrap_or(true)
    }

    /// Numeric interpretation: a text leaf that parses as a number, or an
    /// element whose single child does (`total["59.9"]` → `59.9`).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Term::Text(s) => s.trim().parse::<f64>().ok(),
            Term::Elem(e) if e.children.len() == 1 => e.children[0].as_number(),
            Term::Elem(_) => None,
        }
    }

    /// The concatenated text of this node's direct text children, or the
    /// text itself for a leaf. (`status["cancelled"]` → `"cancelled"`.)
    pub fn text_content(&self) -> String {
        self.text_str().into_owned()
    }

    /// [`Term::text_content`], borrowed unless it joins two or more text
    /// children — so a record field such as `at["1700"]` reads without
    /// allocating.
    pub fn text_str(&self) -> Cow<'_, str> {
        match self {
            Term::Text(s) => Cow::Borrowed(s),
            Term::Elem(e) => {
                let mut texts = e.children.iter().filter_map(Term::as_text);
                match (texts.next(), texts.next()) {
                    (None, _) => Cow::Borrowed(""),
                    (Some(only), None) => Cow::Borrowed(only),
                    (Some(a), Some(b)) => {
                        let mut joined = String::from(a);
                        joined.push_str(b);
                        joined.extend(texts);
                        Cow::Owned(joined)
                    }
                }
            }
        }
    }

    /// How deep the printed form nests brackets: 0 for a text leaf or a
    /// bare label, one more than the deepest child for `label[…]` and
    /// `label{…}`. [`crate::decode()`] refuses input nested deeper than
    /// [`crate::MAX_NESTING`].
    pub fn nesting(&self) -> usize {
        match self {
            Term::Text(_) => 0,
            Term::Elem(e) if e.ordered && e.attrs.is_empty() && e.children.is_empty() => 0,
            Term::Elem(e) => 1 + e.children.iter().map(Term::nesting).max().unwrap_or(0),
        }
    }

    /// Total number of nodes in this tree (elements + text leaves).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(Term::node_count).sum::<usize>()
    }

    /// Serialized size in bytes of the compact textual form — the "wire
    /// size" used by the network-traffic metrics in the Web simulator.
    /// Counted through a sink that keeps no bytes: equals
    /// `self.to_string().len()` without building the string.
    pub fn serialized_size(&self) -> usize {
        struct Count(usize);
        impl fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut n = Count(0);
        write_compact(self, &mut n).expect("counting never fails");
        n.0
    }

    /// Depth-first iterator over all nodes with their child-index paths.
    pub fn walk(&self) -> Vec<(crate::path::Path, &Term)> {
        let mut out = Vec::new();
        fn go<'t>(
            t: &'t Term,
            prefix: &mut Vec<usize>,
            out: &mut Vec<(crate::path::Path, &'t Term)>,
        ) {
            out.push((crate::path::Path::new(prefix.clone()), t));
            for (i, c) in t.children().iter().enumerate() {
                prefix.push(i);
                go(c, prefix, out);
                prefix.pop();
            }
        }
        go(self, &mut Vec::new(), &mut out);
        out
    }

    // ----- semantic comparison -------------------------------------------

    /// Canonical form: recursively sorts the children of unordered elements.
    /// Two terms denote the same data value (multiset semantics for `{…}`)
    /// iff their canonical forms are syntactically equal. Extensional
    /// identity (Thesis 10) is a hash of this form.
    pub fn canonicalize(&self) -> Term {
        match self {
            Term::Text(_) => self.clone(),
            Term::Elem(e) => {
                let mut children: Children = e.children.iter().map(Term::canonicalize).collect();
                if !e.ordered {
                    children.sort();
                }
                Term::Elem(Arc::new(Element {
                    label: e.label,
                    ordered: e.ordered,
                    attrs: e.attrs.clone(),
                    children,
                }))
            }
        }
    }

    /// Multiset-aware equality: equal up to reordering inside `{…}` elements.
    pub fn structurally_equal(&self, other: &Term) -> bool {
        self.canonicalize() == other.canonicalize()
    }

    // ----- functional updates ---------------------------------------------

    fn modify_element(
        &self,
        f: impl FnOnce(&mut Element) -> Result<(), crate::TermError>,
    ) -> Result<Term, crate::TermError> {
        match self {
            Term::Text(_) => Err(crate::TermError::NotAnElement(self.to_string())),
            Term::Elem(e) => {
                let mut new = (**e).clone();
                f(&mut new)?;
                Ok(Term::Elem(Arc::new(new)))
            }
        }
    }

    /// New element with `child` appended.
    pub fn with_child_pushed(&self, child: Term) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            e.children.push(child);
            Ok(())
        })
    }

    /// New element with `child` inserted before index `idx` (may equal len).
    pub fn with_child_inserted(&self, idx: usize, child: Term) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            if idx > e.children.len() {
                return Err(crate::TermError::InvalidEdit(format!(
                    "insert index {idx} out of range (len {})",
                    e.children.len()
                )));
            }
            e.children.insert(idx, child);
            Ok(())
        })
    }

    /// New element with the child at `idx` removed.
    pub fn with_child_removed(&self, idx: usize) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            if idx >= e.children.len() {
                return Err(crate::TermError::InvalidEdit(format!(
                    "remove index {idx} out of range (len {})",
                    e.children.len()
                )));
            }
            e.children.remove(idx);
            Ok(())
        })
    }

    /// New element with the child at `idx` replaced.
    pub fn with_child_replaced(&self, idx: usize, child: Term) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            if idx >= e.children.len() {
                return Err(crate::TermError::InvalidEdit(format!(
                    "replace index {idx} out of range (len {})",
                    e.children.len()
                )));
            }
            e.children[idx] = child;
            Ok(())
        })
    }

    /// New element with attribute `key` set to `value`.
    pub fn with_attr(
        &self,
        key: impl Into<Sym>,
        value: impl Into<String>,
    ) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            e.attrs.insert(key.into(), value.into());
            Ok(())
        })
    }

    /// New element with attribute `key` removed (no-op if absent).
    pub fn without_attr(&self, key: &str) -> Result<Term, crate::TermError> {
        self.modify_element(|e| {
            if let Some(sym) = Sym::lookup(key) {
                e.attrs.remove(&sym);
            }
            Ok(())
        })
    }
}

/// Fluent builder for elements.
///
/// ```
/// use reweb_term::Term;
/// let t = Term::build("flight")
///     .attr("id", "LH123")
///     .child(Term::ordered("status", vec![Term::text("cancelled")]))
///     .finish();
/// assert_eq!(t.attr("id"), Some("LH123"));
/// ```
#[derive(Clone, Debug)]
pub struct TermBuilder {
    label: Sym,
    ordered: bool,
    /// Attributes in the order set; they become the element's [`Attrs`]
    /// at [`TermBuilder::finish`], allocated once at their final size.
    attrs: AttrBuf,
    children: Vec<Term>,
}

impl TermBuilder {
    /// Make the element unordered (`label{ … }`).
    pub fn unordered(mut self) -> Self {
        self.ordered = false;
        self
    }

    /// Set a string attribute (setting one twice keeps the last value).
    pub fn attr(mut self, key: impl Into<Sym>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Append one child term.
    pub fn child(mut self, t: Term) -> Self {
        self.children.push(t);
        self
    }

    /// Convenience: append `label[ "text" ]`.
    pub fn field(self, label: impl Into<Sym>, text: impl Into<String>) -> Self {
        self.child(Term::ordered(label, vec![Term::text(text)]))
    }

    /// Append several child terms.
    pub fn children(mut self, ts: impl IntoIterator<Item = Term>) -> Self {
        self.children.extend(ts);
        self
    }

    /// Append a text leaf child.
    pub fn text_child(mut self, s: impl Into<String>) -> Self {
        self.children.push(Term::text(s));
        self
    }

    /// Build the element.
    pub fn finish(self) -> Term {
        Term::Elem(Arc::new(Element {
            label: self.label,
            ordered: self.ordered,
            attrs: Attrs::from_writes(self.attrs),
            children: self.children.into(),
        }))
    }
}

// ----- display --------------------------------------------------------------

fn quote(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    // Unescaped runs go out whole; every escaped character is one byte.
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n', '\t', '\r']) {
        out.write_str(&rest[..i])?;
        out.write_str(match rest.as_bytes()[i] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            _ => "\\r",
        })?;
        rest = &rest[i + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}

/// An identifier can be printed bare iff the lexer would read it back as one
/// token. Otherwise it must be quoted.
fn ident_ok(s: &str) -> bool {
    let mut chars = s.chars().peekable();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    let mut prev_sep = false;
    for c in chars {
        if c.is_ascii_alphanumeric() || c == '_' {
            prev_sep = false;
        } else if (c == ':' || c == '.') && !prev_sep {
            prev_sep = true;
        } else {
            return false;
        }
    }
    !prev_sep
}

/// A label bare when the lexer would read it back as one identifier,
/// else in the quoted `_q"…"` form.
fn write_label(label: &str, out: &mut impl fmt::Write) -> fmt::Result {
    if ident_ok(label) {
        out.write_str(label)
    } else {
        // A label that isn't a valid identifier is printed as a
        // quoted string prefixed form — rare, but keeps round-trips.
        out.write_str("_q")?;
        quote(label, out)
    }
}

fn write_compact(t: &Term, out: &mut impl fmt::Write) -> fmt::Result {
    match t {
        Term::Text(s) => quote(s, out),
        Term::Elem(e) => {
            write_label(e.label.as_str(), out)?;
            if e.attrs.is_empty() && e.children.is_empty() {
                // Bare label: `br` round-trips as an empty ordered element.
                if !e.ordered {
                    out.write_str("{}")?;
                }
                return Ok(());
            }
            let (open, close) = if e.ordered { ('[', ']') } else { ('{', '}') };
            out.write_char(open)?;
            let mut first = true;
            for (k, v) in &e.attrs {
                if !first {
                    out.write_str(", ")?;
                }
                first = false;
                out.write_char('@')?;
                out.write_str(k.as_str())?;
                out.write_char('=')?;
                quote(v, out)?;
            }
            for c in &e.children {
                if !first {
                    out.write_str(", ")?;
                }
                first = false;
                write_compact(c, out)?;
            }
            out.write_char(close)
        }
    }
}

/// Print the element `label[…]` (or `label{…}` when not `ordered`) into
/// `out`, its items written by `body` — byte for byte what `Display`
/// prints for the same element built as a [`Term`], without building it.
/// Labels, text and child terms go through the printer's own code, so
/// there is one escaping routine.
///
/// ```
/// use reweb_term::{write_elem, Term};
/// let mut out = String::new();
/// write_elem(&mut out, "m", false, |w| {
///     w.field("at", "5")?;
///     w.term(&Term::elem("ping"))
/// })
/// .unwrap();
/// let built = Term::build("m").unordered().field("at", "5").child(Term::elem("ping")).finish();
/// assert_eq!(out, built.to_string());
/// ```
pub fn write_elem<W: fmt::Write>(
    out: &mut W,
    label: &str,
    ordered: bool,
    body: impl FnOnce(&mut ElemWriter<'_, W>) -> fmt::Result,
) -> fmt::Result {
    write_label(label, out)?;
    let mut w = ElemWriter {
        out,
        ordered,
        empty: true,
    };
    body(&mut w)?;
    match (w.empty, ordered) {
        // Bare label, as `Display` prints an empty ordered element.
        (true, true) => Ok(()),
        (true, false) => w.out.write_str("{}"),
        (false, true) => w.out.write_char(']'),
        (false, false) => w.out.write_char('}'),
    }
}

/// The items of one element being printed by [`write_elem`], in the
/// order written (attributes first, as `Display` orders them).
pub struct ElemWriter<'w, W: fmt::Write> {
    out: &'w mut W,
    ordered: bool,
    empty: bool,
}

impl<W: fmt::Write> ElemWriter<'_, W> {
    /// The opening bracket before the first item, `", "` before the rest.
    fn item(&mut self) -> fmt::Result {
        if self.empty {
            self.empty = false;
            self.out.write_char(if self.ordered { '[' } else { '{' })
        } else {
            self.out.write_str(", ")
        }
    }

    /// A child term.
    pub fn term(&mut self, t: &Term) -> fmt::Result {
        self.item()?;
        write_compact(t, self.out)
    }

    /// A text leaf child, `"text"`.
    pub fn text(&mut self, text: &str) -> fmt::Result {
        self.item()?;
        quote(text, self.out)
    }

    /// The child `label["text"]` ([`TermBuilder::field`]).
    pub fn field(&mut self, label: &str, text: &str) -> fmt::Result {
        self.elem(label, true, |w| w.text(text))
    }

    /// The child `label["n"]`, the number written without a `String`
    /// (digits need no escaping).
    pub fn field_u64(&mut self, label: &str, n: u64) -> fmt::Result {
        self.elem(label, true, |w| {
            w.item()?;
            write!(w.out, "\"{n}\"")
        })
    }

    /// A child element, its items written by `body` ([`write_elem`]).
    pub fn elem(
        &mut self,
        label: &str,
        ordered: bool,
        body: impl FnOnce(&mut ElemWriter<'_, W>) -> fmt::Result,
    ) -> fmt::Result {
        self.item()?;
        write_elem(self.out, label, ordered, body)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_compact(self, f)
    }
}

impl Term {
    /// Multi-line, indented rendering for humans.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        fn go(t: &Term, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match t {
                Term::Text(s) => {
                    out.push_str(&pad);
                    quote(s, out).expect("a String sink never fails");
                }
                Term::Elem(e) => {
                    out.push_str(&pad);
                    out.push_str(e.label.as_str());
                    for (k, v) in &e.attrs {
                        out.push_str(" @");
                        out.push_str(k.as_str());
                        out.push('=');
                        quote(v, out).expect("a String sink never fails");
                    }
                    if e.children.is_empty() {
                        if !e.ordered {
                            out.push_str(" {}");
                        }
                        return;
                    }
                    let (open, close) = if e.ordered { ('[', ']') } else { ('{', '}') };
                    out.push(' ');
                    out.push(open);
                    for c in &e.children {
                        out.push('\n');
                        go(c, indent + 1, out);
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    out.push(close);
                }
            }
        }
        go(self, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let t = Term::build("order")
            .unordered()
            .attr("id", "42")
            .field("item", "soccer ball")
            .child(Term::ordered("qty", vec![Term::int(10)]))
            .finish();
        assert_eq!(t.label(), Some("order"));
        assert_eq!(t.attr("id"), Some("42"));
        assert!(!t.is_ordered());
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.children()[1].as_number(), Some(10.0));
        assert_eq!(t.children()[0].text_content(), "soccer ball");
    }

    #[test]
    fn syntactic_equality_is_order_sensitive() {
        let a = Term::unordered("s", vec![Term::text("x"), Term::text("y")]);
        let b = Term::unordered("s", vec![Term::text("y"), Term::text("x")]);
        assert_ne!(a, b); // syntactic
        assert!(a.structurally_equal(&b)); // semantic (multiset)
    }

    #[test]
    fn canonicalize_is_deep() {
        let a = Term::ordered(
            "doc",
            vec![Term::unordered("s", vec![Term::text("b"), Term::text("a")])],
        );
        let b = Term::ordered(
            "doc",
            vec![Term::unordered("s", vec![Term::text("a"), Term::text("b")])],
        );
        assert_eq!(a.canonicalize(), b.canonicalize());
        // but ordered children never reorder
        let c = Term::ordered("doc", vec![Term::text("b"), Term::text("a")]);
        let d = Term::ordered("doc", vec![Term::text("a"), Term::text("b")]);
        assert_ne!(c.canonicalize(), d.canonicalize());
    }

    #[test]
    fn display_compact() {
        let t = Term::build("flight")
            .attr("id", "LH123")
            .field("status", "cancelled")
            .finish();
        assert_eq!(
            t.to_string(),
            "flight[@id=\"LH123\", status[\"cancelled\"]]"
        );
        assert_eq!(Term::elem("br").to_string(), "br");
        assert_eq!(Term::unordered("s", vec![]).to_string(), "s{}");
        assert_eq!(Term::text("a\"b").to_string(), "\"a\\\"b\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(Term::num(3.0).as_text(), Some("3"));
        assert_eq!(Term::num(3.25).as_text(), Some("3.25"));
        assert_eq!(Term::text(" 12.5 ").as_number(), Some(12.5));
        assert_eq!(Term::text("abc").as_number(), None);
        assert_eq!(
            Term::ordered("price", vec![Term::text("9.5")]).as_number(),
            Some(9.5)
        );
        // Multi-child elements have no single numeric value.
        assert_eq!(
            Term::ordered("p", vec![Term::text("1"), Term::text("2")]).as_number(),
            None
        );
    }

    #[test]
    fn functional_edits_share_structure() {
        let shared = Term::ordered("big", vec![Term::text("payload")]);
        let t = Term::ordered("root", vec![shared.clone(), Term::text("x")]);
        let t2 = t.with_child_replaced(1, Term::text("y")).unwrap();
        // The unchanged subtree is literally the same allocation.
        assert!(matches!(
            (&t.children()[0], &t2.children()[0]),
            (Term::Elem(a), Term::Elem(b)) if Arc::ptr_eq(a, b)
        ));
        assert_eq!(t2.children()[1].as_text(), Some("y"));
        // Original untouched.
        assert_eq!(t.children()[1].as_text(), Some("x"));
    }

    #[test]
    fn edit_errors() {
        let t = Term::elem("e");
        assert!(t.with_child_removed(0).is_err());
        assert!(t.with_child_inserted(1, Term::text("x")).is_err());
        assert!(Term::text("t").with_child_pushed(Term::text("x")).is_err());
    }

    #[test]
    fn attrs_edit() {
        let t = Term::elem("e").with_attr("k", "v").unwrap();
        assert_eq!(t.attr("k"), Some("v"));
        let t2 = t.without_attr("k").unwrap();
        assert_eq!(t2.attr("k"), None);
    }

    #[test]
    fn node_count_and_walk() {
        let t = Term::ordered(
            "a",
            vec![Term::ordered("b", vec![Term::text("x")]), Term::text("y")],
        );
        assert_eq!(t.node_count(), 4);
        let nodes = t.walk();
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[0].0.to_string(), "/");
        assert_eq!(nodes[2].0.to_string(), "/0/0");
    }

    #[test]
    fn pretty_renders_nesting() {
        let t = Term::ordered("a", vec![Term::ordered("b", vec![Term::text("x")])]);
        let p = t.pretty();
        assert!(p.contains("a ["));
        assert!(p.contains("  b ["));
        assert!(p.contains("    \"x\""));
    }
}
