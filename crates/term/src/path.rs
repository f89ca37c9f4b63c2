//! Paths: addressing nodes inside documents.
//!
//! A [`Path`] is a sequence of child indexes from the document root. The
//! query matcher records the path of every matched node so that update
//! actions (Thesis 8) can address exactly the matched targets, and the diff
//! module (Thesis 10) can report *where* a change happened.
//!
//! Because terms are immutable, "editing at a path" ([`apply_edit`]) returns
//! a new root that shares all untouched structure with the old one.

use std::fmt;

use crate::error::TermError;
use crate::term::Term;

/// Child-index path from a document root. The empty path is the root itself.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path(Vec<usize>);

impl Path {
    /// The empty path (the document root).
    pub fn root() -> Path {
        Path(Vec::new())
    }

    /// A path from explicit child indexes.
    pub fn new(ixs: Vec<usize>) -> Path {
        Path(ixs)
    }

    /// The child indexes, root-to-leaf.
    pub fn indexes(&self) -> &[usize] {
        &self.0
    }

    /// Number of steps from the root.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Path of this node's parent, or `None` at the root.
    pub fn parent(&self) -> Option<Path> {
        if self.0.is_empty() {
            None
        } else {
            Some(Path(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Index of this node within its parent, or `None` at the root.
    pub fn last_index(&self) -> Option<usize> {
        self.0.last().copied()
    }

    /// Extend by one child step.
    pub fn child(&self, idx: usize) -> Path {
        let mut v = self.0.clone();
        v.push(idx);
        Path(v)
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("/");
        }
        for ix in &self.0 {
            write!(f, "/{ix}")?;
        }
        Ok(())
    }
}

/// Resolve a path to the node it addresses.
pub fn node_at<'t>(root: &'t Term, path: &Path) -> Option<&'t Term> {
    let mut cur = root;
    for &ix in &path.0 {
        cur = cur.children().get(ix)?;
    }
    Some(cur)
}

/// An edit applied at a path (see [`apply_edit`]).
#[derive(Clone, Debug, PartialEq)]
pub enum PathEdit {
    /// Replace the addressed node.
    Replace(Term),
    /// Delete the addressed node (invalid at the root).
    Delete,
    /// Insert a child of the addressed element before index `at`
    /// (`at == len` appends).
    InsertChild {
        /// Insertion index among the element's children.
        at: usize,
        /// The child to insert.
        node: Term,
    },
    /// Append a child to the addressed element.
    AppendChild(Term),
    /// Set an attribute on the addressed element.
    SetAttr {
        /// Attribute name.
        key: String,
        /// Attribute value.
        value: String,
    },
    /// Remove an attribute from the addressed element.
    RemoveAttr(String),
}

/// Apply `edit` at `path` in `root`, returning the new root.
///
/// Structure outside the root-to-`path` spine is shared with the input.
pub fn apply_edit(root: &Term, path: &Path, edit: PathEdit) -> Result<Term, TermError> {
    fn rec(node: &Term, rest: &[usize], edit: PathEdit) -> Result<Option<Term>, TermError> {
        match rest.split_first() {
            None => match edit {
                PathEdit::Replace(t) => Ok(Some(t)),
                PathEdit::Delete => Ok(None),
                PathEdit::InsertChild { at, node: n } => Ok(Some(node.with_child_inserted(at, n)?)),
                PathEdit::AppendChild(n) => Ok(Some(node.with_child_pushed(n)?)),
                PathEdit::SetAttr { key, value } => Ok(Some(node.with_attr(key, value)?)),
                PathEdit::RemoveAttr(key) => Ok(Some(node.without_attr(&key)?)),
            },
            Some((&ix, tail)) => {
                let child = node
                    .children()
                    .get(ix)
                    .ok_or_else(|| TermError::PathNotFound(format!("index {ix} out of range")))?;
                match rec(child, tail, edit)? {
                    Some(new_child) => Ok(Some(node.with_child_replaced(ix, new_child)?)),
                    None => Ok(Some(node.with_child_removed(ix)?)),
                }
            }
        }
    }
    match rec(root, &path.0, edit)? {
        Some(t) => Ok(t),
        None => Err(TermError::InvalidEdit(
            "cannot delete the document root".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Term {
        // root[ a[ "x" ], b[ "y", "z" ] ]
        Term::ordered(
            "root",
            vec![
                Term::ordered("a", vec![Term::text("x")]),
                Term::ordered("b", vec![Term::text("y"), Term::text("z")]),
            ],
        )
    }

    #[test]
    fn navigation() {
        let d = doc();
        assert_eq!(node_at(&d, &Path::root()), Some(&d));
        assert_eq!(
            node_at(&d, &Path::new(vec![1, 0])).and_then(Term::as_text),
            Some("y")
        );
        assert_eq!(node_at(&d, &Path::new(vec![2])), None);
        assert_eq!(node_at(&d, &Path::new(vec![0, 0, 0])), None);
    }

    #[test]
    fn path_algebra() {
        let p = Path::new(vec![1, 0]);
        assert_eq!(p.parent(), Some(Path::new(vec![1])));
        assert_eq!(p.last_index(), Some(0));
        assert_eq!(p.to_string(), "/1/0");
        assert_eq!(Path::root().to_string(), "/");
        assert!(Path::new(vec![1]).is_prefix_of(&p));
        assert!(!Path::new(vec![0]).is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
        assert_eq!(Path::root().parent(), None);
    }

    #[test]
    fn replace_at_path() {
        let d = doc();
        let d2 = apply_edit(
            &d,
            &Path::new(vec![0, 0]),
            PathEdit::Replace(Term::text("X")),
        )
        .unwrap();
        assert_eq!(
            node_at(&d2, &Path::new(vec![0, 0])).and_then(Term::as_text),
            Some("X")
        );
        // sibling subtree untouched & shared
        assert_eq!(d.children()[1], d2.children()[1]);
    }

    #[test]
    fn delete_at_path() {
        let d = doc();
        let d2 = apply_edit(&d, &Path::new(vec![1, 0]), PathEdit::Delete).unwrap();
        assert_eq!(d2.children()[1].children().len(), 1);
        assert_eq!(d2.children()[1].children()[0].as_text(), Some("z"));
        // deleting the root is rejected
        assert!(apply_edit(&d, &Path::root(), PathEdit::Delete).is_err());
    }

    #[test]
    fn insert_and_append() {
        let d = doc();
        let d2 = apply_edit(
            &d,
            &Path::new(vec![1]),
            PathEdit::InsertChild {
                at: 1,
                node: Term::text("mid"),
            },
        )
        .unwrap();
        let texts: Vec<_> = d2.children()[1]
            .children()
            .iter()
            .filter_map(Term::as_text)
            .collect();
        assert_eq!(texts, vec!["y", "mid", "z"]);

        let d3 = apply_edit(&d, &Path::root(), PathEdit::AppendChild(Term::elem("c"))).unwrap();
        assert_eq!(d3.children().len(), 3);
        assert_eq!(d3.children()[2].label(), Some("c"));
    }

    #[test]
    fn attr_edits() {
        let d = doc();
        let d2 = apply_edit(
            &d,
            &Path::new(vec![0]),
            PathEdit::SetAttr {
                key: "id".into(),
                value: "a1".into(),
            },
        )
        .unwrap();
        assert_eq!(d2.children()[0].attr("id"), Some("a1"));
        let d3 = apply_edit(&d2, &Path::new(vec![0]), PathEdit::RemoveAttr("id".into())).unwrap();
        assert_eq!(d3.children()[0].attr("id"), None);
    }

    #[test]
    fn bad_paths_error() {
        let d = doc();
        assert!(apply_edit(&d, &Path::new(vec![9]), PathEdit::Delete).is_err());
        // Edits that need an element fail on text nodes.
        assert!(apply_edit(
            &d,
            &Path::new(vec![0, 0]),
            PathEdit::AppendChild(Term::text("q"))
        )
        .is_err());
    }
}
