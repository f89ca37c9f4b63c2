//! Construct terms: building new data from query answers.
//!
//! The output half of a deductive rule, of a `DETECT` event rule, and of
//! `SEND`/`INSERT` actions. A construct term is a term skeleton with:
//!
//! * `var X` — splice in the bound term;
//! * `text var X` — splice in the bound term's text content as a text leaf;
//! * `eval(expr)` — a computed value as a text leaf;
//! * `all ct [group by var G, …]` — iterate over the answer set, emitting
//!   one instance of `ct` per group (Xcerpt's `all`);
//! * aggregates `count(var X)`, `sum(var X)`, `avg(var X)`, `min(var X)`,
//!   `max(var X)` — folded over the bindings of the enclosing group.
//!
//! [`construct`] applies a construct term to an *answer set*: the bindings
//! are partitioned by the values of the variables used outside `all`, and
//! one output term is produced per partition.

use std::collections::BTreeMap;
use std::fmt;

use reweb_term::{Sym, Term, TermError};

use crate::bindings::Bindings;
use crate::expr::{EvalError, Expr};

/// Aggregation functions usable inside construct terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Number of distinct bound terms.
    Count,
    /// Sum of the numeric values.
    Sum,
    /// Arithmetic mean of the numeric values.
    Avg,
    /// Smallest numeric value.
    Min,
    /// Largest numeric value.
    Max,
}

impl AggFn {
    /// The surface-syntax name (`count`, `sum`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Avg => "avg",
            AggFn::Min => "min",
            AggFn::Max => "max",
        }
    }

    /// Parse a surface-syntax name back into the function.
    pub fn from_name(s: &str) -> Option<AggFn> {
        Some(match s {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "avg" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            _ => return None,
        })
    }

    /// Fold over the numeric values of `var` across `group`.
    /// `Count` counts *distinct bound terms*; the numeric folds skip
    /// non-numeric bindings.
    pub fn apply(self, var: impl Into<Sym>, group: &[Bindings]) -> Result<f64, EvalError> {
        let var = var.into();
        if self == AggFn::Count {
            let mut seen: Vec<&Term> = group.iter().filter_map(|b| b.get_sym(var)).collect();
            seen.sort();
            seen.dedup();
            return Ok(seen.len() as f64);
        }
        let nums: Vec<f64> = group
            .iter()
            .filter_map(|b| b.get_sym(var).and_then(Term::as_number))
            .collect();
        if nums.is_empty() {
            return Err(EvalError(format!(
                "aggregate {} over empty/non-numeric {var}",
                self.name()
            )));
        }
        Ok(match self {
            AggFn::Count => unreachable!(),
            AggFn::Sum => nums.iter().sum(),
            AggFn::Avg => nums.iter().sum::<f64>() / nums.len() as f64,
            AggFn::Min => nums.iter().cloned().fold(f64::INFINITY, f64::min),
            AggFn::Max => nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

/// Attribute value in a construct term.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// A literal attribute value.
    Str(String),
    /// `@k=var X` — the text content of the bound term.
    Var(Sym),
}

/// A construct term.
#[derive(Clone, Debug, PartialEq)]
pub enum ConstructTerm {
    /// An output element.
    Elem {
        /// Element label.
        label: Sym,
        /// `[…]` (true) vs `{…}` (false) in the output term.
        ordered: bool,
        /// Attributes to emit, literal or variable-valued.
        attrs: Vec<(Sym, AttrValue)>,
        /// Child construct terms, instantiated in order.
        children: Vec<ConstructTerm>,
    },
    /// A literal text leaf.
    Text(String),
    /// `var X` — splice the bound term.
    Var(Sym),
    /// `text var X` — the bound term's text content as a text leaf.
    TextOf(Sym),
    /// `eval(e)` — computed value as a text leaf.
    Calc(Expr),
    /// `all ct group by (vars)` — one instance of `ct` per group.
    All {
        /// Template instantiated once per group.
        inner: Box<ConstructTerm>,
        /// Variables whose valuations partition the answers.
        group_by: Vec<Sym>,
    },
    /// Aggregate over the enclosing group.
    Agg(AggFn, Sym),
}

impl ConstructTerm {
    /// Convenience: an element builder.
    pub fn elem(label: impl Into<Sym>) -> ConstructBuilder {
        ConstructBuilder {
            label: label.into(),
            ordered: true,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Convenience: `var X`.
    pub fn var(name: impl Into<Sym>) -> ConstructTerm {
        ConstructTerm::Var(name.into())
    }

    /// Convenience: a literal text leaf.
    pub fn text(s: impl Into<String>) -> ConstructTerm {
        ConstructTerm::Text(s.into())
    }

    /// Variables used *outside* any `all` — these drive the top-level
    /// grouping in [`construct`]. Sorted by name.
    pub fn outer_variables(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        fn go(ct: &ConstructTerm, out: &mut Vec<Sym>) {
            match ct {
                ConstructTerm::Var(x) | ConstructTerm::TextOf(x) => out.push(*x),
                ConstructTerm::Calc(e) => out.extend(e.variables()),
                ConstructTerm::Agg(_, _) => {}
                ConstructTerm::All { .. } => {}
                ConstructTerm::Text(_) => {}
                ConstructTerm::Elem {
                    attrs, children, ..
                } => {
                    for (_, a) in attrs {
                        if let AttrValue::Var(x) = a {
                            out.push(*x);
                        }
                    }
                    for c in children {
                        go(c, out);
                    }
                }
            }
        }
        go(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Instantiate for one group of bindings (all agreeing on the outer
    /// variables; singular positions use the first binding).
    pub fn instantiate(&self, group: &[Bindings]) -> Result<Term, TermError> {
        let first = group
            .first()
            .ok_or_else(|| TermError::InvalidEdit("construct over empty answer set".into()))?;
        match self {
            ConstructTerm::Text(s) => Ok(Term::text(s.clone())),
            ConstructTerm::Var(x) => first
                .get_sym(*x)
                .cloned()
                .ok_or_else(|| TermError::InvalidEdit(format!("unbound variable {x} in construct"))),
            ConstructTerm::TextOf(x) => first
                .get_sym(*x)
                .map(|t| Term::text(t.text_content()))
                .ok_or_else(|| TermError::InvalidEdit(format!("unbound variable {x} in construct"))),
            ConstructTerm::Calc(e) => {
                let v = e
                    .eval(first)
                    .map_err(|e| TermError::InvalidEdit(e.to_string()))?;
                Ok(Term::text(v.as_str()))
            }
            ConstructTerm::Agg(f, x) => {
                let v = f
                    .apply(*x, group)
                    .map_err(|e| TermError::InvalidEdit(e.to_string()))?;
                Ok(Term::num(v))
            }
            ConstructTerm::All { inner, group_by } => Err(TermError::InvalidEdit(format!(
                "`all {inner} group by {group_by:?}` cannot appear at the top level of a construct term"
            ))),
            ConstructTerm::Elem {
                label,
                ordered,
                attrs,
                children,
            } => {
                let mut b = Term::build(*label);
                if !ordered {
                    b = b.unordered();
                }
                for (k, a) in attrs {
                    let v = match a {
                        AttrValue::Str(s) => s.clone(),
                        AttrValue::Var(x) => first
                            .get_sym(*x)
                            .map(|t| t.text_content())
                            .ok_or_else(|| {
                                TermError::InvalidEdit(format!(
                                    "unbound variable {x} in construct attribute"
                                ))
                            })?,
                    };
                    b = b.attr(*k, v);
                }
                for c in children {
                    match c {
                        ConstructTerm::All { inner, group_by } => {
                            for sub in partition(group, group_by, inner) {
                                b = b.child(inner.instantiate(&sub)?);
                            }
                        }
                        other => {
                            b = b.child(other.instantiate(group)?);
                        }
                    }
                }
                Ok(b.finish())
            }
        }
    }
}

/// Split a group into subgroups for an `all`: by the explicit `group by`
/// variables if given, otherwise by the inner term's outer variables (so
/// duplicates collapse, Xcerpt-style).
fn partition(group: &[Bindings], group_by: &[Sym], inner: &ConstructTerm) -> Vec<Vec<Bindings>> {
    let keys: Vec<Sym> = if group_by.is_empty() {
        inner.outer_variables()
    } else {
        group_by.to_vec()
    };
    let mut parts: BTreeMap<Bindings, Vec<Bindings>> = BTreeMap::new();
    for b in group {
        parts.entry(b.project(&keys)).or_default().push(b.clone());
    }
    parts.into_values().collect()
}

/// Apply a construct term to an answer set: one output term per distinct
/// valuation of the outer variables.
pub fn construct(ct: &ConstructTerm, answers: &[Bindings]) -> Result<Vec<Term>, TermError> {
    // A single answer is its own (only) group — the per-answer calls of
    // DETECT derivation take this path.
    if answers.len() <= 1 {
        return answers
            .iter()
            .map(|b| ct.instantiate(std::slice::from_ref(b)))
            .collect();
    }
    let outer = ct.outer_variables();
    let mut parts: BTreeMap<Bindings, Vec<Bindings>> = BTreeMap::new();
    for b in answers {
        parts.entry(b.project(&outer)).or_default().push(b.clone());
    }
    parts
        .into_values()
        .map(|group| ct.instantiate(&group))
        .collect()
}

/// Builder for element construct terms.
#[derive(Clone, Debug)]
pub struct ConstructBuilder {
    label: Sym,
    ordered: bool,
    attrs: Vec<(Sym, AttrValue)>,
    children: Vec<ConstructTerm>,
}

impl ConstructBuilder {
    /// Emit an unordered (`{…}`) element.
    pub fn unordered(mut self) -> Self {
        self.ordered = false;
        self
    }

    /// Emit attribute `k` with the literal value `v`.
    pub fn attr(mut self, k: impl Into<Sym>, v: impl Into<String>) -> Self {
        self.attrs.push((k.into(), AttrValue::Str(v.into())));
        self
    }

    /// Emit attribute `k` with the text content of `var`'s binding.
    pub fn attr_var(mut self, k: impl Into<Sym>, var: impl Into<Sym>) -> Self {
        self.attrs.push((k.into(), AttrValue::Var(var.into())));
        self
    }

    /// Append a child construct term.
    pub fn child(mut self, c: ConstructTerm) -> Self {
        self.children.push(c);
        self
    }

    /// Convenience: child `label[ var X ]`.
    pub fn field_var(self, label: impl Into<Sym>, var: impl Into<Sym>) -> Self {
        self.child(ConstructTerm::Elem {
            label: label.into(),
            ordered: true,
            attrs: Vec::new(),
            children: vec![ConstructTerm::Var(var.into())],
        })
    }

    /// Convenience: child `label[ "text" ]`.
    pub fn field_text(self, label: impl Into<Sym>, text: impl Into<String>) -> Self {
        self.child(ConstructTerm::Elem {
            label: label.into(),
            ordered: true,
            attrs: Vec::new(),
            children: vec![ConstructTerm::Text(text.into())],
        })
    }

    /// Finish building, yielding the element construct term.
    pub fn finish(self) -> ConstructTerm {
        ConstructTerm::Elem {
            label: self.label,
            ordered: self.ordered,
            attrs: self.attrs,
            children: self.children,
        }
    }
}

impl fmt::Display for ConstructTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructTerm::Text(s) => write!(f, "{s:?}"),
            ConstructTerm::Var(x) => write!(f, "var {x}"),
            ConstructTerm::TextOf(x) => write!(f, "text var {x}"),
            ConstructTerm::Calc(e) => write!(f, "eval({e})"),
            ConstructTerm::Agg(a, x) => write!(f, "{}(var {x})", a.name()),
            ConstructTerm::All { inner, group_by } => {
                write!(f, "all {inner}")?;
                match group_by.as_slice() {
                    [] => {}
                    [g] => write!(f, " group by var {g}")?,
                    many => {
                        write!(f, " group by (")?;
                        for (i, g) in many.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "var {g}")?;
                        }
                        write!(f, ")")?;
                    }
                }
                Ok(())
            }
            ConstructTerm::Elem {
                label,
                ordered,
                attrs,
                children,
            } => {
                f.write_str(label.as_str())?;
                if attrs.is_empty() && children.is_empty() {
                    if !ordered {
                        f.write_str("{}")?;
                    }
                    return Ok(());
                }
                let (open, close) = if *ordered { ("[", "]") } else { ("{", "}") };
                f.write_str(open)?;
                let mut first = true;
                for (k, a) in attrs {
                    if !first {
                        f.write_str(", ")?;
                    }
                    first = false;
                    match a {
                        AttrValue::Str(s) => write!(f, "@{k}={s:?}")?,
                        AttrValue::Var(x) => write!(f, "@{k}=var {x}")?,
                    }
                }
                for c in children {
                    if !first {
                        f.write_str(", ")?;
                    }
                    first = false;
                    write!(f, "{c}")?;
                }
                f.write_str(close)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;

    fn b(pairs: &[(&str, &str)]) -> Bindings {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), parse_term(v).unwrap()))
            .collect()
    }

    #[test]
    fn splice_and_text_of() {
        let ct = ConstructTerm::elem("out")
            .child(ConstructTerm::var("X"))
            .child(ConstructTerm::TextOf("X".into()))
            .finish();
        let t = ct.instantiate(&[b(&[("X", "price[\"9.5\"]")])]).unwrap();
        assert_eq!(t.to_string(), "out[price[\"9.5\"], \"9.5\"]");
    }

    #[test]
    fn unbound_variable_errors() {
        let ct = ConstructTerm::elem("out")
            .field_var("v", "Missing")
            .finish();
        assert!(ct.instantiate(&[Bindings::new()]).is_err());
    }

    #[test]
    fn calc_computes() {
        use crate::expr::{BinOp, Expr};
        let ct = ConstructTerm::elem("total")
            .child(ConstructTerm::Calc(Expr::bin(
                Expr::var("P"),
                BinOp::Mul,
                Expr::Num(2.0),
            )))
            .finish();
        let t = ct.instantiate(&[b(&[("P", "\"3.5\"")])]).unwrap();
        assert_eq!(t.text_content(), "7");
    }

    #[test]
    fn all_iterates_groups() {
        let ct = ConstructTerm::elem("list")
            .child(ConstructTerm::All {
                inner: Box::new(
                    ConstructTerm::elem("item")
                        .child(ConstructTerm::var("X"))
                        .finish(),
                ),
                group_by: vec![],
            })
            .finish();
        let answers = vec![
            b(&[("X", "\"a\"")]),
            b(&[("X", "\"b\"")]),
            b(&[("X", "\"a\"")]), // duplicate collapses
        ];
        let t = ct.instantiate(&answers).unwrap();
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.to_string(), "list[item[\"a\"], item[\"b\"]]");
    }

    #[test]
    fn aggregates() {
        let answers = vec![
            b(&[("P", "\"1\""), ("C", "\"x\"")]),
            b(&[("P", "\"2\""), ("C", "\"y\"")]),
            b(&[("P", "\"3\""), ("C", "\"x\"")]),
        ];
        assert_eq!(AggFn::Sum.apply("P", &answers).unwrap(), 6.0);
        assert_eq!(AggFn::Avg.apply("P", &answers).unwrap(), 2.0);
        assert_eq!(AggFn::Min.apply("P", &answers).unwrap(), 1.0);
        assert_eq!(AggFn::Max.apply("P", &answers).unwrap(), 3.0);
        // count counts distinct terms
        assert_eq!(AggFn::Count.apply("C", &answers).unwrap(), 2.0);
        assert!(AggFn::Sum.apply("C", &[b(&[("C", "\"x\"")])]).is_err());
    }

    #[test]
    fn construct_groups_by_outer_vars() {
        // One output per customer, each listing their orders.
        let ct = ConstructTerm::elem("summary")
            .field_var("customer", "C")
            .child(ConstructTerm::All {
                inner: Box::new(
                    ConstructTerm::elem("order")
                        .child(ConstructTerm::var("O"))
                        .finish(),
                ),
                group_by: vec![],
            })
            .child(ConstructTerm::Agg(AggFn::Count, "O".into()))
            .finish();
        let answers = vec![
            b(&[("C", "\"ann\""), ("O", "\"o1\"")]),
            b(&[("C", "\"ann\""), ("O", "\"o2\"")]),
            b(&[("C", "\"bob\""), ("O", "\"o3\"")]),
        ];
        let out = construct(&ct, &answers).unwrap();
        assert_eq!(out.len(), 2);
        let ann = &out[0];
        assert_eq!(ann.children()[0].text_content(), "ann");
        assert_eq!(
            ann.children()
                .iter()
                .filter(|c| c.label() == Some("order"))
                .count(),
            2
        );
        // count aggregate per group
        assert_eq!(ann.children().last().unwrap().as_text(), Some("2"));
    }

    #[test]
    fn construct_empty_answers_is_empty() {
        let ct = ConstructTerm::elem("x").finish();
        assert!(construct(&ct, &[]).unwrap().is_empty());
    }

    #[test]
    fn explicit_group_by() {
        // Group orders by customer inside one document.
        let ct = ConstructTerm::elem("report")
            .child(ConstructTerm::All {
                inner: Box::new(
                    ConstructTerm::elem("cust")
                        .field_var("name", "C")
                        .child(ConstructTerm::Agg(AggFn::Count, "O".into()))
                        .finish(),
                ),
                group_by: vec!["C".into()],
            })
            .finish();
        let answers = vec![
            b(&[("C", "\"ann\""), ("O", "\"o1\"")]),
            b(&[("C", "\"ann\""), ("O", "\"o2\"")]),
            b(&[("C", "\"bob\""), ("O", "\"o3\"")]),
        ];
        let out = construct(&ct, &answers).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].children().len(), 2);
    }
}
