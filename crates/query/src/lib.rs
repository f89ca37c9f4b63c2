//! # reweb-query — an Xcerpt-style Web query language
//!
//! Thesis 7 of *Twelve Theses on Reactive Rules for the Web*: a reactive
//! language "should embed or build upon a Web query language" rather than
//! reinvent one. This crate is that embedded language, a reimplementation of
//! the published core of **Xcerpt** (Schaffert & Bry 2004), the query
//! language XChange builds on:
//!
//! * [`QueryTerm`] — patterns with variables (`var X`, `var X as p`),
//!   descendant matching (`desc p`), subterm negation (`without p`),
//!   total `[…]`/`{…}` vs partial `[[…]]`/`{{…}}`, and ordered `[…]` vs
//!   unordered `{…}` child matching.
//! * [`matcher`] — *simulation* matching: a query term matches a data term
//!   if the data simulates the pattern; answers are sets of
//!   [`Bindings`] (the "notion of answers" Thesis 7 asks for).
//! * [`ConstructTerm`] — build new data from bindings, with grouping
//!   (`all … group by …`) and aggregation (`count/sum/avg/min/max`).
//! * [`expr`] — arithmetic and comparisons over bindings, shared with event
//!   queries (Thesis 5) and the rule language's `WHERE` parts.
//! * [`DeductiveRule`]s — views over Web data (Thesis 9's "deductive rules
//!   for … Web queries"), evaluated bottom-up to a fixpoint; recursion is
//!   supported with an iteration cap, negation only against non-recursive
//!   sources.
//! * [`QueryEngine`] — evaluates [`Condition`]s (conjunctions of possibly
//!   negated query atoms plus comparisons) against a resource store and
//!   registered views. Event bindings *parameterize* conditions: this is the
//!   event→condition variable flow Thesis 7 calls out.

#![warn(missing_docs)]

pub mod ast;
pub mod bindings;
pub mod compiled;
pub mod construct;
pub mod engine;
pub mod expr;
pub mod matcher;
pub mod parser;
pub mod rules;

pub use ast::{AttrPattern, LabelPattern, QueryElem, QueryTerm};
pub use bindings::Bindings;
pub use compiled::{
    compile_pattern, AlphaNetwork, AlphaTest, CandidateIndex, EventShape, GuardTest,
    InterpretedIndex, Registration,
};
pub use construct::{construct, AggFn, AttrValue, ConstructTerm};
pub use engine::{Condition, QueryAtom, QueryEngine};
pub use expr::{BinOp, Cmp, CmpOp, EvalError, Expr, Val};
pub use matcher::{match_anywhere, match_at, match_each, Match};
pub use parser::{parse_cmp, parse_condition, parse_construct_term, parse_expr, parse_query_term};
pub use rules::DeductiveRule;

pub use reweb_term::TermError;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TermError>;
