//! # reweb-term — data substrate for reactive rules on the Web
//!
//! This crate provides everything the higher layers of `reweb` treat as
//! "Web data" (Thesis 4 of Bry & Eckert's *Twelve Theses on Reactive Rules
//! for the Web*, EDBT 2006):
//!
//! * [`Sym`] — process-wide interned symbols: labels, attribute names, and
//!   variable names compare and hash as integers while still printing and
//!   sorting as strings.
//! * [`Term`] — an immutable, structurally shared, semi-structured data model
//!   standing in for XML: elements with ordered (`[...]`) or unordered
//!   (`{...}`) children, string attributes, and text leaves.
//! * A compact, round-trippable textual syntax ([`parse_term`] / `Display`),
//!   read from bytes by the one-pass [`decode()`] and written without building
//!   a term by [`write_elem`] — the codec under the log and the wire.
//! * [`Path`]s for addressing nodes inside documents, with functional edits
//!   ([`apply_edit`]) that never mutate shared structure.
//! * [`identity`] — the two identity regimes of Thesis 10: *extensional*
//!   (structural hash) and *surrogate* (key attributes / node ids).
//! * [`diff`] — change detection between document versions under either
//!   identity regime (what a polling observer must do, Theses 3 and 10).
//! * [`ResourceStore`] — versioned, URI-addressed persistent documents, the
//!   "persistent data" half of Thesis 4's persistent/volatile split.
//! * [`frame`] — length- and CRC32-framed append-only records with
//!   torn-tail detection, the byte substrate of the durability layer
//!   (`reweb_persist`'s write-ahead log and snapshots).
//! * [`Timestamp`]/[`Dur`] — the virtual clock shared by every crate, which
//!   keeps the entire system deterministic.
//!
//! Everything downstream (queries, events, updates, the ECA engine, the Web
//! simulator) builds on these types.

#![warn(missing_docs)]

pub mod attrs;
pub mod decode;
pub mod diff;
pub mod error;
pub mod frame;
pub mod identity;
pub mod lex;
pub mod parser;
pub mod path;
pub mod store;
pub mod sym;
pub mod term;
pub mod time;

pub use attrs::Attrs;
pub use decode::{decode, decode_uncapped, MAX_NESTING};
pub use diff::{diff_documents, Change};
pub use error::TermError;
pub use frame::{crc32, scan_frames, FrameScan, TailState};
pub use identity::{ext_id, fnv1a, IdentityMode};
pub use parser::parse_term;
pub use path::{apply_edit, node_at, Path, PathEdit};
pub use store::ResourceStore;
pub use sym::{Sym, SymHasher, SymMap};
pub use term::{write_elem, Children, ElemWriter, Element, Term, TermBuilder, INLINE_CHILDREN};
pub use time::{Dur, Timestamp};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TermError>;
