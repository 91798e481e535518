//! `qni-lint` — workspace static analysis enforcing the determinism and
//! numerical-soundness contracts.
//!
//! The repo's core asset is a contract no general-purpose tool checks:
//! **every seeded run is byte-reproducible at any `--shards`/`--chains`
//! configuration**. That only holds if library code never consults the
//! wall clock or the OS entropy pool, never iterates a hash-ordered
//! collection, never compares floats exactly, and never panics instead
//! of returning an error. Those rules used to be re-audited by hand
//! every PR; this crate machine-checks them on every commit.
//!
//! # Architecture
//!
//! - [`lexer`]: a hand-rolled Rust lexer (no `syn` — the build
//!   environment has no crates.io access) whose job is to be exactly
//!   right about what is code and what is a string/char/comment.
//! - [`tree`]: a brace-matched structure skeleton (functions, spawn
//!   closures, struct fields) built over the token stream — the layer
//!   that lets the R/P/F families reason about *where* a token sits,
//!   still with no external parser.
//! - [`rules`]: the rule catalog (stable IDs, severities, rationale)
//!   and the D/N/E token scanners plus the flow-aware R (seed flow),
//!   P (parallel phase), and F (fingerprint coverage) scanners.
//! - [`directives`]: inline `// qni-lint: allow(RULE) — reason`
//!   suppressions; the reason is mandatory and stale directives are
//!   themselves violations (per rule-list entry, so a half-dead
//!   multi-rule allow is flagged for exactly its dead entries).
//! - [`config`]: per-crate scoping — which rule families apply to which
//!   crate is policy in one place, not scattered allows.
//! - [`engine`]: walks sources (in sorted order: the linter itself obeys
//!   the determinism contract), applies scanners and suppressions,
//!   assembles a [`report::LintReport`].
//! - [`budget`]: the checked-in suppression budget (`lint.toml`) — a
//!   per-rule ceiling on allow directives, so reviewed exceptions
//!   cannot silently accumulate.
//!
//! # Example
//!
//! ```
//! use qni_lint::config::{CrateConfig, FamilySet};
//! use qni_lint::engine::lint_source;
//! use qni_lint::rules::RuleId;
//!
//! let krate = CrateConfig { name: "demo", src: "src", families: FamilySet::LIBRARY };
//! let (diags, _) = lint_source(&krate, "src/demo.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, RuleId::E001);
//! assert_eq!((diags[0].line, diags[0].col), (1, 33));
//! ```

pub mod budget;
pub mod config;
pub mod directives;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod tree;

pub use budget::SuppressionBudget;
pub use engine::{lint_paths, lint_source, lint_source_full, lint_workspace};
pub use report::{Diagnostic, LintReport};
pub use rules::{RuleId, Severity};
