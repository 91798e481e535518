//! `qni-lint` — CI entry point.
//!
//! ```console
//! $ qni-lint                        # lint the whole workspace
//! $ qni-lint crates/core            # restrict to paths under a prefix
//! $ qni-lint --json report.json     # also write the machine report
//! $ qni-lint --root /path/to/repo   # explicit workspace root
//! $ qni-lint --rules                # print the rule catalog
//! ```
//!
//! Unfiltered runs also enforce the suppression budget (`lint.toml` at
//! the workspace root, when present): the run fails if any rule's allow
//! directives exceed its budgeted ceiling. Path-filtered runs see only
//! a slice of the suppressions and skip the check.
//!
//! Exit code 0 when clean, 1 on any unsuppressed violation or budget
//! overrun, 2 when the run itself failed (bad flag, unreadable file).

use qni_lint::budget::SuppressionBudget;
use qni_lint::config::find_workspace_root;
use qni_lint::rules::RuleId;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
qni-lint — determinism & numerical-soundness static analysis

USAGE:
  qni-lint [--root DIR] [--json FILE] [--rules] [path-prefix…]";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                root = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--root needs a value")?,
                ));
                i += 2;
            }
            "--json" => {
                json_out = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--json needs a value")?,
                ));
                i += 2;
            }
            "--rules" => {
                print_rules();
                return Ok(true);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => {
                filters.push(path.to_owned());
                i += 1;
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd)
                .ok_or_else(|| "could not find the workspace root; pass --root DIR".to_owned())?
        }
    };
    let report = if filters.is_empty() {
        qni_lint::lint_workspace(&root)
    } else {
        qni_lint::lint_paths(&root, &filters)
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = &json_out {
        let json = report.render_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.render_human());
    let mut clean = !report.has_errors();
    // Budget enforcement: full-workspace runs only (a filtered run
    // under-counts suppressions by construction).
    if filters.is_empty() {
        if let Some(budget) = SuppressionBudget::load(&root).map_err(|e| e.to_string())? {
            for v in budget.check(&report) {
                println!("qni-lint: over budget — {v}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

fn print_rules() {
    println!("{:<10} {:<9} summary", "rule", "severity");
    for rule in RuleId::ALL {
        println!(
            "{:<10} {:<9} {}",
            rule.as_str(),
            match rule.severity() {
                qni_lint::Severity::Error => "error",
                qni_lint::Severity::Warning => "warning",
            },
            rule.summary()
        );
        println!("{:21}{}", "", rule.rationale());
    }
}
