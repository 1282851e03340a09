//! The `netlist_lint` command-line front end, as a library so the
//! exit-code contract is unit-testable.
//!
//! Exit codes are a contract (CI and editor integrations branch on
//! them):
//!
//! * [`EXIT_CLEAN`] (0) — the run completed and the report is clean;
//! * [`EXIT_FINDINGS`] (1) — the run completed and found problems (any
//!   error finding, or any warning under `--deny warnings`);
//! * [`EXIT_INTERNAL`] (2) — the tool itself failed: bad usage, a
//!   design that does not lower, or an unwritable report path. An
//!   internal failure never masquerades as a verdict.

use std::fmt::Write as _;

use ifc_check::prover::{ProveOptions, Search};
use ifc_check::{prove_findings, run_static_passes, LintConfig, PassId, Severity};

/// The run completed and the report is clean.
pub const EXIT_CLEAN: u8 = 0;
/// The run completed and the report has findings.
pub const EXIT_FINDINGS: u8 = 1;
/// The tool failed before producing a verdict (usage, lowering, IO).
pub const EXIT_INTERNAL: u8 = 2;

const USAGE: &str = "usage: netlist_lint \
    [--design protected|baseline|annotated|trojaned] \
    [--deny warnings] [--no-crosscheck] [--seed N] \
    [--prove] [--prove-k N] [--prove-out PATH.json] \
    [--severity <pass>=<error|warning|info>]... \
    [--out PATH.json] [--sarif PATH.sarif]";

enum CliError {
    Usage(String),
    Internal(String),
}

struct Cli {
    design: String,
    deny_warnings: bool,
    crosscheck: bool,
    seed: u64,
    prove: bool,
    prove_k: u32,
    prove_out: Option<String>,
    cfg: LintConfig,
    out: Option<String>,
    sarif: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut cli = Cli {
        design: "protected".to_string(),
        deny_warnings: false,
        crosscheck: true,
        seed: 2019,
        prove: false,
        prove_k: ProveOptions::default().k,
        prove_out: None,
        cfg: LintConfig::new(),
        out: None,
        sarif: None,
    };
    let usage = |what: &str| CliError::Usage(format!("{what}\n{USAGE}"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--design" => cli.design = value()?,
            "--deny" => match value()?.as_str() {
                "warnings" => cli.deny_warnings = true,
                other => return Err(usage(&format!("cannot deny '{other}'"))),
            },
            "--no-crosscheck" => cli.crosscheck = false,
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| usage("--seed needs an integer"))?;
            }
            "--prove" => cli.prove = true,
            "--prove-k" => {
                cli.prove_k = value()?
                    .parse()
                    .map_err(|_| usage("--prove-k needs an integer"))?;
            }
            "--prove-out" => cli.prove_out = Some(value()?),
            "--severity" => {
                let spec = value()?;
                let Some((pass_key, level)) = spec.split_once('=') else {
                    return Err(usage("--severity needs <pass>=<level>"));
                };
                let pass = PassId::ALL.into_iter().find(|p| p.key() == pass_key);
                let (Some(pass), Some(severity)) = (pass, Severity::from_key(level)) else {
                    return Err(usage(&format!("unknown pass or level in '{spec}'")));
                };
                cli.cfg = cli.cfg.with_severity(pass, severity);
            }
            "--out" => cli.out = Some(value()?),
            "--sarif" => cli.sarif = Some(value()?),
            other => return Err(usage(&format!("unknown argument '{other}'"))),
        }
    }
    Ok(cli)
}

fn run_inner(args: &[String], stdout: &mut String) -> Result<bool, CliError> {
    let cli = parse(args)?;
    let design = match cli.design.as_str() {
        "protected" => accel::protected(),
        "baseline" => accel::baseline(),
        "annotated" => accel::baseline_annotated(),
        "trojaned" => accel::trojaned(accel::Protection::Full),
        other => {
            return Err(CliError::Usage(format!(
                "unknown design '{other}'\n{USAGE}"
            )))
        }
    };
    let net = design
        .lower()
        .map_err(|e| CliError::Internal(format!("'{}' does not lower: {e:?}", cli.design)))?;

    let mut report = run_static_passes(Some(&design), &net, &cli.cfg);
    if cli.crosscheck {
        let outcome = accel::crosscheck::crosscheck_campaign(&net, cli.seed, &cli.cfg);
        report
            .passes
            .push(PassId::LabelCrosscheck.key().to_string());
        let _ = writeln!(
            stdout,
            "label-crosscheck: {} seeded sessions, {} finding(s)",
            outcome.sessions,
            outcome.findings.len()
        );
        report.findings.extend(outcome.findings);
    }
    if cli.prove {
        let opts = ProveOptions {
            k: cli.prove_k,
            ..ProveOptions::default()
        };
        let (findings, prove_report) = prove_findings(&net, &cli.cfg, &opts);
        report.passes.push(PassId::Prove.key().to_string());
        let _ = writeln!(
            stdout,
            "prove: {} observable(s) at k={}, {} proved, {} counterexample(s) \
             ({} by simulation, {} by sat), {} conflicts",
            prove_report.results.len(),
            cli.prove_k,
            prove_report
                .results
                .iter()
                .filter(|r| r.verdict.is_proved())
                .count(),
            prove_report.counterexamples().len(),
            prove_report.found_by(Search::Simulation),
            prove_report.found_by(Search::Sat),
            prove_report.stats.conflicts
        );
        let _ = writeln!(stdout, "prove phases: {}", prove_report.timings);
        report.findings.extend(findings);
        if let Some(path) = &cli.prove_out {
            std::fs::write(path, prove_report.to_json().render())
                .map_err(|e| CliError::Internal(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(stdout, "prover report written to {path}");
        }
    }

    let _ = write!(stdout, "{report}");
    let _ = writeln!(
        stdout,
        "netlist_lint: {} pass(es), {} error(s), {} warning(s) on '{}'",
        report.passes.len(),
        report.count_at(Severity::Error),
        report.count_at(Severity::Warning),
        cli.design
    );

    if let Some(path) = &cli.out {
        std::fs::write(path, report.to_json().render())
            .map_err(|e| CliError::Internal(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(stdout, "report written to {path}");
    }
    if let Some(path) = &cli.sarif {
        std::fs::write(path, report.to_sarif().render())
            .map_err(|e| CliError::Internal(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(stdout, "SARIF written to {path}");
    }

    Ok(report.is_clean(cli.deny_warnings))
}

/// Runs the lint CLI against `args` (without the program name), writing
/// human output to stdout/stderr, and returns the contract exit code.
#[must_use]
pub fn run(args: &[String]) -> u8 {
    let mut stdout = String::new();
    let code = match run_inner(args, &mut stdout) {
        Ok(true) => {
            let _ = writeln!(stdout, "netlist_lint: OK");
            EXIT_CLEAN
        }
        Ok(false) => {
            eprintln!("netlist_lint: FAIL — report is not clean");
            EXIT_FINDINGS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("netlist_lint: {msg}");
            EXIT_INTERNAL
        }
        Err(CliError::Internal(msg)) => {
            eprintln!("netlist_lint: internal error: {msg}");
            EXIT_INTERNAL
        }
    };
    print!("{stdout}");
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn clean_run_exits_zero() {
        let code = run(&args(&["--design", "protected", "--no-crosscheck"]));
        assert_eq!(code, EXIT_CLEAN);
    }

    #[test]
    fn findings_exit_one() {
        // The ablated-but-annotated control has unreviewed release
        // paths; they are error findings, not tool failures.
        let code = run(&args(&["--design", "annotated", "--no-crosscheck"]));
        assert_eq!(code, EXIT_FINDINGS);
    }

    #[test]
    fn internal_errors_exit_two() {
        // Unknown flags and unknown designs are usage failures.
        assert_eq!(run(&args(&["--frobnicate"])), EXIT_INTERNAL);
        assert_eq!(
            run(&args(&["--design", "nonesuch", "--no-crosscheck"])),
            EXIT_INTERNAL
        );
        // An unwritable report path is an IO failure, not a verdict.
        let code = run(&args(&[
            "--design",
            "protected",
            "--no-crosscheck",
            "--out",
            "/nonexistent-dir/report.json",
        ]));
        assert_eq!(code, EXIT_INTERNAL);
    }

    #[test]
    fn severity_override_can_silence_findings() {
        let code = run(&args(&[
            "--design",
            "annotated",
            "--no-crosscheck",
            "--severity",
            "dead-logic=info",
            "--severity",
            "secret-timing=info",
            "--severity",
            "downgrade-audit=info",
        ]));
        assert_eq!(code, EXIT_CLEAN);
    }
}
