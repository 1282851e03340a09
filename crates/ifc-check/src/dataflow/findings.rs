//! Machine-readable lint findings: severities, the per-run report, and
//! its two serialisations through the workspace's one JSON codec
//! ([`hdl::json`]) — the round-trippable `LINT_REPORT.json` schema and
//! SARIF 2.1.0 output so code hosts can annotate findings in pull
//! requests.

use std::fmt;

use hdl::json::Json;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: surfaced, never fails a run.
    Info,
    /// Suspicious: fails a run only under `--deny warnings`.
    Warning,
    /// A defect: always fails the run.
    Error,
}

impl Severity {
    /// Stable key used in JSON (`"info"` / `"warning"` / `"error"`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a key back (for JSON round-tripping).
    #[must_use]
    pub fn from_key(key: &str) -> Option<Severity> {
        [Severity::Info, Severity::Warning, Severity::Error]
            .into_iter()
            .find(|s| s.key() == key)
    }

    /// The SARIF `level` for this severity.
    #[must_use]
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced it (stable kebab-case pass key).
    pub pass: String,
    /// How serious it is.
    pub severity: Severity,
    /// The location, when one exists: a node/port/memory name or id.
    pub node: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity, self.pass)?;
        if let Some(node) = &self.node {
            write!(f, " at {node}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything one lint run produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// The analysed design's name.
    pub design: String,
    /// Pass keys that ran, in order.
    pub passes: Vec<String>,
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Findings at exactly `severity`.
    #[must_use]
    pub fn count_at(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// All error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Whether the run passes: no errors, and under `deny_warnings` no
    /// warnings either (info findings never fail a run).
    #[must_use]
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.count_at(Severity::Error) == 0
            && (!deny_warnings || self.count_at(Severity::Warning) == 0)
    }

    /// Serialises to the stable JSON schema (`LINT_REPORT.json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("pass", Json::Str(f.pass.clone())),
                    ("severity", Json::Str(f.severity.key().into())),
                    ("node", f.node.clone().map_or(Json::Null, Json::Str)),
                    ("message", Json::Str(f.message.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("design", Json::Str(self.design.clone())),
            (
                "passes",
                Json::Arr(self.passes.iter().cloned().map(Json::Str).collect()),
            ),
            ("errors", Json::U64(self.count_at(Severity::Error) as u64)),
            (
                "warnings",
                Json::U64(self.count_at(Severity::Warning) as u64),
            ),
            ("findings", Json::Arr(findings)),
        ])
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem. Unknown
    /// fields are ignored (the derived `errors`/`warnings` counters are
    /// recomputed, not trusted).
    pub fn from_json(text: &str) -> Result<LintReport, String> {
        let root = Json::parse(text)?;
        if !matches!(root, Json::Obj(_)) {
            return Err("report must be a JSON object".into());
        }
        let design = root.field_as("design", Json::as_str)?.to_owned();
        let passes = root
            .field_as("passes", Json::as_arr)?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "'passes' entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let findings = root
            .field_as("findings", Json::as_arr)?
            .iter()
            .map(|o| {
                if !matches!(o, Json::Obj(_)) {
                    return Err("finding must be an object".to_string());
                }
                let sev = o.field_as("severity", Json::as_str)?;
                Ok(Finding {
                    pass: o.field_as("pass", Json::as_str)?.to_owned(),
                    severity: Severity::from_key(sev)
                        .ok_or_else(|| format!("unknown severity '{sev}'"))?,
                    node: match o.field("node")? {
                        Json::Null => None,
                        Json::Str(s) => Some(s.clone()),
                        _ => return Err("'node' must be a string or null".into()),
                    },
                    message: o.field_as("message", Json::as_str)?.to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let report = LintReport {
            design,
            passes,
            findings,
        };
        // The derived counters are recomputed from the findings, but when
        // present they must be integers that agree — anything else means
        // the report was edited by hand or truncated in transit.
        for (key, severity) in [("errors", Severity::Error), ("warnings", Severity::Warning)] {
            if root.get(key).is_some() {
                let claimed = root.field_as(key, Json::as_u64)?;
                let actual = report.count_at(severity) as u64;
                if claimed != actual {
                    return Err(format!(
                        "'{key}' counter claims {claimed} but the findings contain {actual}"
                    ));
                }
            }
        }
        Ok(report)
    }

    /// Serialises to SARIF 2.1.0 — one run, one rule per pass, one
    /// result per finding, with the node name as a logical location.
    #[must_use]
    pub fn to_sarif(&self) -> Json {
        let rules = self
            .passes
            .iter()
            .map(|p| Json::obj(vec![("id", Json::Str(p.clone()))]))
            .collect();
        let results = self
            .findings
            .iter()
            .map(|f| {
                let mut result = vec![
                    ("ruleId", Json::Str(f.pass.clone())),
                    ("level", Json::Str(f.severity.sarif_level().into())),
                    (
                        "message",
                        Json::obj(vec![("text", Json::Str(f.message.clone()))]),
                    ),
                ];
                if let Some(n) = &f.node {
                    let logical = Json::obj(vec![
                        ("name", Json::Str(n.clone())),
                        (
                            "fullyQualifiedName",
                            Json::Str(format!("{}.{n}", self.design)),
                        ),
                    ]);
                    result.push((
                        "locations",
                        Json::Arr(vec![Json::obj(vec![(
                            "logicalLocations",
                            Json::Arr(vec![logical]),
                        )])]),
                    ));
                }
                Json::obj(result)
            })
            .collect();
        let driver = Json::obj(vec![
            ("name", Json::Str("netlist_lint".into())),
            (
                "informationUri",
                Json::Str("https://example.invalid/netlist_lint".into()),
            ),
            ("rules", Json::Arr(rules)),
        ]);
        let run = Json::obj(vec![
            ("tool", Json::obj(vec![("driver", driver)])),
            ("results", Json::Arr(results)),
        ]);
        Json::obj(vec![
            (
                "$schema",
                Json::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
            ),
            ("version", Json::Str("2.1.0".into())),
            ("runs", Json::Arr(vec![run])),
        ])
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} pass(es), {} error(s), {} warning(s), {} info",
            self.design,
            self.passes.len(),
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Info)
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            design: "protected".into(),
            passes: vec!["comb-cycle".into(), "secret-timing".into()],
            findings: vec![
                Finding {
                    pass: "secret-timing".into(),
                    severity: Severity::Error,
                    node: Some("ctl.advance".into()),
                    message: "control cone reaches \"secret\" input\nvia pipe.tag0".into(),
                },
                Finding {
                    pass: "comb-cycle".into(),
                    severity: Severity::Info,
                    node: None,
                    message: "netlist is acyclic".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let text = report.to_json().render();
        assert_eq!(LintReport::from_json(&text).expect("parses"), report);
        // A present counter must be an integer equal to the finding count.
        assert!(text.contains("\"errors\":1"), "{text}");
        for bad in [
            "\"errors\":0.0",
            "\"errors\":1.0",
            "\"errors\":-1",
            "\"errors\":2",
        ] {
            let edited = text.replace("\"errors\":1", bad);
            assert!(LintReport::from_json(&edited).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn sarif_is_parseable_and_carries_every_finding() {
        let report = sample();
        let sarif = report.to_sarif().render();
        let root = Json::parse(&sarif).expect("SARIF is valid JSON");
        assert_eq!(root.field_as("version", Json::as_str).unwrap(), "2.1.0");
        let runs = root.field_as("runs", Json::as_arr).unwrap();
        let results = runs[0].field_as("results", Json::as_arr).unwrap();
        assert_eq!(results.len(), report.findings.len());
        let levels: Vec<&str> = results
            .iter()
            .map(|r| r.field_as("level", Json::as_str).unwrap())
            .collect();
        assert_eq!(levels, vec!["error", "note"]);
    }

    #[test]
    fn clean_rules() {
        let mut r = sample();
        assert!(!r.is_clean(false));
        r.findings.remove(0);
        assert!(r.is_clean(true), "info findings never fail a run");
        r.findings.push(Finding {
            pass: "dead-logic".into(),
            severity: Severity::Warning,
            node: None,
            message: "unlabelled input".into(),
        });
        assert!(r.is_clean(false));
        assert!(!r.is_clean(true));
    }
}
