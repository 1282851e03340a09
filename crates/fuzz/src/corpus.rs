//! The checked-in corpus: minimized witnesses replayed as a
//! deterministic regression suite.
//!
//! A corpus entry is one [`FuzzInput`] JSON document. The filename
//! carries the expectation:
//!
//! * `bad-*.json` — a minimized **known-bad witness** (e.g. the seeded
//!   annotation spoof). Replaying it must *still fail* invariant 1: if
//!   it ever passes, the cross-check lost the detection and the gate
//!   turns red.
//! * anything else — an interesting input that must keep **both**
//!   invariants while reproducing its recorded coverage.
//!
//! Entries replay in filename order, so corpus coverage fingerprints are
//! stable across machines.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use hdl::json::Json;

use crate::coverage::CoverageMap;
use crate::input::FuzzInput;
use crate::pipeline::run_input;
use crate::replay::ProtectedReplayer;

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Filename (relative, e.g. `bad-spoof.json`).
    pub name: String,
    /// The decoded input.
    pub input: FuzzInput,
}

impl CorpusEntry {
    /// Whether the filename marks this entry as a known-bad witness.
    #[must_use]
    pub fn expects_failure(&self) -> bool {
        self.name.starts_with("bad-")
    }
}

/// Loads every `*.json` entry of a corpus directory, sorted by name.
///
/// # Errors
///
/// I/O problems or the first malformed entry (with its filename).
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            name.ends_with(".json").then_some(name)
        })
        .collect();
    names.sort();

    let mut entries = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let input = FuzzInput::from_json(&doc).map_err(|e| format!("{name}: {e}"))?;
        entries.push(CorpusEntry { name, input });
    }
    Ok(entries)
}

/// Writes one witness into a corpus/witness directory (pretty-stable
/// compact JSON plus a trailing newline for clean diffs).
///
/// # Errors
///
/// I/O problems, with the path in the message.
pub fn store_entry(dir: &Path, name: &str, input: &FuzzInput) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let mut text = input.to_json().render();
    text.push('\n');
    fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The result of replaying a corpus.
#[derive(Debug, Clone)]
pub struct CorpusReplay {
    /// Entries replayed.
    pub entries: usize,
    /// Coverage the corpus alone reaches.
    pub coverage: CoverageMap,
    /// Kill-stage histogram over the corpus.
    pub kills: BTreeMap<String, usize>,
    /// Expectation mismatches: clean entries that broke an invariant, or
    /// known-bad witnesses the stack no longer catches.
    pub mismatches: Vec<String>,
}

impl CorpusReplay {
    /// Whether every entry matched its expectation.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Replays corpus entries through the full pipeline.
#[must_use]
pub fn replay_corpus(entries: &[CorpusEntry], replayer: &ProtectedReplayer) -> CorpusReplay {
    let mut replay = CorpusReplay {
        entries: entries.len(),
        coverage: CoverageMap::new(),
        kills: BTreeMap::new(),
        mismatches: Vec::new(),
    };
    for entry in entries {
        let report = run_input(&entry.input, replayer);
        replay.coverage.absorb(&report.coverage.events);
        *replay
            .kills
            .entry(report.kill.key().to_owned())
            .or_insert(0) += 1;
        if entry.expects_failure() {
            if report.invariant1.is_empty() {
                replay.mismatches.push(format!(
                    "{}: known-bad witness no longer fails the cross-check",
                    entry.name
                ));
            }
        } else if !report.invariants_hold() {
            replay.mismatches.push(format!(
                "{}: corpus entry broke an invariant: {:?} {:?}",
                entry.name, report.invariant1, report.invariant2
            ));
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::gen_input;

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("fuzz-corpus-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = gen_input(11);
        let b = gen_input(22);
        store_entry(&dir, "b-entry.json", &b).expect("store");
        store_entry(&dir, "a-entry.json", &a).expect("store");
        let loaded = load_corpus(&dir).expect("load");
        assert_eq!(loaded.len(), 2);
        // Sorted by name, independent of store order.
        assert_eq!(loaded[0].name, "a-entry.json");
        assert_eq!(loaded[0].input, a);
        assert_eq!(loaded[1].input, b);
        assert!(!loaded[0].expects_failure());
        let _ = fs::remove_dir_all(&dir);
    }
}
