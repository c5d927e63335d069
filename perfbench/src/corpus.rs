//! The frozen corpus: program sources and the hand-written known answers.
//!
//! Everything here is read from `perfbench/corpus/`, never from
//! `crates/bench/src/corpus`, so an edit to the repository's own corpus
//! cannot silently change a workload.

use std::path::Path;

use cpcf::{ExportAnalysis, ModuleReport};

/// The two variants of every program, in the order they are analysed.
pub const VARIANTS: [&str; 2] = ["correct", "faulty"];

/// The known answer for one variant (see `corpus/answers.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// No counterexample exists: `ok` or `budget` match.
    NoCex,
    /// A validated counterexample exists.
    Cex,
    /// The paper reports no counterexample either: `probable` or `budget` match.
    Probable,
}

impl Answer {
    fn parse(text: &str) -> Option<Answer> {
        match text {
            "nocex" => Some(Answer::NoCex),
            "cex" => Some(Answer::Cex),
            "probable" => Some(Answer::Probable),
            _ => None,
        }
    }

    /// True when `verdict` agrees with this answer.
    pub fn matches(self, verdict: Verdict) -> bool {
        match self {
            Answer::NoCex => matches!(verdict, Verdict::Ok | Verdict::Budget),
            Answer::Cex => verdict == Verdict::Cex,
            Answer::Probable => matches!(verdict, Verdict::Probable | Verdict::Budget),
        }
    }

    /// True when `verdict` is a failed operation: a crash, a parse error, a
    /// validated counterexample for a program known to have none, or a
    /// verification of a program known to have one. An undecided verdict
    /// (`budget`, `probable`) is a mismatch but never a failure.
    pub fn is_failure(self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Panic | Verdict::ParseError => true,
            Verdict::Cex => self == Answer::NoCex,
            Verdict::Ok => self == Answer::Cex,
            _ => false,
        }
    }
}

/// The aggregate verdict of one variant over all of its exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every export verified.
    Ok,
    /// Some export ran out of budget, none reported anything stronger.
    Budget,
    /// Some export has an unconfirmed violation.
    Probable,
    /// Some export reported a counterexample that failed validation.
    UnvalidatedCex,
    /// Some export has a validated counterexample.
    Cex,
    /// The source did not parse.
    ParseError,
    /// The analysis panicked.
    Panic,
}

impl Verdict {
    /// The short marker printed in per-row output.
    pub fn marker(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Budget => "budget",
            Verdict::Probable => "probable",
            Verdict::UnvalidatedCex => "cex?",
            Verdict::Cex => "cex",
            Verdict::ParseError => "parse!",
            Verdict::Panic => "panic!",
        }
    }

    /// `ok` or a validated `cex`.
    pub fn is_decided(self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Cex)
    }

    /// The strongest export verdict of a module report.
    pub fn of_report(report: &ModuleReport) -> Verdict {
        report
            .exports
            .iter()
            .map(|(_, export)| match export {
                ExportAnalysis::Verified => Verdict::Ok,
                ExportAnalysis::Exhausted => Verdict::Budget,
                ExportAnalysis::ProbableError(_) => Verdict::Probable,
                ExportAnalysis::Counterexample(cex) if cex.validated => Verdict::Cex,
                ExportAnalysis::Counterexample(_) => Verdict::UnvalidatedCex,
            })
            .max()
            .unwrap_or(Verdict::Ok)
    }
}

/// One corpus program in both variants.
#[derive(Debug, Clone)]
pub struct Program {
    /// `group/name`, unique across the corpus.
    pub key: String,
    /// One of the four rows that dominate a cold pass.
    pub heavy: bool,
    /// Source text, indexed like [`VARIANTS`].
    pub sources: [String; 2],
    /// Known answers, indexed like [`VARIANTS`].
    pub answers: [Answer; 2],
}

/// Loads every program listed in `dir/answers.txt`, in listed order.
pub fn load(dir: &Path) -> Result<Vec<Program>, String> {
    let manifest_path = dir.join("answers.txt");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut programs = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [key, weight, correct, faulty] = fields[..] else {
            return Err(format!("malformed answers line: {line}"));
        };
        let heavy = match weight {
            "heavy" => true,
            "light" => false,
            _ => return Err(format!("unknown weight {weight:?} for {key}")),
        };
        let answer = |text: &str| {
            Answer::parse(text).ok_or_else(|| format!("unknown answer {text:?} for {key}"))
        };
        let answers = [answer(correct)?, answer(faulty)?];
        let read = |variant: &str| {
            let path = dir.join(format!("{key}.{variant}.rkt"));
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let sources = [read(VARIANTS[0])?, read(VARIANTS[1])?];
        programs.push(Program {
            key: key.to_string(),
            heavy,
            sources,
            answers,
        });
    }
    if programs.is_empty() {
        return Err(format!("{} lists no programs", manifest_path.display()));
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_corpus_loads_and_parses() {
        let programs = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")).expect("loads");
        assert_eq!(programs.len(), 41);
        assert_eq!(programs.iter().filter(|p| p.heavy).count(), 4);
        for program in &programs {
            for source in &program.sources {
                cpcf::parse_program(source).unwrap_or_else(|e| panic!("{}: {e}", program.key));
            }
        }
    }

    #[test]
    fn undecided_verdicts_mismatch_without_failing() {
        for verdict in [Verdict::Budget, Verdict::Probable, Verdict::UnvalidatedCex] {
            assert!(!Answer::Cex.matches(verdict));
            assert!(!Answer::Cex.is_failure(verdict));
        }
        assert!(Answer::NoCex.matches(Verdict::Budget));
        assert!(Answer::Probable.matches(Verdict::Budget));
    }

    #[test]
    fn wrong_answers_and_crashes_fail() {
        assert!(Answer::NoCex.is_failure(Verdict::Cex));
        assert!(Answer::Cex.is_failure(Verdict::Ok));
        assert!(Answer::Probable.is_failure(Verdict::Panic));
        assert!(Answer::NoCex.is_failure(Verdict::ParseError));
        assert!(!Answer::Probable.is_failure(Verdict::Cex));
    }
}
