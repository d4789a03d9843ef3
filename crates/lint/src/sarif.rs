//! SARIF 2.1.0 output for CI code-scanning upload.
//!
//! Hand-rolled like the JSON writer: one run, the full three-rule table in
//! `tool.driver.rules`, and one `result` per violation with its physical
//! location. The report is sorted before rendering, so two scans of the
//! same tree emit byte-identical SARIF.

use crate::report::{json_str, Report};
use crate::rules::RULES;

/// Short description per rule, indexed like [`RULES`].
const RULE_HELP: [&str; 3] = [
    "TraceSink::emit must be passed the live clock, not a stored timestamp.",
    "Ns addition/multiplication in sched/fabric/rdma/timeline must be saturating_ or checked_.",
    "Calendar schedule times must derive from now/config, never literals or host clocks.",
];

/// Renders the report as a SARIF 2.1.0 log with a single run.
pub fn to_sarif(report: &Report) -> String {
    let mut sorted = report.clone();
    sorted.sort();
    let mut s = String::new();
    s.push_str("{\n  \"version\": \"2.1.0\",\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"dilos-lint\",\n");
    s.push_str("          \"version\": \"3.0.0\",\n");
    s.push_str("          \"informationUri\": \"https://example.invalid/dilos-lint\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, (code, slug)) in RULES.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str("            {\"id\": ");
        json_str(&mut s, slug);
        s.push_str(", \"name\": ");
        json_str(&mut s, code);
        s.push_str(", \"shortDescription\": {\"text\": ");
        json_str(&mut s, RULE_HELP[i]);
        s.push_str("}}");
    }
    s.push_str("\n          ]\n        }\n      },\n");
    s.push_str("      \"results\": [");
    for (i, v) in sorted.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|(code, _)| *code == v.rule)
            .unwrap_or(0);
        s.push_str("\n        {\"ruleId\": ");
        json_str(&mut s, v.id);
        s.push_str(&format!(", \"ruleIndex\": {rule_index}"));
        s.push_str(", \"level\": \"error\", \"message\": {\"text\": ");
        json_str(&mut s, &v.message);
        s.push_str("}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ");
        json_str(&mut s, &v.file);
        s.push_str(&format!(
            "}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            v.line
        ));
    }
    if !sorted.violations.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Violation;

    #[test]
    fn sarif_lists_all_rules_and_locates_results() {
        let mut r = Report {
            files_scanned: 1,
            ..Default::default()
        };
        r.violations.push(Violation {
            file: "crates/sim/src/x.rs".into(),
            line: 7,
            rule: "R8",
            id: "ns-arithmetic-safety",
            message: "unchecked `+`".into(),
        });
        let s = to_sarif(&r);
        assert!(s.contains("\"version\": \"2.1.0\""));
        for (_, slug) in RULES.iter() {
            assert!(s.contains(&format!("\"id\": \"{slug}\"")), "missing {slug}");
        }
        assert!(s.contains("\"ruleIndex\": 1"));
        assert!(s.contains("\"uri\": \"crates/sim/src/x.rs\""));
        assert!(s.contains("\"startLine\": 7"));
    }

    #[test]
    fn empty_report_has_empty_results() {
        let s = to_sarif(&Report::default());
        assert!(s.contains("\"results\": []"));
    }
}
