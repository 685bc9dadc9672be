//! Report rendering: human-readable terminal output and a machine-readable
//! JSON document for the CI artifact.
//!
//! The JSON writer is hand-rolled (string escaping per RFC 8259 for the
//! subset we emit) to keep the linter dependency-free. The document shape:
//!
//! ```json
//! {
//!   "files_scanned": 42,
//!   "violations": [ {"rule": "E001", "file": "…", "line": 7,
//!                    "message": "…", "waived": null}, … ]
//! }
//! ```

use crate::rules::Violation;

/// Escapes a string for embedding in a JSON document.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the full machine-readable report.
pub fn to_json(files_scanned: usize, violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"violations\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let waived = match &v.waived {
            Some(reason) => json_str(reason),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}}}{}\n",
            json_str(v.rule),
            json_str(&v.file),
            v.line,
            json_str(&v.message),
            waived,
            if i + 1 < violations.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the human-readable summary printed to stdout.
pub fn to_text(files_scanned: usize, violations: &[Violation]) -> String {
    let mut out = String::new();
    let active: Vec<&Violation> = violations.iter().filter(|v| v.waived.is_none()).collect();
    let waived = violations.len() - active.len();
    for v in &active {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    out.push_str(&format!(
        "scfs-lint: {} files scanned, {} active violations ({} waived)\n",
        files_scanned,
        active.len(),
        waived
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_document_is_well_formed_for_empty_and_nonempty_inputs() {
        let empty = to_json(0, &[]);
        assert!(empty.contains("\"violations\": [\n  ]"));
        let v = Violation {
            rule: "E001",
            file: "a.rs".to_string(),
            line: 3,
            message: "said \"no\"".to_string(),
            waived: None,
        };
        let doc = to_json(1, &[v]);
        assert!(doc.contains("\\\"no\\\""));
        // No trailing commas before the closing brackets.
        assert!(!doc.contains(",\n  ]"));
    }

    #[test]
    fn text_summary_counts_waived_separately() {
        let vs = vec![
            Violation {
                rule: "E001",
                file: "a.rs".to_string(),
                line: 3,
                message: "m".to_string(),
                waived: Some("ok".to_string()),
            },
            Violation {
                rule: "E002",
                file: "a.rs".to_string(),
                line: 4,
                message: "m".to_string(),
                waived: None,
            },
        ];
        let text = to_text(1, &vs);
        assert!(text.contains("1 active violations (1 waived)"));
        assert!(text.contains("a.rs:4: E002"));
        assert!(!text.contains("a.rs:3: E001"));
    }
}
