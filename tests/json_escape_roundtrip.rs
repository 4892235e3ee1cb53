//! Property test: the report writer's JSON string escaping round-trips
//! through its own parser for arbitrary Unicode content.
//!
//! The journal and report paths put workload names, scenario specs and
//! error messages — arbitrary text — into JSON strings, and a resumed
//! sweep reads them back (`Journal::open`). A character
//! the writer escapes wrongly (or the parser unescapes wrongly) would
//! silently corrupt resumed results, so `Json::Str(s)` must survive
//! `render_compact` → `parse` for *any* `s`, not just the tame names in
//! the curated suites.
//!
//! The vendored proptest shim has no `String` strategy, so strings are
//! built from `Vec<u16>` code units via `from_utf16_lossy` — which
//! deliberately produces plenty of the interesting cases: quotes,
//! backslashes, raw control characters (escaped as `\uXXXX`), and
//! non-BMP replacement churn from unpaired surrogates.

use arvi_bench::Json;
use proptest::prelude::*;

/// Arbitrary strings biased toward escape-relevant characters: ASCII
/// code units (dense in `"`, `\` and control chars) interleaved with
/// unconstrained UTF-16 code units.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<u16>(), any::<bool>()), 0..64).prop_map(|units| {
        let units: Vec<u16> = units
            .into_iter()
            .map(|(u, ascii)| if ascii { u % 0x80 } else { u })
            .collect();
        String::from_utf16_lossy(&units)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn string_value_round_trips(s in any_string()) {
        let doc = Json::Str(s.clone());
        let compact = doc.render_compact();
        // The journal stores one record per line: escaping must keep
        // every value single-line regardless of embedded newlines.
        prop_assert!(!compact.contains('\n'), "compact output spans lines: {compact:?}");
        let back = Json::parse(&compact)
            .unwrap_or_else(|e| panic!("reparse failed: {e} on {compact:?}"));
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn object_keys_and_values_round_trip(key in any_string(), val in any_string()) {
        // Keys go through the same escaping path as values; a nested
        // object exercises both plus the array writer.
        let doc = Json::Obj(vec![
            (key.clone(), Json::Str(val.clone())),
            ("nested".to_string(), Json::Arr(vec![Json::Str(key), Json::Str(val)])),
        ]);
        let compact = doc.render_compact();
        prop_assert!(!compact.contains('\n'));
        let back = Json::parse(&compact)
            .unwrap_or_else(|e| panic!("reparse failed: {e} on {compact:?}"));
        prop_assert_eq!(back, doc.clone());
        // The pretty renderer shares the escaping code; it must agree.
        let pretty = Json::parse(&doc.render())
            .unwrap_or_else(|e| panic!("pretty reparse failed: {e}"));
        prop_assert_eq!(pretty, doc);
    }
}

/// The specific characters the writer special-cases, pinned exactly.
#[test]
fn known_escapes_render_as_expected() {
    let s = "a\"b\\c\nd\re\tf\u{1}g€\u{10348}";
    let compact = Json::Str(s.to_string()).render_compact();
    assert_eq!(
        compact, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g€\u{10348}\"",
        "escaping changed: {compact}"
    );
    assert_eq!(Json::parse(&compact).unwrap(), Json::Str(s.to_string()));
}
